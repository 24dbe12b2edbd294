"""Experiment kinds behind the CLI, and the one path that persists them.

Each kind is a private function ``(cfg, out_dir, workers) -> Outcome``.
It executes its sweep cells (concurrently when asked -- every cell draws
from its own seed stream, so scheduling cannot change results) and
returns records, summary, flags, CSV rows and plot data.
``run_experiment`` is the only writer of results: it writes the
schema-checked CSVs (each row a dict projected onto the columns
registered in ``io.CSV_SCHEMAS``) and the plot files, then the
ResultBundle, last.  Every file is written atomically.  It first removes
an earlier run's ``bundle.json`` and ``aborted.json``, so a
``bundle.json`` on disk means the latest run finished.  The finetune
checkpoints and the action-check path CSV are per-kind artifacts
written while the kind runs.

Domain failures inside a cell (diverged training, an ensemble that
never converges) flag that cell and the sweep continues; programming
errors propagate and abort the run.

Every kind steps ``diffusion``; the other science modules are imported
by the functions that use them, so a run loads only what its kind runs
(an action-check never loads ``tasks``, ``complexity`` or ``rates``).
"""

import contextlib
import dataclasses
import functools
import json
import math
import os
import time

import numpy as np

from .. import diffusion
from .._version import __version__
from ..errors import ContractError, NumericalError, SimulationError, TrainingDivergedError
from ..rng import stream
from .bundle import ResultBundle, timing_stamp
from .config import (
    build_model,
    build_sgd,
    build_trainer,
    check_potential,
    parse_config,
)
from .io import CSV_SCHEMAS, PlotSet, canonical_json, write_atomic, write_csv, write_path_csv

# spawn-path tags under the experiment seed; one tag per purpose keeps
# every consumer on a provably disjoint stream
_DATA, _CORRUPT, _TRAIN, _CELL, _NOISE = 1, 2, 3, 4, 5

_DOMAIN_ERRORS = (ContractError, NumericalError, SimulationError, TrainingDivergedError)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one experiment kind produced, before anything is written."""

    records: list
    summary: dict
    flags: dict = dataclasses.field(default_factory=dict)
    csvs: dict = dataclasses.field(default_factory=dict)  # registered CSV name -> row dicts
    plots: list = dataclasses.field(default_factory=list)  # (file, columns, rows)
    timing: dict = dataclasses.field(default_factory=dict)  # extra timing_stamp fields


def _sub_seed(seed, *path):
    """Derive an independent integer seed for a library call."""
    return int(stream(seed, *path).integers(1 << 62))


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _sweep(fn, cells, workers):
    """Run ``fn`` over (flag key, args) pairs in order; returns (records, flags).

    A cell that raises a domain error is flagged under its key and the
    sweep continues.  A list of pairs rather than a dict, because a grid
    may repeat a value.
    """
    pool = None
    if workers > 1 and len(cells) > 1:
        # imported here: it pulls in multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
    records, flags = [], {}
    with pool or contextlib.nullcontext():
        calls = [pool.submit(fn, a).result if pool else functools.partial(fn, a) for _, a in cells]
        for (key, _), call in zip(cells, calls):
            try:
                records.append(call())
            except _DOMAIN_ERRORS as exc:
                flags[key] = f"{type(exc).__name__}: {exc}"
    return records, flags


def _plot(fname, rows, *columns):
    """A plot entry whose columns are fields of the row dicts."""
    return fname, list(columns), [tuple(r[c] for c in columns) for r in rows]


def _ranks(v):
    """1-based ranks, ties given their average rank (scipy's rankdata)."""
    s = np.sort(v)
    return 0.5 * (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1)


def _spearman(xs, ys):
    """scipy.stats.spearmanr's statistic; None for constant or NaN input."""
    a = np.column_stack((xs, ys)).astype(float)
    if len(a) < 3 or np.isnan(a).any() or (a == a[0]).all(axis=0).any():
        return None
    ranks = np.column_stack([_ranks(col) for col in a.T])
    return _finite_or_none(np.corrcoef(ranks, rowvar=False)[1, 0])


# -- shared task construction --------------------------------------------------


def _base_dataset(params, seed):
    from .. import tasks

    model = build_model(params["model"])
    d = params["data"]
    data = tasks.generate_blobs(
        model.n_classes, d["n_samples"], model.input_dim, d["separation"], _sub_seed(seed, _DATA)
    )
    return model, data


def _spec_dataset(params, seed, k):
    """Dataset for task-spec k: base blobs, class subset, label noise.

    Every spec in a family corrupts through the same stream, so two specs
    that differ only in corruption level share corrupted rows: the family
    is nested by construction, not just in expectation.
    """
    from .. import tasks

    model, data = _base_dataset(params, seed)
    spec = params["tasks"][k]
    if spec["keep_classes"] is not None:
        data = tasks.subset_classes(data, spec["keep_classes"])
    if spec["corruption"] > 0:
        data = tasks.corrupt_labels(data, spec["corruption"], _sub_seed(seed, _CORRUPT))
    return model, data


# restarts for the loss-floor estimate: a single descent can land in a shallow
# basin and skew the convergence threshold for its whole cell
_FLOOR_RESTARTS = 4


def _threshold_point(task, trainer, extra, name):
    """Convergence threshold: estimated minimum loss plus a margin."""
    from .. import complexity

    W, converged, _ = complexity.train_minimizers(task, trainer, _FLOOR_RESTARTS, name=name)
    return _floor(task, W, converged, extra)


def _floor(task, W, converged, extra):
    """(threshold, minimum loss, converged, minimizer) from the restarts W.

    The lowest final loss wins, the earliest restart on ties.
    """
    from .. import tasks

    losses = tasks.loss_many(task, W)
    r = int(np.argmin(losses))
    return float(losses[r] + extra), float(losses[r]), bool(converged[r]), W[r]


# -- kramers-sweep -------------------------------------------------------------


def _kramers_group(args):
    """One ``first_passage_many`` call over the grid points ks.

    Returns, per point, its record or the domain error that point raised.
    """
    params, seed, ks = args
    grid = params["d_grid"]
    try:
        pot = check_potential(params["potential"])
        cells = [
            diffusion.DiffusionParams(
                D=grid[k], dt=params["dt"], max_steps=params["max_steps"], seed=_sub_seed(seed, _CELL, k)
            )
            for k in ks
        ]
        outs = diffusion.first_passage_many(
            pot, np.array(params["w0"]), np.array(params["target"]), params["radius"], cells,
            params["n_runs"],
        )
    except _DOMAIN_ERRORS as exc:
        return [exc] * len(ks)
    return [out if isinstance(out, Exception) else _kramers_record(grid[k], out) for k, out in zip(ks, outs)]


def _kramers_record(D, st):
    return {
        "D": D,
        "inv_D": 1.0 / D,
        "mean_time": st.mean,
        "median_time": st.median,
        "rate": st.rate,
        "n_runs": st.n_runs,
        "n_censored": st.n_censored,
        "samples": [float(v) for v in st.samples],
    }


def _kramers_sweep(cfg, out_dir, workers):
    """Every D of the grid steps in one Langevin ensemble per worker.

    The grid is dealt into min(workers, len(grid)) groups; each group is one
    stacked ``first_passage_many`` call, so a group costs the steps of its
    slowest point.  Every point keeps its own seed, so the grouping cannot
    change a result.
    """
    from .. import rates

    params, seed = cfg.params, cfg.seed
    grid = params["d_grid"]
    n_groups = max(1, min(workers, len(grid)))  # workers < 1 runs in-process, as in _sweep
    groups = [list(range(g, len(grid), n_groups)) for g in range(n_groups)]
    # a group hands back its points' domain errors, so _sweep flags nothing
    outs, _ = _sweep(_kramers_group, [(None, (params, seed, ks)) for ks in groups], workers)
    records, flags = [], {}
    for k, D in enumerate(grid):
        out = outs[k % n_groups][k // n_groups]
        if isinstance(out, Exception):
            flags[f"D={D:g}"] = f"{type(out).__name__}: {out}"
        else:
            records.append(out)
    summary = {"barrier": None, "barrier_if_half_exponent": None, "fit": None}
    plots = [
        (
            "arrhenius.dat",
            ["inv_D", "log_mean_time"],
            [(r["inv_D"], math.log(r["mean_time"])) for r in records],
        )
    ]
    if len(records) >= 3:
        fit = rates.arrhenius_fit([(r["inv_D"], r["mean_time"]) for r in records])
        summary = {
            "barrier": fit.slope,
            "barrier_if_half_exponent": 2.0 * fit.slope,
            "fit": fit.to_dict(),
        }
        plots.append(
            (
                "arrhenius_fit.dat",
                ["inv_D", "fitted_log_time"],
                [(r["inv_D"], fit.intercept + fit.slope * r["inv_D"]) for r in records],
            )
        )
    return Outcome(records, summary, flags, {"kramers_sweep.csv": records}, plots)


# -- label-sweep ---------------------------------------------------------------


def _task_cell(params, seed, k, model, data, name):
    """Loss floor, posterior mean, C_beta and SGD convergence on one task.

    The body shared by label-sweep and complexity-scatter cells.  Returns
    (record fields, escape stats, whether both descents converged).
    """
    from .. import complexity, tasks

    task = tasks.Task(data, model)
    trainer = build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))
    # the restarts and the posterior mean descend as one stack, the mean last
    W, converged, _ = complexity.train_minimizers(
        task, trainer, _FLOOR_RESTARTS, name=name,
        posterior=(params["beta"], params["prior_scale2"]),
    )
    threshold, min_loss, descent_ok, _ = _floor(
        task, W[:-1], converged[:-1], params["threshold_extra"]
    )
    w_mean, mean_ok = W[-1], converged[-1]
    rep = complexity.c_beta(task, w_mean, params["beta"], params["prior_scale2"])
    st = diffusion.convergence_time(
        task,
        complexity.initial_point(model, trainer),
        threshold,
        build_sgd(params["sgd"]),
        params["n_runs"],
        _sub_seed(seed, _CELL, k),
    )
    rec = {
        "c_beta": rep.total,
        "c_beta_parts": rep.to_dict(),
        "median_time": st.median,
        "mean_time": st.mean,
        "n_censored": st.n_censored,
        "n_runs": st.n_runs,
        "threshold": threshold,
        "min_loss": min_loss,
    }
    return rec, st, bool(descent_ok and mean_ok)


def _label_cell(args):
    from .. import tasks

    params, seed, k, rho = args
    model, base = _base_dataset(params, seed)
    # one corruption stream for the whole grid: corrupted rows nest as
    # rho grows, so the sweep is not clouded by independent redraws
    data = tasks.corrupt_labels(base, rho, _sub_seed(seed, _CORRUPT)) if rho > 0 else base
    rec, st, ok = _task_cell(params, seed, k, model, data, f"rho={rho:g}")
    return {"rho": rho, **rec, "samples": [float(v) for v in st.samples], "descent_converged": ok}


def _label_sweep(cfg, out_dir, workers):
    params, seed = cfg.params, cfg.seed
    grid = params["corruption_grid"]
    records, flags = _sweep(
        _label_cell, [(f"rho={r:g}", (params, seed, k, r)) for k, r in enumerate(grid)], workers
    )
    by_rho = sorted(records, key=lambda r: r["rho"])
    cb = [r["c_beta"] for r in by_rho]
    med = [r["median_time"] for r in by_rho]
    summary = {
        "spearman_cbeta_time": _spearman(cb, med),
        "cbeta_increasing_in_rho": bool(all(a < b for a, b in zip(cb, cb[1:]))) if cb else False,
    }
    plots = [
        _plot("complexity_vs_rho.dat", by_rho, "rho", "c_beta"),
        _plot("time_vs_rho.dat", by_rho, "rho", "median_time"),
        _plot("time_vs_complexity.dat", by_rho, "c_beta", "median_time"),
    ]
    return Outcome(records, summary, flags, {"label_sweep.csv": records}, plots)


# -- batch-sweep ---------------------------------------------------------------


def _batch_cell(args):
    from .. import complexity, tasks

    params, seed, k, B = args
    model, data = _base_dataset(params, seed)
    task = tasks.Task(data, model)
    trainer = build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))
    threshold, min_loss, _, _ = _threshold_point(
        task, trainer, params["threshold_extra"], f"B={B}"
    )
    w0 = complexity.initial_point(model, trainer)
    sgd = build_sgd({"eta": params["eta"], "max_steps": params["max_steps"]}, batch_size=B)
    st = diffusion.convergence_time(
        task, w0, threshold, sgd, params["n_runs"], _sub_seed(seed, _CELL, k)
    )
    S_hat = diffusion.noise_covariance(
        task, w0, B, params["noise_draws"], _sub_seed(seed, _NOISE, k)
    )
    S_exact = diffusion.exact_minibatch_covariance(task, w0, B)
    denom = float(np.linalg.norm(S_exact))
    frob = float(np.linalg.norm(S_hat - S_exact)) / denom if denom > 0 else float("nan")
    return {
        "batch_size": B,
        "noise_trace": float(np.trace(S_hat)),
        "noise_trace_exact": float(np.trace(S_exact)),
        "frobenius_rel_err": _finite_or_none(frob),
        "median_time": st.median,
        "mean_time": st.mean,
        "n_censored": st.n_censored,
        "n_runs": st.n_runs,
        "threshold": threshold,
        "min_loss": min_loss,
    }


def _batch_sweep(cfg, out_dir, workers):
    params, seed = cfg.params, cfg.seed
    records, flags = _sweep(
        _batch_cell,
        [(f"B={B}", (params, seed, k, B)) for k, B in enumerate(params["batch_grid"])],
        workers,
    )
    trace_by_b = {r["batch_size"]: r["noise_trace"] for r in records}
    ratio_pairs = [
        [b, trace_by_b[b] / trace_by_b[2 * b]]
        for b in sorted(trace_by_b)
        if 2 * b in trace_by_b and trace_by_b[2 * b] > 0
    ]
    summary = {
        "trace_ratio_pairs": ratio_pairs,
        "max_frobenius_rel_err": max((r["frobenius_rel_err"] for r in records), default=None),
    }
    plots = [_plot("batch_sweep.dat", records, "batch_size", "noise_trace", "median_time")]
    return Outcome(records, summary, flags, {"batch_sweep.csv": records}, plots)


# -- complexity-scatter --------------------------------------------------------


def _scatter_cell(args):
    params, seed, k = args
    model, data = _spec_dataset(params, seed, k)
    label = params["tasks"][k]["label"]
    rec, _, _ = _task_cell(params, seed, k, model, data, label)
    return {"label": label, **rec}


def _complexity_scatter(cfg, out_dir, workers):
    from .. import rates

    params, seed = cfg.params, cfg.seed
    records, flags = _sweep(
        _scatter_cell,
        [(spec["label"], (params, seed, k)) for k, spec in enumerate(params["tasks"])],
        workers,
    )
    pts = [
        (r["c_beta"], r["median_time"])
        for r in records
        if r["median_time"] is not None and r["median_time"] > 0
    ]
    fit = None
    if len(pts) >= 3:
        rf = rates.arrhenius_fit(pts)
        fit = {"slope": rf.slope, "intercept": rf.intercept, "r2": rf.r2}
    summary = {
        "spearman_cbeta_time": _spearman(
            [r["c_beta"] for r in records], [r["median_time"] for r in records]
        ),
        "log_time_fit": fit,
    }
    plots = [_plot("complexity_scatter.dat", records, "c_beta", "median_time")]
    return Outcome(records, summary, flags, {"complexity_scatter.csv": records}, plots)


# -- finetune-matrix -----------------------------------------------------------


def _finetune_prep_cell(args):
    from .. import tasks

    params, seed, i = args
    model, data = _spec_dataset(params, seed, i)
    label = params["tasks"][i]["label"]
    task = tasks.Task(data, model)
    trainer = build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))
    threshold, min_loss, ok, w_min = _threshold_point(
        task, trainer, params["threshold_extra"], label
    )
    return {
        "label": label,
        "threshold": threshold,
        "min_loss": min_loss,
        "descent_converged": ok,
        "w_min": [float(v) for v in w_min],
    }


def _finetune_cell(args):
    """One matrix cell: start at task i's minimizer, converge on task j.

    An ensemble in which no run converges is the analogue of an
    unreachable fine-tuning target, so it is recorded as a fully
    censored cell rather than treated as an error.  The record is
    checkpointed as the cell finishes, so a run that aborts keeps every
    cell it finished.
    """
    from .. import tasks

    params, seed, i, j, w_start, threshold, ck_dir, cfg_hash = args
    model, data = _spec_dataset(params, seed, j)
    task = tasks.Task(data, model)
    rec = {
        "from": params["tasks"][i]["label"],
        "to": params["tasks"][j]["label"],
        "median_time": None,
        "mean_time": None,
        "n_censored": params["n_runs"],
        "n_runs": params["n_runs"],
    }
    try:
        st = diffusion.convergence_time(
            task,
            np.array(w_start),
            threshold,
            build_sgd(params["sgd"]),
            params["n_runs"],
            _sub_seed(seed, _CELL, i, j),
        )
    except SimulationError:
        pass
    else:
        rec.update(median_time=st.median, mean_time=st.mean, n_censored=st.n_censored)
    write_atomic(
        _checkpoint_path(ck_dir, i, j), canonical_json({"config_sha256": cfg_hash, "record": rec})
    )
    return rec


def _checkpoint_path(ck_dir, i, j):
    return os.path.join(ck_dir, f"cell_{i}_{j}.json")


def _load_checkpoint(ck_dir, cfg_hash, i, j):
    try:
        with open(_checkpoint_path(ck_dir, i, j)) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if d.get("config_sha256") != cfg_hash:
        return None
    return d.get("record")


def _finetune_matrix(cfg, out_dir, workers):
    import hashlib

    from .. import complexity

    params, seed = cfg.params, cfg.seed
    labels = [s["label"] for s in params["tasks"]]
    n = len(labels)

    prep_recs, flags = _sweep(
        _finetune_prep_cell, [(f"prep:{labels[i]}", (params, seed, i)) for i in range(n)], workers
    )
    by_label = {p["label"]: p for p in prep_recs}
    preps = [by_label.get(label) for label in labels]

    cell_ids = [
        (i, j) for i in range(n) for j in range(n) if preps[i] is not None and preps[j] is not None
    ]
    cfg_hash = hashlib.sha256(canonical_json(cfg.snapshot()).encode()).hexdigest()
    ck_dir = os.path.join(out_dir, "checkpoint")
    os.makedirs(ck_dir, exist_ok=True)
    cells, todo = {}, []
    for i, j in cell_ids:
        rec = _load_checkpoint(ck_dir, cfg_hash, i, j)
        if rec is not None:
            cells[(i, j)] = rec
        else:
            todo.append((i, j))
    reused = len(cells)
    done, cell_flags = _sweep(
        _finetune_cell,
        [
            (
                f"cell:{labels[i]}->{labels[j]}",
                (params, seed, i, j, preps[i]["w_min"], preps[j]["threshold"], ck_dir, cfg_hash),
            )
            for i, j in todo
        ],
        workers,
    )
    flags.update(cell_flags)
    for res in done:
        i, j = labels.index(res["from"]), labels.index(res["to"])
        cells[(i, j)] = res

    records = [cells[(i, j)] for i in range(n) for j in range(n) if (i, j) in cells]
    times = [
        [cells[(i, j)]["median_time"] if (i, j) in cells else None for j in range(n)]
        for i in range(n)
    ]

    # distance matrix over the same datasets, same trainer discipline
    model = build_model(params["model"])
    datasets = [_spec_dataset(params, seed, k)[1] for k in range(n)]
    trainer = build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))
    dm = complexity.distance_matrix(
        datasets, model, params["beta"], params["prior_scale2"], trainer, ids=labels
    )
    dmd = dm.to_json_dict()

    pairs = [
        {
            "from": labels[i],
            "to": labels[j],
            "distance": dmd["values"][i][j],
            "median_time": times[i][j],
        }
        for i in range(n)
        for j in range(n)
    ]
    scatter = [
        p
        for p in pairs
        if p["from"] != p["to"] and p["distance"] is not None and p["median_time"] is not None
    ]
    agree = disagree = 0
    for i in range(n):
        for j in range(i + 1, n):
            tij, tji = times[i][j], times[j][i]
            dij, dji = dmd["values"][i][j], dmd["values"][j][i]
            if None in (tij, tji, dij, dji):
                continue
            if (tij - tji) * (dij - dji) > 0:
                agree += 1
            else:
                disagree += 1
    summary = {
        "labels": labels,
        "median_times": times,
        "distances": dmd["values"],
        "distance_flags": dmd["flags"],
        "base_complexities": dmd["base_totals"],
        "prep": preps,
        "spearman_distance_time": _spearman(
            [p["distance"] for p in scatter], [p["median_time"] for p in scatter]
        ),
        "asymmetry_pairs_agree": agree,
        "asymmetry_pairs_total": agree + disagree,
    }
    csvs = {
        "finetune_times.csv": records,
        "finetune_distances.csv": pairs,
        "finetune_scatter.csv": scatter,
    }
    plots = [_plot("transfer_scatter.dat", scatter, "distance", "median_time")] if scatter else []
    return Outcome(records, summary, flags, csvs, plots, {"cells_reused": reused})


# -- structure-curve -----------------------------------------------------------


def _structure_curve(cfg, out_dir, workers):
    from .. import complexity, tasks

    params, seed = cfg.params, cfg.seed
    model, data = _base_dataset(params, seed)
    if params["corruption"] > 0:
        data = tasks.corrupt_labels(data, params["corruption"], _sub_seed(seed, _CORRUPT, 0))
    task = tasks.Task(data, model)
    trainer = build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))
    sc = complexity.structure_curve(task, params["beta_grid"], params["prior_scale2"], trainer)
    summary = {
        "monotone_loss_in_kl": sc.is_monotone(),
        "lambda2": params["prior_scale2"],
        "expected_loss_at_beta_max": sc.records[0]["expected_loss"],
        "log_n_classes": math.log(model.n_classes),
    }
    plots = [
        (
            "structure_curve.dat",
            ["kl_nats", "expected_loss"],
            sorted((r["kl_nats"], r["expected_loss"]) for r in sc.records),
        )
    ]
    return Outcome(sc.records, summary, csvs={"structure_curve.csv": sc.records}, plots=plots)


# -- action-check --------------------------------------------------------------


def _breakdown_record(name, brk):
    return {
        "path": name,
        "total": float(brk.total),
        "static_term": float(brk.static_term),
        "dynamic_term": float(brk.dynamic_term),
        "defect": float(brk.defect),
    }


def _action_check(cfg, out_dir, workers):
    from .. import action

    params = cfg.params
    pot = check_potential(params["potential"])
    w0, wf = np.array(params["start"]), np.array(params["end"])
    T, n_knots, D = params["duration"], params["n_knots"], params["D"]
    ts = np.linspace(0.0, T, n_knots)
    s = (ts / T)[:, None]
    straight = diffusion.Path(ts, w0[None, :] * (1 - s) + wf[None, :] * s)
    records = [_breakdown_record("straight", action.om_action(pot, straight, D))]
    summary = {"straight_total": records[0]["total"]}
    plots = []
    if params["optimize"]:
        crit = action.minimum_action_path(pot, w0, wf, T, n_knots, D, params["maxiter"])
        records.append(_breakdown_record("optimized", crit.action))
        summary.update(
            optimized_total=records[1]["total"],
            action_drop=records[0]["total"] - records[1]["total"],
            el_residual=float(crit.el_residual),
            el_scale=float(crit.el_scale),
            optimizer_converged=bool(crit.converged),
            n_alternates=len(crit.alternates),
        )
        os.makedirs(out_dir, exist_ok=True)
        write_path_csv(os.path.join(out_dir, "action_path.csv"), crit.path.times, crit.path.points)
        if crit.path.dim <= 2:
            cols = ["t"] + [f"w{i}" for i in range(crit.path.dim)]
            rows = [
                tuple([t] + list(w)) for t, w in zip(crit.path.times, crit.path.points)
            ]
            plots.append(("optimal_path.dat", cols, rows))
    return Outcome(records, summary, csvs={"action_check.csv": records}, plots=plots)


# -- dispatch and persistence --------------------------------------------------

RUNNERS = {
    "kramers-sweep": _kramers_sweep,
    "label-sweep": _label_sweep,
    "batch-sweep": _batch_sweep,
    "complexity-scatter": _complexity_scatter,
    "finetune-matrix": _finetune_matrix,
    "structure-curve": _structure_curve,
    "action-check": _action_check,
}


def run_experiment(cfg, out_dir, workers=1):
    """Run ``cfg``'s kind, write its CSVs and plots, then its bundle.

    An earlier run's ``bundle.json`` and ``aborted.json`` in ``out_dir``
    are removed first, so neither can outlive the run that follows it;
    the resumable ``checkpoint/`` directory is kept.
    """
    for stale in ("bundle.json", "aborted.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, stale))
    t0 = time.time()
    out = RUNNERS[cfg.kind](cfg, out_dir, workers)
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in out.csvs.items():
        cols = [c for c, _ in CSV_SCHEMAS[name]]
        write_csv(os.path.join(out_dir, name), name, [[r[c] for c in cols] for r in rows])
    plots = PlotSet(out_dir)
    for fname, columns, rows in out.plots:
        plots.add(fname, columns, rows)
    plots.finish()
    bundle = ResultBundle(
        cfg.kind,
        cfg.snapshot(),
        __version__,
        out.records,
        out.summary,
        out.flags,
        timing_stamp(t0, time.time(), workers, **out.timing),
    )
    bundle.save(out_dir)
    return bundle


def rerun(bundle_path, out_dir, workers=1):
    """Re-execute a bundle from its embedded config snapshot."""
    prev = ResultBundle.load(bundle_path)
    cfg = parse_config(prev.kind, dict(prev.config))
    return run_experiment(cfg, out_dir, workers=workers)
