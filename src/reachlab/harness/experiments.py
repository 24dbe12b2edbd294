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

A cell that raises one of ``errors.DOMAIN_ERRORS`` (diverged training,
an ensemble that never converges) is flagged and the sweep continues;
programming errors propagate and abort the run.  ``_sweep`` returns one
result per cell, ``None`` for a flagged one, and ``_collect`` makes
every flag key: the cell's own key (``rho=0.3``, ``D=0.0001``, a task
label), plus ``#k``, k the cell's index, when the grid repeats that
key.  Every kind returns all its flags in the one ``flags`` dict; the
sweeps of one kind use distinct key prefixes (finetune-matrix's
``prep:``, ``cell:``, ``base:`` and ``union:``), so no two collide.  A
summary fit over points that ``rates.arrhenius_fit`` rejects is
``null``.

Every kind steps ``diffusion``; the other science modules are imported
by the functions that use them, so a run loads only what its kind runs
(an action-check never loads ``tasks``, ``complexity`` or ``rates``).
"""

import collections
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
from ..errors import DOMAIN_ERRORS, ContractError, SimulationError
from ..rng import stream
from .bundle import ResultBundle, timing_stamp
from .config import build_model, build_sgd, build_trainer, check_potential
from .io import CSV_SCHEMAS, PlotSet, canonical_json, write_atomic, write_csv, write_path_csv

# spawn-path tags under the experiment seed; one tag per purpose keeps
# every consumer on a provably disjoint stream
_DATA, _CORRUPT, _TRAIN, _CELL, _NOISE = 1, 2, 3, 4, 5


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
    """Run ``fn`` over (flag key, args) pairs in order; returns (results, flags).

    One result per cell, in order: a cell that raises a domain error is
    ``None`` there and flagged under its key (made unique by
    ``_collect``), and the sweep continues.  A list of pairs rather than
    a dict, because a grid may repeat a value.
    """
    pool = None
    if workers > 1 and len(cells) > 1:
        # imported here: it pulls in multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
    outs = []
    with pool or contextlib.nullcontext():
        calls = [pool.submit(fn, a).result if pool else functools.partial(fn, a) for _, a in cells]
        for call in calls:
            try:
                outs.append(call())
            except DOMAIN_ERRORS as exc:
                outs.append(exc)
    return _collect([key for key, _ in cells], outs)


def _collect(keys, outs):
    """(results, flags) from one outcome per cell, a result or a domain error.

    An error becomes ``None`` in results and a flag under the cell's key;
    a key that ``keys`` repeats gains ``#k``, k the cell's index, so no
    flag overwrites another.
    """
    counts = collections.Counter(keys)
    results, flags = [], {}
    for k, (key, out) in enumerate(zip(keys, outs)):
        if isinstance(out, Exception):
            flags[f"{key}#{k}" if counts[key] > 1 else key] = f"{type(out).__name__}: {out}"
            out = None
        results.append(out)
    return results, flags


def _arrhenius_or_none(points):
    """``rates.arrhenius_fit(points)``, or None if it rejects them (too few, one x)."""
    from .. import rates

    try:
        return rates.arrhenius_fit(points)
    except ContractError:
        return None


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


def _task(params, seed, spec=None):
    """The task of a spec: base blobs, class subset, label noise.

    No spec gives the base blobs.  Every spec corrupts through the same
    stream, so two specs that differ only in corruption level share
    corrupted rows: a family (a label-sweep grid too) is nested by
    construction, not just in expectation.
    """
    from .. import tasks

    model = build_model(params["model"])
    d = params["data"]
    data = tasks.generate_blobs(
        model.n_classes, d["n_samples"], model.input_dim, d["separation"], _sub_seed(seed, _DATA)
    )
    if spec and spec["keep_classes"] is not None:
        data = tasks.subset_classes(data, spec["keep_classes"])
    if spec and spec["corruption"] > 0:
        data = tasks.corrupt_labels(data, spec["corruption"], _sub_seed(seed, _CORRUPT))
    return tasks.Task(data, model)


def _trainer(params, seed):
    return build_trainer(params["trainer"], _sub_seed(seed, _TRAIN))


# restarts for the loss-floor estimate: a single descent can land in a shallow
# basin and skew the convergence threshold for its whole cell
_FLOOR_RESTARTS = 4


def _loss_floor(params, seed, task, name, posterior=False):
    """Convergence threshold: the restarts' minimum loss plus a margin.

    Returns (threshold, minimum loss, whether that restart converged, its
    weights, mean).  The lowest final loss wins, the earliest restart on
    ties.  With ``posterior`` the posterior mean descends as the stack's
    last row and mean is its (weights, converged); otherwise None.
    """
    from .. import complexity, tasks

    W, converged, _ = complexity.train_minimizers(
        task, _trainer(params, seed), _FLOOR_RESTARTS, name=name,
        posterior=(params["beta"], params["prior_scale2"]) if posterior else None,
    )
    losses = tasks.loss_many(task, W[:_FLOOR_RESTARTS])
    r = int(np.argmin(losses))
    mean = (W[-1], bool(converged[-1])) if posterior else None
    return float(losses[r] + params["threshold_extra"]), float(losses[r]), bool(converged[r]), W[r], mean


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
    except DOMAIN_ERRORS as exc:
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
    params, seed = cfg.params, cfg.seed
    grid = params["d_grid"]
    n_groups = max(1, min(workers, len(grid)))  # workers < 1 runs in-process, as in _sweep
    groups = [list(range(g, len(grid), n_groups)) for g in range(n_groups)]
    # a group hands back its points' domain errors, so _sweep flags nothing
    outs, _ = _sweep(_kramers_group, [(None, (params, seed, ks)) for ks in groups], workers)
    results, flags = _collect(
        [f"D={D:g}" for D in grid], [outs[k % n_groups][k // n_groups] for k in range(len(grid))]
    )
    records = [r for r in results if r is not None]
    summary = {"barrier": None, "barrier_if_half_exponent": None, "fit": None}
    plots = [
        (
            "arrhenius.dat",
            ["inv_D", "log_mean_time"],
            [(r["inv_D"], math.log(r["mean_time"])) for r in records],
        )
    ]
    fit = _arrhenius_or_none([(r["inv_D"], r["mean_time"]) for r in records])
    if fit is not None:
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


# -- label-sweep and complexity-scatter ----------------------------------------


def _task_cell(args):
    """Loss floor, posterior mean, C_beta and SGD convergence on one task.

    The one cell of label-sweep and complexity-scatter: ``head`` holds
    the record's leading field (``rho`` or ``label``), ``name`` names the
    descents in their errors.
    """
    from .. import complexity

    params, seed, k, name, head, spec = args
    task = _task(params, seed, spec)
    threshold, min_loss, descent_ok, _, (w_mean, mean_ok) = _loss_floor(
        params, seed, task, name, posterior=True
    )
    rep = complexity.c_beta(task, w_mean, params["beta"], params["prior_scale2"])
    st = diffusion.convergence_time(
        task,
        complexity.initial_point(task.model, _trainer(params, seed)),
        threshold,
        build_sgd(params["sgd"]),
        params["n_runs"],
        _sub_seed(seed, _CELL, k),
    )
    return {
        **head,
        "c_beta": rep.total,
        "c_beta_parts": rep.to_dict(),
        "median_time": st.median,
        "mean_time": st.mean,
        "n_censored": st.n_censored,
        "n_runs": st.n_runs,
        "threshold": threshold,
        "min_loss": min_loss,
        "samples": [float(v) for v in st.samples],
        "descent_converged": descent_ok and mean_ok,
    }


def _label_sweep(cfg, out_dir, workers):
    params, seed = cfg.params, cfg.seed
    cells = []
    for k, rho in enumerate(params["corruption_grid"]):
        # a spec like any task family's, so corrupted rows nest as rho grows
        spec = {"keep_classes": None, "corruption": rho}
        cells.append((f"rho={rho:g}", (params, seed, k, f"rho={rho:g}", {"rho": rho}, spec)))
    results, flags = _sweep(_task_cell, cells, workers)
    records = [r for r in results if r is not None]
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


def _complexity_scatter(cfg, out_dir, workers):
    params, seed = cfg.params, cfg.seed
    results, flags = _sweep(
        _task_cell,
        [
            (s["label"], (params, seed, k, s["label"], {"label": s["label"]}, s))
            for k, s in enumerate(params["tasks"])
        ],
        workers,
    )
    records = [
        {f: v for f, v in r.items() if f not in ("samples", "descent_converged")}
        for r in results
        if r is not None
    ]
    fit = _arrhenius_or_none(
        [
            (r["c_beta"], r["median_time"])
            for r in records
            if r["median_time"] is not None and r["median_time"] > 0
        ]
    )
    summary = {
        "spearman_cbeta_time": _spearman(
            [r["c_beta"] for r in records], [r["median_time"] for r in records]
        ),
        "log_time_fit": None
        if fit is None
        else {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2},
    }
    plots = [_plot("complexity_scatter.dat", records, "c_beta", "median_time")]
    return Outcome(records, summary, flags, {"complexity_scatter.csv": records}, plots)


# -- batch-sweep ---------------------------------------------------------------


def _batch_cell(args):
    from .. import complexity

    params, seed, k, B = args
    task = _task(params, seed)
    threshold, min_loss, *_ = _loss_floor(params, seed, task, f"B={B}")
    w0 = complexity.initial_point(task.model, _trainer(params, seed))
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
    results, flags = _sweep(
        _batch_cell,
        [(f"B={B}", (params, seed, k, B)) for k, B in enumerate(params["batch_grid"])],
        workers,
    )
    records = [r for r in results if r is not None]
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


# -- finetune-matrix -----------------------------------------------------------


def _finetune_prep_cell(args):
    params, seed, i = args
    spec = params["tasks"][i]
    threshold, min_loss, ok, w_min, _ = _loss_floor(
        params, seed, _task(params, seed, spec), spec["label"]
    )
    return {
        "label": spec["label"],
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
    params, seed, i, j, w_start, threshold, ck_dir, cfg_hash = args
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
            _task(params, seed, params["tasks"][j]),
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


def _c_beta_cell(args):
    """C_beta of task i, or of the union of tasks i and j, at its trained mean.

    The cell of finetune-matrix's distance sweep: j is None for task i
    alone.  The descent is named by the task labels, ``i`` or ``i+j``.
    """
    from .. import complexity, tasks

    params, seed, i, j = args
    task = _task(params, seed, params["tasks"][i])
    data, name = task.data, params["tasks"][i]["label"]
    if j is not None:
        other = params["tasks"][j]
        data = tasks.concat(data, _task(params, seed, other).data, n_classes=task.model.n_classes)
        name = f"{name}+{other['label']}"
    return complexity.trained_c_beta(
        data, task.model, params["beta"], params["prior_scale2"], _trainer(params, seed), name
    )


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

    params, seed = cfg.params, cfg.seed
    labels = [s["label"] for s in params["tasks"]]
    n = len(labels)

    preps, flags = _sweep(
        _finetune_prep_cell, [(f"prep:{labels[i]}", (params, seed, i)) for i in range(n)], workers
    )
    ready = [i for i in range(n) if preps[i] is not None]
    cfg_hash = hashlib.sha256(canonical_json(cfg.snapshot()).encode()).hexdigest()
    ck_dir = os.path.join(out_dir, "checkpoint")
    os.makedirs(ck_dir, exist_ok=True)
    # (i, j) -> record, None until the cell has run; row-major order throughout
    cells = {(i, j): _load_checkpoint(ck_dir, cfg_hash, i, j) for i in ready for j in ready}
    todo = [ij for ij, rec in cells.items() if rec is None]
    reused = len(cells) - len(todo)
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
    cells.update(zip(todo, done))

    records = [rec for rec in cells.values() if rec is not None]
    times = [
        [(cells.get((i, j)) or {}).get("median_time") for j in range(n)] for i in range(n)
    ]

    # d(i -> j) = C(D_i u D_j) - C(D_i), the unions only for the bases
    # that trained; the diagonal is a measured union, not an assumed zero
    base, base_flags = _sweep(
        _c_beta_cell, [(f"base:{labels[i]}", (params, seed, i, None)) for i in range(n)], workers
    )
    flags.update(base_flags)
    ij = [(i, j) for i in range(n) if base[i] is not None for j in range(n)]
    unions, union_flags = _sweep(
        _c_beta_cell,
        [(f"union:{labels[i]}+{labels[j]}", (params, seed, i, j)) for i, j in ij],
        workers,
    )
    flags.update(union_flags)
    dist = [[None] * n for _ in range(n)]
    for (i, j), c in zip(ij, unions):
        if c is not None:
            dist[i][j] = _finite_or_none(c - base[i])
    pairs = [
        {
            "from": labels[i],
            "to": labels[j],
            "distance": dist[i][j],
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
            dij, dji = dist[i][j], dist[j][i]
            if None in (tij, tji, dij, dji):
                continue
            if (tij - tji) * (dij - dji) > 0:
                agree += 1
            else:
                disagree += 1
    summary = {
        "labels": labels,
        "median_times": times,
        "distances": dist,
        "base_complexities": [None if c is None else _finite_or_none(c) for c in base],
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
    task = _task(params, seed)
    if params["corruption"] > 0:
        # its own stream, (_CORRUPT, 0), not the one task specs share
        data = tasks.corrupt_labels(task.data, params["corruption"], _sub_seed(seed, _CORRUPT, 0))
        task = tasks.Task(data, task.model)
    sc = complexity.structure_curve(
        task, params["beta_grid"], params["prior_scale2"], _trainer(params, seed)
    )
    summary = {
        "monotone_loss_in_kl": sc.is_monotone(),
        "lambda2": params["prior_scale2"],
        "expected_loss_at_beta_max": sc.records[0]["expected_loss"],
        "log_n_classes": math.log(task.model.n_classes),
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
