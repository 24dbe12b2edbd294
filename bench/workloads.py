"""The four benchmark workloads: CLI configs, work counts and output checks.

Each workload is one ``reachlab <kind>`` config.  A benchmark run with
``--seed S`` runs the CLI over the seed panel ``PANEL * S + j``
(j < PANEL), passed through the CLI's ``--seed``: the amount of
stochastic work (SGD steps to threshold, walker steps to passage)
depends on the seed, and a median over a panel keeps one hard dataset
from setting a run's figure.

Sizes are scaled down from the configs the workloads were profiled at
so that one CLI process takes about 6 s on a 2-core machine, while each
keeps the layer mix it was chosen for (the ``why`` of each workload in
BENCHMARK.json).
"""

import hashlib
import json
import math

PANEL = 4

_MLP = {"family": "mlp-1-hidden", "input_dim": 3, "n_classes": 4, "hidden": 50, "activation": "tanh"}

WORKLOADS = {
    "sgd-label-sweep": {
        "kind": "label-sweep",
        "config": {
            "seed": 5,
            "model": _MLP,
            "data": {"n_samples": 100, "separation": 2.5},
            "corruption_grid": [0.0, 0.25, 0.5],
            "beta": 0.02,
            "prior_scale2": 1.0,
            "trainer": {"step_size": 0.3, "max_iters": 1000, "grad_tol": 1e-6, "init_scale": 0.1},
            "sgd": {"eta": 0.1, "batch_size": 10, "max_steps": 50000},
            "n_runs": 4,
            "threshold_extra": 0.1,
        },
        "work": "SGD steps",
        "rate_name": "sgd_steps_per_s",
    },
    "langevin-escape": {
        "kind": "kramers-sweep",
        "config": {
            "seed": 0,
            "potential": {"name": "double_well_1d"},
            "w0": [-1.0],
            "target": [1.0],
            "radius": 0.1,
            "d_grid": [0.15, 0.2, 0.25, 0.3],
            "dt": 0.002,
            "max_steps": 30000,
            "n_runs": 100,
        },
        "work": "walker steps",
        "rate_name": "walker_steps_per_s",
    },
    "channel-action": {
        "kind": "action-check",
        "config": {
            "seed": 0,
            "potential": {
                "name": "channel_2d",
                "a": {"name": "double_well_1d"},
                "b": {"name": "polynomial_1d", "coeffs": [2.5, 0.0, 4.0]},
            },
            "start": [-1.0, 0.0],
            "end": [1.0, 0.0],
            "duration": 4.0,
            "n_knots": 33,
            "D": 0.1,
            "maxiter": 1500,
        },
        "work": "interior knots x L-BFGS starts",
        "rate_name": "knot_starts_per_s",
    },
    "fullbatch-structure": {
        "kind": "structure-curve",
        "config": {
            "seed": 1,
            "model": _MLP,
            "data": {"n_samples": 800, "separation": 2.5},
            "corruption": 0.25,
            "beta_grid": [1.0, 0.1, 0.02, 0.005],
            "prior_scale2": 1.0,
            "trainer": {"step_size": 0.3, "max_iters": 2000, "grad_tol": 1e-6, "init_scale": 0.1},
        },
        "work": "descent iterations",
        "rate_name": "descent_iters_per_s",
    },
}

# Layers a workload must not touch at all (checked on the traced run).
BYPASS = {
    "sgd-label-sweep": ("action",),
    "langevin-escape": ("tasks", "action"),
    "channel-action": ("tasks", "diffusion"),
    "fullbatch-structure": ("diffusion", "action"),
}

# sha256 of the canonical result fields (bundle minus timing) at each
# workload's default seed, measured on the commit that added the benchmark.
# A change that moves one must say which random stream or result changed.
PINNED = {
    "sgd-label-sweep": {5: "593bbb7b8415b9743c36bf27d2f8800ccdda96407075bea67f64f520fcb117a9"},
    "langevin-escape": {0: "d9952d4138dcd0e526e5f51f626d5b962ef39633fc1d35eaeae0a8b530fb7032"},
    "channel-action": {0: "e7eb5a9d6ab5ccbc97107890745d65af92e54ca3874a8039e6f0314cebaf92f7"},
    "fullbatch-structure": {1: "d2b63df929057dfd5cbfab39fd3afe4660da4f4805c6e2f5eb52e1f1db4e7318"},
}


def panel(seed):
    return [PANEL * seed + j for j in range(PANEL)]


def digest(bundle):
    fields = {k: v for k, v in bundle.items() if k != "timing"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def work(name, bundle):
    """The workload's unit of work, counted from the bundle."""
    cfg, recs = bundle["config"], bundle["records"]
    if name == "sgd-label-sweep":
        eta, cap = cfg["sgd"]["eta"], cfg["sgd"]["max_steps"]
        return sum(round(sum(r["samples"]) / eta) + r["n_censored"] * cap for r in recs)
    if name == "langevin-escape":
        dt, cap = cfg["dt"], cfg["max_steps"]
        return sum(round(sum(r["samples"]) / dt) + r["n_censored"] * cap for r in recs)
    if name == "fullbatch-structure":
        return sum(r["n_iter"] for r in recs)
    return 3 * (cfg["n_knots"] - 2)


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def check(name, bundle):
    """Workload-specific oracles on the bundle; returns a list of problems."""
    cfg, recs, summ = bundle["config"], bundle["records"], bundle["summary"]
    bad = []
    if bundle["flags"]:
        bad.append(f"flagged cells: {sorted(bundle['flags'])}")
    if name == "sgd-label-sweep":
        if [r["rho"] for r in recs] != cfg["corruption_grid"]:
            bad.append("one record per corruption level expected")
        for r in recs:
            cap = cfg["sgd"]["max_steps"] * cfg["sgd"]["eta"]
            if not (_finite(r["c_beta"], r["threshold"], r["min_loss"]) and r["threshold"] > r["min_loss"]):
                bad.append(f"rho={r['rho']}: bad complexity or threshold")
            if len(r["samples"]) + r["n_censored"] != r["n_runs"] or r["n_censored"] == r["n_runs"]:
                bad.append(f"rho={r['rho']}: run accounting")
            if not all(0 <= t <= cap for t in r["samples"]):
                bad.append(f"rho={r['rho']}: convergence time outside [0, max_steps*eta]")
        if not summ["cbeta_increasing_in_rho"]:
            bad.append("complexity not increasing in label corruption")
    elif name == "langevin-escape":
        if [r["D"] for r in recs] != cfg["d_grid"]:
            bad.append("one record per D expected")
        for r in recs:
            if len(r["samples"]) + r["n_censored"] != r["n_runs"] or 2 * r["n_censored"] > r["n_runs"]:
                bad.append(f"D={r['D']}: run accounting, or most walkers censored")
            if not all(0 < t <= cfg["max_steps"] * cfg["dt"] for t in r["samples"]):
                bad.append(f"D={r['D']}: passage time outside (0, max_steps*dt]")
        # double_well_1d has barrier 0.25.  Censoring at max_steps pulls the
        # fit down and 100 walkers per D leave it noisy, so the window only
        # catches gross errors (wrong sign, wrong noise scale).
        fit = summ["fit"] or {}
        if not (0.05 <= (summ["barrier"] or 0) <= 0.6 and fit.get("r2", 0) >= 0.5):
            bad.append(f"Arrhenius fit off: barrier {summ['barrier']}, r2 {fit.get('r2')}")
    elif name == "channel-action":
        if [r["path"] for r in recs] != ["straight", "optimized"]:
            bad.append("straight and optimized paths expected")
        if not summ.get("optimizer_converged"):
            bad.append("minimum-action path did not converge")
        if not summ.get("action_drop", 0) > 0:
            bad.append("optimized path does not lower the action")
        if not summ.get("el_residual", math.inf) <= 0.05 * summ.get("el_scale", 0):
            bad.append("Euler-Lagrange residual above 5% of its scale")
    elif name == "fullbatch-structure":
        if [r["beta"] for r in recs] != cfg["beta_grid"]:
            bad.append("one record per beta expected")
        if not summ["monotone_loss_in_kl"]:
            bad.append("structure curve not monotone")
        kls = [r["kl_nats"] for r in recs]
        if any(a >= b for a, b in zip(kls, kls[1:])):
            bad.append("stored nats not increasing as beta falls")
        # at large beta the posterior sits on the prior: loss ~ log K
        if abs(summ["expected_loss_at_beta_max"] - summ["log_n_classes"]) > 0.05:
            bad.append("expected loss at beta_max is not log(n_classes)")
    return bad
