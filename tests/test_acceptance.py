"""End-to-end acceptance gates, one numbered criterion per test.

Every test prints a single verdict line before asserting, so the log
carries `criterion N: PASS|FAIL - detail` for each gate even when one of
them is red. Slow sweeps share module fixtures; the numbers quoted in
comments are the values observed when the gates were frozen.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from reachlab import action, complexity, diffusion, landscape, rates, tasks
from reachlab.complexity import TrainerConfig
from reachlab.harness import experiments
from reachlab.harness.config import parse_config
from reachlab.harness.io import canonical_json
from reachlab.rng import stream


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared sweeps ---------------------------------------------------------------


KRAMERS_FULL = {
    "seed": 0,
    "potential": {"name": "double_well_1d"},
    "w0": [-1.0],
    "target": [1.0],
    "radius": 0.1,
    "d_grid": [0.08, 0.1, 0.125, 0.2],
    "dt": 0.001,
    "max_steps": 800000,
    "n_runs": 500,
}


@pytest.fixture(scope="module")
def kramers_bundle(tmp_path_factory):
    cfg = parse_config("kramers-sweep", dict(KRAMERS_FULL))
    out = tmp_path_factory.mktemp("kramers_full")
    return experiments.run_experiment(cfg, str(out))


def _exact_mean_passage(D, x_start, x_hit):
    """Mean first-passage for the unit double well by direct quadrature.

    Standard 1-D result: T(x) = (1/D) int_x^hit e^{U(y)/D} int_-inf^y
    e^{-U(z)/D} dz dy, with the lower tail truncated where the weight
    is far below resolvable mass.
    """
    zs = np.linspace(-8.0, x_hit, 40001)
    U = 0.25 * (zs**2 - 1.0) ** 2
    inner = integrate.cumulative_trapezoid(np.exp(-U / D), zs, initial=0.0)
    mask = zs >= x_start
    ys, phi = zs[mask], inner[mask]
    Uy = 0.25 * (ys**2 - 1.0) ** 2
    return float(integrate.trapezoid(np.exp(Uy / D) * phi, ys) / D)


def _nested_quad_mean_passage(D, x_start, x_hit):
    """The same mean first-passage time by adaptive nested quad.

    Shares no grid, truncation or quadrature rule with
    `_exact_mean_passage`, so agreement checks the oracle itself.
    """

    def weight(z):
        return math.exp(-0.25 * (z * z - 1.0) ** 2 / D)

    tail = integrate.quad(weight, -math.inf, x_start)[0]

    def outer(y):
        return (tail + integrate.quad(weight, x_start, y)[0]) / weight(y)

    return integrate.quad(outer, x_start, x_hit)[0] / D


def test_criterion_01_kramers_mean_first_passage(kramers_bundle):
    # 500-run mean first-passage time at D=0.1 (start -1, absorbed at x >= 0.9)
    # against the exact finite-D mean of the passage-time integral: within
    # +-20% of it and within 3 standard errors (SE from the samples, ddof=1;
    # 3 SE is about +-13.7%). The closed-form Kramers 1/k is the dU/D -> inf
    # limit of the same mean; its finite-barrier corrections are O(D/dU)
    # (Hanggi, Talkner & Borkovec 1990), so the oracle's excess over 1/k must
    # shrink with D and fall below 5% at D=0.02. The oracle is itself checked
    # against an independent nested quad to 1e-4 (they agree to 3e-6).
    # Frozen observation: mean 66.490, exact 65.287, SE 2.98, z +0.40,
    # 1/k 54.125, exact +20.6% above 1/k (+10.5% at D=0.05, +3.4% at D=0.02).
    D = 0.1
    rec = next(r for r in kramers_bundle.records if r["D"] == D)
    dw = landscape.DoubleWell1D()

    def inv_k(d):
        return 1.0 / rates.kramers_double_well(dw, d, np.array([-1.0]), np.array([0.0]))

    exact = _exact_mean_passage(D, -1.0, 0.9)
    oracle_err = abs(exact / _nested_quad_mean_passage(D, -1.0, 0.9) - 1.0)
    excess = [_exact_mean_passage(d, -1.0, 0.9) / inv_k(d) - 1.0 for d in (0.1, 0.05, 0.02)]
    excess_ok = excess[0] > excess[1] > excess[2] and excess[2] < 0.05

    mean = rec["mean_time"]
    samples = np.asarray(rec["samples"])
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    z = (mean - exact) / se
    lo, hi = 0.8 * exact, 1.2 * exact
    wall = kramers_bundle.timing["wall_seconds"]
    ok = (
        lo <= mean <= hi
        and abs(z) <= 3.0
        and rec["n_censored"] == 0
        and wall < 300.0
        and oracle_err <= 1e-4
        and excess_ok
    )
    _verdict(
        1,
        ok,
        f"mean first-passage {mean:.3f} vs exact finite-D mean {exact:.3f} "
        f"(gate [{lo:.3f}, {hi:.3f}] and |z| <= 3; SE {se:.2f}, z {z:+.2f}); "
        f"asymptotic 1/k {inv_k(D):.3f}, exact {excess[0]:+.1%} above it "
        f"({excess[1]:+.1%} at D=0.05, {excess[2]:+.1%} at D=0.02); "
        f"oracle vs nested quad {oracle_err:.1e}; {rec['n_censored']} censored, "
        f"sweep wall {wall:.0f}s",
    )
    assert rec["n_censored"] == 0
    assert wall < 300.0
    assert oracle_err <= 1e-4
    assert excess_ok
    assert lo <= mean <= hi
    assert abs(z) <= 3.0


def test_criterion_02_arrhenius_barrier_slope(kramers_bundle):
    # log mean time vs 1/D over D in {0.08, 0.1, 0.125, 0.2}: slope = barrier.
    # Frozen observation: slope 0.25287, r2 0.99944.
    fit = kramers_bundle.summary["fit"]
    slope = kramers_bundle.summary["barrier"]
    ok = abs(slope - 0.25) <= 0.025
    _verdict(
        2,
        ok,
        f"fitted barrier {slope:.5f} vs 0.25 +- 10% (r2 {fit['r2']:.5f}, "
        f"{len(kramers_bundle.records)} grid points)",
    )
    assert ok


def test_criterion_03_gibbs_stationarity():
    # Quadratic(a=1) at D=0.1: stationary variance D/a and histogram TV
    # against the Gibbs weight. Frozen: var 0.09984 (-0.16%), TV 0.0074.
    pot = landscape.Quadratic(np.array([1.0]))
    params = diffusion.DiffusionParams(D=0.1, dt=1e-2, max_steps=1_000_000, seed=0)
    path = diffusion.simulate_langevin(pot, np.zeros(1), params)
    w = path.points[:, 0]
    w = w[w.size // 10 :]  # discard the transient
    var = float(w.var())

    edges = np.linspace(-1.5, 1.5, 62)
    hist, _ = np.histogram(w, bins=edges)
    emp = hist / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    gibbs = np.exp(-0.5 * centers**2 / 0.1)
    gibbs /= gibbs.sum()
    tv = 0.5 * float(np.abs(emp - gibbs).sum())

    ok = abs(var - 0.1) <= 0.005 and tv < 0.05
    _verdict(
        3,
        ok,
        f"long-run variance {var:.5f} vs 0.1 +- 5%, histogram TV {tv:.4f} < 0.05 "
        f"at 1e6 steps",
    )
    assert ok


def test_criterion_04_minibatch_noise_scaling(tmp_path):
    # Trace of the minibatch noise covariance halves when B doubles, and the
    # whole matrix matches the per-sample covariance divided by B.
    # Frozen: trace ratios [1.9822, 2.0, 2.0207], worst Frobenius 0.0374.
    raw = {
        "seed": 0,
        "model": {"family": "multinomial-logistic", "input_dim": 3, "n_classes": 3},
        "data": {"n_samples": 120, "separation": 2.0},
        "batch_grid": [4, 8, 16, 32],
        "eta": 0.05,
        "max_steps": 20000,
        "n_runs": 12,
        "noise_draws": 8000,
        "trainer": {"step_size": 0.5, "max_iters": 4000, "grad_tol": 1e-8, "init_scale": 0.5},
        "threshold_extra": 0.1,
    }
    cfg = parse_config("batch-sweep", raw)
    b = experiments.run_experiment(cfg, str(tmp_path))
    ratios = [r for _, r in b.summary["trace_ratio_pairs"]]
    frob = b.summary["max_frobenius_rel_err"]
    ok = all(abs(r / 2.0 - 1.0) <= 0.10 for r in ratios) and frob <= 0.10
    _verdict(
        4,
        ok,
        f"trace ratios on doubling {[round(r, 4) for r in ratios]} (gate 2 +- 10%), "
        f"worst Frobenius error vs per-sample oracle/B {frob:.4f} (gate 0.10)",
    )
    assert ok


def test_criterion_05_action_defect_halves_with_dt():
    # Path-action defect |total - static - dynamic| must at least halve when
    # dt drops 1e-2 -> 1e-3, per path. Frozen: worst observed ratio 0.0101
    # over 150 paths (the defect is quadratic in dt, so ~100x is typical).
    pots = [
        landscape.Quadratic(np.array([1.0, 2.0])),
        landscape.DoubleWell1D(),
        landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([3.0, 0.0, 0.5])),
    ]
    rng = stream(42)
    D, T = 0.25, 2.0
    worst, n_paths = 0.0, 0
    for pot in pots:
        d = pot.dim
        for _ in range(50):
            a, b = rng.normal(0, 0.8, d), rng.normal(0, 0.8, d)
            coef = rng.normal(0, 0.3, (3, d))

            def knots(dt):
                t = np.arange(int(T / dt) + 1) * dt
                s = (t / T)[:, None]
                W = (1 - s) * a + s * b
                for m in range(3):
                    W = W + coef[m] * np.sin(np.pi * (m + 1) * s)
                return diffusion.Path(t, W)

            d1 = abs(action.om_action(pot, knots(1e-2), D).defect)
            d2 = abs(action.om_action(pot, knots(1e-3), D).defect)
            n_paths += 1
            if d2 > 1e-12:
                worst = max(worst, d2 / d1)
    ok = worst <= 0.5
    _verdict(
        5,
        ok,
        f"worst defect ratio {worst:.4f} (gate 0.5) over {n_paths} random paths "
        f"on {len(pots)} potentials",
    )
    assert ok


def test_criterion_06_minimum_action_paths():
    # Zero potential: the optimal path is the straight line. Small-D
    # quadratic with endpoints on the relaxation flow: the optimizer must
    # recover the flow. Frozen: deviations 1.1e-16 and 1.46e-5, scaled
    # stationarity residual 1.47e-4.
    flat = landscape.Quadratic(np.zeros(2))
    wf = np.array([1.0, -0.5])
    cp0 = action.minimum_action_path(flat, np.zeros(2), wf, 1.0, 61, 0.1)
    straight = np.linspace(0.0, 1.0, 61)[:, None] * wf
    dev0 = float(np.abs(cp0.path.points - straight).max())

    k = np.array([1.0, 2.0])
    pot = landscape.Quadratic(k)
    w0 = np.array([1.2, -0.8])
    T = 1.5
    cp1 = action.minimum_action_path(pot, w0, w0 * np.exp(-k * T), T, 121, 1e-3)
    flow = w0 * np.exp(-k * cp1.path.times[:, None])
    dev1 = float(np.abs(cp1.path.points - flow).max())
    el_rel = float(cp1.el_residual / cp1.el_scale)

    ok = cp0.converged and cp1.converged and dev0 < 1e-6 and dev1 < 0.02 and el_rel < 1e-3
    _verdict(
        6,
        ok,
        f"straight-line deviation {dev0:.2e} (gate 1e-6), gradient-flow deviation "
        f"{dev1:.2e} (gate 0.02), scaled stationarity residual {el_rel:.2e} (gate 1e-3)",
    )
    assert ok


def test_criterion_07_channel_marginalization():
    # Long-run marginal of the channel coordinate vs the depth-only weight
    # (constant stiffness) and vs the stiffness-corrected weight (varying
    # stiffness). Frozen: TVs 0.0078 and 0.0080, uncorrected 0.0673.
    a = landscape.Polynomial1D([0.0, 0.0, 0.5])
    params = diffusion.DiffusionParams(D=0.3, dt=1e-2, max_steps=40000, seed=0)

    ch_const = landscape.Channel2D(a, landscape.Polynomial1D([3.0]))
    r1 = action.channel_marginal_check(ch_const, 0.0, 0.3, params, 32, 25)

    ch_var = landscape.Channel2D(a, landscape.Polynomial1D([2.5, 0.0, 4.0]))
    r2 = action.channel_marginal_check(ch_var, 0.0, 0.3, params, 32, 25)

    ok = (
        r1.equilibrated
        and r2.equilibrated
        and r1.tv_corrected < 0.05
        and r2.tv_corrected < 0.05
        and r2.tv_corrected < r2.tv_uncorrected
    )
    _verdict(
        7,
        ok,
        f"constant-stiffness TV {r1.tv_corrected:.4f} (gate 0.05); varying-stiffness "
        f"corrected TV {r2.tv_corrected:.4f} (gate 0.05) vs uncorrected {r2.tv_uncorrected:.4f}",
    )
    assert ok


def test_criterion_08_information_geometry():
    # Exact self-KL, the Fisher quadratic expansion of the predictive KL,
    # and the tabulated closed-form examples for the optimal covariance and
    # the complexity assembly, all to stated precision.
    prior = complexity.GaussianPosterior(np.zeros(3), 2.0 * np.eye(3))
    kl_self = complexity.gaussian_kl(prior, 2.0)

    rng = np.random.default_rng(0)
    d = tasks.generate_blobs(3, 40, 2, 2.0, seed=9)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 2, 3))
    w = 0.3 * rng.standard_normal(t.model.n_params)
    F = complexity.fisher(t, w)
    delta = rng.standard_normal(t.model.n_params)
    delta /= np.linalg.norm(delta)
    eps = 1e-3

    def posterior(w):  # softmax over the logits [0, z], z = W x
        Z = np.hstack([np.zeros((d.n, 1)), d.inputs @ w.reshape(2, 2).T])
        E = np.exp(Z - Z.max(axis=1, keepdims=True))
        return E / E.sum(axis=1, keepdims=True)

    P = posterior(w)
    P2 = posterior(w + eps * delta)
    kl_pred = float(np.mean(np.sum(P * (np.log(P) - np.log(P2)), axis=1)))
    ratio = kl_pred / (0.5 * eps**2 * float(delta @ F @ delta))

    s_err = max(
        float(np.abs(complexity.optimal_sigma(np.zeros((2, 2)), 3.0, 0.7) - 0.7 * np.eye(2)).max()),
        float(np.abs(complexity.optimal_sigma(2.0 * np.eye(3), 2.0, 1.0) - np.eye(3) / 3.0).max()),
        float(
            np.abs(
                complexity.optimal_sigma(np.diag([1.0, 3.0]), 1.0, 1.0)
                - np.diag([1.0 / 3.0, 1.0 / 7.0])
            ).max()
        ),
    )

    # zero inputs: cross-entropy log 2 at any weight, zero curvature, zero norm
    zero_in = tasks.Dataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), 2)
    tz = tasks.Task(zero_in, tasks.ModelSpec("multinomial-logistic", 1, 2))
    rep0 = complexity.c_beta(tz, np.zeros(1), 1.0, 1.0)
    rep1 = complexity.c_beta_from_parts(0.5, np.ones(1), np.array([[0.5]]), 1.0, 1.0)
    c_err = max(
        abs(rep0.total - math.log(2.0)),
        abs(rep1.total - (0.5 + 0.5 * (1.0 + math.log(2.0)))),
    )

    ok = kl_self == 0.0 and abs(ratio - 1.0) <= 0.05 and s_err < 1e-10 and c_err < 1e-10
    _verdict(
        8,
        ok,
        f"self-KL {float(kl_self)!r} (must be exactly 0.0), KL/quadratic ratio {ratio:.6f} "
        f"(gate 1 +- 5% at eps 1e-3), tabulated covariance error {s_err:.2e} and "
        f"complexity error {c_err:.2e} (gate 1e-10)",
    )
    assert ok


def test_criterion_09_label_sweep_trend(tmp_path):
    # Five corruption levels: complexity strictly increasing and rank-aligned
    # with median convergence time. Frozen: c_beta [1.0792, 1.3966, 1.5492,
    # 1.5756, 1.6410], median times [1094.6, 1708.6, 1984.1, 2744.95,
    # 3031.75], Spearman 1.0, zero censored, 3m29s wall.
    raw = {
        "seed": 5,
        "model": {
            "family": "mlp-1-hidden",
            "input_dim": 3,
            "n_classes": 4,
            "hidden": 50,
            "activation": "tanh",
        },
        "data": {"n_samples": 100, "separation": 2.5},
        "corruption_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "beta": 0.02,
        "prior_scale2": 1.0,
        "trainer": {"step_size": 0.3, "max_iters": 12000, "grad_tol": 1e-6, "init_scale": 0.1},
        "sgd": {"eta": 0.1, "batch_size": 10, "max_steps": 50000},
        "n_runs": 16,
        "threshold_extra": 0.25,
    }
    t0 = time.time()
    cfg = parse_config("label-sweep", raw)
    b = experiments.run_experiment(cfg, str(tmp_path))
    wall = time.time() - t0
    rho = b.summary["spearman_cbeta_time"]
    mono = b.summary["cbeta_increasing_in_rho"]
    ok = bool(mono and rho is not None and rho >= 0.9 and wall < 600.0)
    cb = [round(r["c_beta"], 4) for r in b.records]
    rho_txt = "undefined" if rho is None else f"{rho:.4f}"
    _verdict(
        9,
        ok,
        f"complexity over 5 corruption levels {cb} monotone={mono}, "
        f"Spearman(complexity, median time) {rho_txt} (gate 0.9), wall {wall:.0f}s (gate 600)",
    )
    assert ok


def test_criterion_10_finetune_asymmetry(tmp_path):
    # Corruption-nested 4-task family: warm starts from the harder task reach
    # the easier one faster than the reverse, the asymmetric distance points
    # the same way, and distance rank-orders the times. Frozen: 6/6 pairs
    # agree, Spearman 0.9161, base complexities [0.967, 1.386, 1.540, 1.628].
    raw = {
        "seed": 7,
        "model": {
            "family": "mlp-1-hidden",
            "input_dim": 3,
            "n_classes": 4,
            "hidden": 30,
            "activation": "tanh",
        },
        "data": {"n_samples": 120, "separation": 2.5},
        "tasks": [
            {"label": "clean", "corruption": 0.0},
            {"label": "noisy25", "corruption": 0.25},
            {"label": "noisy50", "corruption": 0.5},
            {"label": "noisy75", "corruption": 0.75},
        ],
        "beta": 0.02,
        "prior_scale2": 1.0,
        "trainer": {"step_size": 0.3, "max_iters": 12000, "grad_tol": 1e-6, "init_scale": 0.1},
        "sgd": {"eta": 0.1, "batch_size": 10, "max_steps": 50000},
        "n_runs": 8,
        "threshold_extra": 0.25,
    }
    cfg = parse_config("finetune-matrix", raw)
    b = experiments.run_experiment(cfg, str(tmp_path))
    s = b.summary
    times = s["median_times"]
    n = len(s["labels"])
    # task i is simpler than task j for i < j: corruption is nested upward
    direction = [
        times[j][i] < times[i][j] for i in range(n) for j in range(i + 1, n)
    ]
    frac_dir = sum(direction) / len(direction)
    frac_agree = s["asymmetry_pairs_agree"] / s["asymmetry_pairs_total"]
    rho = s["spearman_distance_time"]
    ok = bool(frac_dir >= 0.8 and frac_agree >= 0.8 and rho is not None and rho >= 0.7)
    rho_txt = "undefined" if rho is None else f"{rho:.4f}"
    _verdict(
        10,
        ok,
        f"hard->easy faster than easy->hard in {sum(direction)}/{len(direction)} pairs, "
        f"distance asymmetry agrees in {s['asymmetry_pairs_agree']}/{s['asymmetry_pairs_total']} "
        f"(gate 80%), Spearman(distance, time) {rho_txt} (gate 0.7)",
    )
    assert ok


def test_criterion_11_bundle_determinism(tmp_path):
    # Every experiment kind regenerates bit-identical results (timing aside)
    # from its config, in a fresh directory and under 2 workers.
    minis = {
        "kramers-sweep": {
            "seed": 1,
            "potential": {"name": "double_well_1d"},
            "w0": [-1.0],
            "target": [1.0],
            "radius": 0.2,
            "d_grid": [0.25, 0.3, 0.4],
            "dt": 5e-3,
            "max_steps": 20000,
            "n_runs": 4,
        },
        "label-sweep": {
            "seed": 3,
            "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
            "data": {"n_samples": 60, "separation": 2.5},
            "corruption_grid": [0.0, 0.3, 0.6],
            "beta": 0.02,
            "prior_scale2": 1.0,
            "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
            "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 8000},
            "n_runs": 4,
            "threshold_extra": 0.15,
        },
        "batch-sweep": {
            "seed": 4,
            "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
            "data": {"n_samples": 30, "separation": 2.0},
            "batch_grid": [4, 8, 16],
            "eta": 0.05,
            "max_steps": 2000,
            "n_runs": 3,
            "noise_draws": 400,
            "trainer": {"step_size": 0.5, "max_iters": 1000, "grad_tol": 1e-7, "init_scale": 0.5},
            "threshold_extra": 0.1,
        },
        "complexity-scatter": {
            "seed": 3,
            "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
            "data": {"n_samples": 60, "separation": 2.5},
            "tasks": [
                {"label": "clean", "corruption": 0.0},
                {"label": "mid", "corruption": 0.4},
                {"label": "high", "corruption": 0.8},
            ],
            "beta": 0.02,
            "prior_scale2": 1.0,
            "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
            "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 8000},
            "n_runs": 4,
            "threshold_extra": 0.15,
        },
        "finetune-matrix": {
            "seed": 2,
            "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
            "data": {"n_samples": 60, "separation": 2.5},
            "tasks": [
                {"label": "full", "corruption": 0.0},
                {"label": "pair", "keep_classes": [0, 1]},
            ],
            "beta": 0.02,
            "prior_scale2": 1.0,
            "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
            "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 5000},
            "n_runs": 4,
            "threshold_extra": 0.1,
        },
        "structure-curve": {
            "seed": 1,
            "model": {"family": "multinomial-logistic", "input_dim": 1, "n_classes": 2},
            "data": {"n_samples": 30, "separation": 10.0},
            "beta_grid": [1e6, 30.0, 0.3, 3e-4],
            "prior_scale2": 0.01,
            "trainer": {"step_size": 0.5, "max_iters": 20000, "grad_tol": 1e-10},
        },
        "action-check": {
            "seed": 0,
            "potential": {"name": "quadratic", "a": [1.0, 2.0]},
            "start": [1.2, -0.8],
            "end": [float(1.2 * np.exp(-1.5)), float(-0.8 * np.exp(-3.0))],
            "duration": 1.5,
            "n_knots": 61,
            "D": 0.001,
        },
    }
    bad = []
    for kind, raw in minis.items():
        cfg = parse_config(kind, raw)
        runs = [
            experiments.run_experiment(cfg, str(tmp_path / kind / tag), workers=wk)
            for tag, wk in (("a", 1), ("b", 1), ("w2", 2))
        ]
        blobs = [canonical_json(b.result_fields()) for b in runs]
        if not (blobs[0] == blobs[1] == blobs[2]):
            bad.append(kind)
    ok = not bad
    _verdict(
        11,
        ok,
        f"all {len(minis)} experiment kinds regenerate byte-identical results "
        f"across reruns and under 2 workers"
        + (f"; MISMATCH in {bad}" if bad else ""),
    )
    assert ok
