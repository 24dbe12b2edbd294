"""Path actions: exact values, the static/dynamic split, critical paths, channels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlab import action, landscape
from reachlab.action import (
    channel_marginal_check,
    minimum_action_path,
    om_action,
    transition_ratio,
)
from reachlab.diffusion import _NOISE_CHUNK, DiffusionParams, Path
from reachlab.errors import ContractError, SimulationError
from reachlab.rng import stream


# -- om_action ------------------------------------------------------------------


def test_action_contracts():
    q = landscape.Quadratic([1.0])
    p = Path(np.linspace(0, 1, 5), np.zeros((5, 1)))
    for D in (0.0, -1.0, np.nan):
        with pytest.raises(ContractError):
            om_action(q, p, D)
    with pytest.raises(ContractError):
        om_action(q, Path(np.array([0.0, 1.0]), np.zeros((2, 1))), 0.1)
    q2 = landscape.Quadratic([1.0, 1.0])
    with pytest.raises(ContractError):
        om_action(q2, p, 0.1)


def test_action_of_straight_line_on_flat_potential():
    # |dw/dt|^2/(4D) with unit speed and D = 1/4 integrates to exactly 1
    flat = landscape.Quadratic([0.0])
    t = np.linspace(0.0, 1.0, 11)
    br = om_action(flat, Path(t, t[:, None]), 0.25)
    assert br.total == 1.0
    assert br.static_term == 0.0
    assert br.dynamic_term == 1.0
    assert br.defect == 0.0


def test_action_of_resting_at_a_minimum():
    # zero velocity and zero drift leave only the -lap/2 divergence term:
    # constant integrands make the midpoint rule exact, so no defect
    q = landscape.Quadratic([2.0])
    t = np.linspace(0.0, 1.0, 11)
    br = om_action(q, Path(t, np.zeros((11, 1))), 0.1)
    assert br.total == pytest.approx(-1.0, rel=1e-14)
    assert br.static_term == 0.0
    assert abs(br.defect) < 1e-14


def test_reversal_shifts_action_by_the_potential_drop():
    # forward minus backward cost telescopes to (U(end) - U(start)) / D;
    # the dynamic part is exactly reversal invariant on the same knots
    dw = landscape.DoubleWell1D()
    D = 0.2
    t = np.arange(0, 2001) * 1e-3
    s = t[:, None] / t[-1]
    W = (1 - s) * np.array([-1.2]) + s * np.array([0.7]) + 0.3 * np.sin(np.pi * s)
    p = Path(t, W)
    f = om_action(dw, p, D)
    r = om_action(dw, p.reversed(), D)
    dU = dw.value(W[-1]) - dw.value(W[0])
    assert f.dynamic_term == r.dynamic_term
    assert f.static_term == -r.static_term
    assert (f.total - r.total) == pytest.approx(dU / D, abs=1e-5)


def test_defect_shrinks_quadratically_with_dt():
    pots = [
        landscape.Quadratic(np.array([1.0, 2.0])),
        landscape.DoubleWell1D(),
        landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([3.0, 0.0, 0.5])),
    ]
    rng = stream(42)
    D, T = 0.25, 2.0
    for pot in pots:
        d = pot.dim
        a, b = rng.normal(0, 0.8, d), rng.normal(0, 0.8, d)
        coef = rng.normal(0, 0.3, (3, d))

        def knots(dt):
            t = np.arange(int(T / dt) + 1) * dt
            s = (t / T)[:, None]
            W = (1 - s) * a + s * b
            for m in range(3):
                W = W + coef[m] * np.sin(np.pi * (m + 1) * s)
            return Path(t, W)

        d1 = abs(om_action(pot, knots(1e-2), D).defect)
        d2 = abs(om_action(pot, knots(1e-3), D).defect)
        assert d2 <= 0.5 * d1 or d2 < 1e-12


# -- minimum-action paths ---------------------------------------------------------


def test_critical_path_on_flat_potential_is_straight():
    flat = landscape.Quadratic(np.zeros(2))
    wf = np.array([1.0, -0.5])
    cp = minimum_action_path(flat, np.zeros(2), wf, 1.0, 61, 0.1)
    straight = np.linspace(0.0, 1.0, 61)[:, None] * wf
    assert cp.converged
    assert np.abs(cp.path.points - straight).max() < 1e-6


def test_critical_path_tracks_gradient_flow_at_small_noise():
    # with wf placed on the flow through w0, the zero-cost path is the
    # relaxation itself; the optimizer must find it to discretization error
    k = np.array([1.0, 2.0])
    pot = landscape.Quadratic(k)
    w0 = np.array([1.2, -0.8])
    T = 1.5
    wf = w0 * np.exp(-k * T)
    cp = minimum_action_path(pot, w0, wf, T, 121, 1e-3)
    flow = w0 * np.exp(-k * cp.path.times[:, None])
    assert cp.converged
    assert np.abs(cp.path.points - flow).max() < 0.02
    assert cp.el_residual < 1e-3 * cp.el_scale


def test_critical_path_crosses_the_barrier():
    dw = landscape.DoubleWell1D()
    cp = minimum_action_path(dw, np.array([-1.0]), np.array([1.0]), 6.0, 101, 0.1)
    assert cp.converged
    # the path must pass through the saddle region between the wells
    x = cp.path.points[:, 0]
    assert x.min() >= -1.5 and x.max() <= 1.5
    assert np.any(np.diff(np.sign(x)) != 0)
    assert cp.el_residual < 0.02 * cp.el_scale


def test_critical_path_endpoints_are_pinned():
    pot = landscape.Quadratic([1.0, 3.0])
    w0, wf = np.array([1.0, 1.0]), np.array([0.2, 0.1])
    cp = minimum_action_path(pot, w0, wf, 2.0, 41, 0.05)
    assert np.array_equal(cp.path.points[0], w0)
    assert np.array_equal(cp.path.points[-1], wf)
    for alt in cp.alternates:
        assert np.array_equal(alt.path.points[0], w0)


def test_critical_path_contracts():
    pot = landscape.Quadratic([1.0])
    for kw in ((0.0, 11, 0.1), (1.0, 2, 0.1), (1.0, 11, 0.0)):
        with pytest.raises(ContractError):
            minimum_action_path(pot, np.zeros(1), np.ones(1), *kw)
    # a budget below one iteration is refused, not rounded up to one
    for maxiter in (0, -5):
        with pytest.raises(ContractError, match="maxiter"):
            minimum_action_path(pot, np.zeros(1), np.ones(1), 1.0, 11, 0.1, maxiter=maxiter)


def test_opt_config_budget_is_respected():
    pot = landscape.Quadratic([1.0, 2.0])
    w0 = np.array([1.2, -0.8])
    wf = w0 * np.exp(-np.array([1.0, 2.0]) * 1.5)
    cp = minimum_action_path(pot, w0, wf, 1.5, 61, 1e-3, maxiter=1)
    assert not cp.converged


def _interior_action(p, w0, wf, T, n_knots, D):
    """minimum_action_path's objective over the interior knots, counting calls."""
    dt = T / (n_knots - 1)
    calls = [0]

    def fun(x):
        calls[0] += 1
        W = np.vstack([w0, x.reshape(n_knots - 2, p.dim), wf])
        S, g = action._action_and_grad(p, W, dt, D)
        return S, g.ravel()

    return fun, calls


def _channel_starts():
    # the channel-action workload's problem and its three descent starts
    ch = landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([2.5, 0.0, 4.0]))
    w0, wf, T, n = np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 4.0, 33
    starts = [
        w0 + (wf - w0) * np.linspace(0.0, 1.0, n)[:, None],
        action._flow_interpolant(ch, w0, wf, T, n),
        action._flow_interpolant(ch, wf, w0, T, n)[::-1],
    ]
    return [(ch, w0, wf, T, n, 0.1, W[1:-1].ravel(), 1500) for W in starts]


def _quadratic_case(maxiter):
    k, w0, T, n = np.array([1.0, 2.0]), np.array([1.2, -0.8]), 1.5, 61
    wf = w0 * np.exp(-k * T)
    x0 = (w0 + (wf - w0) * np.linspace(0.0, 1.0, n)[:, None])[1:-1].ravel()
    return (landscape.Quadratic(k), w0, wf, T, n, 1e-3, x0, maxiter)


_LBFGS_CASES = {
    "quadratic": _quadratic_case(1500),
    "quadratic-maxiter-5": _quadratic_case(5),
    **{f"channel-start-{i}": case for i, case in enumerate(_channel_starts())},
}


@pytest.mark.parametrize("name", sorted(_LBFGS_CASES))
def test_lbfgs_driver_reproduces_scipy_minimize(name):
    from scipy.optimize import minimize

    p, w0, wf, T, n_knots, D, x0, maxiter = _LBFGS_CASES[name]
    fun, calls = _interior_action(p, w0, wf, T, n_knots, D)
    x, ok, nit, code = action._lbfgs(fun, x0, fun(x0), maxiter, 1e-12, 1e-16)
    ours = calls[0]
    fun, calls = _interior_action(p, w0, wf, T, n_knots, D)
    res = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": maxiter, "gtol": 1e-12, "ftol": 1e-16},
    )
    assert x.tobytes() == res.x.tobytes()  # every iterate bitwise
    assert (ok, nit) == (res.success, res.nit)
    assert ours == calls[0] == res.nfev  # one call per distinct point, the start's included
    if maxiter == 5:
        assert (ok, nit, code, res.status) == (False, 5, 504, 1)
    else:
        assert ok


def test_lbfgs_refuses_an_incompatible_scipy(monkeypatch):
    import importlib.machinery

    import scipy

    def old_setulb(*args):
        """x,f,g,... = setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave,maxls)"""

    exec_module = importlib.machinery.ExtensionFileLoader.exec_module

    def exec_old(self, mod):
        exec_module(self, mod)
        mod.setulb = old_setulb

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", exec_old)
    action._load_setulb.cache_clear()
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}'s L-BFGS-B core"):
        action._load_setulb()
    monkeypatch.undo()
    assert action._load_setulb().__doc__.startswith(action._SETULB_SIGNATURE)


def _reference_flow(p, start, end, T, n_knots):
    """``_flow_interpolant`` without the fixed-point exit: every substep taken."""
    h = T / ((n_knots - 1) * action._FLOW_SUBSTEPS)
    clamp = 10.0 * (np.linalg.norm(start) + np.linalg.norm(end) + 1.0)
    W = np.empty((n_knots, p.dim))
    w = start.copy()
    W[0] = w
    for k in range(1, n_knots):
        for _ in range(action._FLOW_SUBSTEPS):
            w = w + h * (-p.grad(w))
            nrm = np.linalg.norm(w)
            if nrm > clamp:
                w = w * (clamp / nrm)
        W[k] = w
    t = np.linspace(0.0, 1.0, n_knots)[:, None]
    return W + t * (end - W[-1])


_CHANNEL_ACTION = landscape.Channel2D(
    landscape.DoubleWell1D(), landscape.Polynomial1D([2.5, 0.0, 4.0])
)

# name -> (potential, start, end, T, n_knots, substeps the flow takes)
_FLOW_CASES = {
    # a minimum: the first substep returns the start
    "stationary": (_CHANNEL_ACTION, [-1.0, 0.0], [1.0, 0.0], 4.0, 33, 1),
    # relaxes toward the origin and never settles within T
    "relaxing": (landscape.Quadratic([1.0, 2.0]), [1.2, -0.8], [0.27, -0.04], 1.5, 61, 600),
    # settles on the minimum at w = 1 partway through
    "settling": (landscape.DoubleWell1D(), [0.3], [1.0], 100.0, 41, None),
    # runs away from the top of an inverted bowl and is held on the clamp
    "clamped": (landscape.Quadratic([-3.0]), [0.5], [0.0], 3.0, 21, None),
    # the first substep turns -0.0 into 0.0, a change; the second is the fixed point
    "negative-zero": (landscape.Quadratic([1.0, 2.0]), [-0.0, 0.0], [0.5, -0.0], 1.0, 11, 2),
}


@pytest.mark.parametrize("name", sorted(_FLOW_CASES))
def test_flow_interpolant_matches_full_stepping_bitwise(name, monkeypatch):
    p, start, end, T, n, substeps = _FLOW_CASES[name]
    start, end = np.array(start), np.array(end)
    ref = _reference_flow(p, start, end, T, n)
    calls = [0]
    grad = p.grad

    def counted(w):
        calls[0] += 1
        return grad(w)

    monkeypatch.setattr(p, "grad", counted)
    got = action._flow_interpolant(p, start, end, T, n)
    assert got.tobytes() == ref.tobytes()
    full = (n - 1) * action._FLOW_SUBSTEPS
    if substeps is not None:
        assert calls[0] == substeps
    elif name == "settling":
        assert calls[0] < full
    assert calls[0] <= full


def _reference_minimum_action_path(p, w0, wf, T, n_knots, D, maxiter=1500):
    """``minimum_action_path`` with every start descended and every flow
    substep taken: the bitwise reference for the shared descents."""
    dt = T / (n_knots - 1)
    times = np.arange(n_knots) * dt
    lin = w0 + (wf - w0) * (times / T)[:, None]
    starts = [
        lin,
        _reference_flow(p, w0, wf, T, n_knots),
        _reference_flow(p, wf, w0, T, n_knots)[::-1].copy(),
    ]
    fun, _ = _interior_action(p, w0, wf, T, n_knots, D)

    def unpack(x):
        return np.vstack([w0, x.reshape(n_knots - 2, p.dim), wf])

    found = []
    for W_init in starts:
        x0 = W_init[1:-1].ravel()
        fg0 = fun(x0)
        x, success, _, _ = action._lbfgs(fun, x0, fg0, maxiter, 1e-12, 1e-16)
        W = unpack(x)
        S, g = action._action_and_grad(p, W, dt, D)
        gn = float(np.linalg.norm(g))
        found.append((S, gn, W, success and gn <= 1e-4 * max(1.0, float(np.linalg.norm(fg0[1])))))
    scale = max(1.0, float(np.max(np.abs(np.stack([f[2] for f in found])))))
    reps = []
    for S, gn, W, ok in sorted(found, key=lambda f: f[0]):
        if not any(np.max(np.abs(W - Wr)) < 1e-3 * scale for _, _, Wr, _ in reps):
            reps.append((S, gn, W, ok))
    out = []
    for S, gn, W, ok in reps:
        path = Path(times, W)
        res_el, sc_el = action._el_residual(p, W, dt, D)
        out.append(action.CriticalPath(path, om_action(p, path, D), res_el, sc_el, ok))
    return out


def _critical_path_bits(cp):
    a = cp.action
    return (cp.path.points.tobytes(), cp.path.times.tobytes(), a.total, a.static_term,
            a.dynamic_term, cp.el_residual, cp.el_scale, cp.converged)


_MAP_CASES = {
    # the channel-action workload: minimum to minimum, all three starts identical
    "channel-action": ((_CHANNEL_ACTION, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 4.0, 33, 0.1), 1),
    # the action-check test config: three distinct starts
    "quadratic": (_quadratic_case(1500)[:6], 3),
}


@pytest.mark.parametrize("name", sorted(_MAP_CASES))
def test_identical_starts_are_descended_once(name, monkeypatch):
    args, descents = _MAP_CASES[name]
    ref = _reference_minimum_action_path(*args)
    calls = [0]
    lbfgs = action._lbfgs

    def counted(*a):
        calls[0] += 1
        return lbfgs(*a)

    monkeypatch.setattr(action, "_lbfgs", counted)
    cp = minimum_action_path(*args)
    assert calls[0] == descents
    assert [_critical_path_bits(c) for c in [cp, *cp.alternates]] == [_critical_path_bits(c) for c in ref]
    assert not any(c.alternates for c in cp.alternates)


_GRAD_POTENTIALS = {
    "quadratic": landscape.Quadratic([1.5, 0.5]),
    "double_well": landscape.DoubleWell1D(),
    "channel": landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([2.5, 0.0, 4.0])),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_GRAD_POTENTIALS)),
    n_knots=st.integers(3, 8),
    dt=st.floats(0.05, 0.5),
    D=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_action_gradient_matches_central_differences(name, n_knots, dt, D, seed):
    # the analytic gradient L-BFGS descends on, against central differences
    # of the discrete action in every interior-knot coordinate
    p = _GRAD_POTENTIALS[name]
    W = np.random.default_rng(seed).uniform(-1.5, 1.5, (n_knots, p.dim))
    S, grad = action._action_and_grad(p, W, dt, D)
    assert grad.shape == (n_knots - 2, p.dim)
    h = 1e-6
    fd = np.empty_like(grad)
    for j in range(1, n_knots - 1):
        for a in range(p.dim):
            Wp, Wm = W.copy(), W.copy()
            Wp[j, a] += h
            Wm[j, a] -= h
            fd[j - 1, a] = (action._action_and_grad(p, Wp, dt, D)[0]
                            - action._action_and_grad(p, Wm, dt, D)[0]) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-7, atol=1e-7 * (1.0 + abs(S)))


# -- endpoint occupation ------------------------------------------------------------


def test_transition_ratio_prefers_the_basin():
    q = landscape.Quadratic([1.0, 1.0])
    par = DiffusionParams(D=0.05, dt=0.01, max_steps=5000, seed=3)
    rat = transition_ratio(
        q, np.array([1.5, 0.0]), [np.zeros(2), np.array([3.0, 3.0])], 0.6, 20.0, par, 64)
    assert rat[0] == 1.0
    assert rat[1] == 0.0


def test_transition_ratio_contracts():
    q = landscape.Quadratic([1.0, 1.0])
    par = DiffusionParams(D=0.05, dt=0.01, max_steps=100, seed=3)
    with pytest.raises(ContractError):
        transition_ratio(q, np.zeros(2), [], 0.5, 1.0, par, 8)
    with pytest.raises(ContractError):
        transition_ratio(q, np.zeros(2), [np.zeros(2)], -0.5, 1.0, par, 8)
    with pytest.raises(ContractError):
        transition_ratio(q, np.zeros(2), [np.zeros(2)], 0.5, 100.0, par, 8)
    with pytest.raises(ContractError, match="finite square"):
        transition_ratio(q, np.zeros(2), [np.full(2, 1e200)], 2e154, 1.0, par, 8)


def test_transition_ratio_zero_reference_is_an_error():
    # noiseless walkers relax to the origin, never to the far reference
    q = landscape.Quadratic([1.0, 1.0])
    par = DiffusionParams(D=0.0, dt=0.01, max_steps=200, seed=0)
    with pytest.raises(SimulationError, match="reference"):
        transition_ratio(q, np.zeros(2), [np.array([5.0, 5.0])], 0.1, 2.0, par, 4)


def _reference_ensemble(p, w0, params, n_runs, record_every=0, burn_frac=0.0):
    """``action._ensemble_states`` as a lockstep loop recording step by step."""
    d, chunk = p.dim, _NOISE_CHUNK
    gens = [stream(params.seed, i) for i in range(n_runs)]
    pos = np.tile(np.asarray(w0, dtype=float), (n_runs, 1))
    amp = np.sqrt(2.0 * params.D * params.dt)
    burn = int(burn_frac * params.max_steps)
    recs = []
    buf = np.empty((n_runs, chunk, d))
    for step in range(params.max_steps):
        c = step % chunk
        if c == 0:
            m = min(chunk, params.max_steps - step)
            for i in range(n_runs):
                buf[i, :m] = gens[i].standard_normal((m, d))
        pos = pos + params.dt * (-p.grad_many(pos)) + amp * buf[:, c]
        if record_every and step >= burn and (step - burn) % record_every == 0:
            recs.append(pos[:, 0].copy())
    if not np.all(np.isfinite(pos)):
        raise SimulationError("ensemble left the finite region; reduce dt or D")
    return pos, np.concatenate(recs) if recs else np.empty(0)


_CHANNEL = landscape.Channel2D(
    landscape.DoubleWell1D(), landscape.Polynomial1D([2.5, 0.0, 4.0])
)


@settings(max_examples=30, deadline=None)
@given(
    n_runs=st.integers(1, 10),
    D=st.one_of(st.just(0.0), st.floats(0.02, 0.5)),
    dt=st.floats(1e-3, 1e-2),
    max_steps=st.integers(1, 2600),
    record=st.tuples(st.integers(0, 7), st.floats(0.0, 0.9)),
    seed=st.integers(0, 3),
)
def test_ensemble_states_match_the_per_step_loop(n_runs, D, dt, max_steps, record, seed):
    par = DiffusionParams(D=D, dt=dt, max_steps=max_steps, seed=seed)
    w0 = np.array([-1.0, 0.2])
    pos, samples = action._ensemble_states(_CHANNEL, w0, par, n_runs, *record)
    ref_pos, ref_samples = _reference_ensemble(_CHANNEL, w0, par, n_runs, *record)
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(samples, ref_samples)


def test_ensemble_divergence_is_a_simulation_error():
    # w -> -1.5 w per step overflows past the first refill
    q = landscape.Quadratic([5.0, 1.0])
    par = DiffusionParams(D=0.1, dt=0.5, max_steps=3000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SimulationError, match="finite"):
            _reference_ensemble(q, np.ones(2), par, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="finite"):
            action._ensemble_states(q, np.ones(2), par, 3)


# -- channel marginals ---------------------------------------------------------------


def test_channel_marginal_matches_prediction():
    a = landscape.Polynomial1D([0.0, 0.0, 0.5])  # a(u) = u^2/2
    ch = landscape.Channel2D(a, landscape.Polynomial1D([3.0]))
    par = DiffusionParams(D=0.3, dt=1e-2, max_steps=8000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = channel_marginal_check(ch, 0.0, 0.3, par, 16, 25)
    assert r.equilibrated
    assert r.n_samples == 12800
    assert r.tv_corrected < 0.1
    # constant stiffness: the corrected and uncorrected predictions coincide
    assert r.tv_corrected == pytest.approx(r.tv_uncorrected, abs=1e-12)


def test_channel_marginal_penalizes_narrow_sections():
    # varying stiffness splits the two predictions; the corrected one wins
    a = landscape.Polynomial1D([0.0, 0.0, 0.5])
    ch = landscape.Channel2D(a, landscape.Polynomial1D([2.5, 0.0, 4.0]))
    par = DiffusionParams(D=0.3, dt=1e-2, max_steps=20000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = channel_marginal_check(ch, 0.0, 0.3, par, 16, 25)
    assert r.tv_corrected < r.tv_uncorrected


def test_channel_marginal_warns_when_adiabatic_picture_is_marginal():
    # double-well channel curvature tops out near 47 on the box; b = 3
    ch = landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([3.0]))
    par = DiffusionParams(D=0.2, dt=5e-3, max_steps=4000, seed=1)
    with pytest.warns(RuntimeWarning, match="adiabatic"):
        channel_marginal_check(ch, -1.0, 0.2, par, 8, 10)


def test_channel_marginal_contracts():
    q = landscape.Quadratic([1.0, 1.0])
    ch = landscape.Channel2D(landscape.Polynomial1D([0.0, 0.0, 0.5]), landscape.Polynomial1D([3.0]))
    par = DiffusionParams(D=0.3, dt=1e-2, max_steps=1000, seed=0)
    with pytest.raises(ContractError):
        channel_marginal_check(q, 0.0, 0.3, par, 8, 25)
    with pytest.raises(ContractError):
        channel_marginal_check(ch, 0.0, 0.3, par, 8, 3)
    with pytest.raises(SimulationError, match="samples"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            channel_marginal_check(
                ch, 0.0, 0.3, DiffusionParams(D=0.3, dt=1e-2, max_steps=20, seed=0), 2, 4)
