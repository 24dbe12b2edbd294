"""Path costs of the overdamped dynamics and their critical paths.

For dw = f(w) dt + sqrt(2D) dB with f = -grad U, the (Stratonovich
midpoint) cost density of a smooth path is

    (1/4D) |dw/dt - f(w)|^2 + (1/2) div f(w),

discretized segment by segment with drift and divergence evaluated at
segment midpoints.  Expanding the square splits the total into a static
part, (U(end) - U(start)) / 2D, that depends only on the endpoints, and a
dynamic part (1/2D) int [ (1/2)|dw/dt|^2 + V(w) ] dt built on the path
potential V = 0.5 |grad U|^2 - D lap U.  ``_midpoint_terms`` holds the
one per-segment formula that ``om_action`` and the descent's
``_action_and_grad`` both sum.  The split is exact in the
continuum; on a grid the mismatch (the "decomposition defect") is the
midpoint quadrature error of int grad U . dw and shrinks like dt^2.

Critical paths satisfy d^2w/dt^2 = grad V and are found by descending the
discretized action over interior knots with its analytic gradient.
"""

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .diffusion import _NOISE_CHUNK, DiffusionParams, Path, _langevin_block
from .errors import ContractError, SimulationError
from .landscape import Channel2D, check_point
from .rng import stream


@dataclass(frozen=True)
class ActionBreakdown:
    """Discretized path action and its static/dynamic split.

    ``total`` is the midpoint-discretized cost; ``static_term`` +
    ``dynamic_term`` differs from it by the quadrature defect, which the
    decomposition tests drive to zero with dt.
    """

    total: float
    static_term: float
    dynamic_term: float

    @property
    def defect(self):
        return self.total - self.static_term - self.dynamic_term


def _midpoint_terms(p, W, dt, D):
    """Segment-midpoint pieces of the action of the knots W (n, d).

    Returns the midpoints, the velocities v, grad U and lap U at the
    midpoints, the residual r = v + grad U and the per-segment action
    dt (|r|^2 / 4D - lap U / 2), whose sum is the discrete action.
    """
    mids = 0.5 * (W[1:] + W[:-1])
    v = np.diff(W, axis=0) / dt
    g = p.grad_many(mids)          # f = -g
    lap = p.laplacian_many(mids)   # div f = -lap
    r = v + g
    return mids, v, g, lap, r, dt * (np.sum(r * r, axis=1) / (4.0 * D) - 0.5 * lap)


def om_action(p, path, D):
    """Midpoint-discretized action of ``path`` under potential ``p``."""
    if not (np.isfinite(D) and D > 0):
        raise ContractError("D must be positive (the action diverges as D -> 0)")
    W = path.points
    if W.shape[0] < 3:
        raise ContractError("need at least 3 knots")
    if W.shape[1] != p.dim:
        raise ContractError(f"path dim {W.shape[1]} != potential dim {p.dim}")
    dt = path.dt
    _, v, g, lap, _, per_seg = _midpoint_terms(p, W, dt, D)
    static = (p.value(W[-1]) - p.value(W[0])) / (2.0 * D)
    V = 0.5 * np.sum(g * g, axis=1) - D * lap  # the path potential
    dynamic = float(np.sum(dt * (0.5 * np.sum(v * v, axis=1) + V)) / (2.0 * D))
    return ActionBreakdown(float(np.sum(per_seg)), float(static), dynamic)


@dataclass(frozen=True)
class CriticalPath:
    path: Path
    action: ActionBreakdown
    el_residual: float      # max |w'' - grad V| over interior knots
    el_scale: float         # max |grad V| along the path, for relative gates
    converged: bool
    alternates: list = field(default_factory=list)


def _action_and_grad(p, W, dt, D):
    """Discrete action and its gradient w.r.t. the interior knots."""
    mids, _, _, _, r, per_seg = _midpoint_terms(p, W, dt, D)
    S = float(np.sum(per_seg))
    H = p.hessian_many(mids)
    gL = p.grad_laplacian_many(mids)
    Hr = np.einsum("kab,kb->ka", H, r)
    # segment k touches knots k and k+1; interior knot j collects k=j-1, j
    grad = (
        (r[:-1] - r[1:]) / (2.0 * D)
        + dt / (4.0 * D) * (Hr[:-1] + Hr[1:])
        - dt / 4.0 * (gL[:-1] + gL[1:])
    )
    return S, grad


def _el_residual(p, W, dt, D):
    inner = W[1:-1]
    acc = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / (dt * dt)
    H = p.hessian_many(inner)
    g = p.grad_many(inner)
    gV = np.einsum("kab,kb->ka", H, g) - D * p.grad_laplacian_many(inner)
    res = float(np.max(np.linalg.norm(acc - gV, axis=1)))
    scale = float(np.max(np.linalg.norm(gV, axis=1)))
    return res, scale


_FLOW_SUBSTEPS = 10  # flow-interpolant integration substeps per knot


def _flow_interpolant(p, start, end, T, n_knots):
    """Integrate w' = -grad U from ``start``; shear to hit ``end``.

    A substep is a pure function of ``w``, so once one returns ``w``
    byte for byte (a stationary start, or a flow that has settled) every
    later knot is that ``w`` and integration stops.  Bytes, not
    ``np.array_equal``: a step from -0.0 to 0.0 is a change.
    """
    d = p.dim
    h = T / ((n_knots - 1) * _FLOW_SUBSTEPS)
    clamp = 10.0 * (np.linalg.norm(start) + np.linalg.norm(end) + 1.0)
    W = np.empty((n_knots, d))
    w = start.copy()
    W[0] = w
    fixed = False
    for k in range(1, n_knots):
        for _ in range(_FLOW_SUBSTEPS):
            nxt = w + h * (-p.grad(w))
            nrm = np.linalg.norm(nxt)
            if nrm > clamp:
                nxt = nxt * (clamp / nrm)
            fixed = nxt.tobytes() == w.tobytes()
            if fixed:
                break
            w = nxt
        if fixed:
            W[k:] = w
            break
        W[k] = w
    t = np.linspace(0.0, 1.0, n_knots)[:, None]
    return W + t * (end - W[-1])


# scipy.optimize.minimize's L-BFGS-B defaults: history, line-search steps,
# evaluation budget
_LBFGS_M = 10
_LBFGS_MAXLS = 20
_LBFGS_MAXFUN = 15000
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


@cache
def _load_setulb():
    """scipy's compiled L-BFGS-B step, loaded without ``scipy.optimize``.

    The ``scipy.optimize`` ``__init__`` imports linprog, shgo, scipy.linalg
    and scipy.sparse, which cost more than every descent of a run; only
    the ``_lbfgsb`` extension is loaded, on first use.  scipy is located
    with ``find_spec``, so not even the ``scipy`` package ``__init__``
    runs; it is imported only to name its version in the error.
    """
    import importlib.machinery
    import importlib.util
    import os

    name = "scipy.optimize._lbfgsb"
    path = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize",
        "_lbfgsb" + importlib.machinery.EXTENSION_SUFFIXES[0],
    )
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    mod = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(mod)
    setulb = getattr(mod, "setulb", None)
    # setulb is private; a call with the wrong arguments could crash
    if not (callable(setulb) and (setulb.__doc__ or "").startswith(_SETULB_SIGNATURE)):
        import scipy

        raise ImportError(
            f"scipy {scipy.__version__}'s L-BFGS-B core is not "
            f"{_SETULB_SIGNATURE}; reachlab needs scipy>=1.17"
        )
    return setulb


def _lbfgs(fun, x0, fg0, maxiter, gtol, ftol):
    """Unbounded L-BFGS-B: scipy.optimize.minimize's loop around ``setulb``.

    ``fun(x) -> (f, grad)`` and ``fg0 = fun(x0)``.  The evaluation memo is
    scipy's, so every iterate is bitwise what ``minimize(fun, x0,
    jac=True, method="L-BFGS-B")`` takes.  Returns (x, success, iterations,
    stop code), e.g. 504 when ``maxiter`` ran out.
    """
    setulb = _load_setulb()
    n, m = x0.size, _LBFGS_M

    def evaluate(fg):
        f, g = fg
        return (f if np.isscalar(f) else np.asarray(f).item()), np.atleast_1d(g)

    x = np.array(x0, dtype=np.float64)
    last, (fx, gx), nfev = x.copy(), evaluate(fg0), 1
    f, g = np.array(0.0), np.zeros(n)
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nit = 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave,
               dsave, _LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, last):
                last = x.copy()
                fx, gx = evaluate(fun(x.copy()))
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:  # an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > _LBFGS_MAXFUN:
                task[:] = 5, 502
        else:
            return x, bool(task[0] == 4), nit, int(task[1])


def minimum_action_path(p, w0, wf, T, n_knots, D, maxiter=1500):
    """Minimize the discretized action over paths from w0 to wf in time T.

    Three starts are tried -- the straight line and gradient-flow
    interpolants run forward from w0 and backward from wf -- and every
    distinct local minimum found is kept (``alternates``), with the
    lowest-action one returned.  Descent uses L-BFGS on the interior
    knots with the analytic action gradient, at most ``maxiter``
    iterations per start.  Starts that are byte-identical (a flow from a
    stationary endpoint is the straight line) are descended once.
    """
    w0 = check_point(p, w0)
    wf = check_point(p, wf)
    if not (np.isfinite(T) and T > 0) or n_knots < 3:
        raise ContractError("need T > 0 and n_knots >= 3")
    if not (np.isfinite(D) and D > 0):
        raise ContractError("D must be positive")
    if maxiter < 1:
        raise ContractError("maxiter must be >= 1")
    dt = T / (n_knots - 1)
    times = np.arange(n_knots) * dt
    d = p.dim

    lin = w0 + (wf - w0) * (times / T)[:, None]
    starts = [
        lin,
        _flow_interpolant(p, w0, wf, T, n_knots),
        _flow_interpolant(p, wf, w0, T, n_knots)[::-1].copy(),
    ]

    def pack(W):
        return W[1:-1].ravel()

    def unpack(x):
        W = np.empty((n_knots, d))
        W[0], W[-1] = w0, wf
        W[1:-1] = x.reshape(n_knots - 2, d)
        return W

    def fun(x):
        S, g = _action_and_grad(p, unpack(x), dt, D)
        return S, g.ravel()

    def descend(W_init):
        x0 = pack(W_init)
        fg0 = fun(x0)
        gn_init = float(np.linalg.norm(fg0[1]))
        x, success, _, _ = _lbfgs(fun, x0, fg0, maxiter, 1e-12, 1e-16)
        W = unpack(x)
        S, g = _action_and_grad(p, W, dt, D)
        gn = float(np.linalg.norm(g))
        # converged = the solver stopped on its own terms and the gradient
        # actually collapsed; an absolute cutoff would misread small-D
        # problems, where the action and its gradients scale like 1/D
        ok = success and gn <= 1e-4 * max(1.0, gn_init)
        return S, gn, W, ok

    # the descent is a pure function of its start: byte-identical starts
    # share one, and ``found`` still holds one entry per start
    descents = {}
    found = []
    for W_init in starts:
        key = W_init.tobytes()
        if key not in descents:
            descents[key] = descend(W_init)
        found.append(descents[key])

    scale = max(1.0, float(np.max(np.abs(np.stack([f[2] for f in found])))))
    reps = []
    for S, gn, W, ok in sorted(found, key=lambda f: f[0]):
        if not any(np.max(np.abs(W - Wr)) < 1e-3 * scale for _, _, Wr, _ in reps):
            reps.append((S, gn, W, ok))

    out = []
    for S, gn, W, ok in reps:
        path = Path(times, W)
        res_el, sc_el = _el_residual(p, W, dt, D)
        out.append(CriticalPath(path, om_action(p, path, D), res_el, sc_el, ok))
    return replace(out[0], alternates=out[1:])


# -- ensemble endpoint statistics ---------------------------------------------


def _ensemble_states(p, w0, params, n_runs, record_every=0, burn_frac=0.0):
    """Step n_runs walkers in lockstep; optionally record coordinate 0.

    Returns (final positions, recorded samples).  Run i uses stream
    (seed, i); recording keeps every ``record_every``-th step after a
    ``burn_frac`` fraction of the budget, pooled across runs in time-major
    order so the equilibration diagnostic can compare early vs late.
    """
    W = np.tile(check_point(p, w0), (n_runs, 1))
    gens = [stream(params.seed, i) for i in range(n_runs)]
    amp = np.full(n_runs, params.amplitude)
    burn = int(burn_frac * params.max_steps)
    recs = [np.empty(0)]
    for k0 in range(0, params.max_steps, _NOISE_CHUNK):
        m = min(_NOISE_CHUNK, params.max_steps - k0)
        traj = _langevin_block(p, W, gens, amp, params.dt, m)
        W = traj[-1]
        if record_every:
            k = np.arange(k0, k0 + len(traj)) - burn
            recs.append(traj[(k >= 0) & (k % record_every == 0), :, 0].ravel())
    if not np.all(np.isfinite(W)):
        raise SimulationError("ensemble left the finite region; reduce dt or D")
    return W.copy(), np.concatenate(recs)


def transition_ratio(p, w0, candidates, radius, T, params, n_runs):
    """Relative end-point occupation of candidate balls after time T.

    Propagates n_runs walkers for round(T/dt) steps and counts arrivals
    within ``radius`` of each candidate at the final time only.  Returns
    counts normalized by the first candidate's, so only ratios are ever
    reported; the first candidate receiving zero hits is an error.
    """
    cands = [check_point(p, c) for c in candidates]
    if not cands:
        raise ContractError("need at least one candidate")
    if not (np.isfinite(radius) and radius > 0):
        raise ContractError("radius must be positive")
    if not np.isfinite(float(radius) * float(radius)):  # floats overflow to inf, unwarned
        raise ContractError("radius must have a finite square")
    n_steps = int(round(T / params.dt))
    if n_steps < 1 or n_steps > params.max_steps:
        raise ContractError("T must give between 1 and max_steps steps")
    eff = DiffusionParams(params.D, params.dt, n_steps, params.seed)
    pos, _ = _ensemble_states(p, w0, eff, n_runs)
    counts = [int(np.sum(np.sum((pos - c) ** 2, axis=1) <= radius * radius)) for c in cands]
    if counts[0] == 0:
        raise SimulationError("reference candidate got zero hits; increase n_runs, T, or radius")
    return [ct / counts[0] for ct in counts]


@dataclass(frozen=True)
class ChannelMarginalReport:
    tv_corrected: float
    tv_uncorrected: float
    equilibrated: bool
    n_samples: int


_DENSITY_SUB = 16  # quadrature subintervals per bin


def _binned_density(fn, edges):
    """Integrate an unnormalized density over bins; normalize over support."""
    mass = np.empty(edges.size - 1)
    for i in range(edges.size - 1):
        us = np.linspace(edges[i], edges[i + 1], _DENSITY_SUB + 1)
        mid = 0.5 * (us[1:] + us[:-1])
        mass[i] = np.mean(fn(mid)) * (edges[i + 1] - edges[i])
    return mass / mass.sum()


_MARGINAL_RECORD_EVERY = 5  # steps between pooled u-samples


def channel_marginal_check(ch, u0, D, params, n_runs, bins):
    """Compare the sampled u-marginal of a channel with its predictions.

    The corrected prediction integrates out the transverse coordinate:
    q(u) propto exp(-a(u)/D) / sqrt(b(u)).  The uncorrected one drops the
    stiffness factor.  Both are binned on the sample histogram's edges and
    compared by total variation.  Equilibration is judged by comparing
    the early and late halves of the pooled samples; a drifting mean
    flags the report rather than raising.
    """
    if not isinstance(ch, Channel2D):
        raise ContractError("channel_marginal_check needs a Channel2D")
    if bins < 4:
        raise ContractError("need at least 4 bins")
    lo, hi = ch.u_box
    us = np.linspace(lo, hi, 201)[:, None]
    bvals = ch.b.value_many(us)
    acurv = np.abs(ch.a.hessian_many(us)[:, 0, 0])
    min_b, max_a2 = float(bvals.min()), float(acurv.max())
    if min_b < 2.0 * max_a2:
        import warnings

        warnings.warn(
            f"transverse stiffness (min b = {min_b:.3g}) is not well above the "
            f"channel curvature (max |a''| = {max_a2:.3g}); the adiabatic "
            "picture is marginal here",
            RuntimeWarning,
            stacklevel=2,
        )
    eff = DiffusionParams(D, params.dt, params.max_steps, params.seed)
    start = np.array([float(u0), 0.0])
    _, samples = _ensemble_states(
        ch, start, eff, n_runs, record_every=_MARGINAL_RECORD_EVERY, burn_frac=0.5
    )
    if samples.size < 100:
        raise SimulationError("too few equilibrium samples; increase max_steps")

    half = samples.size // 2
    drift = abs(samples[:half].mean() - samples[half:].mean())
    equilibrated = bool(drift <= 0.2 * samples.std())

    counts, edges = np.histogram(samples, bins=bins)
    hist = counts / counts.sum()

    def a_of(u):
        return ch.a.value_many(u[:, None])

    def b_of(u):
        return ch.b.value_many(u[:, None])

    a_ref = a_of(np.array([0.5 * (lo + hi)]))[0]
    corrected = _binned_density(lambda u: np.exp(-(a_of(u) - a_ref) / D) / np.sqrt(b_of(u)), edges)
    uncorrected = _binned_density(lambda u: np.exp(-(a_of(u) - a_ref) / D), edges)
    return ChannelMarginalReport(
        tv_corrected=float(0.5 * np.abs(hist - corrected).sum()),
        tv_uncorrected=float(0.5 * np.abs(hist - uncorrected).sum()),
        equilibrated=equilibrated,
        n_samples=int(samples.size),
    )
