"""Overdamped Langevin and minibatch-SGD simulators, plus escape statistics.

The continuous dynamics dw = -grad U dt + sqrt(2D) dB are integrated with
Euler-Maruyama at step dt, so one unit of diffusion time is 1/dt steps.
SGD runs only as an ensemble, in its own clock: a step of size eta
advances time by eta, which is the unit used for all convergence times.
Minibatches are drawn with replacement, so the one-step gradient noise
covariance is exactly Sigma_1 / B (per-sample covariance over batch size).

Ensembles (first passage, convergence times) give run i the Philox stream
(seed, i), so their statistics do not depend on execution order and are
bit-identical across --workers settings.  Their runs step in lockstep as
one batched computation through one passage loop, ``_passage``, and
draw their randomness per run in chunks of at most _NOISE_CHUNK steps.
A Langevin run's noise is the row sequence of ``standard_normal((m, d))``
draws: m rows drawn at once equal the same rows drawn in any split, so
the block length is free and the stream is the one these simulators
drew when they stepped one step per loop pass.  ``_langevin_block``
steps one block for runs that may each have their own noise amplitude;
``first_passage_many`` uses that to step the walkers of several noise
levels (cells) as one ensemble, with blocks short enough that the
ensemble never holds more states than one cell's _NOISE_CHUNK-step
block.  For SGD, run i's chunk is ``integers(0, n, size=(m, B))``, which
equals m per-step draws of ``integers(0, n, size=B)``; draws past the
step at which a run stops are discarded, so run i's time depends on
its own stream alone.  SGD steps in blocks of ``_sgd_block`` steps,
sized so that one stacked full-loss check of the block stays under
``tasks._BLOCK_BYTES``.  In both simulators the steps a run takes past
its stop in a block are computed with numpy warnings off and
discarded, so a diverging run is censored (SGD) or reported (Langevin)
without a numpy warning.  The SGD functions import ``tasks`` themselves:
the Langevin half, all that ``action`` uses, needs none of it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError, SimulationError, check_int, check_real
from .landscape import check_point
from .rng import stream

_NOISE_CHUNK = 1024  # most steps of noise a run draws at once


@dataclass(frozen=True)
class DiffusionParams:
    D: float
    dt: float
    max_steps: int
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.D) and self.D >= 0):
            raise ContractError("D must be nonnegative and finite")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ContractError("dt must be positive")
        check_int("max_steps", self.max_steps)
        if self.max_steps < 1:
            raise ContractError("max_steps must be >= 1")

    @property
    def amplitude(self):
        """Per-step noise amplitude sqrt(2 D dt)."""
        return np.sqrt(2.0 * self.D * self.dt)


@dataclass(frozen=True)
class Path:
    """Uniformly sampled trajectory: times (n,), points (n, d)."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        W = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or W.ndim != 2 or W.shape[0] != t.size or t.size < 2:
            raise ContractError("need times (n,) and points (n, d) with n >= 2")
        if not (np.isfinite(t).all() and np.isfinite(W).all()):
            raise ContractError("times and points must be finite")
        dts = np.diff(t)
        # spacing tolerance scales with |t|: at a million steps the grid
        # values themselves carry ulp-level accumulation error
        tol = 64.0 * np.finfo(float).eps * max(1.0, abs(float(t[0])), abs(float(t[-1])))
        if np.abs(dts - dts[0]).max() > max(tol, 1e-12 * abs(dts[0])):
            raise ContractError("times must be uniformly spaced")
        if dts[0] <= 0:
            raise ContractError("times must be increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", W)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def dim(self):
        return self.points.shape[1]

    def reversed(self):
        return Path(self.times.copy(), self.points[::-1].copy())


@dataclass(frozen=True)
class EscapeStats:
    """First-passage (or convergence) times of an ensemble.

    ``samples`` holds the uncensored times only; censored runs are counted
    but never averaged in, so the mean is conditional on passage within
    the step budget.
    """

    samples: np.ndarray
    n_runs: int
    n_censored: int
    mean: float
    rate: float

    @classmethod
    def from_times(cls, times, n_runs):
        s = np.asarray(sorted(times), dtype=float)
        n_cens = n_runs - s.size
        if s.size:
            mean = float(np.mean(s))
            rate = float(1.0 / mean) if mean > 0 else float("inf")
        else:
            mean = rate = float("nan")
        return cls(s, int(n_runs), int(n_cens), mean, rate)

    @property
    def median(self):
        """``np.median`` of the sorted samples, without the ``numpy.ma``
        import that ``np.median`` costs."""
        s, h = self.samples, self.samples.size // 2
        if not s.size:
            return float("nan")
        return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2)


def _warn_if_stiff(p, w0, dt):
    try:
        lam = float(np.linalg.eigvalsh(p.hessian(w0)).max())
    except np.linalg.LinAlgError:
        return
    if dt * max(lam, 0.0) >= 0.5:
        warnings.warn(
            f"dt * max local curvature = {dt * lam:.3g} >= 0.5; "
            "Euler-Maruyama may be unstable at this step size",
            RuntimeWarning,
            stacklevel=3,
        )


def _langevin_block(p, W, gens, amp, dt, m):
    """States (m, R, d) after the next m steps of the runs W (R, d).

    Run r's noise is ``gens[r].standard_normal((m, d))`` times ``amp[r]``,
    its sqrt(2 D dt); a run with amplitude 0 draws nothing.  Nothing is
    checked per step: a non-finite state steps on quietly, ``grad_many``
    keeping it non-finite, for the caller to find in the block.
    """
    traj = np.zeros((m,) + W.shape)
    for r, g in enumerate(gens):
        if amp[r] > 0:
            traj[:, r] = g.standard_normal((m, W.shape[1]))
    traj *= amp[:, None]
    with np.errstate(all="ignore"):
        for k in range(m):
            # step k's noise becomes its state; W - dt * g rounds as W + dt * (-g)
            traj[k] += W - dt * p.grad_many(W)
            W = traj[k]
    return traj


def simulate_langevin(p, w0, params):
    """Euler-Maruyama path of dw = -grad U dt + sqrt(2D) dB from w0.

    Returns a Path with max_steps + 1 points at times k * dt.  D = 0 gives
    plain gradient descent with step dt.  Non-finite states raise
    NumericalError naming the offending step.
    """
    n, gens, amp = params.max_steps, [stream(params.seed)], np.array([params.amplitude])
    out = np.empty((n + 1, p.dim))
    out[0] = check_point(p, w0)
    _warn_if_stiff(p, out[0], params.dt)
    for k0 in range(0, n, _NOISE_CHUNK):
        traj = _langevin_block(p, out[k0:k0 + 1], gens, amp, params.dt, min(_NOISE_CHUNK, n - k0))
        bad = ~np.isfinite(traj).all(axis=(1, 2))
        if bad.any():
            raise NumericalError(f"non-finite state at step {k0 + int(bad.argmax()) + 1} (of {n})")
        out[k0 + 1:k0 + 1 + traj.shape[0]] = traj[:, 0]
    return Path(np.arange(n + 1) * params.dt, out)


def _passage(advance, reached, W, n_steps, block):
    """First passage of the lockstep runs W (R, d) into a target.

    ``advance(W, runs, k0, m)`` gives steps k0+1..k0+m, (m, len(runs), d),
    of the runs ``runs`` (indices into W) now at W; ``reached`` maps
    states (m, R', d) to bools (m, R').  A run stops at its passage or its
    first non-finite state; its later steps are discarded, finite or not.
    Returns per run the passage step (0 for a start in the target) and the
    non-finite step it stopped at, each -1 for none.
    """
    passed_at = np.full(len(W), -1, dtype=np.int64)
    bad_at = passed_at.copy()
    with np.errstate(all="ignore"):
        start = reached(W[None])[0]
    passed_at[start] = 0
    W, runs, k0 = W[~start], np.flatnonzero(~start), 0
    while runs.size and k0 < n_steps:
        m = min(block, n_steps - k0)
        traj = advance(W, runs, k0, m)
        bad = ~np.isfinite(traj).all(axis=2)
        with np.errstate(all="ignore"):
            stop = reached(traj) | bad
        if stop.any():
            done = stop.any(axis=0)
            at = stop.argmax(axis=0)[done]
            ended, diverged = runs[done], bad[at, np.flatnonzero(done)]
            passed_at[ended[~diverged]] = k0 + at[~diverged] + 1
            bad_at[ended[diverged]] = k0 + at[diverged] + 1
            W, runs = traj[-1][~done], runs[~done]
        else:
            W = traj[-1]
        k0 += m
    return passed_at, bad_at


def first_passage_many(p, w0, target_center, radius, cells, n_runs):
    """First-passage times into the ball |w - target| <= radius, per cell.

    ``cells`` are DiffusionParams sharing dt and max_steps.  Each cell runs
    n_runs independent walkers (stream (cells[c].seed, j) for walker j),
    and every walker of every cell steps in lockstep as one vectorized
    ensemble, so a grid of cells costs the steps of its slowest cell.
    Only the current block of states is kept: with C cells a block is
    _NOISE_CHUNK // C steps, so it holds no more states than one cell's
    _NOISE_CHUNK-step block.  A start inside the ball gives time 0 for
    every run.
    Runs that never enter within max_steps are censored.

    Returns one entry per cell: its EscapeStats, or the error that cell
    alone raises -- a SimulationError when all its runs censor (suggesting
    a longer budget or larger D), a NumericalError naming the earliest
    step at which one of its walkers turned non-finite before passage.  A
    failed cell leaves the others running.
    """
    w0 = check_point(p, w0)
    target = check_point(p, target_center)
    if not (np.isfinite(radius) and radius > 0):
        raise ContractError("radius must be positive")
    if not np.isfinite(float(radius) * float(radius)):  # floats overflow to inf, unwarned
        raise ContractError("radius must have a finite square")
    if n_runs < 1:
        raise ContractError("n_runs must be >= 1")
    if not cells or any((c.dt, c.max_steps) != (cells[0].dt, cells[0].max_steps) for c in cells):
        raise ContractError("cells must be one or more DiffusionParams sharing dt and max_steps")
    dt, n_steps = cells[0].dt, cells[0].max_steps
    _warn_if_stiff(p, w0, dt)

    r2 = radius * radius
    gens = [stream(c.seed, j) for c in cells for j in range(n_runs)]
    amps = np.repeat([c.amplitude for c in cells], n_runs)
    passed_at, bad_at = _passage(
        lambda W, runs, k0, m: _langevin_block(p, W, [gens[i] for i in runs], amps[runs], dt, m),
        lambda S: np.sum((S - target) ** 2, axis=2) <= r2,
        np.tile(w0, (len(gens), 1)), n_steps,
        max(1, _NOISE_CHUNK // len(cells)),  # no more states than one cell's full block
    )
    out = []
    for passed, bad in zip(passed_at.reshape(-1, n_runs), bad_at.reshape(-1, n_runs)):
        times = passed[passed >= 0] * dt
        if (bad >= 0).any():
            out.append(NumericalError(f"non-finite ensemble state at step {bad[bad >= 0].min()}"))
        elif times.size:
            out.append(EscapeStats.from_times(times.tolist(), n_runs))
        else:
            out.append(SimulationError(
                f"all {n_runs} runs censored at {n_steps} steps; "
                "increase max_steps or D, or move the target"
            ))
    return out


# -- SGD ----------------------------------------------------------------------


@dataclass(frozen=True)
class SGDConfig:
    eta: float
    batch_size: int
    max_steps: int

    def __post_init__(self):
        check_real("eta", self.eta)
        check_int("batch_size", self.batch_size)
        check_int("max_steps", self.max_steps)
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ContractError("eta must be positive")
        if self.batch_size < 1 or self.max_steps < 1:
            raise ContractError("batch_size and max_steps must be >= 1")


def _sgd_stepper(task, cfg, gens):
    """Batched SGD for an ensemble whose run i draws from ``gens[i]``.

    Returns step(W, runs, k) -> updated W: SGD step k (counted from 0) of
    the runs ``runs`` (indices into ``gens``), whose weights are the rows
    of W.  Each run draws its minibatches in chunks of _NOISE_CHUNK steps,
    which reproduces the per-step draws.
    """
    from . import tasks as tasklib

    n, B = task.data.n, cfg.batch_size
    gamma = task.model.weight_decay
    buf = np.empty((len(gens), _NOISE_CHUNK, B), dtype=np.int64)

    def step(W, runs, k):
        c = k % _NOISE_CHUNK
        if c == 0:
            m = min(_NOISE_CHUNK, cfg.max_steps - k)
            for i in runs:
                buf[i, :m] = gens[i].integers(0, n, size=(m, B))
        _, G = tasklib.batch_loss_grad_many(task, W, buf[runs, c])
        return W - cfg.eta * (G + gamma * W)

    return step


def noise_covariance(task, w, batch_size, n_draws, seed):
    """Empirical covariance of the minibatch CE gradient at fixed w.

    Draws n_draws independent minibatches, computes their mean-gradient
    rows, and returns the unbiased (ddof=1) sample covariance, shape
    (d, d).  Its expectation is exactly Sigma_1 / B; see
    ``exact_minibatch_covariance`` for that reference value.
    """
    from . import tasks as tasklib

    w = np.asarray(w, dtype=float)
    n = task.data.n
    if n_draws < 2 or batch_size < 1:
        raise ContractError("n_draws must be >= 2 and batch_size >= 1")
    gs = tasklib.per_sample_grads(task, w)  # (n, d)
    rng = stream(seed)
    rows = np.empty((n_draws, gs.shape[1]))
    # each pass gathers (chunk, batch_size, d) floats, within the package's budget
    chunk = max(1, tasklib._BLOCK_BYTES // (8 * batch_size * gs.shape[1]))
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        rows[done:done + m] = gs[rng.integers(0, n, size=(m, batch_size))].mean(axis=1)
        done += m
    mu = rows.mean(axis=0)
    R = rows - mu
    C = R.T @ R / (n_draws - 1)
    return 0.5 * (C + C.T)


def exact_minibatch_covariance(task, w, batch_size):
    """Sigma_1 / B: population per-sample gradient covariance over batch size."""
    from . import tasks as tasklib

    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    gs = tasklib.per_sample_grads(task, np.asarray(w, dtype=float))
    mu = gs.mean(axis=0)
    R = gs - mu
    S1 = R.T @ R / gs.shape[0]
    return S1 / batch_size


def _sgd_block(task, n_runs):
    """SGD steps per full-loss check: the check stacks the block's states
    of every run, and its largest temporary, (m * n_runs, n, max(hidden,
    n_classes)) floats, stays under ``tasks._BLOCK_BYTES``."""
    from . import tasks as tasklib

    width = max(task.model.hidden, task.model.n_classes)
    return max(1, min(_NOISE_CHUNK, tasklib._BLOCK_BYTES // (8 * n_runs * task.data.n * width)))


def convergence_time(task, w0, threshold, cfg, n_runs, seed):
    """Time (in units of steps * eta) for the full loss to reach threshold.

    Each run is an independent SGD stream from w0 (run i draws from
    stream (seed, i)); the runs step in lockstep as one batched ensemble,
    in blocks of ``_sgd_block`` steps, and one stacked ``loss_many`` call
    checks the full-dataset regularized loss of every state in a block.
    Its rows have the bits of one-row calls, so no passage step depends
    on the block.  A start already at or below threshold counts as time
    0.  A run stops when it reaches the threshold; a run whose weights
    turn non-finite stops too and, like a run that never reaches the
    threshold within max_steps, is censored.  Steps a run takes past its
    stop in a block are computed without numpy warnings and discarded,
    so a diverging run is censored quietly.  The threshold should sit
    above the minimum achievable loss; estimating that minimum is the
    caller's job (the harness uses a preliminary full-batch descent).
    """
    from . import tasks as tasklib

    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (task.model.n_params,) or not np.isfinite(w0).all():
        raise ContractError(f"w0 must be a finite point of shape ({task.model.n_params},)")
    if not np.isfinite(threshold):
        raise ContractError("threshold must be finite")
    if n_runs < 1:
        raise ContractError("n_runs must be >= 1")
    step = _sgd_stepper(task, cfg, [stream(seed, i) for i in range(n_runs)])

    def advance(W, runs, k0, m):
        traj = np.empty((m,) + W.shape)
        with np.errstate(all="ignore"):
            for j in range(m):
                W = traj[j] = step(W, runs, k0 + j)
        return traj

    def reached(S):
        return (tasklib.loss_many(task, S.reshape(-1, S.shape[2])) <= threshold).reshape(S.shape[:2])

    passed_at, _ = _passage(
        advance, reached, np.tile(w0, (n_runs, 1)), cfg.max_steps, _sgd_block(task, n_runs)
    )
    times = passed_at[passed_at >= 0] * cfg.eta
    if not times.size:
        raise SimulationError(
            f"no run reached threshold {threshold:.4g} within {cfg.max_steps} steps"
        )
    return EscapeStats.from_times(times.tolist(), n_runs)
