"""Langevin and SGD simulators: path contracts, passage times, gradient noise."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlab import diffusion, landscape, tasks
from reachlab.diffusion import (
    DiffusionParams,
    EscapeStats,
    Path,
    SGDConfig,
    convergence_time,
    exact_minibatch_covariance,
    first_passage_many,
    noise_covariance,
    simulate_langevin,
)
from reachlab.errors import ContractError, NumericalError, SimulationError
from reachlab.rng import stream


# -- Path ------------------------------------------------------------------------


def test_path_basic_contracts():
    with pytest.raises(ContractError):
        Path(np.array([0.0]), np.zeros((1, 1)))
    with pytest.raises(ContractError):
        Path(np.array([0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ContractError):
        Path(np.array([0.0, 1.0, 1.5]), np.zeros((3, 1)))
    with pytest.raises(ContractError):
        Path(np.array([1.0, 0.5]), np.zeros((2, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError, match="finite"):
            Path(np.array([0.0, bad, 2.0]), np.zeros((3, 1)))
        with pytest.raises(ContractError, match="finite"):
            Path(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [bad], [1.0]]))
    p = Path(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)))
    assert p.dt == 0.5
    assert p.dim == 2


def test_path_accepts_long_accumulated_grids():
    # arange grids at 1e6 steps carry ulp-level spacing wobble; the
    # uniformity contract must not reject the simulator's own output
    n = 1_000_000
    t = np.arange(n + 1) * 1e-3
    p = Path(t, np.zeros((n + 1, 1)))
    assert p.times.size == n + 1


def test_path_reversal_keeps_grid_and_flips_points():
    p = Path(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [5.0]]))
    r = p.reversed()
    assert np.array_equal(r.times, p.times)
    assert np.array_equal(r.points, p.points[::-1])


def test_diffusion_params_contracts():
    bad = ({"D": -0.1}, {"dt": 0.0}, {"max_steps": 0}, {"D": np.nan}, {"max_steps": 2.5},
           {"max_steps": True}, {"max_steps": "10"})
    for kw in bad:
        with pytest.raises(ContractError):
            DiffusionParams(**{"D": 0.1, "dt": 0.01, "max_steps": 10, **kw})
    assert DiffusionParams(D=0.1, dt=0.01, max_steps=np.int64(10)).max_steps == 10


# -- simulate_langevin --------------------------------------------------------------


def test_langevin_is_deterministic_in_seed():
    q = landscape.Quadratic([1.0, 4.0])
    par = DiffusionParams(D=0.1, dt=0.01, max_steps=500, seed=42)
    a = simulate_langevin(q, np.array([1.0, -1.0]), par)
    b = simulate_langevin(q, np.array([1.0, -1.0]), par)
    c = simulate_langevin(q, np.array([1.0, -1.0]), DiffusionParams(D=0.1, dt=0.01, max_steps=500, seed=43))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.times.size == 501
    assert a.times[1] == 0.01


def test_langevin_zero_noise_is_gradient_descent():
    q = landscape.Quadratic([2.0])
    par = DiffusionParams(D=0.0, dt=0.1, max_steps=50, seed=0)
    path = simulate_langevin(q, np.array([1.0]), par)
    # w_{k+1} = (1 - dt*k) w_k exactly
    expect = 1.0 * (1.0 - 0.1 * 2.0) ** np.arange(51)
    assert np.allclose(path.points[:, 0], expect, rtol=1e-12)


def test_langevin_samples_the_gibbs_variance():
    # stationary density of dw = -k w dt + sqrt(2D) dB is N(0, D/k)
    q = landscape.Quadratic([1.0])
    par = DiffusionParams(D=0.25, dt=0.01, max_steps=400_000, seed=0)
    path = simulate_langevin(q, np.array([0.0]), par)
    x = path.points[40_000:, 0]
    assert x.var() == pytest.approx(0.25, rel=0.05)
    assert abs(x.mean()) < 0.02


def test_langevin_warns_when_step_is_stiff():
    q = landscape.Quadratic([100.0])
    with pytest.warns(RuntimeWarning, match="unstable"):
        simulate_langevin(q, np.array([1.0]), DiffusionParams(D=0.0, dt=0.01, max_steps=2, seed=0))


class _BrokenHessian(landscape.Quadratic):
    def hessian_many(self, W):
        raise TypeError("hessian_many is broken")


def test_stiffness_check_does_not_swallow_a_broken_hessian():
    # only a failed eigendecomposition is skipped; a bug in the potential surfaces
    par = DiffusionParams(D=0.1, dt=0.01, max_steps=10, seed=0)
    with pytest.raises(TypeError, match="broken"):
        first_passage_many(_BrokenHessian([1.0]), np.array([1.0]), np.array([0.0]), 0.1, [par], 2)
    with pytest.raises(TypeError, match="broken"):
        simulate_langevin(_BrokenHessian([1.0]), np.array([1.0]), par)


def test_langevin_divergence_names_the_step():
    q = landscape.Quadratic([5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="step"):
            simulate_langevin(q, np.array([1.0]), DiffusionParams(D=0.0, dt=3.0, max_steps=2000, seed=0))


# -- first passage -------------------------------------------------------------------


def _sole(outs):
    """The one cell's EscapeStats, or its error raised."""
    (out,) = outs
    if isinstance(out, Exception):
        raise out
    return out


def test_first_passage_trivial_when_started_inside():
    q = landscape.Quadratic([1.0])
    par = DiffusionParams(D=0.1, dt=0.01, max_steps=100, seed=0)
    es = _sole(first_passage_many(q, np.array([0.0]), np.array([0.05]), 0.1, [par], n_runs=5))
    assert np.array_equal(es.samples, np.zeros(5))
    assert es.mean == 0.0
    assert es.n_censored == 0
    assert es.rate == np.inf


def test_first_passage_crosses_the_double_well():
    dw = landscape.DoubleWell1D()
    par = DiffusionParams(D=0.2, dt=1e-3, max_steps=200_000, seed=1)
    es = _sole(first_passage_many(dw, np.array([-1.0]), np.array([1.0]), 0.1, [par], n_runs=8))
    assert es.n_censored == 0
    assert es.samples.size == 8
    assert es.mean > 0
    assert es.rate == pytest.approx(1.0 / es.mean, rel=1e-12)


def test_first_passage_rejects_bad_arguments():
    q = landscape.Quadratic([1.0])
    par = DiffusionParams(D=0.1, dt=0.01, max_steps=100, seed=0)
    with pytest.raises(ContractError):
        first_passage_many(q, np.array([0.0]), np.array([1.0]), -0.1, [par], n_runs=2)
    with pytest.raises(ContractError):
        first_passage_many(q, np.array([0.0]), np.array([1.0]), 0.1, [par], n_runs=0)
    # squared, this radius is inf, and a start 1e200 away would count as inside
    with pytest.raises(ContractError, match="finite square"):
        first_passage_many(q, np.array([-1e200]), np.array([1.0]), 2e154, [par], n_runs=2)


def test_first_passage_errors_when_every_run_censors():
    # switched-off noise cannot climb the quadratic wall to a far target
    q = landscape.Quadratic([5.0])
    par = DiffusionParams(D=0.0, dt=0.01, max_steps=500, seed=0)
    with pytest.raises(SimulationError, match="censored"):
        _sole(first_passage_many(q, np.array([1.0]), np.array([3.0]), 0.05, [par], n_runs=3))


def test_escape_stats_mean_is_conditional_on_passage():
    es = EscapeStats.from_times([2.0, 4.0], n_runs=5)
    assert es.n_censored == 3
    assert es.mean == 3.0
    assert es.std == pytest.approx(np.sqrt(2.0))
    assert es.rate == pytest.approx(1.0 / 3.0)
    assert es.median == 3.0
    assert es.samples.tolist() == [2.0, 4.0]
    assert es.n_runs == 5


def test_escape_stats_all_censored_is_nan_not_zero():
    es = EscapeStats.from_times([], n_runs=4)
    assert es.n_censored == 4
    assert np.isnan(es.mean) and np.isnan(es.rate) and np.isnan(es.median)


# -- the block stepper against the per-step loops it replaced --------------------------


def _reference_langevin(p, w0, params):
    """``simulate_langevin`` as one scalar ``grad`` call per step."""
    w = np.asarray(w0, dtype=float).copy()
    n, d = params.max_steps, p.dim
    rng = stream(params.seed)
    out = np.empty((n + 1, d))
    out[0] = w
    amp = np.sqrt(2.0 * params.D * params.dt)
    done = 0
    while done < n:
        m = min(diffusion._NOISE_CHUNK, n - done)
        noise = rng.standard_normal((m, d)) if params.D > 0 else np.zeros((m, d))
        for j in range(m):
            w = w + params.dt * (-p.grad(w)) + amp * noise[j]
            if not np.all(np.isfinite(w)):
                raise NumericalError(f"non-finite state at step {done + j + 1} (of {n})")
            out[done + j + 1] = w
        done += m
    return out


def _reference_passage(p, w0, target, radius, params, n_runs):
    """One ``first_passage_many`` cell as a lockstep loop that tests every step.

    Returns (sorted passage times, censored count); raises like the
    simulator when every run censors or the ensemble turns non-finite.
    """
    w0, target = np.asarray(w0, dtype=float), np.asarray(target, dtype=float)
    r2 = radius * radius
    if float(np.sum((w0 - target) ** 2)) <= r2:
        return [0.0] * n_runs, 0
    d, chunk = p.dim, diffusion._NOISE_CHUNK
    gens = [stream(params.seed, i) for i in range(n_runs)]
    pos = np.tile(w0, (n_runs, 1))
    passed_at = np.full(n_runs, -1, dtype=np.int64)
    active = np.arange(n_runs)
    amp = np.sqrt(2.0 * params.D * params.dt)
    buf = np.empty((n_runs, chunk, d))
    step = 0
    while active.size and step < params.max_steps:
        c = step % chunk
        if c == 0:
            m = min(chunk, params.max_steps - step)
            for i in active:
                buf[i, :m] = gens[i].standard_normal((m, d))
        W = pos[active]
        W = W + params.dt * (-p.grad_many(W)) + amp * buf[active, c]
        pos[active] = W
        step += 1
        if not np.all(np.isfinite(W)):
            raise NumericalError(f"non-finite ensemble state at step {step}")
        hit = np.sum((W - target) ** 2, axis=1) <= r2
        if np.any(hit):
            passed_at[active[hit]] = step
            active = active[~hit]
    times = passed_at[passed_at >= 0] * params.dt
    if times.size == 0:
        raise SimulationError("all runs censored")
    return sorted(times.tolist()), n_runs - times.size


def _assert_passage_matches(p, w0, target, radius, params, n_runs):
    """A one-cell first_passage_many equals the reference sample for sample, errors included."""
    try:
        times, n_cens = _reference_passage(p, w0, target, radius, params, n_runs)
    except (NumericalError, SimulationError) as exc:
        with pytest.raises(type(exc)) as got:
            _sole(first_passage_many(p, w0, target, radius, [params], n_runs))
        if isinstance(exc, NumericalError):
            assert str(got.value) == str(exc)
        return None
    es = _sole(first_passage_many(p, w0, target, radius, [params], n_runs))
    assert np.array_equal(es.samples, np.array(times))
    assert es.n_censored == n_cens
    return es


@settings(max_examples=40, deadline=None)
@given(
    n_runs=st.integers(1, 12),
    D=st.one_of(st.just(0.0), st.floats(0.02, 0.6)),
    dt=st.floats(1e-3, 2e-2),
    target=st.floats(-1.6, 0.2),
    radius=st.floats(0.02, 0.5),
    max_steps=st.integers(1, 2600),
    seed=st.integers(0, 3),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_passage_matches_the_per_step_loop(n_runs, D, dt, target, radius, max_steps, seed):
    par = DiffusionParams(D=D, dt=dt, max_steps=max_steps, seed=seed)
    _assert_passage_matches(
        landscape.DoubleWell1D(), np.array([-1.0]), np.array([target]), radius, par, n_runs
    )


@settings(max_examples=25, deadline=None)
@given(
    D=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    dt=st.floats(1e-3, 5e-2),
    max_steps=st.integers(1, 2600),
    seed=st.integers(0, 3),
)
def test_langevin_path_matches_the_per_step_loop(D, dt, max_steps, seed):
    # Quadratic's grad and grad_many are the same product, so the batched
    # stepper reproduces the scalar loop bit for bit
    q = landscape.Quadratic([1.0, 3.0])
    par = DiffusionParams(D=D, dt=dt, max_steps=max_steps, seed=seed)
    w0 = np.array([0.5, -1.0])
    assert np.array_equal(simulate_langevin(q, w0, par).points, _reference_langevin(q, w0, par))


def _assert_cells_match(p, w0, target, radius, cells, n_runs):
    """first_passage_many equals the per-cell reference, each cell's error included."""
    got = first_passage_many(p, w0, target, radius, cells, n_runs)
    assert len(got) == len(cells)
    for params, out in zip(cells, got):
        try:
            times, n_cens = _reference_passage(p, w0, target, radius, params, n_runs)
        except (NumericalError, SimulationError) as exc:
            assert type(out) is type(exc)
            if isinstance(exc, NumericalError):
                assert str(out) == str(exc)
            continue
        assert isinstance(out, EscapeStats)
        assert np.array_equal(out.samples, np.array(times))
        assert out.n_censored == n_cens and out.n_runs == n_runs
    return got


@pytest.mark.parametrize("step", [1, 255, 256, 257, 1023, 1024, 1025, 2048, 2049])
def test_passage_at_block_edges(step):
    # D = 0 descends w_k = 0.999^k deterministically; a radius between
    # w_step and w_{step-1} puts every run's passage exactly at ``step``.
    # Four cells step in blocks of 256, so 256 and 257 sit on their edges
    q = landscape.Quadratic([1.0])
    par = DiffusionParams(D=0.0, dt=1e-3, max_steps=3000, seed=0)
    w = _reference_langevin(q, np.array([1.0]), par)[:, 0]
    radius = 0.5 * (w[step - 1] + w[step])
    es = _assert_passage_matches(q, np.array([1.0]), np.zeros(1), radius, par, 3)
    assert np.array_equal(es.samples, np.full(3, step * 1e-3))
    cells = [par, DiffusionParams(D=0.3, dt=1e-3, max_steps=3000, seed=1),
             DiffusionParams(D=0.0, dt=1e-3, max_steps=3000, seed=2),
             DiffusionParams(D=0.02, dt=1e-3, max_steps=3000, seed=3)]
    got = _assert_cells_match(q, np.array([1.0]), np.zeros(1), radius, cells, 3)
    assert np.array_equal(got[0].samples, es.samples) and np.array_equal(got[2].samples, es.samples)


@settings(max_examples=30, deadline=None)
@given(
    Ds=st.lists(st.one_of(st.just(0.0), st.floats(0.02, 0.6), st.just(5e3)), min_size=1, max_size=5),
    n_runs=st.integers(1, 6),
    dt=st.floats(1e-3, 2e-2),
    target=st.floats(-1.6, 0.2),
    radius=st.floats(0.02, 0.5),
    max_steps=st.integers(1, 2600),
    seed=st.integers(0, 3),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_cells_match_their_own_per_step_loops(Ds, n_runs, dt, target, radius, max_steps, seed):
    # from the well bottom at -1, D = 0 never moves (a fully censored cell)
    # and D = 5e3 overflows within a few steps (a diverging cell); a
    # target within radius of -1 is a start inside the ball
    cells = [DiffusionParams(D=D, dt=dt, max_steps=max_steps, seed=seed + c) for c, D in enumerate(Ds)]
    _assert_cells_match(landscape.DoubleWell1D(), np.array([-1.0]), np.array([target]), radius, cells, n_runs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_cell_leaves_the_others_running():
    # at D = 4500 three walkers pass and three turn non-finite, at steps
    # 43, 142 and 33: the cell's error names the earliest of these
    dw = landscape.DoubleWell1D()
    Ds = [0.3, 5e3, 0.0, 0.25, 4500.0]
    cells = [DiffusionParams(D=D, dt=5e-3, max_steps=3000, seed=c) for c, D in enumerate(Ds)]
    got = _assert_cells_match(dw, np.array([-1.0]), np.array([1.0]), 0.1, cells, 6)
    assert [type(out) for out in got] == [EscapeStats, NumericalError, SimulationError, EscapeStats, NumericalError]
    assert str(got[1]).startswith("non-finite ensemble state at step ")
    assert str(got[4]) == "non-finite ensemble state at step 33"
    assert str(got[2]) == "all 6 runs censored at 3000 steps; increase max_steps or D, or move the target"
    # a start inside the ball gives every cell time 0
    inside = first_passage_many(dw, np.array([-1.0]), np.array([-0.95]), 0.1, cells, 4)
    assert all(np.array_equal(es.samples, np.zeros(4)) for es in inside)


def test_stacked_cells_share_dt_and_max_steps():
    q = landscape.Quadratic([1.0])
    a = DiffusionParams(D=0.1, dt=0.01, max_steps=100, seed=0)
    for b in (DiffusionParams(D=0.1, dt=0.02, max_steps=100), DiffusionParams(D=0.1, dt=0.01, max_steps=99)):
        with pytest.raises(ContractError, match="sharing dt and max_steps"):
            first_passage_many(q, np.array([1.0]), np.zeros(1), 0.1, [a, b], 2)
    with pytest.raises(ContractError):
        first_passage_many(q, np.array([1.0]), np.zeros(1), 0.1, [], 2)


@pytest.mark.parametrize("n_cells", [1, 3, 4, 5])
def test_stacked_blocks_hold_no_more_states_than_one_cells_block(monkeypatch, n_cells):
    shapes = []
    block = diffusion._langevin_block

    def recording(p, W, *args):
        traj = block(p, W, *args)
        shapes.append(traj.shape)
        return traj

    monkeypatch.setattr(diffusion, "_langevin_block", recording)
    n_runs, chunk = 7, diffusion._NOISE_CHUNK
    cells = [DiffusionParams(D=0.05, dt=5e-3, max_steps=3000, seed=c) for c in range(n_cells)]
    first_passage_many(landscape.DoubleWell1D(), np.array([-1.0]), np.array([1.0]), 0.05, cells, n_runs)
    assert shapes[0] == (chunk // n_cells, n_cells * n_runs, 1)
    assert all(m * R <= chunk * n_runs for m, R, _ in shapes)
    assert sum(m for m, _, _ in shapes) == 3000  # weak noise: some walker censors


@pytest.mark.parametrize("seed", range(20))
def test_split_noise_draws_equal_the_chunk(seed):
    # the stream statement the stacked blocks rest on: a run's noise rows do
    # not depend on how many steps each block draws
    for d in (1, 2, 3):
        whole = stream(seed, 1).standard_normal((1024, d))
        for pieces in ((256, 256, 256, 256), (1, 300, 723)):
            g = stream(seed, 1)
            split = np.concatenate([g.standard_normal((m, d)) for m in pieces])
            assert whole.tobytes() == split.tobytes()


def test_passage_edge_cases_match_the_per_step_loop():
    dw = landscape.DoubleWell1D()
    noisy = DiffusionParams(D=0.3, dt=5e-3, max_steps=3000, seed=2)
    # some runs pass in the first block, some in later ones, some censor
    es = _assert_passage_matches(dw, np.array([-1.0]), np.array([1.0]), 0.1, noisy, 24)
    assert es.n_censored > 0
    assert es.samples.min() < 1024 * 5e-3 < es.samples.max()
    # a start inside the ball
    es = _assert_passage_matches(dw, np.array([-1.0]), np.array([-0.95]), 0.1, noisy, 4)
    assert np.array_equal(es.samples, np.zeros(4))
    # every run censored
    short = DiffusionParams(D=0.05, dt=5e-3, max_steps=1500, seed=0)
    assert _assert_passage_matches(dw, np.array([-1.0]), np.array([1.0]), 0.05, short, 5) is None
    with pytest.raises(SimulationError, match="censored"):
        _sole(first_passage_many(dw, np.array([-1.0]), np.array([1.0]), 0.05, [short], 5))


@pytest.mark.parametrize("q", [landscape.Quadratic([5.0])], ids=["vectorized"])
@pytest.mark.parametrize("dt", [3.0, 0.5])
def test_divergence_names_the_reference_step(q, dt):
    # w -> (1 - 5 dt) w grows 14x (overflow inside the first block) or
    # 1.5x (overflow past the first refill) per step
    par = DiffusionParams(D=0.1, dt=dt, max_steps=3000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError) as ref:
            _reference_langevin(q, np.array([1.0]), par)
        with pytest.raises(NumericalError) as got:
            simulate_langevin(q, np.array([1.0]), par)
        assert str(got.value) == str(ref.value)
        with pytest.raises(NumericalError) as ref:
            _reference_passage(q, np.array([1.0]), np.array([1e9]), 0.1, par, 4)
        with pytest.raises(NumericalError) as got:
            _sole(first_passage_many(q, np.array([1.0]), np.array([1e9]), 0.1, [par], 4))
        assert str(got.value) == str(ref.value)
    assert (int(str(got.value).split()[-1]) > diffusion._NOISE_CHUNK) == (dt == 0.5)


def test_steps_past_a_passage_may_diverge_quietly():
    # w_k = (-14)^k enters the ball around 196 at step 2 and overflows
    # later in the same block; those steps are never part of the answer
    q = landscape.Quadratic([5.0])
    par = DiffusionParams(D=0.0, dt=3.0, max_steps=2000, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        es = _sole(first_passage_many(q, np.array([1.0]), np.array([196.0]), 1.0, [par], 3))
    assert np.array_equal(es.samples, np.full(3, 6.0))
    assert [str(w.message) for w in caught if "unstable" not in str(w.message)] == []


def test_finite_ensembles_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _sole(first_passage_many(
            landscape.DoubleWell1D(), np.array([-1.0]), np.array([1.0]), 0.1,
            [DiffusionParams(D=0.3, dt=5e-3, max_steps=3000, seed=0)], 16,
        ))
        simulate_langevin(
            landscape.Quadratic([1.0]), np.zeros(1), DiffusionParams(D=0.3, dt=1e-2, max_steps=3000)
        )


# -- SGD -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def separable():
    d = tasks.generate_blobs(2, 40, 1, 6.0, seed=2)
    return tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 1, 2))


def test_sgd_config_contracts():
    for kw in ({"eta": 0.0}, {"batch_size": 0}, {"max_steps": 0}):
        with pytest.raises(ContractError):
            SGDConfig(**{"eta": 0.1, "batch_size": 4, "max_steps": 10, **kw})


def test_sgd_rejects_wrong_start_shape(separable):
    cfg = SGDConfig(eta=0.05, batch_size=8, max_steps=10)
    with pytest.raises(ContractError, match="w0"):
        convergence_time(separable, np.zeros(3), 0.5, cfg, 2, seed=0)


# -- gradient noise -------------------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_point():
    d = tasks.generate_blobs(3, 120, 3, 2.0, seed=0)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 3, 3))
    w = 0.3 * np.random.default_rng(1).standard_normal(t.model.n_params)
    return t, w


def test_noise_covariance_matches_exact_form(noisy_point):
    # with replacement the one-draw covariance is the population per-sample
    # covariance over batch size, so the sample estimate must land on it
    t, w = noisy_point
    C = noise_covariance(t, w, 8, 6000, seed=3)
    E = exact_minibatch_covariance(t, w, 8)
    rel = np.linalg.norm(C - E) / np.linalg.norm(E)
    assert rel < 0.08


def test_exact_covariance_scales_inversely_with_batch(noisy_point):
    t, w = noisy_point
    E8 = exact_minibatch_covariance(t, w, 8)
    E16 = exact_minibatch_covariance(t, w, 16)
    assert np.allclose(E8, 2.0 * E16, rtol=1e-12)


def test_noise_covariance_is_symmetric_psd(noisy_point):
    t, w = noisy_point
    C = noise_covariance(t, w, 4, 500, seed=9)
    assert np.allclose(C, C.T, atol=1e-15)
    assert np.linalg.eigvalsh(C).min() >= -1e-12


def test_noise_covariance_contracts(noisy_point):
    t, w = noisy_point
    with pytest.raises(ContractError):
        noise_covariance(t, w, 8, 1, seed=0)


# -- convergence times ----------------------------------------------------------------


def test_convergence_time_zero_when_already_converged(separable):
    cfg = SGDConfig(eta=0.1, batch_size=8, max_steps=100)
    es = convergence_time(separable, np.array([5.0]), 10.0, cfg, 4, seed=0)
    assert np.array_equal(es.samples, np.zeros(4))
    assert es.rate == np.inf


def test_convergence_time_reaches_a_fair_threshold(separable):
    cfg = SGDConfig(eta=0.1, batch_size=8, max_steps=4000)
    es = convergence_time(separable, np.array([0.0]), 0.05, cfg, 6, seed=4)
    assert es.n_censored == 0
    assert np.all(es.samples > 0)
    # SGD clock: every sample is an integer number of eta-steps
    assert np.allclose(es.samples / cfg.eta, np.round(es.samples / cfg.eta))


def test_convergence_time_errors_below_achievable_loss(separable):
    # cross-entropy is bounded below by zero, so no run can ever pass
    cfg = SGDConfig(eta=0.1, batch_size=8, max_steps=300)
    with pytest.raises(SimulationError, match="threshold"):
        convergence_time(separable, np.array([0.0]), -1.0, cfg, 2, seed=0)


def test_convergence_time_contracts(separable):
    cfg = SGDConfig(eta=0.1, batch_size=8, max_steps=10)
    with pytest.raises(ContractError):
        convergence_time(separable, np.array([0.0]), np.nan, cfg, 2, seed=0)
    with pytest.raises(ContractError):
        convergence_time(separable, np.array([0.0]), 0.5, cfg, 0, seed=0)
    # a non-finite start is refused before any step, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ContractError, match="w0"):
                convergence_time(separable, np.array([bad]), 0.5, cfg, 2, seed=0)


def _reference_convergence(task, w0, threshold, cfg, n_runs, seed):
    """Run i's convergence step, one run and one step at a time.

    The oracle for the lockstep ensemble: each minibatch is drawn from
    stream (seed, i) when its step comes.  A run whose weights turn
    non-finite gives 0, a run out of budget None; both are censored.
    """
    n, B, gamma = task.data.n, cfg.batch_size, task.model.weight_decay
    out = []
    for i in range(n_runs):
        rng = stream(seed, i)
        w, hit = np.array(w0, dtype=float), None
        for k in range(1, cfg.max_steps + 1):
            _, g = tasks.batch_loss_grad(task, w, rng.integers(0, n, size=B))
            w = w - cfg.eta * (g + gamma * w)
            if not np.all(np.isfinite(w)):
                hit = 0
                break
            if tasks.loss(task, w) <= threshold:
                hit = k
                break
        out.append(hit)
    return out


_LOGISTIC = tasks.ModelSpec("multinomial-logistic", 2, 3, weight_decay=0.01)
_TANH = tasks.ModelSpec("mlp-1-hidden", 2, 3, weight_decay=0.01, hidden=6, activation="tanh")
_SOFTPLUS = tasks.ModelSpec("mlp-1-hidden", 2, 3, weight_decay=0.01, hidden=6, activation="softplus")


@pytest.mark.parametrize(
    "model, threshold_frac, sgd, n_runs",
    [
        # some runs pass before the first refill of the minibatch draws, some after
        (_LOGISTIC, 0.458, SGDConfig(eta=0.02, batch_size=4, max_steps=2000), 5),
        (_TANH, 0.6, SGDConfig(eta=0.05, batch_size=4, max_steps=400), 5),
        # five of eight runs overflow to non-finite weights and are censored
        (_SOFTPLUS, 0.95, SGDConfig(eta=4.0, batch_size=4, max_steps=1000), 8),
    ],
    ids=["logistic-refill", "tanh", "softplus-diverging"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lockstep_convergence_matches_the_per_run_loop(model, threshold_frac, sgd, n_runs):
    data = tasks.generate_blobs(3, 40, 2, 2.0, seed=3)
    t = tasks.Task(data, model)
    w0 = 0.5 * np.random.default_rng(1).standard_normal(model.n_params)
    threshold = threshold_frac * tasks.loss(t, w0)
    ref = _reference_convergence(t, w0, threshold, sgd, n_runs, seed=2)
    hits = [k for k in ref if k]
    assert hits, "the case must have passing runs"
    if sgd.max_steps > 1500:  # the refill case
        assert min(hits) <= diffusion._NOISE_CHUNK < max(hits)
    if threshold_frac > 0.9:  # the diverging case
        assert ref.count(0) == 5
    assert len(set(hits)) > 1  # runs stop at different steps
    # the runs step in blocks, and some stop partway through one
    assert diffusion._sgd_block(t, n_runs) > 1
    assert any(k % diffusion._sgd_block(t, n_runs) for k in hits)
    # run i's time depends on i alone, not on how many runs share the ensemble
    for n in sorted({1, 2, n_runs}):
        head = [k for k in ref[:n] if k]
        if not head:
            with pytest.raises(SimulationError):
                convergence_time(t, w0, threshold, sgd, n, seed=2)
            continue
        es = convergence_time(t, w0, threshold, sgd, n, seed=2)
        assert es.samples.tolist() == sorted(k * sgd.eta for k in head)
        assert es.n_censored == n - len(head)


def _softplus_diverging_case():
    # the "softplus-diverging" case above: of 8 runs, 5 overflow before
    # passage and 3 pass within 3 steps
    t = tasks.Task(tasks.generate_blobs(3, 40, 2, 2.0, seed=3), _SOFTPLUS)
    w0 = 0.5 * np.random.default_rng(1).standard_normal(_SOFTPLUS.n_params)
    return t, w0, 0.95 * tasks.loss(t, w0), SGDConfig(eta=4.0, batch_size=4, max_steps=1000)


def test_sgd_block_length_moves_no_result(monkeypatch):
    t, w0, threshold, sgd = _softplus_diverging_case()
    assert diffusion._sgd_block(t, 8) > 1
    want = convergence_time(t, w0, threshold, sgd, 8, seed=2)
    monkeypatch.setattr(tasks, "_BLOCK_BYTES", 1)
    assert diffusion._sgd_block(t, 8) == 1
    got = convergence_time(t, w0, threshold, sgd, 8, seed=2)
    assert np.array_equal(got.samples, want.samples)
    assert got.n_censored == want.n_censored == 5


def test_sgd_steps_past_a_passage_may_diverge_quietly(monkeypatch):
    # run 0 overflows before passage; run 1 passes at step 1 and, stepped
    # on, overflows later in the same block: neither warns
    t, w0, threshold, sgd = _softplus_diverging_case()
    rng, w = stream(2, 1), w0
    with np.errstate(all="ignore"):
        for k in range(1, sgd.max_steps + 1):
            _, g = tasks.batch_loss_grad(t, w, rng.integers(0, t.data.n, size=sgd.batch_size))
            w = w - sgd.eta * (g + t.model.weight_decay * w)
            if k == 1:
                assert tasks.loss(t, w) <= threshold
            if not np.isfinite(w).all():
                break
    assert 1 < k < sgd.max_steps and not np.isfinite(w).all()
    monkeypatch.setattr(tasks, "_BLOCK_BYTES", 10**9)  # the whole budget in one block
    assert diffusion._sgd_block(t, 2) >= sgd.max_steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = convergence_time(t, w0, threshold, sgd, 2, seed=2)
    assert np.array_equal(es.samples, [sgd.eta])
    assert es.n_censored == 1


def test_finite_sgd_ensembles_raise_no_warnings():
    t = tasks.Task(tasks.generate_blobs(3, 40, 2, 2.0, seed=3), _TANH)
    w0 = 0.5 * np.random.default_rng(1).standard_normal(_TANH.n_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = convergence_time(
            t, w0, 0.6 * tasks.loss(t, w0), SGDConfig(eta=0.05, batch_size=4, max_steps=400), 5, seed=2
        )
    assert es.n_censored < es.n_runs
