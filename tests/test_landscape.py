"""Potential values and derivatives, and the path potential they build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlab import action, landscape
from reachlab.diffusion import Path
from reachlab.errors import ContractError


def fd_grad(p, w, h=1e-6):
    g = np.empty(p.dim)
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        g[i] = (p.value(w + e) - p.value(w - e)) / (2 * h)
    return g


def fd_hess(p, w, h=1e-5):
    H = np.empty((p.dim, p.dim))
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        H[:, i] = (p.grad(w + e) - p.grad(w - e)) / (2 * h)
    return 0.5 * (H + H.T)


def loop_hessian_many(p, W):
    return np.stack([p.hessian(w) for w in W])


def loop_grad_laplacian_many(p, W):
    """Per-point reference: the one-row ``grad_laplacian_many`` where the
    class overrides it, else the central difference of the one-point
    Hessian trace that the batched default differentiates."""
    if "grad_laplacian_many" in vars(type(p)):
        return np.stack([p.grad_laplacian_many(w[None])[0] for w in W])
    h = 1e-5
    out = np.empty(W.shape)
    for k, w in enumerate(W):
        for i in range(p.dim):
            e = np.zeros(p.dim)
            e[i] = h
            out[k, i] = (np.trace(p.hessian(w + e)) - np.trace(p.hessian(w - e))) / (2 * h)
    return out


class ScalarOnly(landscape.Potential):
    """A user subclass that writes no scalar method: only the three required
    batched forms, so its one-point methods, ``laplacian_many`` and
    ``grad_laplacian_many`` are the base's defaults."""

    dim = 2

    def value_many(self, W):
        u, v = self._check_many(W).T
        return u ** 4 / 4 + u * v * v + v ** 2

    def grad_many(self, W):
        u, v = self._check_many(W).T
        return np.stack([u ** 3 + v * v, 2.0 * u * v + 2.0 * v], axis=1)

    def hessian_many(self, W):
        u, v = self._check_finite_many(W).T
        return np.array([[3.0 * u * u, 2.0 * v], [2.0 * v, 2.0 * u + 2.0]]).transpose(2, 0, 1)


ALL_POTS = [
    landscape.Quadratic(np.array([1.0, 2.0, 0.5])),
    landscape.DoubleWell1D(),
    landscape.DoubleWell1D(scale=2.5),
    landscape.Polynomial1D([0.3, -1.0, 0.0, 0.25]),
    landscape.Channel2D(
        landscape.DoubleWell1D(),
        landscape.Polynomial1D([3.0, 0.0, 0.5]),
    ),
    ScalarOnly(),
]


@pytest.mark.parametrize("pot", ALL_POTS, ids=lambda p: type(p).__name__)
def test_derivatives_match_finite_differences(pot):
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.uniform(-1.5, 1.5, pot.dim)
        assert np.allclose(pot.grad(w), fd_grad(pot, w), atol=1e-5)
        assert np.allclose(pot.hessian(w), fd_hess(pot, w), atol=1e-4)
        assert np.isclose(pot.laplacian_many(w[None])[0], np.trace(pot.hessian(w)), atol=1e-10)


@pytest.mark.parametrize("pot", ALL_POTS, ids=lambda p: type(p).__name__)
def test_vectorized_forms_agree_pointwise(pot):
    rng = np.random.default_rng(3)
    W = rng.uniform(-1.5, 1.5, (200, pot.dim))
    vals = pot.value_many(W)
    grads = pot.grad_many(W)
    laps = pot.laplacian_many(W)
    # a point and row k of a batch holding it give the same bits
    for k in range(len(W)):
        assert np.array_equal(vals[k], pot.value(W[k]))
        assert np.array_equal(grads[k], pot.grad(W[k]))
        assert np.array_equal(laps[k], pot.laplacian_many(W[k][None])[0])
    assert np.array_equal(pot.hessian_many(W), loop_hessian_many(pot, W))
    assert np.array_equal(pot.grad_laplacian_many(W), loop_grad_laplacian_many(pot, W))
    for k in range(len(W)):
        assert np.array_equal(pot.grad_laplacian_many(W[k][None])[0], loop_grad_laplacian_many(pot, W[k:k + 1])[0])


class Cubic3(landscape.Potential):
    """U = u^2 v + v w^2 + w^4 / 4: a dim-3 subclass with only the required
    batched forms, whose Hessian trace 4v + 3w^2 couples coordinates."""

    dim = 3

    def value_many(self, W):
        u, v, w = self._check_many(W).T
        return u * u * v + v * w * w + w ** 4 / 4

    def grad_many(self, W):
        u, v, w = self._check_many(W).T
        return np.stack([2.0 * u * v, u * u + w * w, 2.0 * v * w + w ** 3], axis=1)

    def hessian_many(self, W):
        u, v, w = self._check_finite_many(W).T
        z = np.zeros_like(u)
        return np.array([
            [2.0 * v, 2.0 * u, z],
            [2.0 * u, z, 2.0 * w],
            [z, 2.0 * w, 2.0 * v + 3.0 * w * w],
        ]).transpose(2, 0, 1)


@pytest.mark.parametrize("n", [1, 64])
def test_default_grad_laplacian_many_is_one_stacked_call(n, monkeypatch):
    p = Cubic3()
    W = np.random.default_rng(n).uniform(-1.5, 1.5, (n, 3))
    W[0, 1] = -0.0
    ref = loop_grad_laplacian_many(p, W)
    rows = []
    hessian_many = p.hessian_many

    def counted(X):
        rows.append(len(X))
        return hessian_many(X)

    monkeypatch.setattr(p, "hessian_many", counted)
    got = p.grad_laplacian_many(W)
    assert rows == [2 * p.dim * n]  # every shifted copy of the batch in one call
    assert got.shape == (n, 3) and got.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()
    assert np.allclose(got, np.stack([np.zeros(n), np.full(n, 4.0), 6.0 * W[:, 2]], axis=1),
                       atol=1e-6)


_coef = st.floats(-2.0, 2.0, allow_nan=False)
_even = st.floats(0.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    a=st.one_of(
        st.floats(0.1, 5.0).map(landscape.DoubleWell1D),
        st.lists(_coef, min_size=1, max_size=6).map(landscape.Polynomial1D),
    ),
    b=st.tuples(st.floats(0.5, 5.0), _coef, _even, _coef, _even).map(
        # on |u| <= 2 the odd terms stay below 0.12 and the even part above 0.5
        lambda c: landscape.Polynomial1D([c[0], 0.02 * c[1], c[2], 0.0025 * c[3], c[4]])
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_batched_derivatives_equal_the_loops_bitwise(a, b, seed):
    ch = landscape.Channel2D(a, b, u_box=(-2.0, 2.0))
    W = np.random.default_rng(seed).uniform(-2.0, 2.0, (16, 2))
    assert np.array_equal(ch.hessian_many(W), loop_hessian_many(ch, W))
    assert np.array_equal(ch.grad_laplacian_many(W), loop_grad_laplacian_many(ch, W))


@pytest.mark.parametrize("pot", ALL_POTS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batched_derivatives_reject_nonfinite_rows(pot, bad):
    W = np.zeros((4, pot.dim))
    W[2, -1] = bad
    with pytest.raises(ContractError, match="finite"):
        pot.hessian_many(W)
    with pytest.raises(ContractError, match="finite"):
        pot.grad_laplacian_many(W)


@pytest.mark.parametrize("pot", ALL_POTS, ids=lambda p: type(p).__name__)
def test_grad_many_keeps_nonfinite_rows_nonfinite(pot):
    # the Langevin stepper steps a diverged run on and reports it afterwards
    W = np.zeros((3, pot.dim))
    W[1, -1] = np.inf
    with np.errstate(all="ignore"):
        G = pot.grad_many(W)
    assert not np.isfinite(G[1]).all()
    assert np.array_equal(G[[0, 2]], pot.grad_many(W[[0, 2]]))


_BUILTIN_CONFIGS = {
    "quadratic": {"name": "quadratic", "a": [1.0, 2.0, 0.5]},
    "double_well_1d": {"name": "double_well_1d", "scale": 2.5},
    "polynomial_1d": {"name": "polynomial_1d", "coeffs": [0.3, -1.0, 0.0, 0.25]},
    "channel_2d": {
        "name": "channel_2d",
        "a": {"name": "double_well_1d"},
        "b": {"name": "polynomial_1d", "coeffs": [2.5, 0.0, 4.0]},
    },
}


def test_builtin_batched_derivatives_never_call_the_scalar_forms(monkeypatch):
    # a built-in that fell back to a per-point loop would call these
    assert set(_BUILTIN_CONFIGS) == set(landscape._BUILTIN_NAMES)

    def scalar_called(self, w):
        raise AssertionError(f"{type(self).__name__} fell back to a per-point loop")

    classes = {type(landscape.from_config(cfg)) for cfg in _BUILTIN_CONFIGS.values()}
    for cls in classes:
        monkeypatch.setattr(cls, "hessian", scalar_called)
    for cfg in _BUILTIN_CONFIGS.values():
        pot = landscape.from_config(cfg)
        W = np.random.default_rng(5).uniform(-1.5, 1.5, (64, pot.dim))
        assert pot.hessian_many(W).shape == (64, pot.dim, pot.dim)
        assert pot.grad_laplacian_many(W).shape == (64, pot.dim)


def test_double_well_shape():
    dw = landscape.DoubleWell1D()
    # minima at +-1 of depth 0, saddle at 0 of height 1/4
    assert dw.value(np.array([1.0])) == 0.0
    assert dw.value(np.array([-1.0])) == 0.0
    assert dw.value(np.array([0.0])) == 0.25
    assert np.allclose(dw.grad(np.array([1.0])), 0.0)
    assert dw.hessian(np.array([1.0]))[0, 0] == pytest.approx(2.0)
    assert dw.hessian(np.array([0.0]))[0, 0] == pytest.approx(-1.0)


def test_double_well_scale_multiplies_value():
    dw1 = landscape.DoubleWell1D()
    dw3 = landscape.DoubleWell1D(scale=3.0)
    w = np.array([0.37])
    assert dw3.value(w) == pytest.approx(3.0 * dw1.value(w))


def test_quadratic_zero_curvature_is_flat():
    flat = landscape.Quadratic(np.zeros(2))
    w = np.array([2.0, -3.0])
    assert flat.value(w) == 0.0
    assert np.all(flat.grad(w) == 0.0)


@pytest.mark.parametrize("d", range(1, 13))
def test_quadratic_laplacian_and_its_gradient_are_exact(d):
    # Quadratic writes neither: the base trace of hessian_many must be
    # sum(a) and the base central difference exactly +0.0, bit for bit
    rng = np.random.default_rng(d)
    a = rng.uniform(-3.0, 3.0, d)
    a[rng.random(d) < 0.3] = 0.0
    a[0] = 0.0
    q = landscape.Quadratic(a)
    W = rng.uniform(-2.0, 2.0, (7, d))
    assert q.laplacian_many(W).tobytes() == np.full(7, np.sum(a)).tobytes()
    assert q.grad_laplacian_many(W).tobytes() == np.zeros((7, d)).tobytes()


def test_channel_requires_positive_stiffness():
    with pytest.raises(ContractError):
        landscape.Channel2D(
            landscape.DoubleWell1D(),
            landscape.Polynomial1D([0.5, 0.0, -1.0]),  # negative for |u| > ~0.7
        )


@pytest.mark.parametrize("u_box", [(-np.inf, 4.0), (-4.0, np.inf), (np.nan, 4.0)])
def test_channel_rejects_a_non_finite_u_box_end(u_box):
    # b(0) = -1, which the stiffness grid would miss on NaN grid points
    with pytest.raises(ContractError, match="finite"):
        landscape.Channel2D(landscape.DoubleWell1D(), landscape.Polynomial1D([-1.0, 0.0, 1.0]), u_box=u_box)


def test_channel_value_assembles_profile_and_stiffness():
    ch = landscape.Channel2D(
        landscape.Polynomial1D([0.0, 0.0, 0.5]),
        landscape.Polynomial1D([2.0]),
    )
    # U(u, v) = u^2/2 + 0.5 * 2 * v^2
    assert ch.value(np.array([1.0, 1.0])) == pytest.approx(0.5 + 1.0)
    assert ch.value(np.array([0.0, 2.0])) == pytest.approx(4.0)


def test_path_potential_negative_at_flat_minimum():
    # a path resting at a minimum has dynamic term T V / 2D, where
    # V = 0.5|grad U|^2 - D lap U = -D lap U: negative, and more so where
    # the minimum is sharper
    D, T = 0.1, 2.0
    rest = Path(np.linspace(0.0, T, 9), np.zeros((9, 1)))
    V = {}
    for curv in (4.0, 0.25):
        split = action.om_action(landscape.Quadratic(np.array([curv])), rest, D)
        assert split.static_term == 0.0
        V[curv] = split.dynamic_term * 2.0 * D / T
    assert V[4.0] == pytest.approx(-0.4)
    assert V[0.25] == pytest.approx(-0.025)
    assert V[4.0] < V[0.25] < 0


def test_from_config_round_trips_builtins():
    pot = landscape.from_config({"name": "double_well_1d", "scale": 2.0})
    assert isinstance(pot, landscape.DoubleWell1D)
    ch = landscape.from_config(
        {
            "name": "channel_2d",
            "a": {"name": "double_well_1d"},
            "b": {"name": "polynomial_1d", "coeffs": [3.0]},
        }
    )
    assert isinstance(ch, landscape.Channel2D)


def test_from_config_rejects_unknown_and_extra_keys():
    with pytest.raises(ContractError):
        landscape.from_config({"name": "no_such_potential"})
    with pytest.raises(ContractError):
        landscape.from_config({"name": "quadratic", "a": [1.0], "extra": 1})


def test_check_point_rejects_bad_shapes():
    pot = landscape.Quadratic(np.array([1.0, 1.0]))
    with pytest.raises(ContractError):
        pot.value(np.array([1.0]))
    with pytest.raises(ContractError):
        pot.value(np.array([np.nan, 0.0]))


_COEFF = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_COEFF, min_size=1, max_size=8),
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=20),
    st.integers(0, 9),
)
def test_polynomial_helpers_match_numpy_polynomial_bitwise(coeffs, xs, m):
    # the oracle is imported here only: reachlab itself never loads numpy.polynomial
    from numpy.polynomial import polynomial as P

    c, x = np.array(coeffs), np.array(xs)
    d = landscape._polyder(c, m)
    assert d.tobytes() == P.polyder(c, m).tobytes()
    assert landscape._polyval(x, d).tobytes() == P.polyval(x, d).tobytes()
    assert landscape._polyval(x, c).tobytes() == P.polyval(x, c).tobytes()
