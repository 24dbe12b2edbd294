"""Escape-rate formulas and Arrhenius fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlab import landscape, rates
from reachlab.errors import ContractError


def test_complexity_rate_formula():
    assert rates.kramers_rate_complexity(0.0, 1.0, 2.0) == 2.0
    got = rates.kramers_rate_complexity(0.5, 0.25, 1.0)
    assert got == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_complexity_rate_contracts():
    with pytest.raises(ContractError):
        rates.kramers_rate_complexity(0.5, 0.0, 1.0)
    with pytest.raises(ContractError):
        rates.kramers_rate_complexity(0.5, 1.0, -1.0)
    with pytest.raises(ContractError):
        rates.kramers_rate_complexity(np.inf, 1.0, 1.0)


def test_double_well_escape_rate_closed_form():
    # curvatures 2 and -1, barrier 1/4: k = sqrt(2)/(2 pi) e^{-1/(4D)}
    dw = landscape.DoubleWell1D()
    k = rates.kramers_double_well(dw, 0.1, np.array([-1.0]), np.array([0.0]))
    assert k == pytest.approx(np.sqrt(2.0) / (2.0 * np.pi) * np.exp(-2.5), rel=1e-14)
    assert 1.0 / k == pytest.approx(54.125394562226795, rel=1e-12)
    k2 = rates.kramers_double_well(dw, 0.125, np.array([-1.0]), np.array([0.0]))
    assert k2 == pytest.approx(0.03046114091241643, rel=1e-12)


def test_double_well_rate_agrees_with_complexity_form():
    # same law, curvature prefactor made explicit
    dw = landscape.DoubleWell1D()
    pref = np.sqrt(2.0) / (2.0 * np.pi)
    for D in (0.08, 0.1, 0.2):
        a = rates.kramers_double_well(dw, D, np.array([-1.0]), np.array([0.0]))
        b = rates.kramers_rate_complexity(0.25, D, pref)
        assert a == pytest.approx(b, rel=1e-14)


def test_rate_is_homogeneous_under_potential_scaling():
    # scaling U by s multiplies curvatures and barrier by s, so the rate
    # at diffusion sD equals s times the unscaled rate at D
    D, s = 0.1, 3.0
    k1 = rates.kramers_double_well(landscape.DoubleWell1D(), D, np.array([-1.0]), np.array([0.0]))
    ks = rates.kramers_double_well(
        landscape.DoubleWell1D(scale=s), s * D, np.array([-1.0]), np.array([0.0]))
    assert ks == pytest.approx(s * k1, rel=1e-14)


def test_double_well_rate_contracts():
    dw = landscape.DoubleWell1D()
    with pytest.raises(ContractError):
        rates.kramers_double_well(dw, 0.0, np.array([-1.0]), np.array([0.0]))
    # swapped roles: positive curvature where the saddle should be
    with pytest.raises(ContractError):
        rates.kramers_double_well(dw, 0.1, np.array([0.0]), np.array([-1.0]))
    q2 = landscape.Quadratic([1.0, 1.0])
    with pytest.raises(ContractError):
        rates.kramers_double_well(q2, 0.1, np.zeros(2), np.ones(2))


def test_arrhenius_fit_recovers_an_exact_line():
    xs = np.array([4.0, 5.0, 8.0, 10.0, 12.5])
    ts = np.exp(1.0 + 2.0 * xs)
    fit = rates.arrhenius_fit(list(zip(xs, ts)))
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.exp(fit.intercept + fit.slope * xs), ts, rtol=1e-9)
    d = fit.to_dict()
    assert d["points"] == [[float(x), float(t)] for x, t in zip(xs, ts)]


def test_arrhenius_fit_contracts():
    with pytest.raises(ContractError):
        rates.arrhenius_fit([(1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(ContractError):
        rates.arrhenius_fit([(1.0, 2.0), (2.0, 0.0), (3.0, 1.0)])
    with pytest.raises(ContractError):
        rates.arrhenius_fit([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    # equal x whose np.std rounds to 1e-13: no slope exists, not a tiny one
    with pytest.raises(ContractError):
        rates.arrhenius_fit([(683.4210613000348, t) for t in (1.0, 2.0, 3.0)])


_SMALL_INT = st.integers(-3, 3).map(float)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=3, max_size=12),
        # ties in x and exactly equal times
        st.lists(st.tuples(_SMALL_INT, _SMALL_INT.map(np.exp)), min_size=3, max_size=12),
    )
)
def test_arrhenius_fit_reproduces_scipy_linregress(points):
    from scipy.stats import linregress

    xs = np.array([x for x, _ in points])
    if xs.max() == xs.min() or np.std(xs) == 0:
        with pytest.raises(ContractError, match="degenerate"):
            rates.arrhenius_fit(points)
        return
    ref = linregress(xs, np.log([t for _, t in points]))
    fit = rates.arrhenius_fit(points)
    assert fit.slope == float(ref.slope)
    assert fit.intercept == float(ref.intercept)
    assert np.array_equal(fit.r2, float(ref.rvalue**2), equal_nan=True)
