"""Escape-rate laws and Arrhenius fits.

Two rate forms live here.  The classical double-well rate

    k = sqrt(U''(min) |U''(saddle)|) / (2 pi) * exp(-dU / D)

is the physical reference the simulators are checked against.  The
complexity form ``prefactor * exp(-delta_c / D)`` expresses the same law
with a curvature-corrected barrier; the two coincide when delta_c is the
barrier of the effective potential and the prefactor absorbs the
curvature of the starting well (see the identity tests).

The exponent convention matters: passage times fitted against 1/D give a
slope equal to the barrier under the exp(-delta/D) form, and half of it
under the exp(-delta/2D) static-factor form.  Fits report the slope; the
sweep driver publishes the barrier under both conventions rather than
pretending the choice is settled.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def kramers_rate_complexity(delta_c, D, prefactor):
    """Rate = prefactor * exp(-delta_c / D)."""
    if not (np.isfinite(D) and D > 0):
        raise ContractError("D must be positive")
    if not (np.isfinite(prefactor) and prefactor > 0):
        raise ContractError("prefactor must be positive")
    if not np.isfinite(delta_c):
        raise ContractError("delta_c must be finite")
    return float(prefactor * np.exp(-delta_c / D))


def kramers_double_well(p, D, min_loc, saddle_loc):
    """Classical escape rate of ``p`` from min_loc over saddle_loc.

    This is the leading-order (dU/D -> infinity) Kramers rate for the
    overdamped dynamics dw = -grad U dt + sqrt(2D) dB.  At finite dU/D
    the exact mean passage time exceeds 1/k by finite-barrier
    corrections of order D/dU: for the unit double well at D = 0.1
    (dU/D = 2.5) the exact mean from -1 to 0.9 is 20.6% above 1/k.

    Requires positive curvature at the minimum and negative curvature at
    the saddle; anything else is a caller error, not a zero rate.
    """
    if not (np.isfinite(D) and D > 0):
        raise ContractError("D must be positive")
    if p.dim != 1:
        raise ContractError("kramers_double_well supports 1-D potentials only")
    c_min = float(p.hessian(min_loc)[0, 0])
    c_sad = float(p.hessian(saddle_loc)[0, 0])
    if c_min <= 0:
        raise ContractError(f"curvature at the minimum must be positive, got {c_min:.3g}")
    if c_sad >= 0:
        raise ContractError(f"curvature at the saddle must be negative, got {c_sad:.3g}")
    dU = p.value(saddle_loc) - p.value(min_loc)
    if dU <= 0:
        raise ContractError("saddle must sit above the minimum")
    return float(np.sqrt(c_min * abs(c_sad)) / (2.0 * np.pi) * np.exp(-dU / D))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(time) against a barrier-like abscissa."""

    slope: float
    intercept: float
    r2: float
    points: list  # (x, mean_time) pairs actually fitted

    def to_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "points": [[float(a), float(b)] for a, b in self.points],
        }


def arrhenius_fit(points):
    """Fit log(mean_time) = slope * x + intercept over (x, mean_time) pairs.

    Needs at least 3 points with positive times and non-degenerate x.
    Callers fitting barrier laws pass x = 1/D, in which case the slope is
    the barrier under the exp(-barrier/D) convention.
    """
    pts = [(float(x), float(t)) for x, t in points]
    if len(pts) < 3:
        raise ContractError("need at least 3 points")
    xs = np.array([x for x, _ in pts])
    ts = np.array([t for _, t in pts])
    if np.any(ts <= 0):
        raise ContractError("times must be positive")
    # equal x can give a nonzero np.std by rounding, and a tiny spread a zero one
    if xs.max() == xs.min() or np.std(xs) == 0:
        raise ContractError("x values are degenerate")
    # scipy.stats.linregress's formulas, operation for operation
    ys = np.log(ts)
    sxx, sxy, _, syy = np.cov(xs, ys, bias=1).flat
    r = sxy / np.sqrt(sxx * syy) if sxx and syy else (np.nan if sxy == 0 else 0.0)
    slope = sxy / sxx
    r2 = min(max(r, -1.0), 1.0) ** 2
    return RateFit(float(slope), float(np.mean(ys) - slope * np.mean(xs)), float(r2), pts)
