"""Scalar potentials over weight space, with exact first and second derivatives.

Weight vectors are plain 1-D numpy arrays of length ``dim``; nothing is
wrapped.  Every potential exposes ``value`` / ``grad`` / ``hessian`` plus
batched variants (``*_many``) that ensemble simulations use to stay
vectorized.  Three derived fields are computed from any potential:

* ``drift``                : descent drift -grad U, the deterministic part of
                             the overdamped dynamics dw = drift dt + sqrt(2D) dB
* ``path_potential``       : V = 0.5 |grad U|^2 - D lap U, the potential felt
                             by path weights in the (Stratonovich) action
* ``effective_potential``  : U + D log det_+ hess U, the curvature-corrected
                             landscape that governs where long runs settle

``effective_potential`` keeps only eigenvalues above a relative floor, so it
is well defined at saddles where the determinant would otherwise vanish or
go negative.
"""

from abc import ABC, abstractmethod

import numpy as np

from .errors import ContractError, NumericalError


class Potential(ABC):
    """A twice-differentiable scalar field U(w) on R^dim.

    Evaluation is pure: no caching, no mutation, safe to call from worker
    processes.  Subclasses must implement ``value``, ``grad`` and
    ``hessian`` for a single point.  The batched ``value_many``,
    ``grad_many``, ``laplacian_many`` and ``hessian_many`` defaults loop
    over those; ``grad_laplacian_many`` is a central difference of the
    trace of ``hessian_many``, two batched calls per coordinate.
    Every built-in potential replaces the loops with vectorized forms
    (``Channel2D`` keeps the finite-difference ``grad_laplacian_many``, over
    its vectorized ``hessian_many``).  Their ``hessian_many`` and
    ``grad_laplacian_many`` repeat the scalar arithmetic in the same order
    and equal the per-point results bit for bit, which keeps the
    minimum-action descent on the same iterates.
    """

    dim: int

    @abstractmethod
    def value(self, w):
        """Potential at ``w``, a float."""

    @abstractmethod
    def grad(self, w):
        """Gradient at ``w``, shape (dim,)."""

    @abstractmethod
    def hessian(self, w):
        """Hessian at ``w``, shape (dim, dim), symmetric."""

    # -- batched evaluation ------------------------------------------------

    def value_many(self, W):
        W = self._check_many(W)
        return np.array([self.value(w) for w in W])

    def grad_many(self, W):
        # a non-finite row gives a NaN row, as in the vectorized overrides,
        # for the Langevin stepper to report; the scalar grad rejects it
        W = self._check_many(W)
        nan = np.full(self.dim, np.nan)
        return np.stack([self.grad(w) if np.isfinite(w).all() else nan for w in W])

    def laplacian(self, w):
        return float(np.trace(self.hessian(w)))

    def laplacian_many(self, W):
        W = self._check_many(W)
        return np.array([self.laplacian(w) for w in W])

    def grad_laplacian(self, w):
        """Gradient of lap U, needed by critical-path equations.

        Default is the one-row case of ``grad_laplacian_many``; subclasses
        with cheap third derivatives override it.
        """
        return self.grad_laplacian_many(check_point(self, w)[None])[0]

    def grad_laplacian_many(self, W):
        """Gradients of lap U at each row of ``W``, shape (n, dim).

        Default is a central finite difference, step 1e-5, of the Hessian
        trace: two ``hessian_many`` calls per coordinate for the whole batch.
        """
        W = self._check_finite_many(W)
        h = 1e-5
        out = np.empty(W.shape)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            lp = np.trace(self.hessian_many(W + e), axis1=1, axis2=2)
            lm = np.trace(self.hessian_many(W - e), axis1=1, axis2=2)
            out[:, i] = (lp - lm) / (2 * h)
        return out

    def hessian_many(self, W):
        W = self._check_many(W)
        return np.stack([self.hessian(w) for w in W])

    def _check_many(self, W):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != self.dim:
            raise ContractError(f"expected batch of shape (n, {self.dim}), got {W.shape}")
        return W

    def _check_finite_many(self, W):
        """``_check_many`` plus the finiteness test ``check_point`` makes.

        Only the batched derivatives pay for it; ``grad_many`` sits in the
        per-step loop of the ensemble simulators and does not.
        """
        W = self._check_many(W)
        if not np.all(np.isfinite(W)):
            raise ContractError("evaluation points must be finite")
        return W


def check_point(p, w):
    """Validate and canonicalize a single evaluation point."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (p.dim,):
        raise ContractError(f"potential has dim {p.dim}, got point of shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ContractError("evaluation point must be finite")
    return w


class Quadratic(Potential):
    """Axis-aligned bowl U(w) = 0.5 * sum_i a_i w_i^2.

    ``a`` holds the per-axis curvatures; zeros are allowed, so
    ``Quadratic(np.zeros(d))`` doubles as the free (flat) potential.
    """

    def __init__(self, a):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
            raise ContractError("Quadratic needs a finite 1-D curvature vector")
        self.a = a
        self.dim = a.size

    def value(self, w):
        w = check_point(self, w)
        return float(0.5 * np.sum(self.a * w * w))

    def grad(self, w):
        w = check_point(self, w)
        return self.a * w

    def hessian(self, w):
        check_point(self, w)
        return np.diag(self.a)

    def value_many(self, W):
        W = self._check_many(W)
        return 0.5 * np.sum(self.a * W * W, axis=1)

    def grad_many(self, W):
        return self.a * self._check_many(W)

    def laplacian_many(self, W):
        W = self._check_many(W)
        return np.full(W.shape[0], float(np.sum(self.a)))

    def grad_laplacian(self, w):
        check_point(self, w)
        return np.zeros(self.dim)

    def hessian_many(self, W):
        W = self._check_finite_many(W)
        return np.tile(np.diag(self.a), (W.shape[0], 1, 1))

    def grad_laplacian_many(self, W):
        return np.zeros(self._check_finite_many(W).shape)


class DoubleWell1D(Potential):
    """Symmetric double well U(w) = scale * (w^2 - 1)^2 / 4.

    Minima at w = +-1 with curvature 2*scale, saddle at 0 with curvature
    -scale, barrier height scale/4.
    """

    dim = 1

    def __init__(self, scale=1.0):
        if not (np.isfinite(scale) and scale > 0):
            raise ContractError("DoubleWell1D scale must be positive and finite")
        self.scale = float(scale)

    def value(self, w):
        w = check_point(self, w)[0]
        return float(self.scale * (w * w - 1.0) ** 2 / 4.0)

    def grad(self, w):
        w = check_point(self, w)[0]
        return np.array([self.scale * (w ** 3 - w)])

    def hessian(self, w):
        w = check_point(self, w)[0]
        return np.array([[self.scale * (3.0 * w * w - 1.0)]])

    def value_many(self, W):
        W = self._check_many(W)
        return self.scale * (W[:, 0] ** 2 - 1.0) ** 2 / 4.0

    def grad_many(self, W):
        W = self._check_many(W)
        return self.scale * (W ** 3 - W)

    def laplacian_many(self, W):
        W = self._check_many(W)
        return self.scale * (3.0 * W[:, 0] ** 2 - 1.0)

    def hessian_many(self, W):
        w = self._check_finite_many(W)[:, 0]
        # 3.0 * w * w rounds like the scalar hessian; 3.0 * w ** 2 does not
        return (self.scale * (3.0 * w * w - 1.0))[:, None, None]

    def grad_laplacian(self, w):
        w = check_point(self, w)[0]
        return np.array([6.0 * self.scale * w])

    def grad_laplacian_many(self, W):
        W = self._check_finite_many(W)
        return 6.0 * self.scale * W


class Polynomial1D(Potential):
    """One-dimensional polynomial in ascending coefficient order.

    Exists mostly as a building block for Channel2D profiles, e.g.
    ``Polynomial1D([1.0, 0.0, 0.5])`` is 1 + w^2/2.
    """

    dim = 1

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ContractError("Polynomial1D needs finite ascending coefficients")
        self.coeffs = c
        self._d1 = np.polynomial.polynomial.polyder(c, 1)
        self._d2 = np.polynomial.polynomial.polyder(c, 2)
        self._d3 = np.polynomial.polynomial.polyder(c, 3)

    def value(self, w):
        w = check_point(self, w)[0]
        return float(np.polynomial.polynomial.polyval(w, self.coeffs))

    def grad(self, w):
        w = check_point(self, w)[0]
        return np.array([np.polynomial.polynomial.polyval(w, self._d1)])

    def hessian(self, w):
        w = check_point(self, w)[0]
        return np.array([[np.polynomial.polynomial.polyval(w, self._d2)]])

    def grad_laplacian(self, w):
        w = check_point(self, w)[0]
        return np.array([np.polynomial.polynomial.polyval(w, self._d3)])

    def value_many(self, W):
        W = self._check_many(W)
        return np.polynomial.polynomial.polyval(W[:, 0], self.coeffs)

    def grad_many(self, W):
        W = self._check_many(W)
        return np.polynomial.polynomial.polyval(W[:, 0], self._d1)[:, None]

    def laplacian_many(self, W):
        W = self._check_many(W)
        return np.polynomial.polynomial.polyval(W[:, 0], self._d2)

    def hessian_many(self, W):
        W = self._check_finite_many(W)
        return np.polynomial.polynomial.polyval(W[:, 0], self._d2)[:, None, None]

    def grad_laplacian_many(self, W):
        W = self._check_finite_many(W)
        return np.polynomial.polynomial.polyval(W[:, 0], self._d3)[:, None]


class Channel2D(Potential):
    """Curved channel U(u, v) = a(u) + 0.5 * b(u) * v^2.

    ``a`` sets the landscape along the channel coordinate u and ``b`` the
    transverse stiffness; both are 1-D potentials evaluated as scalar
    functions of u.  ``b`` must stay strictly positive on ``u_box``, which
    is checked on a grid at construction.  Long runs concentrate on a
    u-marginal proportional to exp(-a/D) / sqrt(b): narrowing the channel
    (larger b) *depletes* the marginal even at equal a, which is the whole
    point of this potential.
    """

    dim = 2

    def __init__(self, a, b, u_box=(-4.0, 4.0), n_check=201):
        if not isinstance(a, Potential) or a.dim != 1:
            raise ContractError("Channel2D profile a must be a 1-D potential")
        if not isinstance(b, Potential) or b.dim != 1:
            raise ContractError("Channel2D stiffness b must be a 1-D potential")
        lo, hi = float(u_box[0]), float(u_box[1])
        if not lo < hi:
            raise ContractError("u_box must be an increasing interval")
        self.a = a
        self.b = b
        self.u_box = (lo, hi)
        us = np.linspace(lo, hi, n_check)
        bu = b.value_many(us[:, None])
        if bu.min() <= 0:
            raise ContractError(
                f"b(u) must be positive on u_box; min {bu.min():.3g} at u={us[bu.argmin()]:.3g}"
            )

    def _ab(self, u):
        ua = np.array([u])
        return (
            self.a.value(ua), self.a.grad(ua)[0], self.a.hessian(ua)[0, 0],
            self.b.value(ua), self.b.grad(ua)[0], self.b.hessian(ua)[0, 0],
        )

    def value(self, w):
        u, v = check_point(self, w)
        av, _, _, bv, _, _ = self._ab(u)
        return float(av + 0.5 * bv * v * v)

    def grad(self, w):
        u, v = check_point(self, w)
        _, a1, _, bv, b1, _ = self._ab(u)
        return np.array([a1 + 0.5 * b1 * v * v, bv * v])

    def hessian(self, w):
        u, v = check_point(self, w)
        _, _, a2, bv, b1, b2 = self._ab(u)
        return np.array([[a2 + 0.5 * b2 * v * v, b1 * v], [b1 * v, bv]])

    def value_many(self, W):
        W = self._check_many(W)
        U1 = W[:, :1]
        av = self.a.value_many(U1)
        bv = self.b.value_many(U1)
        return av + 0.5 * bv * W[:, 1] ** 2

    def grad_many(self, W):
        W = self._check_many(W)
        U1 = W[:, :1]
        v = W[:, 1]
        a1 = self.a.grad_many(U1)[:, 0]
        bv = self.b.value_many(U1)
        b1 = self.b.grad_many(U1)[:, 0]
        return np.stack([a1 + 0.5 * b1 * v * v, bv * v], axis=1)

    def laplacian_many(self, W):
        W = self._check_many(W)
        U1 = W[:, :1]
        v = W[:, 1]
        a2 = self.a.laplacian_many(U1)
        b2 = self.b.laplacian_many(U1)
        bv = self.b.value_many(U1)
        return a2 + 0.5 * b2 * v * v + bv

    def hessian_many(self, W):
        """Row k is ``hessian(W[k])`` bit for bit, given profiles whose
        batched value and grad equal their scalar forms (Polynomial1D's do;
        DoubleWell1D's differ in the last bit, so only as ``a`` is it exact)."""
        W = self._check_finite_many(W)
        U1 = W[:, :1]
        v = W[:, 1]
        a2 = self.a.hessian_many(U1)[:, 0, 0]
        bv = self.b.value_many(U1)
        b1 = self.b.grad_many(U1)[:, 0]
        b2 = self.b.hessian_many(U1)[:, 0, 0]
        H = np.empty((W.shape[0], 2, 2))
        H[:, 0, 0] = a2 + 0.5 * b2 * v * v
        H[:, 0, 1] = H[:, 1, 0] = b1 * v
        H[:, 1, 1] = bv
        return H


def drift(p, w):
    """Deterministic drift of the overdamped dynamics: -grad U(w)."""
    return -p.grad(check_point(p, w))


def path_potential(p, w, D):
    """V(w) = 0.5 |grad U|^2 - D lap U, the action's potential term.

    At a strict local minimum the gradient vanishes and V = -D lap U < 0:
    flat minima cost less to linger in than sharp ones, by exactly the
    curvature term.
    """
    if D < 0:
        raise ContractError("D must be nonnegative")
    w = check_point(p, w)
    g = p.grad(w)
    return float(0.5 * np.dot(g, g) - D * p.laplacian(w))


def path_potential_many(p, W, D):
    G = p.grad_many(W)
    return 0.5 * np.sum(G * G, axis=1) - D * p.laplacian_many(W)


def effective_potential(p, w, D, eig_floor=1e-6):
    """Curvature-corrected potential U(w) + D * log det_+ hess U(w).

    det_+ keeps eigenvalues above ``eig_floor * max(|lambda|_max, 1)``;
    if none qualify (e.g. at a saddle of a 1-D double well) the log term
    is zero and the bare potential is returned.
    """
    if D < 0:
        raise ContractError("D must be nonnegative")
    w = check_point(p, w)
    H = p.hessian(w)
    try:
        eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hessian eigendecomposition failed at w={w}: {exc}") from exc
    floor = eig_floor * max(np.max(np.abs(eigs)), 1.0)
    kept = eigs[eigs > floor]
    logdet = float(np.sum(np.log(kept))) if kept.size else 0.0
    return float(p.value(w) + D * logdet)


_BUILTIN_NAMES = {
    "quadratic": lambda cfg: Quadratic(cfg["a"]),
    "double_well_1d": lambda cfg: DoubleWell1D(cfg.get("scale", 1.0)),
    "polynomial_1d": lambda cfg: Polynomial1D(cfg["coeffs"]),
    "channel_2d": lambda cfg: Channel2D(
        from_config(cfg["a"]), from_config(cfg["b"]),
        u_box=tuple(cfg.get("u_box", (-4.0, 4.0))),
    ),
}

_BUILTIN_KEYS = {
    "quadratic": {"name", "a"},
    "double_well_1d": {"name", "scale"},
    "polynomial_1d": {"name", "coeffs"},
    "channel_2d": {"name", "a", "b", "u_box"},
}


def from_config(cfg):
    """Build a built-in potential from a JSON-style dict (name + params)."""
    if not isinstance(cfg, dict) or "name" not in cfg:
        raise ContractError(f"potential config must be a dict with a 'name', got {cfg!r}")
    name = cfg["name"]
    if name not in _BUILTIN_NAMES:
        raise ContractError(f"unknown potential {name!r}; known: {sorted(_BUILTIN_NAMES)}")
    extra = set(cfg) - _BUILTIN_KEYS[name]
    if extra:
        raise ContractError(f"unknown keys for potential {name!r}: {sorted(extra)}")
    return _BUILTIN_NAMES[name](cfg)
