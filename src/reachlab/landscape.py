"""Scalar potentials over weight space, with exact first and second derivatives.

Weight vectors are plain 1-D numpy arrays of length ``dim``; nothing is
wrapped.  A potential is written once, in batched form: ``value_many``,
``grad_many`` and ``hessian_many`` map a batch of shape (n, dim) row by
row, and ensemble simulations and the action descent call them directly.
The Laplacian and its gradient exist in batched form only
(``laplacian_many``, ``grad_laplacian_many``).  The single-point
``value`` / ``grad`` / ``hessian`` are the one-row case of the batched
forms, so a point and row k of a batch holding it give the same bits.
The path potential V = 0.5 |grad U|^2 - D lap U of the action is built
from these by ``action.om_action``.
"""

from abc import ABC, abstractmethod

import numpy as np

from .errors import ContractError


class Potential(ABC):
    """A twice-differentiable scalar field U(w) on R^dim.

    Evaluation is pure: no caching, no mutation, safe to call from worker
    processes.  Subclasses implement the batched ``value_many``,
    ``grad_many`` and ``hessian_many`` and nothing per point: those three
    are the only formulas.  ``grad_many`` keeps a non-finite row
    non-finite, for the Langevin stepper to report; ``hessian_many``
    rejects one through ``_check_finite_many``.  ``laplacian_many``
    defaults to the trace of ``hessian_many`` and ``grad_laplacian_many``
    to a central difference of that trace; subclasses with cheaper forms
    override them.  The single-point ``value``, ``grad`` and ``hessian``
    are the one-row case of the batched ones and are not overridden.
    """

    dim: int

    @abstractmethod
    def value_many(self, W):
        """Potential at each row of ``W`` (n, dim), shape (n,)."""

    @abstractmethod
    def grad_many(self, W):
        """Gradient at each row, shape (n, dim)."""

    @abstractmethod
    def hessian_many(self, W):
        """Hessian at each row, shape (n, dim, dim), symmetric."""

    def laplacian_many(self, W):
        return np.trace(self.hessian_many(W), axis1=1, axis2=2)

    def grad_laplacian_many(self, W):
        """Gradients of lap U at each row of ``W``, shape (n, dim).

        Default is a central finite difference, step 1e-5, of the Hessian
        trace.  ``hessian_many`` is row-wise, so one call on the stack of
        all 2 * dim shifted copies of the batch gives every trace.
        """
        W = self._check_finite_many(W)
        h = 1e-5
        n, d = W.shape
        E = h * np.eye(d)  # row i shifts coordinate i by h
        shifted = np.stack([W[:, None] + E, W[:, None] - E]).reshape(2 * n * d, d)
        tr = np.trace(self.hessian_many(shifted), axis1=1, axis2=2).reshape(2, n, d)
        return (tr[0] - tr[1]) / (2 * h)

    # -- one point: the one-row case of the batched forms ------------------

    def value(self, w):
        """Potential at ``w``, a float."""
        return float(self.value_many(check_point(self, w)[None])[0])

    def grad(self, w):
        """Gradient at ``w``, shape (dim,)."""
        return self.grad_many(check_point(self, w)[None])[0]

    def hessian(self, w):
        """Hessian at ``w``, shape (dim, dim)."""
        return self.hessian_many(check_point(self, w)[None])[0]

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

    def value_many(self, W):
        W = self._check_many(W)
        return 0.5 * np.sum(self.a * W * W, axis=1)

    def grad_many(self, W):
        return self.a * self._check_many(W)

    def hessian_many(self, W):
        W = self._check_finite_many(W)
        return np.tile(np.diag(self.a), (W.shape[0], 1, 1))


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
        # 3.0 * w * w and laplacian_many's 3.0 * w ** 2 round apart, and the
        # minimum-action descent's iterates depend on each as written
        return (self.scale * (3.0 * w * w - 1.0))[:, None, None]

    def grad_laplacian_many(self, W):
        W = self._check_finite_many(W)
        return 6.0 * self.scale * W


def _polyval(x, c):
    """Horner's rule for ascending coefficients ``c`` at the points ``x``.

    The operations of ``numpy.polynomial.polynomial.polyval`` in its
    order, so the results are its bits, without importing that package.
    """
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def _polyder(c, m):
    """``numpy.polynomial.polynomial.polyder(c, m)``, bit for bit."""
    if m >= len(c):
        return c[:1] * 0
    for _ in range(m):
        c = c[1:] * np.arange(1, len(c))
    return c


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
        self._d1, self._d2, self._d3 = (_polyder(c, m) for m in (1, 2, 3))

    def value_many(self, W):
        W = self._check_many(W)
        return _polyval(W[:, 0], self.coeffs)

    def grad_many(self, W):
        W = self._check_many(W)
        return _polyval(W[:, 0], self._d1)[:, None]

    def hessian_many(self, W):
        W = self._check_finite_many(W)
        return _polyval(W[:, 0], self._d2)[:, None, None]

    def grad_laplacian_many(self, W):
        W = self._check_finite_many(W)
        return _polyval(W[:, 0], self._d3)[:, None]


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

    def __init__(self, a, b, u_box=(-4.0, 4.0)):
        if not isinstance(a, Potential) or a.dim != 1:
            raise ContractError("Channel2D profile a must be a 1-D potential")
        if not isinstance(b, Potential) or b.dim != 1:
            raise ContractError("Channel2D stiffness b must be a 1-D potential")
        lo, hi = float(u_box[0]), float(u_box[1])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ContractError("u_box ends must be finite")
        if not lo < hi:
            raise ContractError("u_box must be an increasing interval")
        self.a = a
        self.b = b
        self.u_box = (lo, hi)
        us = np.linspace(lo, hi, 201)
        bu = b.value_many(us[:, None])
        if bu.min() <= 0:
            raise ContractError(
                f"b(u) must be positive on u_box; min {bu.min():.3g} at u={us[bu.argmin()]:.3g}"
            )

    def value_many(self, W):
        W = self._check_many(W)
        U1 = W[:, :1]
        v = W[:, 1]
        av = self.a.value_many(U1)
        bv = self.b.value_many(U1)
        return av + 0.5 * bv * v * v

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


# name -> (builder, the parameter keys it reads)
_BUILTIN_NAMES = {
    "quadratic": (lambda cfg: Quadratic(cfg["a"]), {"a"}),
    "double_well_1d": (lambda cfg: DoubleWell1D(cfg.get("scale", 1.0)), {"scale"}),
    "polynomial_1d": (lambda cfg: Polynomial1D(cfg["coeffs"]), {"coeffs"}),
    "channel_2d": (lambda cfg: Channel2D(
        from_config(cfg["a"]), from_config(cfg["b"]), u_box=tuple(cfg.get("u_box", (-4.0, 4.0))),
    ), {"a", "b", "u_box"}),
}


def from_config(cfg):
    """Build a built-in potential from a JSON-style dict (name + params)."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("name"), str):
        raise ContractError(f"potential config must be a dict with a string 'name', got {cfg!r}")
    name = cfg["name"]
    if name not in _BUILTIN_NAMES:
        raise ContractError(f"unknown potential {name!r}; known: {sorted(_BUILTIN_NAMES)}")
    build, keys = _BUILTIN_NAMES[name]
    extra = set(cfg) - keys - {"name"}
    if extra:
        raise ContractError(f"unknown keys for potential {name!r}: {sorted(extra)}")
    try:
        return build(cfg)
    except ContractError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:  # missing or malformed
        raise ContractError(f"potential {name!r}: bad or missing parameter ({exc!r})") from exc
