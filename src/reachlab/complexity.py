"""Gaussian information complexity of tasks and distances between them.

The central quantity is, for a task with data loss L and a Gaussian
posterior Q = N(w0, S) against the prior P = N(0, lambda2 I),

    C_beta(w0) = L(w0) + (beta/2) [ |w0|^2/lambda2 + log det(2 lambda2/beta F + I) ],

with F the expected (Fisher) curvature of the model at w0 -- the
positive-semidefinite stand-in for the loss Hessian that every formula
here uses.  The optimal posterior covariance at fixed mean is

    S* = (beta/2) (F + beta/(2 lambda2) I)^{-1},

and sweeping beta traces out a loss-vs-KL structure curve.  Task distance
is the complexity increment d(D1 -> D2) = C_beta(D1 u D2) - C_beta(D1),
each term evaluated at its own trained posterior mean (``trained_c_beta``);
it is asymmetric by construction.  ``task_distance`` measures one pair;
the finetune-matrix experiment sweeps a family's terms as harness cells,
so a descent that fails flags its own cell.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tasks
from .errors import ContractError, NumericalError, TrainingDivergedError, check_int, check_real
from .rng import stream


@dataclass(frozen=True)
class GaussianPosterior:
    """N(mean, cov) over weight space."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        C = np.asarray(self.cov, dtype=float)
        if m.ndim != 1 or C.shape != (m.size, m.size):
            raise ContractError(f"cov shape {C.shape} does not match mean of size {m.size}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(C))):
            raise ContractError("posterior mean/cov must be finite")
        scale = max(1.0, float(np.abs(C).max()))
        if np.abs(C - C.T).max() > 1e-10 * scale:
            raise ContractError("cov must be symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", 0.5 * (C + C.T))

    @property
    def dim(self):
        return self.mean.size


def gaussian_kl(q, lambda2):
    """KL( N(mean, cov) || N(0, lambda2 I) ) in nats.

    Returns +inf (with no exception) when cov is singular to working
    precision; raises ContractError when cov has a genuinely negative
    eigenvalue, since that is a caller bug rather than a degenerate
    posterior.
    """
    if not (np.isfinite(lambda2) and lambda2 > 0):
        raise ContractError("lambda2 must be positive")
    k = q.dim
    eigs = np.linalg.eigvalsh(q.cov)
    scale = max(1.0, float(np.abs(eigs).max()))
    if eigs.min() < -1e-10 * scale:
        raise ContractError(f"cov has negative eigenvalue {eigs.min():.3g}")
    if eigs.min() <= 0:
        import warnings

        warnings.warn(
            f"singular posterior covariance (min eigenvalue {eigs.min():.3g}); KL is +inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("inf")
    logdet = float(np.sum(np.log(eigs)))
    m2 = float(q.mean @ q.mean)
    tr = float(np.trace(q.cov))
    # grouped so the two cancellations are exact when cov == lambda2 I
    return 0.5 * (m2 / lambda2 + (tr / lambda2 - k) + (k * np.log(lambda2) - logdet))


def fisher(task, w):
    """Expected curvature F(w) = E_data E_{y ~ p_w} [ grad log p grad log p^T ].

    The label expectation is taken exactly under the model's own
    posterior (no label sampling), so F is symmetric PSD and deterministic
    in (task, w).  For the linear-logit family it coincides with the exact
    Hessian of the mean cross-entropy.

    F = E_n[J^T Lam J] (J the logit Jacobian, Lam the softmax covariance)
    is filled by blocks: J's output-layer part delta_kl phi is never built,
    its MLP first-layer part is built a few hidden units at a time.  Each
    entry is the dense einsum's sum, in its (sample, class) order, less the
    terms with an exact-zero Jacobian factor.  Those are +-0 for finite
    inputs; they change no bit of a nonzero sum and cannot make a +0 sum -0.
    """
    w = tasks._check_w(task.model, w)
    if task.data.n == 0 or not np.all(np.isfinite(w)):
        raise ContractError("Fisher needs a nonempty dataset and finite weights")
    model, X, n = task.model, task.data.inputs, task.data.n
    Z1, cache = tasks._forward(model, w[None], X)
    _, _, E, s = tasks._softmax(Z1)
    Pk = E[0, :, 1:] / s[0, :, None]
    K1 = Pk.shape[1]
    # softmax covariance restricted to the free logits: diag(p) - p p^T
    Lam = Pk[:, :, None] * np.eye(K1)[None] - Pk[:, :, None] * Pk[:, None, :]
    F = np.empty((model.n_params, model.n_params))
    Phi, off, units = X, 0, []  # output-layer features and offset; first-layer blocks
    if model.family == "mlp-1-hidden":
        h, p = model.hidden, model.input_dim
        W2, Phi, dA1 = (a[0] for a in cache)
        off, step = h * p, max(1, tasks._BLOCK_BYTES // (8 * n * K1 * p))
        units = [slice(j, min(j + step, h)) for j in range(0, h, step)]

        def J1(u):  # dz_k/dW1[j,:] = W2[k,j] phi'(z1_j) x, for the hidden units j in u
            G = W2[:, u] * dA1[:, None, u]
            J = np.empty(G.shape + (p,))
            for q in range(p):  # a whole (n, K-1, units) plane per multiply
                np.multiply(G, X[:, q, None, None], out=J[..., q])
            return J.reshape(n, K1, -1)

    d = Phi.shape[1]

    def fill(c, M):  # the columns c of n F, from M = (Lam J)[:, :, c]
        for k in range(K1):  # output-layer rows: J = delta_kl phi
            F[off + k * d: off + (k + 1) * d, c] = np.einsum("nd,ne->de", Phi, M[:, k])
        for u in units:
            F[u.start * p: u.stop * p, c] = np.einsum("nad,nae->de", J1(u), M)

    for u in units:
        fill(slice(u.start * p, u.stop * p), np.einsum("nab,nbd->nad", Lam, J1(u)))
    for l in range(K1):
        fill(slice(off + l * d, off + (l + 1) * d), Lam[:, :, l, None] * Phi[:, None, :])
    F /= n
    return 0.5 * (F + F.T)


def optimal_sigma(H, beta, lambda2):
    """Optimal posterior covariance S* = (beta/2) (H + beta/(2 lambda2) I)^{-1}."""
    if not (np.isfinite(beta) and beta > 0):
        raise ContractError("beta must be positive")
    if not (np.isfinite(lambda2) and lambda2 > 0):
        raise ContractError("lambda2 must be positive")
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ContractError("H must be square")
    A = 0.5 * (H + H.T) + (beta / (2.0 * lambda2)) * np.eye(H.shape[0])
    vals, vecs = np.linalg.eigh(A)
    if vals.min() <= 0:
        raise NumericalError(
            f"H + beta/(2 lambda2) I is not positive definite (min eig {vals.min():.3g})"
        )
    S = (vecs * (0.5 * beta / vals)) @ vecs.T
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class ComplexityReport:
    """C_beta split into its three terms; total is their pinned combination."""

    beta: float
    lambda2: float
    loss_term: float
    norm_term: float       # |w0|^2 / lambda2
    logdet_term: float     # log det(2 lambda2/beta F + I)
    total: float

    def to_dict(self):
        return asdict(self)


def c_beta_from_parts(loss_value, w0, F, beta, lambda2):
    """Assemble a ComplexityReport from precomputed ingredients."""
    if not (np.isfinite(beta) and beta > 0):
        raise ContractError("beta must be positive")
    if not (np.isfinite(lambda2) and lambda2 > 0):
        raise ContractError("lambda2 must be positive")
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    F = np.asarray(F, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (F + F.T))
    # tiny negative eigenvalues are roundoff from the PSD construction
    eigs = np.clip(eigs, 0.0, None)
    logdet = float(np.sum(np.log1p((2.0 * lambda2 / beta) * eigs)))
    norm = float(w0 @ w0) / lambda2
    total = float(loss_value) + 0.5 * beta * (norm + logdet)
    return ComplexityReport(float(beta), float(lambda2), float(loss_value), norm, logdet, total)


def c_beta(task, w0, beta, lambda2):
    """Gaussian complexity of ``task`` at posterior mean ``w0``.

    The loss term is the bare cross-entropy: the quadratic norm term
    already plays the role of the weight-decay penalty here, so the
    model's own decay coefficient is deliberately not double counted.
    """
    L = tasks.cross_entropy(task, w0)
    F = fisher(task, w0)
    return c_beta_from_parts(L, w0, F, beta, lambda2)


# -- training of posterior means ----------------------------------------------


@dataclass(frozen=True)
class TrainerConfig:
    """Full-batch gradient descent with a fixed step and iteration budget."""

    step_size: float = 0.1
    max_iters: int = 5000
    grad_tol: float = 1e-8
    init_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_int("max_iters", self.max_iters)
        for name in ("step_size", "grad_tol", "init_scale"):
            check_real(name, getattr(self, name))
        if self.step_size <= 0 or self.max_iters < 1 or self.grad_tol < 0:
            raise ContractError("need step_size > 0, max_iters >= 1, grad_tol >= 0")


def initial_point(model, cfg):
    """Canonical descent start: zeros, or a seeded draw when init_scale > 0."""
    if cfg.init_scale == 0.0:
        if model.family == "mlp-1-hidden":
            raise ContractError(
                "mlp-1-hidden needs init_scale > 0: the all-zeros point is a symmetric saddle"
            )
        return np.zeros(model.n_params)
    return cfg.init_scale * stream(cfg.seed).standard_normal(model.n_params)


def _posterior_l2(beta, lambda2):
    """L2 coefficient of the posterior-mean penalty (beta / 2 lambda2) |w|^2.

    Written as 2 (beta / (2 lambda2)), not beta / lambda2: the two can
    differ in the last bit, and the descent is pinned to this rounding.
    """
    return 2.0 * (beta / (2.0 * lambda2))


def _gd(W, data_fn, c, cfg, name, restarts=None):
    """Full-batch descent of every row of W (R, P), in lockstep.

    Row r minimizes data(w) + (c[r] / 2) |w|^2, where ``data_fn`` maps a
    stack of rows to the data term and its gradient, shapes (R,) and
    (R, P), and ``c`` is one L2 coefficient per row (or one for all).
    A row freezes once its gradient norm reaches grad_tol, so each row
    follows exactly the path it would follow alone.  Returns (W, whether
    every row converged, iterations per row, which rows converged).  A
    diverging row aborts the whole descent with TrainingDivergedError and
    no numpy warning; when the first ``restarts`` rows (default all)
    number more than one, the error names a diverging one of them as a
    restart.
    """
    W = np.array(W, dtype=float)
    R = W.shape[0]
    restarts = R if restarts is None else restarts
    c = np.broadcast_to(np.asarray(c, dtype=float), (R,)).copy()
    # harmonic step cap: 1/step = 1/step_size + c, so a stiff quadratic
    # penalty of known curvature can never destabilize the descent
    step = 1.0 / (1.0 / cfg.step_size + c)
    iters = np.full(R, cfg.max_iters)
    converged = np.zeros(R, dtype=bool)
    rows = np.arange(R)
    Wa = W.copy()

    def diverged(msg, bad):
        r = rows[bad][0]
        where = f" in restart {r}" if restarts > 1 and r < restarts else ""
        return TrainingDivergedError(name, msg + where)

    def check_loss(ce, it):
        L = ce + 0.5 * c * tasks._sq_norms(Wa)
        bad = ~np.isfinite(L) | (L > 1e6)
        if bad.any():
            raise diverged(f"loss {L[bad][0]:.3g} at iter {it}", bad)

    with np.errstate(all="ignore"):  # a diverging row raises below, unwarned
        for it in range(1, cfg.max_iters + 1):
            ce, G = data_fn(Wa)
            # every 50 steps the loss is checked where the step landed, which
            # is where this call evaluated it
            if it % 50 == 1 and it > 1:
                check_loss(ce, it - 1)
            G = G + c[:, None] * Wa
            bad = ~np.isfinite(G).all(axis=1)
            if bad.any():
                raise diverged(f"non-finite gradient at iter {it}", bad)
            done = np.sqrt(tasks._sq_norms(G)) <= cfg.grad_tol
            if done.any():
                W[rows[done]] = Wa[done]
                converged[rows[done]] = True
                iters[rows[done]] = it
                Wa, G, rows = Wa[~done], G[~done], rows[~done]
                c, step = c[~done], step[~done]
                if not rows.size:
                    break
            Wa = Wa - step[:, None] * G
        else:  # no further call evaluates where the last step landed
            if cfg.max_iters % 50 == 0:
                check_loss(data_fn(Wa)[0], cfg.max_iters)
    W[rows] = Wa
    return W, bool(converged.all()), iters, converged


def train_posterior_mean(data, model, beta, lambda2, cfg, name="dataset"):
    """Minimize CE(w) + (beta / 2 lambda2) |w|^2 by full-batch descent.

    This is the w-dependent part of the complexity objective: the log-det
    term's dependence on w enters only at third order in the residuals
    and is dropped, which is also why covariance refreshes decouple from
    mean updates.
    """
    task = tasks.Task(data, model)
    W, ok, iters, _ = _gd(
        initial_point(model, cfg)[None],
        lambda W: tasks.batch_loss_grad_many(task, W),
        _posterior_l2(beta, lambda2),
        cfg,
        name,
    )
    return W[0], ok, int(iters[0])


def train_minimizers(task, cfg, restarts, name="task", posterior=None):
    """Minimize the task's own regularized loss from several starts at once.

    Restart r starts from the initial point of trainer seed cfg.seed + r;
    all descend in lockstep.  Returns (W (R, P), converged (R,),
    iterations (R,)); row r is bitwise a one-restart descent from that
    seed.  With ``posterior`` = (beta, lambda2) the stack gains a
    last row: the train_posterior_mean descent, bitwise, from restart
    0's start.
    """
    W0 = np.stack(
        [initial_point(task.model, replace(cfg, seed=cfg.seed + r)) for r in range(restarts)]
    )
    c = np.full(restarts, task.model.weight_decay)
    if posterior is not None:
        W0 = np.vstack([W0, W0[:1]])
        c = np.append(c, _posterior_l2(*posterior))
    W, _, iters, converged = _gd(
        W0, lambda W: tasks.batch_loss_grad_many(task, W), c, cfg, name, restarts=restarts
    )
    return W, converged, iters


# -- structure curves ---------------------------------------------------------

_MONOTONE_TOL = 1e-6  # rise in expected loss that still counts as nonincreasing


@dataclass(frozen=True)
class StructureCurve:
    """Loss-vs-KL tradeoff traced by a descending beta grid.

    ``kl`` and ``expected_loss`` read the converged points, by rising KL.
    """

    records: list  # dicts: beta, kl_nats, expected_loss, converged, n_iter

    def kl(self):
        return np.array([r["kl_nats"] for r in self._converged()])

    def expected_loss(self):
        return np.array([r["expected_loss"] for r in self._converged()])

    def _converged(self):
        return sorted((r for r in self.records if r["converged"]), key=lambda r: r["kl_nats"])

    def is_monotone(self):
        """Expected loss nonincreasing along increasing KL, within _MONOTONE_TOL."""
        lo = self.expected_loss()
        return bool(np.all(np.diff(lo) <= _MONOTONE_TOL))


def structure_curve(task, beta_grid, lambda2, trainer):
    """Trace (KL, expected loss) along a descending beta grid.

    Each beta gets its own trained mean; the optimal covariance is
    refreshed from the Fisher at that mean; expected loss is the
    second-order surrogate CE(w0) + tr(F S*)/2.  Points whose training
    hit the iteration budget are flagged, not dropped.
    """
    bg = [float(b) for b in beta_grid]
    if len(bg) < 2 or any(b <= 0 for b in bg) or any(b1 <= b2 for b1, b2 in zip(bg, bg[1:])):
        raise ContractError("beta_grid must be positive and strictly descending")
    records = []
    for b in bg:
        w0, ok, n_iter = train_posterior_mean(
            task.data, task.model, b, lambda2, trainer, name=f"beta={b:g}"
        )
        F = fisher(task, w0)
        S = optimal_sigma(F, b, lambda2)
        kl = gaussian_kl(GaussianPosterior(w0, S), lambda2)
        eloss = tasks.cross_entropy(task, w0) + 0.5 * float(np.sum(F * S))
        records.append(
            {
                "beta": b,
                "kl_nats": float(kl),
                "expected_loss": float(eloss),
                "converged": bool(ok),
                "n_iter": int(n_iter),
            }
        )
    return StructureCurve(records)


# -- task distances -----------------------------------------------------------


def trained_c_beta(data, model, beta, lambda2, trainer, name):
    """C_beta(data).total, at the dataset's trained posterior mean."""
    w, _, _ = train_posterior_mean(data, model, beta, lambda2, trainer, name=name)
    return c_beta(tasks.Task(data, model), w, beta, lambda2).total


def task_distance(d1, d2, model, beta, lambda2, trainer):
    """d_beta(d1 -> d2) = C_beta(d1 u d2) - C_beta(d1), trained means.

    Both complexities use the same trainer config and seed, so the
    self-distance d(D -> D) vanishes to float roundoff: the duplicated
    union has exactly the same mean loss, gradient field and Fisher as
    the base dataset.
    """
    union = tasks.concat(d1, d2, n_classes=model.n_classes)
    c_base = trained_c_beta(d1, model, beta, lambda2, trainer, "d1")
    c_union = trained_c_beta(union, model, beta, lambda2, trainer, "d1+d2")
    return c_union - c_base
