"""Synthetic classification tasks and the small model families fit to them.

A dataset is (inputs, integer labels, label-space size).  Every
constructor here is a pure function of its arguments and seed, so an
experiment rebuilds the same datasets from its config and seed; that,
not anything stored on the dataset, is what makes bundles reproduce.  Two
model families are supported, both with softmax heads over n_classes - 1
free logit rows (the first class is the pinned reference, so the binary
case reduces to plain logistic regression):

* ``multinomial-logistic`` : logits z_k = w_k . x
* ``mlp-1-hidden``         : logits z = W2 phi(W1 x), phi in {tanh, softplus}

Both are C^2 in the weights, which the curvature machinery downstream
requires.  Losses are mean cross-entropy plus (weight_decay / 2) |w|^2;
per-sample gradients omit the decay term.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_int, check_real
from .rng import stream

_FAMILIES = ("multinomial-logistic", "mlp-1-hidden")
_ACTIVATIONS = ("tanh", "softplus")
# bytes in the largest temporary of one blocked computation over these
# tasks (a Fisher Jacobian block, a stacked SGD loss check), under the
# CLI's 1 MiB mmap threshold
_BLOCK_BYTES = 1_000_000


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray        # (n, input_dim) float64
    labels: np.ndarray        # (n,) int64 in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.inputs, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if X.ndim != 2:
            raise ContractError(f"inputs must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ContractError("labels must be 1-D and aligned with inputs")
        if not np.all(np.isfinite(X)):
            raise ContractError("inputs must be finite")
        if self.n_classes < 2:
            raise ContractError("need at least 2 classes")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise ContractError("labels must lie in [0, n_classes)")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self):
        return self.inputs.shape[0]

    @property
    def input_dim(self):
        return self.inputs.shape[1]


def _simplex_centers(n_classes, input_dim, separation):
    # Vertices of a regular simplex with pairwise distance = separation,
    # embedded in the first n_classes - 1 coordinates.  Deterministic.
    K = n_classes
    if K > input_dim + 1:
        raise ContractError(
            f"{K} mutually separated centers need input_dim >= {K - 1}, got {input_dim}"
        )
    E = np.eye(K)
    C = E - E.mean(axis=0)                       # rank K-1, pairwise distance sqrt(2)
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    coords = (U * s)[:, : K - 1]
    centers = np.zeros((K, input_dim))
    centers[:, : K - 1] = coords * (separation / np.sqrt(2.0))
    return centers


def generate_blobs(n_classes, n_samples, input_dim, separation, seed):
    """Gaussian blobs with unit covariance on separated simplex centers.

    Samples per class are n_samples // n_classes, remainder assigned to the
    last class; rows are ordered by class.  Requires
    n_classes <= input_dim + 1 so the centers can sit on a regular simplex
    with the requested mutual distance.
    """
    if n_classes < 2 or n_samples < n_classes or input_dim < 1:
        raise ContractError("need n_classes >= 2, n_samples >= n_classes, input_dim >= 1")
    if not (np.isfinite(separation) and separation > 0):
        raise ContractError("separation must be positive")
    centers = _simplex_centers(n_classes, input_dim, separation)
    counts = [n_samples // n_classes] * n_classes
    counts[-1] += n_samples - sum(counts)
    rng = stream(seed)
    xs, ys = [], []
    for k in range(n_classes):
        xs.append(centers[k] + rng.standard_normal((counts[k], input_dim)))
        ys.append(np.full(counts[k], k, dtype=np.int64))
    return Dataset(np.vstack(xs), np.concatenate(ys), n_classes)


def corrupt_labels(d, rho, seed):
    """Resample floor(rho * n) labels uniformly over the label space.

    A resampled label may coincide with the original, so the expected
    disagreement is rho * (1 - 1/K).  rho=0 returns an identical copy.
    The corrupted rows are a seeded-permutation prefix, so sweeps that
    share one seed across a rho grid get nested corruptions: every row
    corrupted at rho1 stays corrupted, with the same replacement label,
    at any rho2 > rho1.
    """
    if not 0.0 <= rho <= 1.0:
        raise ContractError("rho must lie in [0, 1]")
    m = int(np.floor(rho * d.n))
    rng = stream(seed)
    order = rng.permutation(d.n)
    replacements = rng.integers(0, d.n_classes, size=d.n)
    labels = d.labels.copy()
    labels[order[:m]] = replacements[:m]
    return Dataset(d.inputs.copy(), labels, d.n_classes)


def concat(d1, d2, n_classes=None):
    """Stack two datasets that share an input space and a label space.

    The label spaces must be *declared* compatible: labels are taken at
    face value, and the result uses ``n_classes`` if given, else
    max(K1, K2).  No alignment between differing label sets is guessed.
    """
    if d1.input_dim != d2.input_dim:
        raise ContractError(f"input_dim mismatch: {d1.input_dim} vs {d2.input_dim}")
    K = int(n_classes) if n_classes is not None else max(d1.n_classes, d2.n_classes)
    if K < max(d1.n_classes, d2.n_classes):
        raise ContractError("declared n_classes smaller than a part's label space")
    return Dataset(
        np.vstack([d1.inputs, d2.inputs]), np.concatenate([d1.labels, d2.labels]), K
    )


def subset_classes(d, keep):
    """Restrict to samples whose label is in ``keep`` (label ids unchanged).

    The label space is inherited from the parent, so the subset stays
    directly comparable with (and concatenable to) the full task.
    """
    keep = sorted(int(k) for k in keep)
    if not keep or any(k < 0 or k >= d.n_classes for k in keep):
        raise ContractError(f"keep must be a nonempty subset of [0, {d.n_classes})")
    mask = np.isin(d.labels, keep)
    return Dataset(d.inputs[mask], d.labels[mask], d.n_classes)


# -- model families ----------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    family: str
    input_dim: int
    n_classes: int
    weight_decay: float = 0.0
    hidden: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ContractError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        for name in ("input_dim", "n_classes", "hidden"):
            check_int(name, getattr(self, name))
        check_real("weight_decay", self.weight_decay)
        if self.input_dim < 1 or self.n_classes < 2:
            raise ContractError("need input_dim >= 1 and n_classes >= 2")
        if self.weight_decay < 0:
            raise ContractError("weight_decay must be nonnegative")
        if self.family == "mlp-1-hidden":
            if self.hidden < 1:
                raise ContractError("mlp-1-hidden needs hidden >= 1")
            if self.activation not in _ACTIVATIONS:
                raise ContractError(f"activation must be one of {_ACTIVATIONS}")

    @property
    def n_params(self):
        K1 = self.n_classes - 1
        if self.family == "multinomial-logistic":
            return K1 * self.input_dim
        return self.hidden * self.input_dim + K1 * self.hidden


@dataclass(frozen=True)
class Task:
    data: Dataset
    model: ModelSpec

    def __post_init__(self):
        if self.data.input_dim != self.model.input_dim:
            raise ContractError(
                f"dataset input_dim {self.data.input_dim} != model input_dim {self.model.input_dim}"
            )
        if self.data.n and self.data.labels.max() >= self.model.n_classes:
            raise ContractError("dataset labels exceed the model's label space")
        if self.data.n_classes > self.model.n_classes:
            raise ContractError("dataset label space exceeds the model's")


def _check_w(model, w):
    w = np.asarray(w, dtype=float)
    if w.shape != (model.n_params,):
        raise ContractError(f"weights must have shape ({model.n_params},), got {w.shape}")
    return w


def _check_ws(model, W):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != model.n_params:
        raise ContractError(f"weights must have shape (R, {model.n_params}), got {W.shape}")
    return W


def _act(name, z, slope):
    """Activation and, when ``slope``, its derivative; tanh overwrites z."""
    if name == "tanh":
        a = np.tanh(z, out=z)
        if not slope:
            return a, None
        da = a * a
        np.subtract(1.0, da, out=da)
        return a, da
    # softplus; logaddexp keeps large |z| from overflowing
    from scipy.special import expit

    return np.logaddexp(0.0, z), (expit(z) if slope else None)


# The kernel below carries a leading run axis: weights W (R, P) against
# inputs shared by every run (n, p) or drawn per run (R, n, p).  Every
# product is a stacked matmul and every reduction runs along the last
# axis, so row r is bitwise what the same code computes for W[r] alone;
# the single-weight functions are its R = 1 case.


def _forward(model, W, X, backprop=True):
    """Free logits (R, n, K-1) plus whatever backprop later needs."""
    R, K1 = W.shape[0], model.n_classes - 1
    if model.family == "multinomial-logistic":
        return X @ W.reshape(R, K1, model.input_dim).transpose(0, 2, 1), None
    h, p = model.hidden, model.input_dim
    W1 = W[:, : h * p].reshape(R, h, p)
    W2 = W[:, h * p:].reshape(R, K1, h)
    A1, dA1 = _act(model.activation, X @ W1.transpose(0, 2, 1), backprop)
    return A1 @ W2.transpose(0, 2, 1), (W2, A1, dA1)


def _over_classes(op, Z):
    """Reduce the short class axis by whole-column ``op``s, bitwise equal to
    ``op.reduce(Z, axis=-1)``: numpy folds fewer than eight terms left to
    right, and one column op per class is far cheaper than a reduction per
    sample.  Eight or more classes keep numpy's own (pairwise) order."""
    if Z.shape[-1] >= 8:
        return op.reduce(Z, axis=-1)
    acc = op(Z[..., 0], Z[..., 1])
    for k in range(2, Z.shape[-1]):
        op(acc, Z[..., k], out=acc)
    return acc


def _softmax(Z1):
    """The softmax over logits Z = [0, Z1] (R, n, K), in pieces: Z, the
    per-sample max m, E = exp(Z - m) and its per-sample sum s.  The
    posterior is E / s and the log-normalizer m + log(s)."""
    R, n, _ = Z1.shape
    Z = np.concatenate([np.zeros((R, n, 1)), Z1], axis=2)
    m = _over_classes(np.maximum, Z)
    E = np.exp(Z - m[..., None])
    return Z, m, E, _over_classes(np.add, E)


def _ce_and_dlogits(model, W, X, y, backprop=True):
    """Mean cross-entropy per run (R,) on (X, y) and, with ``backprop``,
    its gradient w.r.t. the free logits (R, n, K-1) and the forward cache."""
    Z1, cache = _forward(model, W, X, backprop)
    Z, m, E, s = _softmax(Z1)
    R, n, K = Z.shape
    at = np.arange(0, R * n * K, K).reshape(R, n) + y  # flat index of z_y
    ce = (m + np.log(s) - Z.ravel()[at]).sum(axis=1) / n
    if not backprop:
        return ce, None, None
    E /= s[..., None]
    E.ravel()[at] -= 1.0                   # d(mean CE)/d z, per sample
    return ce, E[..., 1:].copy(), cache


def _dlogits_to_grad(model, X, G, cache):
    R, n = G.shape[:2]
    Gt = G.transpose(0, 2, 1)
    if model.family == "multinomial-logistic":
        return (Gt @ X).reshape(R, -1) / n
    W2, A1, dA1 = cache
    gW2 = Gt @ A1 / n
    Dhid = G @ W2
    Dhid *= dA1
    gW1 = Dhid.transpose(0, 2, 1) @ X / n
    return np.concatenate([gW1.reshape(R, -1), gW2.reshape(R, -1)], axis=1)


def _sq_norms(W):
    """|W[r]|^2 per row, bitwise equal to ``W[r] @ W[r]``."""
    return (W[:, None, :] @ W[:, :, None])[:, 0, 0]


def cross_entropy(task, w):
    """Mean cross-entropy alone, without the weight-decay term."""
    w = _check_w(task.model, w)
    X, y = _subset(task, None)
    return float(_ce_and_dlogits(task.model, w[None], X, y, backprop=False)[0][0])


def loss_many(task, W):
    """``loss`` of every row of W (R, P), shape (R,); row r equals loss(task, W[r])."""
    W = _check_ws(task.model, W)
    if task.data.n == 0:
        raise ContractError("loss of an empty dataset is undefined")
    X, y = task.data.inputs, task.data.labels
    ce = _ce_and_dlogits(task.model, W, X, y, backprop=False)[0]
    return ce + 0.5 * task.model.weight_decay * _sq_norms(W)


def loss(task, w):
    """Mean cross-entropy + (weight_decay / 2) |w|^2."""
    return float(loss_many(task, _check_w(task.model, w)[None])[0])


def batch_loss_grad_many(task, W, idx=None):
    """(mean CE, its gradient) per row of W (R, P): shapes (R,) and (R, P).

    Every run sees the whole dataset, or with ``idx`` (R, B) run r sees
    rows idx[r]; row r equals batch_loss_grad(task, W[r], idx[r]).
    """
    W = _check_ws(task.model, W)
    if idx is not None and (np.ndim(idx) != 2 or len(idx) != W.shape[0]):
        raise ContractError("idx must hold one row of sample indices per run")
    X, y = _subset(task, idx)
    ce, G, cache = _ce_and_dlogits(task.model, W, X, y)
    return ce, _dlogits_to_grad(task.model, X, G, cache)


def batch_loss_grad(task, w, idx=None):
    """(mean CE, its gradient) on the whole dataset or on rows ``idx``.

    Decay terms are excluded; SGD adds them separately each step.
    """
    w = _check_w(task.model, w)
    X, y = _subset(task, idx)
    ce, G, cache = _ce_and_dlogits(task.model, w[None], X, y)
    return float(ce[0]), _dlogits_to_grad(task.model, X, G, cache)[0]


def _subset(task, idx):
    if task.data.n == 0:
        raise ContractError("empty dataset")
    if idx is None:
        return task.data.inputs, task.data.labels
    idx = np.asarray(idx)
    return task.data.inputs[idx], task.data.labels[idx]


def per_sample_grads(task, w):
    """Rows grad_w(-log p_w(y_i | x_i)), shape (n, n_params); no decay term."""
    w = _check_w(task.model, w)
    X, y = _subset(task, None)
    n, model = task.data.n, task.model
    _, G, cache = _ce_and_dlogits(model, w[None], X, y)
    G = G[0]
    if model.family == "multinomial-logistic":
        return np.einsum("nk,np->nkp", G, X).reshape(n, -1)
    W2, A1, dA1 = (a[0] for a in cache)
    gW2 = np.einsum("nk,nh->nkh", G, A1)
    Dhid = (G @ W2) * dA1
    gW1 = np.einsum("nh,np->nhp", Dhid, X)
    return np.concatenate([gW1.reshape(n, -1), gW2.reshape(n, -1)], axis=1)

