"""Synthetic datasets, label corruption, and the two model families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlab import tasks
from reachlab.errors import ContractError


def test_blob_trivial_construction():
    d = tasks.generate_blobs(2, 4, 1, 10.0, seed=0)
    assert d.n == 4
    assert list(d.labels) == [0, 0, 1, 1]


def test_blob_centers_separated_by_construction():
    # per-class sample means converge on centers a full separation apart
    d = tasks.generate_blobs(2, 4000, 1, 10.0, seed=0)
    m0 = d.inputs[d.labels == 0].mean()
    m1 = d.inputs[d.labels == 1].mean()
    assert abs(m1 - m0) == pytest.approx(10.0, abs=0.15)


def test_corrupt_rho_zero_is_identity():
    d = tasks.generate_blobs(2, 30, 1, 3.0, seed=1)
    c = tasks.corrupt_labels(d, 0.0, seed=9)
    assert np.array_equal(c.labels, d.labels)
    assert np.array_equal(c.inputs, d.inputs)


def test_corrupt_full_disagreement_is_binomial():
    d = tasks.generate_blobs(2, 1000, 1, 3.0, seed=2)
    c = tasks.corrupt_labels(d, 1.0, seed=3)
    disagree = int(np.sum(c.labels != d.labels))
    # resampling uniformly over K=2 flips half the labels on average
    assert abs(disagree - 500) <= 4 * np.sqrt(1000 * 0.25)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
def test_corrupt_disagreement_tracks_rho(rho):
    K = 4
    d = tasks.generate_blobs(K, 2000, 3, 3.0, seed=4)
    c = tasks.corrupt_labels(d, rho, seed=5)
    frac = np.mean(c.labels != d.labels)
    expect = rho * (1 - 1 / K)
    sigma = np.sqrt(expect * (1 - expect) / 2000)
    assert abs(frac - expect) <= 5 * sigma


def test_corruptions_nest_under_a_shared_seed():
    d = tasks.generate_blobs(3, 400, 2, 2.0, seed=6)
    lo = tasks.corrupt_labels(d, 0.3, seed=7)
    hi = tasks.corrupt_labels(d, 0.8, seed=7)
    changed_lo = np.flatnonzero(lo.labels != d.labels)
    # every row corrupted at rho=0.3 keeps the same replacement at rho=0.8
    assert np.array_equal(hi.labels[changed_lo], lo.labels[changed_lo])


def test_corrupt_rejects_bad_rho():
    d = tasks.generate_blobs(2, 10, 1, 3.0, seed=0)
    with pytest.raises(ContractError):
        tasks.corrupt_labels(d, -0.1, seed=0)
    with pytest.raises(ContractError):
        tasks.corrupt_labels(d, 1.5, seed=0)


def test_concat_stacks_and_declares_label_space():
    d1 = tasks.generate_blobs(2, 10, 3, 3.0, seed=1)
    d2 = tasks.generate_blobs(4, 20, 3, 3.0, seed=2)
    u = tasks.concat(d1, d2)
    assert u.n == 30
    assert u.n_classes == 4
    assert np.array_equal(u.inputs[:10], d1.inputs)
    assert np.array_equal(u.labels[10:], d2.labels)


def test_concat_rejects_mismatched_inputs_and_shrunk_label_space():
    d1 = tasks.generate_blobs(2, 10, 3, 3.0, seed=1)
    d3 = tasks.generate_blobs(2, 10, 2, 3.0, seed=1)
    with pytest.raises(ContractError):
        tasks.concat(d1, d3)
    d4 = tasks.generate_blobs(4, 10, 3, 3.0, seed=1)
    with pytest.raises(ContractError):
        tasks.concat(d1, d4, n_classes=2)


def test_concat_with_empty_is_identity():
    d = tasks.generate_blobs(3, 12, 2, 2.0, seed=8)
    u = tasks.concat(d, tasks.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3))
    assert np.array_equal(u.inputs, d.inputs)
    assert np.array_equal(u.labels, d.labels)


def test_subset_keeps_original_label_ids():
    d = tasks.generate_blobs(4, 80, 3, 2.0, seed=9)
    s = tasks.subset_classes(d, [1, 3])
    assert set(np.unique(s.labels)) <= {1, 3}
    assert s.n_classes == 4
    assert s.n == int(np.isin(d.labels, [1, 3]).sum())


def test_dataset_validates_labels():
    with pytest.raises(ContractError):
        tasks.Dataset(np.zeros((2, 1)), np.array([0, 5]), 2)


def test_task_validates_model_alignment():
    d = tasks.generate_blobs(3, 10, 2, 2.0, seed=0)
    with pytest.raises(ContractError):
        tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 3, 3))
    with pytest.raises(ContractError):
        tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 2, 2))


def test_model_spec_contracts():
    with pytest.raises(ContractError):
        tasks.ModelSpec("unknown-family", 2, 2)
    with pytest.raises(ContractError):
        tasks.ModelSpec("mlp-1-hidden", 2, 2, hidden=0)
    with pytest.raises(ContractError):
        tasks.ModelSpec("multinomial-logistic", 2, 2, weight_decay=-1.0)


@pytest.mark.parametrize(
    "model",
    [
        tasks.ModelSpec("multinomial-logistic", 2, 3, weight_decay=0.1),
        tasks.ModelSpec("mlp-1-hidden", 2, 3, weight_decay=0.05, hidden=7, activation="tanh"),
        tasks.ModelSpec("mlp-1-hidden", 3, 4, hidden=5, activation="softplus"),
    ],
    ids=["logistic", "mlp-tanh", "mlp-softplus"],
)
def test_loss_gradient_matches_finite_differences(model):
    d = tasks.generate_blobs(model.n_classes, 40, model.input_dim, 2.0, seed=3)
    t = tasks.Task(d, model)
    rng = np.random.default_rng(0)
    w = 0.5 * rng.standard_normal(model.n_params)
    g = tasks.batch_loss_grad(t, w)[1] + model.weight_decay * w
    h = 1e-6
    for i in range(0, model.n_params, max(1, model.n_params // 6)):
        e = np.zeros(model.n_params)
        e[i] = h
        fd = (tasks.loss(t, w + e) - tasks.loss(t, w - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, abs=1e-5)


def test_loss_includes_ridge_term():
    model = tasks.ModelSpec("multinomial-logistic", 1, 2, weight_decay=0.8)
    d = tasks.generate_blobs(2, 10, 1, 3.0, seed=1)
    t = tasks.Task(d, model)
    w = np.array([2.0])
    assert tasks.loss(t, w) == pytest.approx(tasks.cross_entropy(t, w) + 0.4 * 4.0)


def test_per_sample_grads_average_to_ce_gradient():
    model = tasks.ModelSpec("multinomial-logistic", 2, 3, weight_decay=0.3)
    d = tasks.generate_blobs(3, 25, 2, 2.0, seed=5)
    t = tasks.Task(d, model)
    rng = np.random.default_rng(1)
    w = 0.4 * rng.standard_normal(model.n_params)
    G = tasks.per_sample_grads(t, w)
    assert G.shape == (25, model.n_params)
    # rows exclude the regularizer, so their mean is the pure-CE gradient
    ce_grad = tasks.batch_loss_grad(t, w)[1]
    assert np.allclose(G.mean(axis=0), ce_grad, atol=1e-10)


def test_posterior_probs_rows_normalize():
    # the kernel's softmax, which the loss and the Fisher both read
    model = tasks.ModelSpec("mlp-1-hidden", 3, 4, hidden=6)
    d = tasks.generate_blobs(4, 30, 3, 2.0, seed=6)
    rng = np.random.default_rng(2)

    def posterior(w):
        _, _, E, s = tasks._softmax(tasks._forward(model, w[None], d.inputs, backprop=False)[0])
        return E[0] / s[0, :, None]

    P = posterior(rng.standard_normal(model.n_params))
    assert P.shape == (30, 4)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert P.min() >= 0.0
    # huge logits must not overflow
    P2 = posterior(1e4 * np.ones(model.n_params))
    assert np.all(np.isfinite(P2))


_FAMILIES = [
    ("multinomial-logistic", "tanh"),
    ("mlp-1-hidden", "tanh"),
    ("mlp-1-hidden", "softplus"),
]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    n_classes=st.integers(2, 5),
    n=st.sampled_from([1, 7, 10, 100, 800]),
    runs=st.integers(1, 5),
    batch=st.integers(1, 12),
    scale=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**16),
)
def test_run_batched_kernel_rows_equal_single_calls(family, n_classes, n, runs, batch, scale, seed):
    # one implementation: row r of the batched kernel is bitwise the
    # single-weight call on W[r], on the full data and on per-run batches
    input_dim = n_classes  # room for the simplex centers
    model = tasks.ModelSpec(
        family[0], input_dim, n_classes, weight_decay=0.05, hidden=4, activation=family[1]
    )
    d = tasks.generate_blobs(n_classes, max(n, n_classes), input_dim, 2.0, seed=seed)
    t = tasks.Task(tasks.corrupt_labels(d, 0.3, seed=seed + 1), model)
    rng = np.random.default_rng(seed)
    W = scale * rng.standard_normal((runs, model.n_params))
    idx = rng.integers(0, t.data.n, size=(runs, batch))
    ce, G = tasks.batch_loss_grad_many(t, W)
    ce_b, G_b = tasks.batch_loss_grad_many(t, W, idx)
    L = tasks.loss_many(t, W)
    assert ce.shape == ce_b.shape == L.shape == (runs,)
    assert G.shape == G_b.shape == (runs, model.n_params)
    for r in range(runs):
        c1, g1 = tasks.batch_loss_grad(t, W[r])
        c2, g2 = tasks.batch_loss_grad(t, W[r], idx[r])
        assert c1 == ce[r] and np.array_equal(g1, G[r])
        assert c2 == ce_b[r] and np.array_equal(g2, G_b[r])
        assert tasks.loss(t, W[r]) == L[r]


@pytest.mark.parametrize("n_classes", range(2, 11))
def test_class_axis_reductions_equal_numpy_reduce(n_classes):
    rng = np.random.default_rng(n_classes)
    Z = rng.standard_normal((3, 50, n_classes)) * 10.0 ** rng.uniform(-3, 3, (3, 50, n_classes))
    for op in (np.add, np.maximum):
        assert np.array_equal(tasks._over_classes(op, Z), op.reduce(Z, axis=-1))


def test_run_batched_kernel_contracts():
    model = tasks.ModelSpec("multinomial-logistic", 2, 3)
    t = tasks.Task(tasks.generate_blobs(3, 12, 2, 2.0, seed=1), model)
    with pytest.raises(ContractError):
        tasks.loss_many(t, np.zeros(model.n_params))
    with pytest.raises(ContractError):
        tasks.batch_loss_grad_many(t, np.zeros((2, model.n_params + 1)))
    with pytest.raises(ContractError):
        tasks.batch_loss_grad_many(t, np.zeros((2, model.n_params)), np.zeros((3, 4), dtype=int))

