"""Gaussian complexity: KL identities, Fisher curvature, structure curves, distances."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from reachlab import complexity, tasks
from reachlab.complexity import (
    GaussianPosterior,
    TrainerConfig,
    c_beta,
    c_beta_from_parts,
    fisher,
    gaussian_kl,
    optimal_sigma,
    structure_curve,
    task_distance,
    train_posterior_mean,
)
from reachlab.errors import ContractError, NumericalError, TrainingDivergedError

TR = TrainerConfig(step_size=0.3, max_iters=4000, grad_tol=1e-8, init_scale=0.0)


# -- gaussian_kl ---------------------------------------------------------------


def test_kl_zero_when_posterior_equals_prior():
    q = GaussianPosterior(np.zeros(3), 2.0 * np.eye(3))
    assert gaussian_kl(q, 2.0) == 0.0


def test_kl_pure_mean_shift():
    # unit shift against a unit prior costs exactly half a nat
    assert gaussian_kl(GaussianPosterior([1.0], np.eye(1)), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kl_shrunk_covariance_closed_form():
    got = gaussian_kl(GaussianPosterior([1.0], [[0.5]]), 1.0)
    want = 0.5 * (1.0 + 0.5 - 1.0 + np.log(2.0))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.5965735902799727, rel=1e-14)


def test_kl_nonnegative_on_random_posteriors():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        A = rng.standard_normal((k, k))
        q = GaussianPosterior(rng.standard_normal(k), A @ A.T + 0.1 * np.eye(k))
        assert gaussian_kl(q, float(rng.uniform(0.2, 5.0))) >= 0.0


def test_kl_negative_eigenvalue_is_callers_bug():
    q = GaussianPosterior([0.0, 0.0], np.diag([1.0, -0.5]))
    with pytest.raises(ContractError):
        gaussian_kl(q, 1.0)


def test_kl_singular_covariance_warns_and_returns_inf():
    q = GaussianPosterior([0.0, 0.0], np.diag([1.0, 0.0]))
    with pytest.warns(RuntimeWarning):
        assert gaussian_kl(q, 1.0) == np.inf


def test_kl_rejects_bad_prior_scale():
    q = GaussianPosterior([0.0], np.eye(1))
    for lam2 in (0.0, -1.0, np.nan):
        with pytest.raises(ContractError):
            gaussian_kl(q, lam2)


def test_posterior_rejects_mismatched_and_asymmetric_inputs():
    with pytest.raises(ContractError):
        GaussianPosterior([0.0, 0.0], np.eye(3))
    with pytest.raises(ContractError):
        GaussianPosterior([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ContractError):
        GaussianPosterior([np.nan], np.eye(1))


# -- fisher --------------------------------------------------------------------


def test_fisher_constant_input_closed_form():
    # K=2 logistic with every input 1: F(0) = E[x^2 p(1-p)] = 1/4 exactly
    data = tasks.Dataset(np.ones((7, 1)), np.array([0, 1, 0, 1, 0, 1, 0]), 2)
    t = tasks.Task(data, tasks.ModelSpec("multinomial-logistic", 1, 2))
    F = fisher(t, np.zeros(1))
    assert F.shape == (1, 1)
    assert F[0, 0] == pytest.approx(0.25, rel=1e-14)


def test_fisher_is_symmetric_psd():
    d = tasks.generate_blobs(3, 40, 2, 2.0, seed=9)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 2, 3))
    rng = np.random.default_rng(4)
    for _ in range(5):
        F = fisher(t, 0.5 * rng.standard_normal(t.model.n_params))
        assert np.allclose(F, F.T, atol=1e-14)
        assert np.linalg.eigvalsh(F).min() >= -1e-12


def test_fisher_trace_shrinks_with_separation_at_fixed_weights():
    # one weight vector, three datasets: wider class gaps leave the model
    # more confident on every point, so the predictive curvature drops
    m = tasks.ModelSpec("multinomial-logistic", 2, 2)
    w, _, _ = train_posterior_mean(
        tasks.generate_blobs(2, 60, 2, 4.0, seed=5), m, 0.1, 1.0, TR)
    traces = []
    for sep in (2.0, 4.0, 8.0):
        d = tasks.generate_blobs(2, 60, 2, sep, seed=5)
        traces.append(float(np.trace(fisher(tasks.Task(d, m), w))))
    assert traces[0] > traces[1] > traces[2]


def test_fisher_vanishes_far_from_decision_boundary():
    m = tasks.ModelSpec("multinomial-logistic", 2, 2)
    d = tasks.generate_blobs(2, 60, 2, 4.0, seed=5)
    t = tasks.Task(d, m)
    w, _, _ = train_posterior_mean(d, m, 0.1, 1.0, TR)
    tr1 = float(np.trace(fisher(t, w)))
    tr10 = float(np.trace(fisher(t, 10.0 * w)))
    assert tr10 < 1e-4 * tr1


def test_fisher_matches_kl_quadratic_expansion():
    # E_x KL(p_w || p_{w+eps d}) == (eps^2/2) d'Fd up to third-order terms
    rng = np.random.default_rng(0)
    d = tasks.generate_blobs(3, 40, 2, 2.0, seed=9)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 2, 3))
    w = 0.3 * rng.standard_normal(t.model.n_params)
    F = fisher(t, w)
    delta = rng.standard_normal(t.model.n_params)
    delta /= np.linalg.norm(delta)
    for eps, tol in ((1e-2, 0.05), (1e-3, 0.005)):
        P = _posterior(t, w)
        P2 = _posterior(t, w + eps * delta)
        kl_pred = float(np.mean(np.sum(P * (np.log(P) - np.log(P2)), axis=1)))
        quad = 0.5 * eps**2 * float(delta @ F @ delta)
        assert kl_pred / quad == pytest.approx(1.0, abs=tol)


def test_fisher_rejects_empty_dataset():
    d = tasks.generate_blobs(2, 30, 1, 3.0, seed=1)
    empty = tasks.subset_classes(d, [0])
    empty = tasks.Dataset(empty.inputs[:0], empty.labels[:0], 2)
    t = tasks.Task(empty, tasks.ModelSpec("multinomial-logistic", 1, 2))
    with pytest.raises(ContractError):
        fisher(t, np.zeros(1))


def _posterior(task, w):
    """p_w(y|x) (n, K): the softmax over the logits [0, z] written out."""
    Z1 = tasks._forward(task.model, w[None], task.data.inputs, backprop=False)[0][0]
    Z = np.concatenate([np.zeros((Z1.shape[0], 1)), Z1], axis=1)
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def _dense_fisher(task, w):
    """The Fisher the slow way: einsum(J, einsum(Lam, J)) over the whole
    (n, K-1, P) Jacobian stack, exact zeros included."""
    model, X = task.model, task.data.inputs
    n, K1 = X.shape[0], model.n_classes - 1
    J = np.zeros((n, K1, model.n_params))
    if model.family == "multinomial-logistic":
        Phi, off = X, 0
    else:
        h, p = model.hidden, model.input_dim
        W2, Phi, dA1 = (a[0] for a in tasks._forward(model, w[None], X)[1])
        off = h * p
        J[:, :, :off] = np.einsum("kh,nh,np->nkhp", W2, dA1, X).reshape(n, K1, off)
    d = Phi.shape[1]
    for k in range(K1):
        J[:, k, off + k * d: off + (k + 1) * d] = Phi
    Pk = _posterior(task, w)[:, 1:]
    Lam = Pk[:, :, None] * np.eye(K1)[None] - Pk[:, :, None] * Pk[:, None, :]
    M = np.einsum("nab,nbd->nad", Lam, J)
    F = np.einsum("nad,nae->de", J, M) / n
    return 0.5 * (F + F.T)


def _oracle_case(K, n, hidden):
    p = max(3, K - 1)
    family = "mlp-1-hidden" if hidden else "multinomial-logistic"
    return tasks.Task(
        tasks.generate_blobs(K, n, p, 2.0, seed=K + n + hidden),
        tasks.ModelSpec(family, p, K, hidden=hidden, activation="softplus" if hidden == 7 else "tanh"),
    ), np.random.default_rng(hidden + K)


@pytest.mark.parametrize("hidden", [0, 7, 50, 53], ids=lambda h: f"mlp{h}" if h else "logistic")
@pytest.mark.parametrize("n", [None, 37, 800], ids=lambda n: f"n{n or 'K'}")
@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_fisher_is_bitwise_the_dense_jacobian_formula(K, n, hidden):
    # n = None: one sample per class
    t, rng = _oracle_case(K, n or K, hidden)
    for scale in (0.1, 1.0, 10.0):
        w = scale * rng.standard_normal(t.model.n_params)
        assert np.array_equal(fisher(t, w), _dense_fisher(t, w)), scale


@pytest.mark.parametrize("hidden", [7, 53])
@pytest.mark.parametrize("K", [2, 4])
def test_fisher_block_width_moves_no_bit(K, hidden, monkeypatch):
    # budgets of one hidden unit and of three units per Jacobian block
    t, rng = _oracle_case(K, 37, hidden)
    w = rng.standard_normal(t.model.n_params)
    want = _dense_fisher(t, w)
    for budget in (1, 8 * 37 * (K - 1) * t.model.input_dim * 3):
        monkeypatch.setattr(tasks, "_BLOCK_BYTES", budget)
        assert np.array_equal(fisher(t, w), want), budget


@pytest.mark.parametrize("hidden", [0, 7])
def test_fisher_runs_one_forward_pass(hidden, monkeypatch):
    # the posterior and the MLP's backprop cache come from the same pass
    t, rng = _oracle_case(3, 20, hidden)
    calls, forward = [], tasks._forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(tasks, "_forward", counted)
    fisher(t, rng.standard_normal(t.model.n_params))
    assert len(calls) == 1


def test_fisher_peak_memory_stays_under_4_mib_at_n_800():
    # the whole (n, K-1, P) Jacobian stack and its product with the
    # softmax covariance take 12.5 MiB at this size (P = 300)
    t = tasks.Task(
        tasks.generate_blobs(4, 800, 3, 2.5, seed=1),
        tasks.ModelSpec("mlp-1-hidden", 3, 4, hidden=50),
    )
    w = 0.1 * np.random.default_rng(13).standard_normal(t.model.n_params)
    assert t.model.n_params == 300
    fisher(t, w)
    tracemalloc.start()
    try:
        fisher(t, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", ["multinomial-logistic", "mlp-1-hidden"])
def test_fisher_rejects_non_finite_weights(family, bad):
    # 0 * inf is NaN in the dense sum but a skipped term in the block
    # sums, so a non-finite weight is refused rather than half-propagated
    t = tasks.Task(
        tasks.generate_blobs(3, 30, 2, 2.0, seed=2), tasks.ModelSpec(family, 2, 3, hidden=4)
    )
    w = np.full(t.model.n_params, 0.1)
    w[-1] = bad
    with pytest.raises(ContractError, match="finite"):
        fisher(t, w)


# -- optimal_sigma and report assembly ------------------------------------------


def test_optimal_sigma_flat_curvature_recovers_prior():
    S = optimal_sigma(np.zeros((2, 2)), 3.0, 0.7)
    assert np.allclose(S, 0.7 * np.eye(2), rtol=1e-14, atol=1e-16)


def test_optimal_sigma_diagonal_closed_form():
    # (beta/2)(F + beta/(2 lambda2) I)^{-1} with beta=2, lambda2=0.5
    S = optimal_sigma(np.diag([1.0, 3.0]), 2.0, 0.5)
    assert np.allclose(np.diag(S), [1.0 / 3.0, 0.2], rtol=1e-14)
    assert abs(S[0, 1]) < 1e-15


def test_optimal_sigma_rejects_indefinite_shift():
    with pytest.raises(NumericalError):
        optimal_sigma(np.diag([-5.0, 1.0]), 2.0, 1.0)
    with pytest.raises(ContractError):
        optimal_sigma(np.eye(2), -1.0, 1.0)
    with pytest.raises(ContractError):
        optimal_sigma(np.ones((2, 3)), 1.0, 1.0)


def test_report_assembly_by_hand():
    rep = c_beta_from_parts(0.7, [1.0, 2.0], np.diag([1.0, 3.0]), 2.0, 0.5)
    assert rep.norm_term == pytest.approx(10.0, rel=1e-15)
    assert rep.logdet_term == pytest.approx(np.log(1.5) + np.log(2.5), rel=1e-14)
    assert rep.total == pytest.approx(0.7 + 10.0 + np.log(1.5) + np.log(2.5), rel=1e-14)
    assert set(rep.to_dict()) == {"beta", "lambda2", "loss_term", "norm_term",
                                  "logdet_term", "total"}


def test_logdet_term_is_never_negative():
    rng = np.random.default_rng(7)
    d = tasks.generate_blobs(3, 40, 2, 2.0, seed=9)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 2, 3))
    for _ in range(10):
        w = rng.standard_normal(t.model.n_params)
        rep = c_beta(t, w, float(rng.uniform(0.01, 10.0)), float(rng.uniform(0.1, 10.0)))
        assert rep.logdet_term >= 0.0


def test_c_beta_loss_term_is_bare_cross_entropy():
    # weight decay lives in the norm term; a decayed model must not count it twice
    d = tasks.generate_blobs(2, 30, 1, 3.0, seed=1)
    plain = tasks.ModelSpec("multinomial-logistic", 1, 2)
    decayed = tasks.ModelSpec("multinomial-logistic", 1, 2, weight_decay=0.5)
    w = np.array([0.8])
    a = c_beta(tasks.Task(d, plain), w, 1.0, 1.0)
    b = c_beta(tasks.Task(d, decayed), w, 1.0, 1.0)
    assert a.total == b.total
    assert a.loss_term == pytest.approx(tasks.cross_entropy(tasks.Task(d, plain), w), rel=1e-15)


# -- trainers -------------------------------------------------------------------


def test_trained_mean_satisfies_ridge_stationarity():
    d = tasks.generate_blobs(3, 60, 2, 2.5, seed=6)
    m = tasks.ModelSpec("multinomial-logistic", 2, 3)
    beta, lam2 = 0.5, 2.0
    w, conv, _ = train_posterior_mean(d, m, beta, lam2, TR)
    assert conv
    _, g = tasks.batch_loss_grad(tasks.Task(d, m), w)
    resid = g + (beta / lam2) * w
    assert np.linalg.norm(resid) <= 1e-8


def test_stronger_ridge_shrinks_the_mean():
    d = tasks.generate_blobs(2, 40, 1, 6.0, seed=2)
    m = tasks.ModelSpec("multinomial-logistic", 1, 2)
    norms = []
    for beta in (0.01, 0.1, 1.0):
        w, _, _ = train_posterior_mean(d, m, beta, 1.0, TR)
        norms.append(float(np.linalg.norm(w)))
    assert norms[0] > norms[1] > norms[2]


def test_train_minimizer_reaches_interior_optimum():
    d = tasks.generate_blobs(2, 40, 1, 6.0, seed=2)
    m = tasks.ModelSpec("multinomial-logistic", 1, 2, weight_decay=0.1)
    t = tasks.Task(d, m)
    W, conv, _ = complexity.train_minimizers(t, TR, 1)
    assert conv[0]
    assert np.linalg.norm(tasks.batch_loss_grad(t, W[0])[1] + m.weight_decay * W[0]) <= 1e-8


def _reference_descent(task, cfg, c=None):
    """One start's full-batch descent of CE + (c/2)|w|^2, one Python
    iteration at a time; c defaults to the model's weight decay."""
    c = task.model.weight_decay if c is None else c
    w = complexity.initial_point(task.model, cfg)
    step = 1.0 / (1.0 / cfg.step_size + c)
    for it in range(1, cfg.max_iters + 1):
        g = tasks.batch_loss_grad(task, w)[1] + c * w
        if float(np.linalg.norm(g)) <= cfg.grad_tol:
            return w, True, it
        w = w - step * g
    return w, False, cfg.max_iters


def test_lockstep_restarts_equal_separate_descents():
    d = tasks.generate_blobs(3, 50, 2, 2.5, seed=4)
    t = tasks.Task(d, tasks.ModelSpec("mlp-1-hidden", 2, 3, weight_decay=0.01, hidden=5))
    cfg = TrainerConfig(step_size=0.3, max_iters=400, grad_tol=5e-3, init_scale=0.3, seed=9)
    W, conv, iters = complexity.train_minimizers(t, cfg, 3)
    assert W.shape == (3, t.model.n_params)
    # two rows freeze at different iterations, the third runs out of budget
    assert conv.tolist() == [True, True, False] and iters[0] != iters[1]
    for r in range(3):
        w, ok, it = _reference_descent(t, dataclasses.replace(cfg, seed=9 + r))
        assert np.array_equal(W[r], w) and conv[r] == ok and iters[r] == it
    W1, ok, it = complexity.train_minimizers(t, dataclasses.replace(cfg, seed=10), 1)
    assert np.array_equal(W[1], W1[0]) and ok[0] and it[0] == iters[1]
    # a mixed stack: the same restarts plus a posterior-mean row (c = 2.0,
    # which freezes first), each row bitwise its own descent
    W, conv, iters = complexity.train_minimizers(t, cfg, 3, posterior=(2.0, 1.0))
    assert W.shape == (4, t.model.n_params)
    assert conv.tolist() == [True, True, False, True] and iters[3] < iters[:2].min()
    for r in range(3):
        w, ok, it = _reference_descent(t, dataclasses.replace(cfg, seed=9 + r))
        assert np.array_equal(W[r], w) and conv[r] == ok and iters[r] == it
    w, ok, it = _reference_descent(t, cfg, 2.0 * (2.0 / (2.0 * 1.0)))
    assert np.array_equal(W[3], w) and ok and iters[3] == it
    w, ok, it = train_posterior_mean(d, t.model, 2.0, 1.0, cfg)
    assert np.array_equal(W[3], w) and ok and iters[3] == it
    # _gd itself, with the coefficients in another order and one of them 0
    c = np.array([0.0, 0.01, 2.0])
    W0 = np.stack(
        [complexity.initial_point(t.model, dataclasses.replace(cfg, seed=s)) for s in (9, 10, 9)]
    )
    Wg, all_ok, it_g, conv_g = complexity._gd(
        W0, lambda V: tasks.batch_loss_grad_many(t, V), c, cfg, "mixed"
    )
    for r, (s, cr) in enumerate(zip((9, 10, 9), c)):
        w, ok, it = _reference_descent(t, dataclasses.replace(cfg, seed=s), cr)
        assert np.array_equal(Wg[r], w) and conv_g[r] == ok and it_g[r] == it
    assert all_ok == conv_g.all()


def test_batched_descent_names_the_diverging_restart():
    # dL/dw = w^3 with unit steps: rows from 0.5 and 0.3 creep to 0, the
    # row from 2.0 overshoots to inf within a few iterations
    cfg = TrainerConfig(step_size=1.0, max_iters=500, grad_tol=1e-3)
    W0 = np.array([[0.5], [0.3], [2.0]])

    def descend(W):
        return complexity._gd(W, lambda V: ((V**4).sum(axis=1) / 4, V**3), 0.0, cfg, "quartic")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the descent diverges quietly, then raises
        with pytest.raises(TrainingDivergedError, match=r"non-finite gradient at iter \d+ in restart 2"):
            descend(W0)
        with pytest.raises(TrainingDivergedError) as one:
            descend(W0[2:])
    assert "restart" not in str(one.value)  # a single descent has no restarts to name
    W, all_ok, iters, conv = descend(W0[:2])
    assert all_ok and conv.all() and np.all(np.abs(W) < 0.11)


def test_diverging_posterior_row_is_not_named_a_restart():
    # a stack of restarts plus one extra row: only the restarts are numbered
    cfg = TrainerConfig(step_size=1.0, max_iters=500, grad_tol=1e-3)
    quartic = lambda V: ((V**4).sum(axis=1) / 4, V**3)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError) as exc:
            complexity._gd(np.array([[0.5], [0.3], [2.0]]), quartic, 0.0, cfg, "q", restarts=2)
        assert "non-finite gradient" in str(exc.value) and "restart" not in str(exc.value)
        with pytest.raises(TrainingDivergedError, match=r"in restart 1$"):
            complexity._gd(np.array([[0.5], [2.0], [0.3]]), quartic, 0.0, cfg, "q", restarts=2)


def test_loss_check_reads_the_next_gradient_call():
    # a fake data term whose gradient stays -1 while its loss grows past
    # 1e6 after 66 steps: only the every-50-iterations loss check can stop
    # it, at the iteration the step landed on and without a call of its own
    calls = []

    def runaway(V):
        calls.append(len(V))
        return 1.5e4 * V.sum(axis=1), -np.ones_like(V)

    for max_iters, where, n_calls in ((150, 100, 101), (100, 100, 101), (99, None, 99)):
        calls.clear()
        cfg = TrainerConfig(step_size=1.0, max_iters=max_iters, grad_tol=1e-3)
        if where is None:
            _, ok, iters, _ = complexity._gd(np.zeros((2, 1)), runaway, 0.0, cfg, "lin")
            assert not ok and iters.tolist() == [99, 99]
        else:
            with pytest.raises(TrainingDivergedError, match=rf"loss 1.5e\+06 at iter {where} in restart 0$"):
                complexity._gd(np.zeros((2, 1)), runaway, 0.0, cfg, "lin")
        assert len(calls) == n_calls


def test_initial_point_contracts():
    logistic = tasks.ModelSpec("multinomial-logistic", 2, 3)
    mlp = tasks.ModelSpec("mlp-1-hidden", 2, 3, hidden=4)
    assert np.array_equal(complexity.initial_point(logistic, TR), np.zeros(logistic.n_params))
    with pytest.raises(ContractError):
        complexity.initial_point(mlp, TR)
    cfg = TrainerConfig(init_scale=0.5, seed=3)
    a = complexity.initial_point(mlp, cfg)
    b = complexity.initial_point(mlp, cfg)
    assert a.shape == (mlp.n_params,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, complexity.initial_point(mlp, TrainerConfig(init_scale=0.5, seed=4)))


def test_trainer_config_rejects_bad_fields():
    with pytest.raises(ContractError):
        TrainerConfig(step_size=0.0)
    with pytest.raises(ContractError):
        TrainerConfig(max_iters=0)
    with pytest.raises(ContractError):
        TrainerConfig(grad_tol=-1e-9)


# -- structure curves ------------------------------------------------------------


@pytest.fixture(scope="module")
def separable_curves():
    d = tasks.generate_blobs(2, 30, 1, 10.0, seed=1)
    m = tasks.ModelSpec("multinomial-logistic", 1, 2)
    tr = TrainerConfig(step_size=0.5, max_iters=20000, grad_tol=1e-10, init_scale=0.0)
    grid = [1e6, 1e3, 30.0, 3.0, 0.3, 0.03, 3e-3, 3e-4]
    clean = structure_curve(tasks.Task(d, m), grid, 0.01, tr)
    noisy = structure_curve(
        tasks.Task(tasks.corrupt_labels(d, 0.5, seed=2), m), grid, 0.01, tr)
    return clean, noisy


def test_curve_zero_information_endpoint(separable_curves):
    clean, _ = separable_curves
    top = clean.records[0]
    assert top["converged"]
    assert top["kl_nats"] < 1e-6
    # prior mass is tight around w=0 here, so the surrogate sits on the
    # uniform-prediction loss up to the small residual curvature term
    assert top["expected_loss"] == pytest.approx(np.log(2), abs=0.05)


def test_curve_buys_the_fit_at_small_beta(separable_curves):
    clean, _ = separable_curves
    bottom = clean.records[-1]
    assert bottom["converged"]
    assert bottom["expected_loss"] < 0.05


def test_curve_is_monotone(separable_curves):
    clean, noisy = separable_curves
    assert clean.is_monotone()
    assert noisy.is_monotone()
    assert all(r["converged"] for r in clean.records + noisy.records)


def test_corrupted_curve_dominates_clean_curve(separable_curves):
    # same information budget buys less loss reduction on shuffled labels;
    # compared by interpolation since the two KL grids do not align
    clean, noisy = separable_curves
    kl0, el0 = clean.kl(), clean.expected_loss()
    kl1, el1 = noisy.kl(), noisy.expected_loss()
    shared = np.linspace(max(kl0.min(), kl1.min()), min(kl0.max(), kl1.max()), 9)[1:-1]
    clean_at = np.interp(shared, kl0, el0)
    noisy_at = np.interp(shared, kl1, el1)
    assert np.all(noisy_at > clean_at)


def test_curve_rejects_bad_grids():
    d = tasks.generate_blobs(2, 20, 1, 3.0, seed=1)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 1, 2))
    for grid in ([1.0], [1.0, 2.0], [2.0, -1.0], [2.0, 2.0]):
        with pytest.raises(ContractError):
            structure_curve(t, grid, 1.0, TR)


def test_curve_flags_unconverged_points_without_dropping_them():
    d = tasks.generate_blobs(2, 30, 1, 3.0, seed=1)
    t = tasks.Task(d, tasks.ModelSpec("multinomial-logistic", 1, 2))
    starved = TrainerConfig(step_size=1e-4, max_iters=2, grad_tol=1e-12)
    sc = structure_curve(t, [1.0, 0.1], 1.0, starved)
    assert len(sc.records) == 2
    assert not any(r["converged"] for r in sc.records)
    assert sc.kl().size == 0 and sc.expected_loss().size == 0


# -- task distances ---------------------------------------------------------------


@pytest.fixture(scope="module")
def four_class():
    d = tasks.generate_blobs(4, 80, 3, 2.5, seed=3)
    m = tasks.ModelSpec("multinomial-logistic", 3, 4)
    return d, m


def test_self_distance_vanishes(four_class):
    d, m = four_class
    dist = task_distance(d, d, m, 0.02, 1.0, TR)
    w, _, _ = train_posterior_mean(d, m, 0.02, 1.0, TR)
    base = c_beta(tasks.Task(d, m), w, 0.02, 1.0).total
    assert abs(dist) <= 1e-6 * (1.0 + abs(base))


def test_distance_increases_with_corruption(four_class):
    d, m = four_class
    dists = []
    for rho in (0.0, 0.25, 0.5):
        dc = tasks.corrupt_labels(d, rho, seed=11) if rho > 0 else d
        dists.append(task_distance(d, dc, m, 0.02, 1.0, TR))
    assert abs(dists[0]) < 1e-9
    assert dists[0] < dists[1] < dists[2]


def test_subset_direction_is_cheaper(four_class):
    # the 2-class task adds nothing new to the 4-class one, but not vice versa
    d, m = four_class
    sub = tasks.subset_classes(d, [0, 1])
    fwd = task_distance(d, sub, m, 0.02, 1.0, TR)
    rev = task_distance(sub, d, m, 0.02, 1.0, TR)
    assert fwd < rev
