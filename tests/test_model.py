import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import assert_grad_close, finite_difference, tiny_model, with_defaults
from mdalbench import model as model_module
from mdalbench.data import DomainDataset, generate_synthetic, SyntheticSpec, train_test_split
from mdalbench.errors import NonFiniteError
from mdalbench.kernels import kl_rows
from mdalbench.model import (
    AspMtlModel,
    ModelConfig,
    ModelGroup,
    StepGrads,
    evaluate,
    relu_backward_inplace,
    relu_keep,
    train_round,
    training_step,
)
from mdalbench.nncore import Linear, RngStream, relu
from reference_layers import (
    linear_backward,
    model_params,
    reference_batches,
    reference_train_round,
    softmax_cross_entropy,
)


# a step's eight gradients by name, in the order of the parameters they
# belong to: shared, private_k, classifier_k, discriminator, each W then b
GRAD_NAMES = ["shared_W", "shared_b", "private_W", "private_b",
              "clf_W", "clf_b", "disc_W", "disc_b"]


def grad_pairs(group, grads, k):
    """(stacked parameter, gradient view) for each parameter a step on
    domain k touches, in the order of GRAD_NAMES."""
    layers = [group.shared, group.privates[k], group.classifiers[k], group.discriminator]
    params = [p for layer in layers for p in (layer.W, layer.b)]
    return [(p, getattr(grads, name)) for p, name in zip(params, GRAD_NAMES)]


def hand_model():
    """Fully explicit 1-d model for hand-checkable forwards."""
    config = with_defaults(
        ModelConfig, input_dim=1, num_classes=(2,), shared_hidden=1, private_hidden=1
    )
    shared = Linear(np.array([[2.0]]), np.array([0.5]))
    private = Linear(np.array([[-1.0]]), np.array([0.1]))
    clf = Linear(np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, -0.3]))
    disc = Linear(np.array([[0.3]]), np.array([0.0]))
    return AspMtlModel(config, shared, [private], [clf], disc)


# ------------------------------------------------------------------- forwards


def test_forward_sums_to_one(rng):
    model = tiny_model()
    for _ in range(20):
        p = model.predict_proba_batch(rng.normal(size=(1, 3)), rng.integers(0, 2))[0]
        assert abs(p.sum() - 1.0) < 1e-9


def test_forward_equals_zero_perturbation(rng):
    model = tiny_model()
    X = rng.normal(size=(1, 3))
    p = model.predict_proba_batch(X, 1)[0]
    q = model.perturbed_probs(model.penultimate_features(X, 1), 1, np.zeros((1, 4)))[0]
    assert np.array_equal(p, q)


def test_forward_hand_model():
    model = hand_model()
    X = np.array([[0.4]])
    hs = max(0.0, 2.0 * 0.4 + 0.5)
    hp = max(0.0, -0.4 + 0.1)
    logits = np.array([hs - hp, 0.5 * hs + 2.0 * hp - 0.3])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    np.testing.assert_allclose(model.predict_proba_batch(X, 0)[0], expected, atol=1e-12)
    np.testing.assert_allclose(
        model.penultimate_features(X, 0)[0], [hs, hp], atol=1e-15
    )


def test_penultimate_features_reads_stacked_rows_like_2d_batches(rng):
    # a (n, 1, d) stack runs each row through the BLAS call of a batch of one
    model = tiny_model()
    X = rng.normal(size=(5, 3))
    h = model.penultimate_features(X[:, None, :], 1)
    assert h.shape == (5, 1, 7)
    for i in range(5):
        assert np.array_equal(h[i], model.penultimate_features(X[i : i + 1], 1))
        assert np.array_equal(
            model.classify(h, 1)[i], model.predict_proba_batch(X[i : i + 1], 1)
        )


def test_perturbation_ignored_when_shared_weights_zero(rng):
    model = tiny_model()
    k = 0
    S = model.config.shared_hidden
    model.classifiers[k].W[:, :S] = 0.0
    h = model.penultimate_features(rng.normal(size=(1, 3)), k)
    base = model.classify(h, k)[0]
    for _ in range(5):
        delta = rng.normal(scale=3.0, size=(1, S))
        assert np.allclose(model.perturbed_probs(h, k, delta)[0], base, atol=1e-15)


def test_perturbed_probs_matches_forward_perturbed_loop(rng):
    model = tiny_model()
    h = model.penultimate_features(rng.normal(size=(1, 3)), 0)
    deltas = rng.normal(scale=0.1, size=(6, 4))
    batch = model.perturbed_probs(h, 0, deltas)
    for t in range(6):
        np.testing.assert_allclose(
            batch[t], model.perturbed_probs(h, 0, deltas[t : t + 1])[0], atol=1e-15
        )


def test_small_perturbation_kl_scales_quadratically(rng):
    # KL(p || p_delta) ~ delta^T F delta / 2, so halving delta shrinks the
    # mean KL by ~4x
    model, store = _trained_toy(seed=2)
    kl_full, kl_half = [], []
    for i in range(10):
        h = model.penultimate_features(store[0].X[i : i + 1], 0)
        delta = rng.normal(scale=1e-3, size=(1, model.config.shared_hidden))
        p0 = model.classify(h, 0)
        kl_full.append(kl_rows(p0, model.perturbed_probs(h, 0, delta))[0])
        kl_half.append(kl_rows(p0, model.perturbed_probs(h, 0, delta / 2.0))[0])
    assert np.mean(kl_half) > 0
    assert 3.5 < np.mean(kl_full) / np.mean(kl_half) < 4.5


# ------------------------------------------------------------ batch plumbing


def test_predict_proba_batch_agrees_with_forward_loop(rng):
    model = tiny_model()
    X = rng.normal(size=(7, 3))
    batch = model.predict_proba_batch(X, 1)
    for i in range(7):
        np.testing.assert_allclose(
            batch[i], model.predict_proba_batch(X[i : i + 1], 1)[0], atol=1e-12
        )


def test_predict_proba_duplicated_rows_identical(rng):
    model = tiny_model()
    x = rng.normal(size=3)
    X = np.tile(x, (4, 1))
    batch = model.predict_proba_batch(X, 0)
    assert (batch == batch[0]).all()


def test_penultimate_dims_and_halves(rng):
    model = tiny_model()
    X = rng.normal(size=(1, 3))
    h = model.penultimate_features(X, 1)
    assert h.shape == (1, model.config.shared_hidden + model.config.private_hidden)
    hs, hp = relu(model.shared.forward(X)), relu(model.privates[1].forward(X))
    np.testing.assert_array_equal(h, np.concatenate([hs, hp], axis=1))


# ------------------------------------------------------- gradient embeddings


def test_gradient_embedding_zero_for_onehot_confidence():
    # push one logit far up so the softmax saturates
    model = hand_model()
    model.classifiers[0].b[:] = np.array([200.0, -200.0])
    resid, h = model.gradient_embeddings(np.array([[0.4]]), 0)
    assert np.abs(np.outer(resid[0], h[0])).max() < 1e-12


def test_gradient_embedding_outer_product_layout():
    resid = np.array([0.7 - 1.0, 0.3])
    h = np.array([1.0, 2.0])
    E = (resid[:, None] * h[None, :]).ravel()
    np.testing.assert_allclose(E, [-0.3, -0.6, 0.3, 0.6])


def test_gradient_embedding_matches_backprop(rng):
    # oracle: run the reference layer backward at the pseudo-label and read
    # the classifier weight gradient
    for trial in range(10):
        model = tiny_model(gen_seed=trial)
        k = int(rng.integers(0, 2))
        X = rng.normal(size=(1, 3))
        resid, h_row = model.gradient_embeddings(X, k)
        E = np.outer(resid[0], h_row[0]).ravel()

        h = model.penultimate_features(X, k)
        clf = model.classifiers[k]
        yhat = int(np.argmax(model.predict_proba_batch(X, k)[0]))
        _, dlogits, _ = softmax_cross_entropy(clf.forward(h), [yhat])
        _, dW, _ = linear_backward(clf, h, dlogits)
        np.testing.assert_allclose(E, dW.ravel(), atol=1e-10)


# ------------------------------------------------------------------- training


def _toy_store(seed=0, n=40, separation=3.0, domains=2):
    gen = np.random.default_rng(seed)
    store = []
    for k in range(domains):
        direction = np.zeros(4)
        direction[k % 4] = 1.0
        y = gen.integers(0, 2, size=n)
        X = (2 * y - 1)[:, None] * separation * direction + 0.3 * gen.normal(
            size=(n, 4)
        )
        store.append(DomainDataset(X=X, y=y, domain_id=k))
    return store


def _trained_toy(seed=0, lam_adv=0.05, epochs=40, lr=0.05):
    store = _toy_store(seed)
    config = with_defaults(
        ModelConfig, input_dim=4,
        num_classes=(2, 2),
        shared_hidden=4,
        private_hidden=3,
        lam_adv=lam_adv,
        epochs_per_round=epochs,
        lr=lr,
    )
    model = AspMtlModel.init(config, RngStream(seed))
    labeled = [np.arange(len(s)) for s in store]
    train_round([model], store, [labeled], config, [RngStream(seed, "train")])
    return model, store


def test_train_round_reduces_loss_on_separable_data():
    store = _toy_store(seed=1)
    config = with_defaults(
        ModelConfig, input_dim=4, num_classes=(2, 2), shared_hidden=4, private_hidden=3,
        lam_adv=0.05, epochs_per_round=40, lr=0.05,
    )
    model = AspMtlModel.init(config, RngStream(1))
    labeled = [np.arange(len(s)) for s in store]
    (logs,) = train_round([model], store, [labeled], config, [RngStream(1, "train")])
    assert logs[-1].sup < 0.3 * logs[0].sup


def test_zero_adv_weight_means_zero_discriminator_gradient(rng):
    model = tiny_model(lam_adv=0.0)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    Xa = rng.normal(size=(6, 3))
    da = rng.integers(0, 2, size=6)
    group = ModelGroup([model])
    grads = StepGrads(group, 0)
    training_step(group, np.vstack([X, Xa])[None], y[None], 0, da[None],
                  model.config, grads)
    assert np.abs(grads.disc_W).max() == 0.0
    assert np.abs(grads.disc_b).max() == 0.0


def test_supervised_loss_non_increasing_full_batch():
    # lam_adv=0, lam_diff=0, full-batch, tiny lr: final loss below initial
    store = _toy_store(seed=3, n=16, domains=2)
    config = ModelConfig(
        input_dim=4, num_classes=(2, 2), shared_hidden=4, private_hidden=3,
        lam_adv=0.0, lam_diff=0.0, lr=1e-3, batch_size=16, epochs_per_round=200,
    )
    model = AspMtlModel.init(config, RngStream(9))
    labeled = [np.arange(len(s)) for s in store]
    (logs,) = train_round([model], store, [labeled], config, [RngStream(9, "train")])
    assert logs[-1].sup < logs[0].sup


def test_training_is_deterministic():
    params_a = model_params(_trained_toy(seed=5)[0])
    params_b = model_params(_trained_toy(seed=5)[0])
    for a, b in zip(params_a, params_b):
        assert np.array_equal(a, b)


def test_adversarial_training_hides_domain_from_shared_features():
    # post-hoc linear probe on frozen shared features predicts the domain
    # worse after adversarial training (averaged over 5 seeds)
    def probe_accuracy(lam_adv, seed):
        spec = SyntheticSpec(
            num_domains=2, samples_per_domain=80, input_dim=6, num_classes=2,
            shared_strength=1.0, shift_strength=1.5, seed=seed,
        )
        data = generate_synthetic(spec)
        splits = [
            train_test_split(d, 0.3, RngStream(seed, f"split/{d.domain_id}"))
            for d in data
        ]
        store = [s[0] for s in splits]
        config = with_defaults(
            ModelConfig,
            input_dim=6, num_classes=(2, 2), shared_hidden=6, private_hidden=4,
            lam_adv=lam_adv, epochs_per_round=30, lr=0.05,
        )
        model = AspMtlModel.init(config, RngStream(seed))
        labeled = [np.arange(len(s)) for s in store]
        train_round([model], store, [labeled], config, [RngStream(seed, "train")])

        feats, doms = [], []
        held_feats, held_doms = [], []
        for k, (tr, te) in enumerate(splits):
            S = config.shared_hidden
            feats.append(model.penultimate_features(tr.X, k)[:, :S])
            doms.append(np.full(len(tr), k))
            held_feats.append(model.penultimate_features(te.X, k)[:, :S])
            held_doms.append(np.full(len(te), k))
        F = np.vstack(feats)
        d = np.concatenate(doms)
        probe = Linear.init(F.shape[1], 2, RngStream(seed, "probe").generator())
        for _ in range(300):
            _, dlogits, _ = softmax_cross_entropy(probe.forward(F), d)
            _, dW, db = linear_backward(probe, F, dlogits)
            probe.W -= 1.0 * dW
            probe.b -= 1.0 * db
        logits = probe.forward(np.vstack(held_feats))
        return (np.argmax(logits, 1) == np.concatenate(held_doms)).mean()

    plain = np.mean([probe_accuracy(0.0, s) for s in range(5)])
    adversarial = np.mean([probe_accuracy(1.0, s) for s in range(5)])
    assert adversarial < plain


# ------------------------------------------------- layer-by-layer round oracle


def _class_store(classes, n=12, dim=5, seed=0):
    """One Gaussian blob per class and domain; domain k has classes[k] classes."""
    gen = np.random.default_rng(seed)
    store = []
    for k, c in enumerate(classes):
        y = np.arange(n) % c
        X = 2.0 * gen.normal(size=(c, dim))[y] + gen.normal(size=(n, dim))
        store.append(DomainDataset(X=X, y=y, domain_id=k))
    return store


@pytest.mark.parametrize(
    "classes, settings, n_labeled, rtol",
    [
        pytest.param((2,), {}, 6, 0.0, id="1-domain-2-class"),
        pytest.param((4,), {"lam_diff": 0.05}, 6, 0.0, id="1-domain-4-class-diff"),
        pytest.param((2, 4, 2), {}, 6, 0.0, id="3-domain-mixed"),
        pytest.param((4, 4, 4), {"lam_diff": 0.05}, 6, 0.0,
                     id="3-domain-4-class-diff"),
        pytest.param((2, 4, 2), {"lam_diff": 0.05, "batch_size": 8}, 3, 0.0,
                     id="batch-over-labeled"),
        pytest.param((2,), {"batch_size": 16}, 3, 0.0, id="batch-over-pool"),
        # the stacked step multiplies by [W_shared; W_private_k] with every
        # dimension >= 2 (gemm), where the reference's product is 1 wide
        # (gemv), which sums in another order
        pytest.param((2, 4, 2), {"lam_diff": 0.05, "batch_size": 1}, 6, 1e-12,
                     id="unit-batch"),
        pytest.param((2, 4, 2), {"lam_diff": 0.05, "shared_hidden": 1}, 6, 1e-12,
                     id="unit-shared"),
        pytest.param((2, 4, 2), {"lam_diff": 0.05, "private_hidden": 1}, 6, 1e-12,
                     id="unit-private"),
        # stacked and sliced products agree bit for bit shape by shape, so
        # the paper's shapes get a case of their own
        pytest.param(
            (2, 2, 2),
            {"input_dim": 20, "shared_hidden": 64, "private_hidden": 64,
             "lam_adv": 0.2, "lr": 0.01, "batch_size": 8},
            20, 0.0, id="paper-shape",
        ),
    ],
)
def test_train_round_matches_layer_by_layer_round(classes, settings, n_labeled,
                                                  rtol):
    values = dict(
        input_dim=5, shared_hidden=6, private_hidden=4, lam_adv=0.3,
        lam_diff=0.0, lr=0.02, batch_size=4, epochs_per_round=4,
    )
    values.update(settings)
    config = ModelConfig(num_classes=classes, **values)
    store = _class_store(classes, n=max(12, 2 * n_labeled), dim=config.input_dim)
    labeled = [np.arange(n_labeled) * 2 for _ in classes]
    fused = AspMtlModel.init(config, RngStream(11))
    layered = AspMtlModel.init(config, RngStream(11))
    start = [p.copy() for p in model_params(fused)]

    (logs,) = train_round([fused], store, [labeled], config,
                          [RngStream(11, "train")])
    ref_logs = reference_train_round(
        layered, store, labeled, config, RngStream(11, "train")
    )
    # elementwise; at rtol 0 this is exact equality
    np.testing.assert_allclose(
        [dataclasses.astuple(l) for l in logs],
        [dataclasses.astuple(l) for l in ref_logs], rtol=rtol, atol=0.0,
    )
    for a, b in zip(model_params(fused), model_params(layered)):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)
    # every parameter trains, except a one-domain discriminator, whose
    # softmax over a single domain is constant
    still = [np.array_equal(p, v) for p, v in zip(model_params(fused), start)]
    assert sum(still) == (2 if len(classes) == 1 else 0)


def test_step_through_exact_zero_pre_activations_matches_layer_by_layer_step():
    """Zero input rows through zero extractor biases give pre-activations of
    exactly 0, where the step's mask and relu_backward both take the
    subgradient 0: one step, bit for bit."""
    classes = (2, 3)
    config = ModelConfig(
        input_dim=5, num_classes=classes, shared_hidden=6, private_hidden=4,
        lam_adv=0.3, lam_diff=0.05, lr=0.05, batch_size=8, epochs_per_round=1,
    )
    store = _class_store(classes)
    for d in store:
        d.X[::2] = 0.0
    labeled = [np.arange(4), np.arange(4)]  # a total of 8: one step
    models = [AspMtlModel.init(config, RngStream(3)) for _ in range(2)]
    for model in models:
        for lin in (model.shared, *model.privates):
            lin.b[...] = 0.0
    ((k, take, rows),) = reference_batches(store, labeled, config, RngStream(3, "train"))
    pool_X = np.concatenate([d.X for d in store])
    assert (store[k].X[take] == 0.0).all(axis=1).any()
    assert (pool_X[rows] == 0.0).all(axis=1).any()

    fused, layered = models
    (logs,) = train_round([fused], store, [labeled], config, [RngStream(3, "train")])
    assert logs == reference_train_round(
        layered, store, labeled, config, RngStream(3, "train")
    )
    for a, b in zip(model_params(fused), model_params(layered)):
        assert a.tobytes() == b.tobytes()


# NaN of both signs (one with a payload), both zeros, both infinities, the
# smallest subnormals, the largest finite magnitudes and ordinary values
SPECIAL_FLOATS = np.concatenate([
    [np.nan, -np.nan],
    np.array([0x7FF0_0000_0000_0001], dtype=np.int64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -1e-310,
     1e308, -1e308, 1.5, -2.25],
])


def test_relu_mask_equals_where_bit_for_bit():
    """Every pair of (pre-activation, upstream gradient) special values, also
    through a strided slice of the mask as in the step's reversal pass."""
    Z, x = np.meshgrid(SPECIAL_FLOATS, SPECIAL_FLOATS, indexing="ij")
    want = np.where(Z > 0, x, 0.0).view(np.int64)
    got = relu_backward_inplace(x.copy(), relu_keep(Z))
    assert np.array_equal(got.view(np.int64), want)

    wide = np.concatenate([Z, np.ones_like(Z)], axis=1)[None]
    got = relu_backward_inplace(x[None].copy(), relu_keep(wide)[..., : Z.shape[1]])
    assert np.array_equal(got[0].view(np.int64), want)


def test_bitwise_and_sign_extends_an_int8_minus_one():
    """The premise of relu_backward_inplace: an int8 -1 ANDed with int64
    values is all 64 bits set, and an int8 0 is none."""
    values = np.concatenate([
        SPECIAL_FLOATS.view(np.int64),
        [-1, np.iinfo(np.int64).min, np.iinfo(np.int64).max, 1 << 62],
    ])
    keep = np.array([-1, 0], dtype=np.int8)
    got = np.bitwise_and(values[:, None], keep)
    assert got.dtype == np.int64
    assert np.array_equal(got[:, 0], values)
    assert not got[:, 1].any()


@pytest.mark.parametrize("poisoned", range(8))
def test_train_round_rejects_non_finite_gradient_before_updating(monkeypatch,
                                                                poisoned):
    """A NaN in any one of the eight gradients stops the round at its step,
    with finite losses and before any parameter moves."""
    store = _class_store((2, 3))
    config = with_defaults(
        ModelConfig, input_dim=5, num_classes=(2, 3), shared_hidden=4, private_hidden=3,
        lam_diff=0.05, batch_size=4, epochs_per_round=3,
    )
    model = AspMtlModel.init(config, RngStream(2))
    real_step = model_module.training_step
    calls, before = [], []

    def step_with_nan(*args):
        losses = real_step(*args)
        calls.append(None)
        if len(calls) == 4:
            before.extend(p.copy() for p in model_params(model))
            grads = args[-1]
            getattr(grads, GRAD_NAMES[poisoned]).flat[-1] = np.nan
            assert np.isfinite(losses[:2]).all() and np.isfinite(losses[2]).all()
        return losses

    monkeypatch.setattr(model_module, "training_step", step_with_nan)
    labeled = [np.arange(6), np.arange(6)]
    (outcome,) = train_round([model], store, [labeled], config,
                             [RngStream(2, "train")])
    assert isinstance(outcome, NonFiniteError)
    assert str(outcome) == "non-finite gradient at step 4"
    assert len(calls) == 4
    for p, value in zip(model_params(model), before):
        assert np.array_equal(p, value)


# ------------------------------------------------------------ lockstep groups


def _group_case(M, batch_size, width, lam_diff, seed=0):
    """M models of one config, each with its own stream and its own
    per-domain labeled sets (equal totals), on a 3-domain store."""
    classes = (2, 3, 2)
    config = ModelConfig(
        input_dim=5, num_classes=classes, shared_hidden=width,
        private_hidden=width, lam_adv=0.3, lam_diff=lam_diff, lr=0.05,
        batch_size=batch_size, epochs_per_round=2,
    )
    store = _class_store(classes, n=16, dim=5, seed=seed)
    labeled = []
    for m in range(M):
        shift = m % 3
        counts = (4 + shift, 6, 8 - shift)
        gen = np.random.default_rng(100 + m)
        labeled.append([np.sort(gen.choice(16, size=c, replace=False))
                        for c in counts])
    models = [AspMtlModel.init(config, RngStream(seed + m)) for m in range(M)]
    rngs = [RngStream(seed + m, "train") for m in range(M)]
    return models, store, labeled, config, rngs


def _same_run(model_a, logs_a, model_b, logs_b):
    assert logs_a == logs_b
    for a, b in zip(model_params(model_a), model_params(model_b)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("lam_diff", [0.0, 0.05])
@pytest.mark.parametrize("width", [1, 3, 64])
@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("M", [1, 2, 7])
def test_group_member_equals_its_group_of_one(M, batch_size, width, lam_diff):
    """Exact, no tolerance: every member of a lockstep group ends with the
    parameters and epoch losses it gets trained alone."""
    models, store, labeled, config, rngs = _group_case(
        M, batch_size, width, lam_diff
    )
    outcomes = train_round(models, store, labeled, config, rngs)
    alone, _, _, _, _ = _group_case(M, batch_size, width, lam_diff)
    for m in range(M):
        (logs,) = train_round([alone[m]], store, [labeled[m]], config, [rngs[m]])
        assert len(logs) == config.epochs_per_round
        _same_run(models[m], outcomes[m], alone[m], logs)


def test_group_models_hold_views_of_the_stacks():
    models, store, labeled, config, rngs = _group_case(3, 4, 3, 0.0)
    group = ModelGroup(models)
    for m, model in enumerate(models):
        for p, stack in zip(model_params(model), model_params(group)):
            assert np.shares_memory(p, stack) and np.array_equal(p, stack[m])
            assert np.shares_memory(stack, group.params)
    assert group.params.size == sum(p.size for p in model_params(group))
    grads = StepGrads(group, 1)
    for name in GRAD_NAMES:
        assert np.shares_memory(getattr(grads, name), grads.flat)


@pytest.mark.parametrize("poisoned_param", [0, 5])
def test_non_finite_member_leaves_the_group(monkeypatch, poisoned_param):
    """Member 1's gradient turns NaN at step 4, mid-epoch: it stops with the
    parameters it had before that step, and members 0 and 2 end bit-equal
    to a group trained without it."""
    M, victim = 3, 1
    models, store, labeled, config, rngs = _group_case(M, 8, 3, 0.05)
    real_step = model_module.training_step
    calls, before = [], []

    def step_with_nan(*args):
        losses = real_step(*args)
        calls.append(None)
        if len(calls) == 4:
            before.extend(p.copy() for p in model_params(models[victim]))
            grads = args[-1]
            getattr(grads, GRAD_NAMES[poisoned_param])[victim].flat[-1] = np.nan
        return losses

    monkeypatch.setattr(model_module, "training_step", step_with_nan)
    outcomes = train_round(models, store, labeled, config, rngs)
    monkeypatch.setattr(model_module, "training_step", real_step)
    assert isinstance(outcomes[victim], NonFiniteError)
    assert str(outcomes[victim]) == "non-finite gradient at step 4"
    for p, value in zip(model_params(models[victim]), before):
        assert np.array_equal(p, value)

    fresh, _, _, _, _ = _group_case(M, 8, 3, 0.05)
    rest = [0, 2]
    ref = train_round([fresh[m] for m in rest], store,
                      [labeled[m] for m in rest], config, [rngs[m] for m in rest])
    for m, logs in zip(rest, ref):
        _same_run(models[m], outcomes[m], fresh[m], logs)


def test_member_non_finite_on_every_later_step_keeps_its_first_failure(monkeypatch):
    """Member 1's gradient is NaN at step 4 and at every step after it, so
    the guard's group sum trips on each of them: the member keeps the first
    failing step's message and its parameters from before that step, and
    members 0 and 2 end bit-equal to a group trained without it."""
    M, victim = 3, 1
    models, store, labeled, config, rngs = _group_case(M, 8, 3, 0.05)
    real_step = model_module.training_step
    calls, before = [], []

    def step_with_nans(*args):
        losses = real_step(*args)
        calls.append(None)
        if len(calls) == 4:
            before.extend(p.copy() for p in model_params(models[victim]))
        if len(calls) >= 4:
            args[-1].flat[victim, -1] = np.nan
        return losses

    monkeypatch.setattr(model_module, "training_step", step_with_nans)
    outcomes = train_round(models, store, labeled, config, rngs)
    monkeypatch.setattr(model_module, "training_step", real_step)
    assert len(calls) > 5
    assert str(outcomes[victim]) == "non-finite gradient at step 4"
    for p, value in zip(model_params(models[victim]), before):
        assert np.array_equal(p, value)

    fresh, _, _, _, _ = _group_case(M, 8, 3, 0.05)
    rest = [0, 2]
    ref = train_round([fresh[m] for m in rest], store,
                      [labeled[m] for m in rest], config, [rngs[m] for m in rest])
    for m, logs in zip(rest, ref):
        _same_run(models[m], outcomes[m], fresh[m], logs)


def test_failed_member_leaves_every_member_on_the_first_buffer(monkeypatch):
    """After member 1 fails at step 2, every step still gets the group the
    call built, and every member's layers stay views of its one buffer."""
    models, store, labeled, config, rngs = _group_case(3, 8, 3, 0.0)
    real_step = model_module.training_step
    groups = []

    def step_with_nan(group, *args):
        losses = real_step(group, *args)
        groups.append(group)
        if len(groups) == 2:
            args[-1].flat[1, 0] = np.nan
        return losses

    monkeypatch.setattr(model_module, "training_step", step_with_nan)
    outcomes = train_round(models, store, labeled, config, rngs)
    assert isinstance(outcomes[1], NonFiniteError)
    assert len(groups) > 2 and all(g is groups[0] for g in groups)
    for model in models:
        for p in model_params(model):
            assert np.shares_memory(p, groups[0].params)


def test_every_step_receives_the_batches_of_consecutive_choice_calls(monkeypatch):
    """A group of 3 whose member 1 fails at step 3 of a 5-step epoch: every
    member, the failed one included, keeps its row of the step's stacks and
    receives, at every step of the round, the supervised and adversarial
    rows of reference_batches' Generator.choice calls, bit for bit."""
    M, victim, fails_at = 3, 1, 3
    models, store, labeled, config, rngs = _group_case(M, 4, 3, 0.05)
    pool_X = np.concatenate([d.X for d in store])
    pool_domain = np.concatenate([np.full(len(d), k) for k, d in enumerate(store)])
    real_step = model_module.training_step
    received = []

    def recording_step(group, XX, y, k, d_adv, cfg, grads):
        losses = real_step(group, XX, y, k, d_adv, cfg, grads)
        received.append((k, XX.copy(), y.copy(), d_adv.copy()))
        if len(received) == fails_at:
            grads.shared_W[victim].flat[-1] = np.nan
        return losses

    monkeypatch.setattr(model_module, "training_step", recording_step)
    outcomes = train_round(models, store, labeled, config, rngs)
    assert str(outcomes[victim]) == f"non-finite gradient at step {fails_at}"
    steps = config.epochs_per_round * 5
    assert len(received) == steps

    for m in range(M):
        expected = list(reference_batches(store, labeled[m], config, rngs[m]))
        for s in range(steps):
            k, XX, y, d_adv = received[s]
            want_k, take, rows = expected[s]
            assert k == want_k and XX.shape[0] == M
            assert np.array_equal(XX[m], np.vstack([store[k].X[take], pool_X[rows]]))
            assert np.array_equal(y[m], store[k].y[take])
            assert np.array_equal(d_adv[m], pool_domain[rows])


# (shared_hidden, private_hidden, batch_size, lam_diff) -> sha256 of a group
# of two's trained parameters and epoch logs, first 16 hex digits. Generated
# before the group's parameters moved into one buffer, and unchanged by it.
# A one-wide extractor at a batch of 8 or more is where numpy would sum a
# bias gradient's rows in another order if its slice were reduced alone.
TRAINED_GOLDEN = {
    (64, 64, 8, 0.0): "c906931210441ce6",
    (1, 3, 16, 0.05): "7b2aae41206fdd8b",
    (3, 1, 16, 0.05): "7543c6fe4a61bdf9",
    (1, 1, 8, 0.0): "9c69f6acc6966609",
}


@pytest.mark.parametrize("case", list(TRAINED_GOLDEN), ids=str)
def test_train_round_matches_golden_parameter_digests(case):
    shared, private, batch_size, lam_diff = case
    classes = (2, 3, 2)
    config = ModelConfig(
        input_dim=5, num_classes=classes, shared_hidden=shared,
        private_hidden=private, lam_adv=0.3, lam_diff=lam_diff, lr=0.05,
        batch_size=batch_size, epochs_per_round=3,
    )
    store = _class_store(classes, n=40)
    models = [AspMtlModel.init(config, RngStream(m)) for m in range(2)]
    labeled = [[np.arange(0, 40, 3) for _ in classes] for _ in range(2)]
    logs = train_round(models, store, labeled, config,
                       [RngStream(m, "train") for m in range(2)])
    digest = hashlib.sha256()
    for model in models:
        for p in model_params(model):
            digest.update(p.tobytes())
    digest.update(repr(logs).encode())
    assert digest.hexdigest()[:16] == TRAINED_GOLDEN[case]


def test_step_on_one_domain_leaves_every_other_domain_block_bit_equal():
    """A round of one step trains on domain 0 only: the common block and
    domain 0's block of the parameter buffer move, and the blocks of domains
    1 and 2 keep every bit."""
    models, store, labeled, config, rngs = _group_case(3, 32, 3, 0.05)
    config = dataclasses.replace(config, epochs_per_round=1)
    group = ModelGroup(models)
    before = group.params.copy()
    outcomes = train_round(models, store, labeled, config, rngs)
    assert all(len(logs) == 1 for logs in outcomes)
    after = ModelGroup(models).params
    common, *domains = group.blocks
    assert not np.array_equal(after[:, common], before[:, common])
    assert not np.array_equal(after[:, domains[0]], before[:, domains[0]])
    for block in domains[1:]:
        assert after[:, block].tobytes() == before[:, block].tobytes()


def test_extractor_gradient_is_the_shared_and_private_views_end_to_end():
    models, store, labeled, config, rngs = _group_case(2, 4, 3, 0.0)
    group = ModelGroup(models)
    S = config.shared_hidden
    for k in range(config.num_domains):
        grads = StepGrads(group, k)
        grads.flat[:] = np.arange(grads.flat.size).reshape(grads.flat.shape)
        assert np.shares_memory(grads.ext_W[:, :S], grads.shared_W)
        assert np.shares_memory(grads.ext_W[:, S:], grads.private_W)
        assert np.array_equal(
            grads.ext_W, np.concatenate([grads.shared_W, grads.private_W], axis=1)
        )


def _step_then(edit):
    """A wrapper of training_step that applies edit(grads) after each step."""
    real_step = model_module.training_step

    def step(*args):
        losses = real_step(*args)
        edit(args[-1])
        return losses

    return step


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gradient_sum_overflowing_across_members_fails_no_member(monkeypatch):
    """Each member's gradient sum is near 1e308, finite, so their sum over
    the group overflows: the per-member test decides, and every member takes
    the step."""
    models, store, labeled, config, rngs = _group_case(2, 32, 3, 0.0)
    config = dataclasses.replace(config, epochs_per_round=1)
    before = [m.discriminator.W[0, 0] for m in models]

    def huge(grads):
        grads.flat[:, 0] = 1e308

    monkeypatch.setattr(model_module, "training_step", _step_then(huge))
    outcomes = train_round(models, store, labeled, config, rngs)
    assert all(len(logs) == 1 for logs in outcomes)
    for model, w in zip(models, before):
        assert model.discriminator.W[0, 0] == w - config.lr * 1e308


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_member_whose_gradient_sum_overflows_fails(monkeypatch):
    """Member 1's gradient entries are finite, but their sum overflows: it
    fails and keeps its parameters, while member 0 trains on."""
    models, store, labeled, config, rngs = _group_case(2, 32, 3, 0.0)
    config = dataclasses.replace(config, epochs_per_round=1)
    before = [p.copy() for p in model_params(models[1])]

    def overflow(grads):
        grads.flat[1, :2] = 1e308

    monkeypatch.setattr(model_module, "training_step", _step_then(overflow))
    outcomes = train_round(models, store, labeled, config, rngs)
    assert len(outcomes[0]) == 1
    assert str(outcomes[1]) == "non-finite gradient at step 1"
    for p, value in zip(model_params(models[1]), before):
        assert np.array_equal(p, value)


# ------------------------------------------------------- composed-loss oracle


def composed_loss(model, X, y, k, Xa, da, sign_adv):
    """Forward-only probe: sup CE + sign * lam_adv * disc CE + diff term."""
    cfg = model.config
    hs, hp = relu(model.shared.forward(X)), relu(model.privates[k].forward(X))
    h = np.concatenate([hs, hp], axis=1)
    loss = softmax_cross_entropy(model.classifiers[k].forward(h), y)[0]
    if cfg.lam_diff > 0:
        M = hs.T @ hp
        loss += cfg.lam_diff * float((M * M).sum())
    logits_a = model.discriminator.forward(relu(model.shared.forward(Xa)))
    loss += sign_adv * cfg.lam_adv * softmax_cross_entropy(logits_a, da)[0]
    return loss


def check_composed_gradients(model, rng):
    cfg = model.config
    k = int(rng.integers(0, cfg.num_domains))
    n = int(rng.integers(2, 5))
    X = rng.normal(size=(n, cfg.input_dim))
    y = rng.integers(0, cfg.num_classes[k], size=n)
    Xa = rng.normal(size=(n, cfg.input_dim))
    da = rng.integers(0, cfg.num_domains, size=n)

    # the stacked step writes the gradients it computes; every other
    # parameter must have a zero gradient. The model is member 0 of a group
    # of two, so its arrays are slice 0 of the group's stacks. The twin's
    # batch has a generator of its own, so rng draws what it drew before.
    twin_gen = np.random.default_rng(n)
    twin = AspMtlModel.init(cfg, RngStream(n))
    group = ModelGroup([model, twin])
    grads = StepGrads(group, k)
    XX = np.stack([np.vstack([X, Xa]), twin_gen.normal(size=(2 * n, cfg.input_dim))])
    yy = np.stack([y, twin_gen.integers(0, cfg.num_classes[k], size=n)])
    dd = np.stack([da, twin_gen.integers(0, cfg.num_domains, size=n)])
    training_step(group, XX, yy, k, dd, cfg, grads)
    returned = {id(p): g[0] for p, g in grad_pairs(group, grads, k)}
    for p in model_params(group):
        sign = -1.0 if p is group.shared.W or p is group.shared.b else 1.0
        fd = finite_difference(
            lambda: composed_loss(model, X, y, k, Xa, da, sign), p[0]
        )
        assert_grad_close(returned.get(id(p), np.zeros_like(p[0])), fd)


def test_composed_loss_gradients_match_finite_differences(rng):
    for trial in range(4):
        model = tiny_model(
            gen_seed=trial,
            input_dim=int(rng.integers(2, 5)),
            shared=int(rng.integers(2, 5)),
            private=int(rng.integers(2, 5)),
            classes=(2, int(rng.integers(2, 4))),
            lam_adv=float(rng.uniform(0.0, 1.0)),
            lam_diff=float(rng.choice([0.0, 0.01])),
        )
        check_composed_gradients(model, rng)


# ------------------------------------------------------------------ evaluate


def test_evaluate_perfect_and_constant():
    model, store = _trained_toy(seed=4)
    tests = [(s.X, s.y) for s in store]
    accs, macro = evaluate(model, tests)
    assert all(0.9 <= a <= 1.0 for a in accs)

    # constant predictor via huge bias on class 0
    for clf in model.classifiers:
        clf.W[:] = 0.0
        clf.b[:] = 0.0
        clf.b[0] = 100.0
    balanced = [(s.X, np.tile([0, 1], len(s) // 2)) for s in store]
    accs, macro = evaluate(model, balanced)
    assert accs == [0.5, 0.5] and macro == 0.5


def test_evaluate_hand_count():
    model = hand_model()
    X = np.array([[0.4], [0.4], [0.4], [0.4], [0.4]])
    pred = int(np.argmax(model.predict_proba_batch(X[:1], 0)[0]))
    y = np.array([pred, pred, pred, 1 - pred, 1 - pred])
    accs, macro = evaluate(model, [(X, y)])
    assert accs[0] == pytest.approx(0.6)
    assert macro == pytest.approx(0.6)


def test_evaluate_permutation_invariant(rng):
    model, store = _trained_toy(seed=6)
    X, y = store[0].X, store[0].y
    order = rng.permutation(len(y))
    a1, _ = evaluate(model, [(X, y), (store[1].X, store[1].y)])
    a2, _ = evaluate(model, [(X[order], y[order]), (store[1].X, store[1].y)])
    assert a1[0] == a2[0]
