"""The layer-by-layer backward pass that model.training_step fuses.

Each function differentiates one layer of the model on a Linear's arrays and
returns the gradients; none is stored on the model. reference_train_round
composes them into a training round with the same batches as
model.train_round, so tests can require bit-identical results, and the tests
in test_nncore.py check each layer against finite differences.
"""

import math

import numpy as np

from mdalbench.errors import ValidationError
from mdalbench.kernels import PROB_FLOOR, softmax_rows
from mdalbench.model import EpochLog
from mdalbench.nncore import relu


def model_params(model):
    """Every parameter array of the model, each layer's W then b: shared,
    privates, classifiers, discriminator."""
    layers = [model.shared, *model.privates, *model.classifiers, model.discriminator]
    return [p for lin in layers for p in (lin.W, lin.b)]


def linear_backward(lin, X, dY):
    """(dX, dW, db) of Y = X W^T + b for the upstream gradient dY."""
    return dY @ lin.W, dY.T @ X, dY.sum(axis=0)


def relu_backward(Z, dY):
    """Gradient through relu(Z); the subgradient at exactly 0 is 0."""
    return np.where(Z > 0.0, dY, 0.0)


def grad_reversal_backward(dY, lam):
    """Gradient through the reversal layer: identity forward, -lam backward."""
    if lam < 0:
        raise ValidationError(f"reversal strength must be >= 0, got {lam}")
    return -lam * np.asarray(dY, dtype=np.float64)


def softmax_cross_entropy(logits, labels):
    """Mean NLL over the batch.

    Returns (loss, dLogits, probs) with dLogits = (probs - onehot) / batch.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.shape
    if labels.shape[0] != n:
        raise ValidationError(
            f"labels length {labels.shape[0]} does not match batch size {n}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValidationError(
            f"labels must lie in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    probs = softmax_rows(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits, probs


def reference_batches(store, labeled, config, rng):
    """Each step's (k, labeled ids of domain k, pooled adversarial rows),
    drawn as train_round draws them: two Generator.choice calls per step on
    the stream's `batches` child, with replacement only when the population
    is below the batch size."""
    K, B = config.num_domains, config.batch_size
    n_pool = sum(len(store[k]) for k in range(K))
    gen = rng.child("batches").generator()
    steps = max(1, math.ceil(sum(len(l) for l in labeled) / B))
    for step in range(config.epochs_per_round * steps):
        k = step % K
        pool = np.asarray(labeled[k], dtype=np.int64)
        take = gen.choice(pool, size=B, replace=pool.size < B)
        rows = gen.choice(n_pool, size=B, replace=n_pool < B)
        yield k, take, rows


def reference_train_round(model, store, labeled, config, rng):
    """The training round composed from the layers above, step by step.

    Same batches as train_round (reference_batches), gradients accumulated
    layer by layer into arrays kept apart from the model, then one SGD
    update of every parameter of the model.
    """
    K, S, B = config.num_domains, config.shared_hidden, config.batch_size
    pool_domain = np.concatenate([np.full(len(store[k]), k) for k in range(K)])
    pool_index = np.concatenate([np.arange(len(store[k])) for k in range(K)])
    batches = reference_batches(store, labeled, config, rng)
    steps = max(1, math.ceil(sum(len(l) for l in labeled) / B))
    params = model_params(model)
    grads = {id(p): np.zeros_like(p) for p in params}

    def backward(lin, X, dY):
        dX, dW, db = linear_backward(lin, X, dY)
        grads[id(lin.W)] += dW
        grads[id(lin.b)] += db
        return dX

    logs = []
    for _ in range(config.epochs_per_round):
        sums = np.zeros(4)
        for _ in range(steps):
            k, take, rows = next(batches)
            X, y = store[k].X[take], store[k].y[take]
            Xa = np.array([store[pool_domain[r]].X[pool_index[r]] for r in rows])
            da = pool_domain[rows]

            Zs = model.shared.forward(X)
            Zp = model.privates[k].forward(X)
            hs, hp = relu(Zs), relu(Zp)
            h = np.concatenate([hs, hp], axis=1)
            loss_sup, dlogits, _ = softmax_cross_entropy(
                model.classifiers[k].forward(h), y
            )
            dh = backward(model.classifiers[k], h, dlogits)
            dhs, dhp = dh[:, :S], dh[:, S:]
            loss_diff = 0.0
            if config.lam_diff > 0:
                M = hs.T @ hp
                loss_diff = float((M * M).sum())
                dhs = dhs + config.lam_diff * 2.0 * (hp @ M.T)
                dhp = dhp + config.lam_diff * 2.0 * (hs @ M)
            backward(model.shared, X, relu_backward(Zs, dhs))
            backward(model.privates[k], X, relu_backward(Zp, dhp))

            Za = model.shared.forward(Xa)
            ha = relu(Za)
            loss_adv, dlog_a, _ = softmax_cross_entropy(
                model.discriminator.forward(ha), da
            )
            drev = backward(model.discriminator, ha, config.lam_adv * dlog_a)
            dha = grad_reversal_backward(drev, 1.0)
            backward(model.shared, Xa, relu_backward(Za, dha))

            total = loss_sup + config.lam_adv * loss_adv + config.lam_diff * loss_diff
            for p in params:
                p -= config.lr * grads[id(p)]
                grads[id(p)][...] = 0.0
            sums += (loss_sup, loss_adv, loss_diff, total)
        logs.append(EpochLog(*(float(v) for v in sums / steps)))
    return logs
