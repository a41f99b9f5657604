"""Dense layer primitives with hand-written backward passes.

Everything is float64. Layers are stateless apart from their parameters:
``forward`` returns ``(output, cache)`` and ``backward(cache, upstream)``
accumulates parameter gradients and returns the input gradient, so a frozen
parameter set can serve concurrent forward passes while a single training
loop owns the gradients.
"""

import hashlib

import numpy as np

from .errors import NonFiniteError, ShapeError, UsageError, ValidationError
from .kernels import PROB_FLOOR, kl_rows, softmax_rows


class RngStream:
    """Deterministic random stream keyed by (seed, label).

    Identical (seed, label) pairs replay the same draws; distinct labels give
    independent streams. Children extend the label path, so any consumer can
    derive its own stream without coordinating with others.
    """

    def __init__(self, seed, label="root"):
        self.seed = int(seed)
        self.label = label

    def child(self, label):
        return RngStream(self.seed, f"{self.label}/{label}")

    def generator(self):
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = tuple(
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        )
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=words)
        return np.random.default_rng(seq)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, label={self.label!r})"


def gaussian_sample(sigma, dim, rng):
    """Draw ``dim`` i.i.d. N(0, sigma^2) values.

    ``rng`` may be an RngStream (stateless: repeated calls replay the same
    vector) or a numpy Generator (stateful: successive calls advance).
    """
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return gen.normal(0.0, sigma, size=dim)


class Param:
    """Trainable array plus its accumulated gradient."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0


def glorot_uniform(out_dim, in_dim, gen):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return gen.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Affine map Y = X W^T + b with W of shape (out_dim, in_dim)."""

    def __init__(self, W, b):
        self.W = Param(W)
        self.b = Param(b)
        if self.b.value.shape != (self.W.value.shape[0],):
            raise ShapeError(
                f"bias shape {self.b.value.shape} does not match weight rows "
                f"{self.W.value.shape}"
            )

    @classmethod
    def init(cls, in_dim, out_dim, gen):
        return cls(glorot_uniform(out_dim, in_dim, gen), np.zeros(out_dim))

    @property
    def in_dim(self):
        return self.W.value.shape[1]

    @property
    def out_dim(self):
        return self.W.value.shape[0]

    def params(self):
        return [self.W, self.b]

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.in_dim:
            raise ShapeError(
                f"input shape {X.shape} incompatible with weight shape "
                f"{self.W.value.shape}"
            )
        Y = X @ self.W.value.T + self.b.value
        return Y, X

    def backward(self, cache, dY):
        if cache is None:
            raise UsageError("linear backward called without a forward cache")
        X = cache
        dY = np.asarray(dY, dtype=np.float64)
        if dY.shape != (X.shape[0], self.out_dim):
            raise ShapeError(
                f"upstream gradient shape {dY.shape} does not match forward "
                f"output shape {(X.shape[0], self.out_dim)}"
            )
        self.W.grad += dY.T @ X
        self.b.grad += dY.sum(axis=0)
        return dY @ self.W.value


def relu(X):
    return np.maximum(0.0, X)


def relu_backward(cache, dY):
    # subgradient 0 at exactly 0
    X = cache
    return np.where(X > 0.0, dY, 0.0)


def grad_reversal(X, lam):
    """Identity forward; backward scales upstream by -lam."""
    if lam < 0:
        raise ValidationError(f"reversal strength must be >= 0, got {lam}")
    return X, lam


def grad_reversal_backward(cache, dY):
    lam = cache
    return -lam * np.asarray(dY, dtype=np.float64)


def softmax_cross_entropy(logits, labels):
    """Mean NLL over the batch.

    Returns (loss, dLogits, probs) with dLogits = (probs - onehot) / batch.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.shape
    if labels.shape[0] != n:
        raise ShapeError(
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


def kl_divergence(P, Q):
    """KL(P || Q) for two probability vectors, entries clamped at 1e-12."""
    P = np.asarray(P, dtype=np.float64).ravel()
    Q = np.asarray(Q, dtype=np.float64).ravel()
    if P.shape != Q.shape:
        raise ValidationError(
            f"distribution lengths differ: {P.shape[0]} vs {Q.shape[0]}"
        )
    for name, v in (("P", P), ("Q", Q)):
        if (v < 0).any():
            raise ValidationError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-6:
            raise ValidationError(f"{name} sums to {v.sum()!r}, not 1")
    return float(kl_rows(P[None, :], Q[None, :])[0])


def sgd_step(params, lr):
    """value <- value - lr * grad for every param, then zero the grads."""
    if lr <= 0:
        raise ValidationError(f"learning rate must be positive, got {lr}")
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NonFiniteError(
                f"non-finite gradient for param of shape {p.shape}: "
                f"|grad|_max={np.abs(p.grad).max()!r}"
            )
    for p in params:
        p.value -= lr * p.grad
        p.zero_grad()
