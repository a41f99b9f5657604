"""Deterministic random streams and the dense layer of the model.

Everything is float64. A Linear holds its weight and bias as plain arrays
and its forward pass keeps no cache: training runs through the fused step in
``model.training_step``, which stacks the shared and private weights per
step, writes the gradients into a flat buffer of its own and updates these
arrays in place. The layer-by-layer backward pass it reproduces lives in the
tests as the reference it is checked against.
"""

import hashlib

import numpy as np

from .errors import ShapeError


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


def glorot_uniform(out_dim, in_dim, gen):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return gen.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Affine map Y = X W^T + b with W of shape (out_dim, in_dim); rows may
    be stacked along leading axes of X."""

    def __init__(self, W, b):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.W.shape[0],):
            raise ShapeError(
                f"bias shape {self.b.shape} does not match weight rows "
                f"{self.W.shape}"
            )

    @classmethod
    def init(cls, in_dim, out_dim, gen):
        return cls(glorot_uniform(out_dim, in_dim, gen), np.zeros(out_dim))

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[-1] != self.W.shape[1]:
            raise ShapeError(
                f"input shape {X.shape} incompatible with weight shape "
                f"{self.W.shape}"
            )
        return X @ self.W.T + self.b


def relu(X):
    return np.maximum(0.0, X)
