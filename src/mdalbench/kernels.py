"""Hot numeric kernels in vectorized numpy.

Everything here is called inside per-round selection loops (pairwise
distances for clustering and coreset cover, row softmax and row KL for
perturbation scoring), which is where profile time concentrates once the
models themselves are tiny MLPs. The row kernels reduce over the last axis,
so rows may be stacked along any leading axes.
"""

import numpy as np

PROB_FLOOR = 1e-12


def pairwise_sq_dists(A, B):
    # |a-b|^2 = |a|^2 + |b|^2 - 2ab; clip tiny cancellation negatives
    aa = np.einsum("ij,ij->i", A, A)
    bb = np.einsum("ij,ij->i", B, B)
    out = aa[:, None] + bb[None, :] - 2.0 * (A @ B.T)
    np.maximum(out, 0.0, out=out)
    return out


def sq_dists_to_point(A, p):
    diff = A - p[None, :]
    return np.einsum("ij,ij->i", diff, diff)


def factor_sq_norms(R, H):
    """|r_i (x) h_i|^2 = |r_i|^2 |h_i|^2 for every row."""
    return np.einsum("ij,ij->i", R, R) * np.einsum("ij,ij->i", H, H)


def assign_nearest(H, centers, R, sq_norms):
    """Nearest center of each point r_i (x) h_i, and its squared distance.

    H is (n, d), R is (n, c), centers is (k, c, d) and sq_norms comes from
    factor_sq_norms(R, H). The cross terms are one (n, d) x (d, k*c) matmul
    contracted with R; the outer products are never formed.
    """
    n = H.shape[0]
    k, c, d = centers.shape
    flat = centers.reshape(k, c * d)
    cc = np.einsum("ij,ij->i", flat, flat)
    cross = np.einsum(
        "ikc,ic->ik", (H @ centers.reshape(k * c, d).T).reshape(n, k, c), R
    )
    d2 = sq_norms[:, None] + cc[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(n), labels]


def softmax_rows(Z):
    shifted = Z - Z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def kl_rows(P, Q):
    pc = np.maximum(P, PROB_FLOOR)
    qc = np.maximum(Q, PROB_FLOOR)
    terms = np.where(P > 0.0, P * np.log(pc / qc), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)
