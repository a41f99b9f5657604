"""Hot numeric kernels in vectorized numpy.

Everything here is called inside per-round selection loops (pairwise
distances for clustering and coreset cover, row softmax and row KL for
perturbation scoring), which is where profile time concentrates once the
models themselves are tiny MLPs. The row kernels reduce over the last axis,
so rows may be stacked along any leading axes.

pairwise_sq_dists(A, B) holds a few (len(A), len(B)) arrays while it runs;
coreset hands it strategies.ROW_BLOCK rows of A at a time, so they stay
block-sized whatever the pool size.
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


def assign_nearest(cross, cc, sq_norms):
    """Nearest center of each point, and its squared distance.

    cross is the (n, k) matrix of inner products E_i . C_j, cc the (k,)
    squared center norms and sq_norms the (n,) squared point norms; k-Means
    computes them from its Gram matrix or from its centers, so no point is
    formed here. Distances are |E_i|^2 + |C_j|^2 - 2 E_i . C_j, clipped at
    0; ties go to the lowest center index.
    """
    # (sq_norms + cc) - 2 cross in that order, made in d2 in place
    d2 = sq_norms[:, None] + cc
    d2 -= 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(cross.shape[0]), labels]


def softmax_rows(Z):
    # np.maximum.reduce and np.add.reduce are what .max() and .sum() call;
    # called directly, they skip a Python wrapper each
    e = np.exp(Z - np.maximum.reduce(Z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def kl_rows(P, Q):
    pc = np.maximum(P, PROB_FLOOR)
    qc = np.maximum(Q, PROB_FLOOR)
    terms = np.where(P > 0.0, P * np.log(pc / qc), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)
