"""Hot numeric kernels in vectorized numpy.

Everything here is called inside per-round selection loops (pairwise
distances for clustering and coreset cover, row softmax and row KL for
perturbation scoring), which is where profile time concentrates once the
models themselves are tiny MLPs.
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


def assign_nearest(points, centers):
    d2 = pairwise_sq_dists(points, centers)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def softmax_rows(Z):
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def kl_rows(P, Q):
    pc = np.maximum(P, PROB_FLOOR)
    qc = np.maximum(Q, PROB_FLOOR)
    terms = np.where(P > 0.0, P * np.log(pc / qc), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)
