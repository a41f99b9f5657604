"""The k-Means that strategies.kmeans factors, on the formed points.

k-means++ seeding measures each pick's distances from the differences
themselves, Lloyd assigns through pairwise_sq_dists and recenters with a
per-cluster mean. Same RNG calls in the same order, same empty-cluster rule,
same strict-< choice between restarts and the same interleaved SSE history
as strategies.kmeans, so tests can require equal labels and seeds from the
factored version given the points r_i (x) h_i.
"""

import numpy as np

from mdalbench.errors import ValidationError
from mdalbench.kernels import pairwise_sq_dists, sq_dists_to_point


def kmeans_pp_indices(points, k, gen):
    """k-Means++ seeding; returns the chosen row indices."""
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"cannot seed {k} centers from {n} points")
    points = np.ascontiguousarray(points, dtype=np.float64)
    chosen = [int(gen.integers(n))]
    d2 = sq_dists_to_point(points, points[chosen[0]])
    d2[chosen[0]] = 0.0
    for _ in range(k - 1):
        total = d2.sum()
        if total > 0.0:
            nxt = int(gen.choice(n, p=d2 / total))
        else:
            # remaining mass exhausted (duplicates): uniform over unchosen
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            cand = np.flatnonzero(mask)
            nxt = int(cand[gen.integers(cand.size)])
        chosen.append(nxt)
        np.minimum(d2, sq_dists_to_point(points, points[nxt]), out=d2)
        d2[nxt] = 0.0
    return np.asarray(chosen, dtype=np.int64)


def kmeans(points, k, gen, max_iter=100, n_init=8):
    """Best of n_init restarts; returns (labels, centers, sse_history)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"cannot form {k} clusters from {n} points")
    best = None
    for _ in range(max(1, n_init)):
        result = lloyd_once(points, k, gen, max_iter)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    return best


def lloyd_once(points, k, gen, max_iter):
    centers = points[kmeans_pp_indices(points, k, gen)].copy()
    labels = None
    sse_history = []
    for _ in range(max_iter):
        d2 = pairwise_sq_dists(points, centers)
        new_labels = np.argmin(d2, axis=1).astype(np.int64, copy=False)
        d2 = d2[np.arange(points.shape[0]), new_labels]
        sse_history.append(float(d2.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            eligible = counts[new_labels] > 1
            cand = np.where(eligible, d2, -np.inf)
            i = int(np.argmax(cand))
            counts[new_labels[i]] -= 1
            new_labels[i] = j
            counts[j] += 1
            d2[i] = 0.0
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
        diff = points - centers[labels]
        sse_history.append(float(np.einsum("ij,ij->", diff, diff)))
    return labels, centers, sse_history
