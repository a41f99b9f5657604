import numpy as np
import pytest

from mdalbench import kernels


def test_pairwise_sq_dists_matches_broadcast(rng):
    A = rng.normal(size=(17, 5))
    B = rng.normal(size=(9, 5))
    ref = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(kernels.pairwise_sq_dists(A, B), ref, atol=1e-10)


def test_sq_dists_to_point(rng):
    A = rng.normal(size=(11, 4))
    p = rng.normal(size=4)
    ref = ((A - p) ** 2).sum(-1)
    np.testing.assert_allclose(kernels.sq_dists_to_point(A, p), ref, atol=1e-12)


def test_assign_nearest_breaks_ties_to_lowest_index():
    points = np.array([[0.0, 0.0], [2.0, 0.0]])
    centers = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    labels, d2 = kernels.assign_nearest(
        points @ centers.T, (centers**2).sum(1), (points**2).sum(1)
    )
    assert labels.tolist() == [0, 0]
    np.testing.assert_allclose(d2, [1.0, 1.0])


def test_assign_nearest_matches_brute_force_argmin(rng):
    # points r_i (x) h_i and the means of k clusters of them, read off the
    # Gram matrix as strategies.kmeans does; c = 1 with r = 1 is the
    # plain-point case
    n, k = 40, 7
    for c in (1, 3):
        R = np.ones((n, 1)) if c == 1 else rng.normal(size=(n, c))
        H = rng.normal(size=(n, 6))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        counts = np.bincount(labels, minlength=k)
        K = (R @ R.T) * (H @ H.T)
        cross = K @ (labels[:, None] == np.arange(k)) / counts
        cc = np.bincount(labels, weights=cross[np.arange(n), labels]) / counts
        nearest, d2 = kernels.assign_nearest(cross, cc, kernels.factor_sq_norms(R, H))
        E = (R[:, :, None] * H[:, None, :]).reshape(n, -1)
        means = np.stack([E[labels == j].mean(axis=0) for j in range(k)])
        ref = ((E[:, None, :] - means[None, :, :]) ** 2).sum(-1)
        ref_labels = ref.argmin(axis=1)
        assert np.array_equal(nearest, ref_labels)
        np.testing.assert_allclose(d2, ref[np.arange(n), ref_labels], atol=1e-10)


def test_softmax_rows_normalized_and_shift_invariant(rng):
    Z = rng.normal(scale=30.0, size=(25, 6))
    P = kernels.softmax_rows(Z)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-9
    np.testing.assert_allclose(
        kernels.softmax_rows(Z + 1000.0), P, atol=1e-12
    )
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    np.testing.assert_allclose(P, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_kl_rows_against_direct_formula(rng):
    P = rng.random((30, 5)) + 1e-6
    Q = rng.random((30, 5)) + 1e-6
    P /= P.sum(1, keepdims=True)
    Q /= Q.sum(1, keepdims=True)
    ref = (P * np.log(P / Q)).sum(1)
    np.testing.assert_allclose(kernels.kl_rows(P, Q), np.maximum(ref, 0), atol=1e-10)


def test_kl_rows_zero_entries_clamped():
    P = np.array([[1.0, 0.0]])
    Q = np.array([[0.5, 0.5]])
    assert kernels.kl_rows(P, Q)[0] == pytest.approx(np.log(2.0))
    # q=0 against p>0 hits the floor instead of inf
    val = kernels.kl_rows(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))[0]
    assert np.isfinite(val) and val > 0

