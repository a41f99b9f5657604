"""The factored k-Means against the k-Means on the formed points.

strategies.kmeans and kmeans_pp_indices work on the factors (R, H) of the
points r_i (x) h_i; reference_kmeans.py runs the same algorithm on the
formed points. Seeds and labels must be equal, and the SSE history equal
within 1e-9 relative, through both of kmeans' Lloyd forms: the factored
distances round differently, but no decision here is close enough to a tie
for that to matter.
"""

from functools import partial

import numpy as np
import pytest

import reference_kmeans as ref
from mdalbench import strategies
from mdalbench.kernels import factor_sq_norms, sq_dists_to_point
from mdalbench.nncore import RngStream
from mdalbench.strategies import (
    allocate_budget,
    build_regions,
    center_scores,
    kmeans,
    kmeans_pp_indices,
)
from test_strategies import make_real_context


def formed(R, H):
    return (R[:, :, None] * H[:, None, :]).reshape(H.shape[0], -1)


def random_factors(gen, c, n, d):
    if c == 1:
        R = np.ones((n, 1))
    elif c == 2:  # binary residuals [a, -a]
        a = gen.normal(size=n)
        R = np.stack([a, -a], axis=1)
    else:
        R = gen.normal(size=(n, c))
    return R, gen.normal(size=(n, d))


def cases():
    """(name, R, H, k, max_iter) over c in {1, 2, 4}, with duplicates,
    fewer distinct points than clusters, truncated Lloyd runs and pools at
    the region stage's shapes."""
    gen = np.random.default_rng(2024)
    out = []
    for trial in range(36):
        c = (1, 2, 4)[trial % 3]
        n = int(gen.integers(8, 41))
        R, H = random_factors(gen, c, n, int(gen.integers(2, 9)))
        if trial % 4 == 1:  # duplicate points
            src = gen.integers(0, n, size=n // 3)
            R[: src.size], H[: src.size] = R[src], H[src]
        k = int(gen.integers(1, min(7, n) + 1))
        max_iter = (1, 2, 3, 100)[trial % 4]
        out.append((f"c{c}-t{trial}", R, H, k, max_iter))
    # fewer distinct points than clusters, on exactly representable values:
    # the uniform fallback seeds a duplicate center and a cluster starts empty
    for c in (1, 2, 4):
        R0, H0 = random_factors(gen, c, 3, 4)
        R0, H0 = np.round(R0 * 4) / 4, np.round(H0 * 4) / 4
        pick = np.array([0, 1, 2, 0, 1, 2, 0, 1, 0])
        for max_iter in (1, 3, 100):
            out.append((f"c{c}-empty-{max_iter}", R0[pick], H0[pick], 5, max_iter))
    # the region stage's shapes: about 270 pooled rows of ReLU features with
    # d = 128 and 15 regions; confident samples have residual rows near 1e-20
    for c in (2, 4):
        R, H = random_factors(gen, c, 270, 128)
        H = np.maximum(H, 0.0)
        R[gen.random(270) < 1 / 3] *= 1e-20
        out.append((f"c{c}-pool", R, H, 15, 100))
    return out


CASES = cases()


# the two sources of a k-means++ pick's distance row: its own two
# matrix-vector products (badge, the center form), or its row of the Gram
# matrix (kmeans' Gram form)
ROW_SOURCES = {
    "products": lambda R, H: partial(strategies._sq_dists_to, R, H, factor_sq_norms(R, H)),
    "gram": lambda R, H: strategies._gram_form(R, H, factor_sq_norms(R, H), 1)[0],
}


def assert_matches_reference(R, H, k, max_iter):
    E = formed(R, H)
    gram_rows = ROW_SOURCES["gram"](R, H)
    for seed in range(4):
        seeds = kmeans_pp_indices(R, H, k, np.random.default_rng(seed))[0]
        expected = ref.kmeans_pp_indices(E, k, np.random.default_rng(seed))
        assert np.array_equal(seeds, expected)
        seeds = kmeans_pp_indices(R, H, k, np.random.default_rng(seed), 1, gram_rows)[0]
        assert np.array_equal(seeds, expected)

        labels, history = kmeans(
            R, H, k, RngStream(seed, "km"), max_iter=max_iter, n_init=3
        )
        ref_labels, _, ref_history = ref.kmeans(
            E, k, RngStream(seed, "km").generator(), max_iter=max_iter, n_init=3
        )
        assert np.array_equal(labels, ref_labels)
        assert len(set(labels.tolist())) == k
        assert len(history) == len(ref_history)
        np.testing.assert_allclose(history, ref_history, rtol=1e-9)


@pytest.mark.parametrize("name,R,H,k,max_iter", CASES, ids=[c[0] for c in CASES])
def test_factored_kmeans_matches_reference(name, R, H, k, max_iter):
    # every case has at most GRAM_MAX_ROWS rows: the Gram form
    assert_matches_reference(R, H, k, max_iter)


@pytest.mark.parametrize("name,R,H,k,max_iter", CASES, ids=[c[0] for c in CASES])
def test_center_form_matches_reference(name, R, H, k, max_iter, monkeypatch):
    monkeypatch.setattr(strategies, "GRAM_MAX_ROWS", 0)
    assert_matches_reference(R, H, k, max_iter)


def test_gram_form_up_to_the_row_limit(monkeypatch):
    # the (n, n) Gram matrix is built for pools of at most GRAM_MAX_ROWS
    # rows only, and their seeding reads its rows instead of computing each
    # pick's products; one row more keeps centers in (c, d) form and the
    # products
    used = []

    def recording(form):
        def wrapper(*args):
            used.append(form.__name__)
            return form(*args)
        return wrapper

    for form in (strategies._gram_form, strategies._center_form, strategies._sq_dists_to):
        monkeypatch.setattr(strategies, form.__name__, recording(form))
    gen = np.random.default_rng(5)
    for n in (strategies.GRAM_MAX_ROWS, strategies.GRAM_MAX_ROWS + 1):
        R, H = random_factors(gen, 2, n, 3)
        kmeans(R, H, 2, RngStream(0, "km"), max_iter=2, n_init=1)
    assert used == ["_gram_form", "_center_form", "_sq_dists_to", "_sq_dists_to"]


def recording_fallback(monkeypatch):
    """A list that gains one entry per sequential seeding kmeans_pp_indices
    falls back to."""
    calls = []
    sequential = strategies._kmeans_pp_sequential

    def recording(*args):
        calls.append(args)
        return sequential(*args)

    monkeypatch.setattr(strategies, "_kmeans_pp_sequential", recording)
    return calls


def assert_lockstep_equals_successive(name, R, H, k, n_init, source, monkeypatch):
    sequential = strategies._kmeans_pp_sequential
    fallbacks = recording_fallback(monkeypatch)
    sq_dists = ROW_SOURCES[source](R, H)
    # the products are kmeans_pp_indices' default source
    given = None if source == "products" else sq_dists
    for seed in range(4):
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        seeds = kmeans_pp_indices(R, H, k, gen, restarts=n_init, sq_dists=given)
        expected = [sequential(sq_dists, H.shape[0], k, ref_gen) for _ in range(n_init)]
        assert seeds.shape == (n_init, k)
        assert np.array_equal(seeds, np.stack(expected))
        assert gen.bit_generator.state == ref_gen.bit_generator.state
    if "empty" in name:
        assert len(fallbacks) == 4 * n_init
    if "pool" in name:
        assert not fallbacks
    if given is not None:  # the fallback reads the rows it was handed
        assert all(args[0] is given for args in fallbacks)


@pytest.mark.parametrize("n_init", (1, 3, 8))
@pytest.mark.parametrize("name,R,H,k,max_iter", CASES, ids=[c[0] for c in CASES])
def test_lockstep_seeding_equals_successive_seedings(
    name, R, H, k, max_iter, n_init, monkeypatch
):
    # the restarts seeded together pick what n_init seedings in a row pick,
    # and leave the generator where they leave it; with fewer distinct points
    # than clusters the mass runs out and the sequential loop takes over
    assert_lockstep_equals_successive(name, R, H, k, n_init, "products", monkeypatch)


@pytest.mark.parametrize("n_init", (1, 3, 8))
@pytest.mark.parametrize("name,R,H,k,max_iter", CASES, ids=[c[0] for c in CASES])
def test_lockstep_seeding_on_gram_rows_equals_successive_seedings(
    name, R, H, k, max_iter, n_init, monkeypatch
):
    # the same from the Gram matrix's rows, as kmeans seeds: the generator
    # rewind and the sequential loop read the rows the lockstep picks read
    assert_lockstep_equals_successive(name, R, H, k, n_init, "gram", monkeypatch)


def assert_inexact_duplicates_match_reference(source, monkeypatch):
    fallbacks = recording_fallback(monkeypatch)
    gen = np.random.default_rng(7)
    pick = np.array([0, 1, 2, 0, 1, 2, 0, 1, 0])
    for c in (1, 2, 4):
        R, H = random_factors(gen, c, 3, 5)
        R, H = R[pick], H[pick]
        sq_dists = ROW_SOURCES[source](R, H)
        for seed in range(6):
            seeds = kmeans_pp_indices(R, H, 5, np.random.default_rng(seed), 3, sq_dists)
            ref_gen = np.random.default_rng(seed)
            expected = [ref.kmeans_pp_indices(formed(R, H), 5, ref_gen) for _ in range(3)]
            assert np.array_equal(seeds, np.stack(expected))
    assert len(fallbacks) == 3 * 6 * 3


def test_seeding_on_inexact_duplicates_matches_reference(monkeypatch):
    # with fewer distinct points than clusters, the reference's distances
    # between duplicates are exactly 0 and its last picks come from the
    # uniform fallback; the factored distances must reach the same zeros,
    # so the lockstep seeding falls back to the sequential loop.
    # (Lloyd is not compared here: with every point on a center, which point
    # an empty cluster seizes depends on each side's rounding noise.)
    assert_inexact_duplicates_match_reference("products", monkeypatch)


def test_seeding_on_inexact_duplicates_from_gram_rows_matches_reference(monkeypatch):
    # the same zeros from the Gram matrix's rows, whose duplicate entries
    # round as a matrix product does
    assert_inexact_duplicates_match_reference("gram", monkeypatch)


def test_stacked_distances_are_each_picks_own():
    # every row of the (picks, n) distances is the one-pick formula bit for
    # bit, from that pick's own two matrix-vector products (a matrix product
    # over all picks rounds differently)
    gen = np.random.default_rng(11)
    for name, R, H, k, _ in CASES:
        norms = factor_sq_norms(R, H)
        picks = gen.integers(H.shape[0], size=8)
        stacked = strategies._sq_dists_to(R, H, norms, picks)
        for row, p in zip(stacked, picks):
            scale = norms + norms[p]
            d2 = scale - 2.0 * ((R @ R[p]) * (H @ H[p]))
            d2[d2 <= strategies._ROUNDING * scale] = 0.0
            np.testing.assert_array_equal(row, d2, err_msg=name)


def test_inverse_cdf_pick_is_generator_choice():
    # a k-means++ pick must be Generator.choice(n, p=d2 / total) draw for
    # draw: rows of D^2 with zeros, a single nonzero entry, and magnitudes
    # from 1e-60 to 1 (confident rows' residuals are near 1e-20). The row
    # totals of the stacked form must be the 1-D sums too.
    gen = np.random.default_rng(2025)
    for n in (1, 2, 3, 16, 270, 1000):
        D2 = 10.0 ** gen.uniform(-40.0, 0.0, size=(600, n))
        D2[0::3] *= gen.random((200, n)) < 0.5
        D2[1::3] *= 1e-20 ** (gen.random((200, n)) < 0.5)
        D2[2::6] = 0.0
        D2[2::6, gen.integers(n)] = 10.0 ** gen.uniform(-40.0, 0.0, size=100)
        D2[D2.sum(axis=1) == 0.0, -1] = 1e-40
        totals = D2.sum(axis=1)
        assert np.array_equal(totals, [row.sum() for row in D2])

        choice_gen = np.random.default_rng(n)
        expected = [choice_gen.choice(n, p=row / row.sum()) for row in D2]
        stacked_gen, row_gen = np.random.default_rng(n), np.random.default_rng(n)
        stacked = strategies._inverse_cdf(D2 / totals[:, None], stacked_gen.random(600))
        one_by_one = [
            strategies._inverse_cdf(row / row.sum(), row_gen.random()) for row in D2
        ]
        assert np.array_equal(stacked, expected)
        assert np.array_equal(one_by_one, expected)
        for other in (stacked_gen, row_gen):
            assert other.bit_generator.state == choice_gen.bit_generator.state


def test_inverse_cdf_at_a_cdf_entry_is_searchsorted_right():
    # a uniform draw equal to a normalised cumulative sum picks the next
    # row, as searchsorted(side="right") does; random draws almost never
    # land on one, so the ties are set here
    p = np.array([[0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5]])
    cdf = np.cumsum(p, axis=1) / np.cumsum(p, axis=1)[:, -1:]
    for u in (0.0, 0.25, 0.5, 0.75):
        expected = [np.searchsorted(row, u, side="right") for row in cdf]
        assert strategies._inverse_cdf(p, np.full(2, u)).tolist() == expected
        assert [int(strategies._inverse_cdf(row, u)) for row in p] == expected


def test_center_scorer_uses_means_of_formed_embeddings():
    # 2s-center picks on confident samples hang on rounding, so its
    # centroids must be E[members].mean(axis=0) bit for bit
    for seed in (31, 32, 33):
        ctx = make_real_context(seed, budget=4)
        counts = [ctx.unlabeled[k].size for k in range(ctx.num_domains)]
        budgets = allocate_budget(counts, ctx.budget, counts)
        for k in range(ctx.num_domains):
            if budgets[k] < 1:
                continue
            regions, embedding = build_regions(ctx, k, budgets[k])
            resid, h = ctx.model.gradient_embeddings(
                ctx.store[k].X[ctx.unlabeled[k]], k
            )
            E = formed(resid, h)
            scores = center_scores(ctx, k, regions, embedding)
            for members in regions:
                region = E[members]
                np.testing.assert_array_equal(
                    -scores[members], sq_dists_to_point(region, region.mean(axis=0))
                )


def test_build_regions_match_reference_clustering():
    ctx = make_real_context(34, budget=5, n_per=12)
    counts = [ctx.unlabeled[k].size for k in range(ctx.num_domains)]
    budgets = allocate_budget(counts, ctx.budget, counts)
    for k in range(ctx.num_domains):
        if budgets[k] < 1:
            continue
        regions, _ = build_regions(ctx, k, budgets[k])
        idx = ctx.unlabeled[k]
        E = formed(*ctx.model.gradient_embeddings(ctx.store[k].X[idx], k))
        gen = ctx.rng.child(f"kmeans/{k}").generator()
        labels, _, _ = ref.kmeans(E, budgets[k], gen)
        assert [idx[r].tolist() for r in regions] == [
            idx[labels == j].tolist() for j in range(budgets[k])
        ]
