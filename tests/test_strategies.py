import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import tiny_model, with_defaults
from mdalbench.data import DomainDataset, SyntheticSpec, generate_synthetic
from mdalbench.errors import ValidationError
from mdalbench.kernels import kl_rows
from mdalbench.nncore import RngStream
from mdalbench.strategies import (
    ROW_BLOCK,
    STRATEGY_NAMES,
    SelectionContext,
    allocate_budget,
    badge_select,
    build_regions,
    bvsb_scores,
    center_scores,
    coreset_select,
    egl_scores,
    kmeans,
    kmeans_pp_indices,
    perturbation_score,
    perturbation_scores,
    random_select,
    select,
    two_stage_variant_select,
)
from reference_perturbation import perturbation_score_row


# ------------------------------------------------------------------ fixtures


def index_store(sizes):
    """Stores whose single feature is the row index (handy for mocks)."""
    return [
        DomainDataset(
            X=np.arange(n, dtype=float)[:, None], y=np.zeros(n, dtype=int), domain_id=k
        )
        for k, n in enumerate(sizes)
    ]


class TableModel:
    """Duck-typed model backed by lookup tables keyed on the index feature.

    classify(h, k) returns the probabilities of the rows that the last
    penultimate_features call read, as the feature rows themselves need
    not identify an item.
    """

    def __init__(self, probs=None, feats=None, embeds=None):
        self.probs = probs
        self.feats = feats
        self.embeds = embeds
        self.read_rows = None

    def _rows(self, X):
        return X[:, 0].astype(int)

    def predict_proba_batch(self, X, k):
        return self.probs[k][self._rows(X)]

    def penultimate_features(self, X, k):
        self.read_rows = self._rows(X)
        if self.feats is None:
            return np.asarray(X, dtype=float)
        return self.feats[k][self.read_rows]

    def classify(self, h, k):
        return self.probs[k][self.read_rows]

    def gradient_embeddings(self, X, k):
        E = self.embeds[k][self._rows(X)]
        return np.ones((E.shape[0], 1)), E


def make_real_context(seed, budget=None, num_domains=2, n_per=8, sigma=0.05,
                      draws=3):
    spec = SyntheticSpec(
        num_domains=num_domains, samples_per_domain=n_per, input_dim=3,
        num_classes=2, shared_strength=1.0, shift_strength=0.8, seed=seed,
    )
    store = generate_synthetic(spec)
    model = tiny_model(gen_seed=seed, input_dim=3, shared=4, private=3,
                       classes=tuple([2] * num_domains))
    gen = np.random.default_rng(seed + 999)
    labeled, unlabeled = [], []
    for k in range(num_domains):
        n_lab = int(gen.integers(1, 4))
        lab = np.sort(gen.choice(n_per, size=n_lab, replace=False))
        mask = np.zeros(n_per, dtype=bool)
        mask[lab] = True
        labeled.append(lab)
        unlabeled.append(np.flatnonzero(~mask))
    total_unl = sum(u.size for u in unlabeled)
    if budget is None:
        budget = int(gen.integers(1, total_unl + 1))
    return with_defaults(
        SelectionContext,
        model=model, store=store, labeled=labeled, unlabeled=unlabeled,
        budget=budget, rng=RngStream(seed, "select"), sigma=sigma,
        num_perturbations=draws,
    )


# ------------------------------------------------------------------ dispatch


def test_select_rejects_a_batch_of_the_wrong_size(monkeypatch):
    """select checks only the batch's size; engine.annotate checks its items."""
    from mdalbench import strategies

    ctx = make_real_context(0, budget=2)
    monkeypatch.setitem(strategies._DISPATCH, "random", lambda c: random_select(c)[:1])
    with pytest.raises(ValidationError, match="returned 1 items, budget is 2"):
        select("random", ctx)


def test_select_exhausts_pool_for_every_strategy():
    for name in STRATEGY_NAMES:
        ctx = make_real_context(17, budget=None)
        ctx.budget = sum(u.size for u in ctx.unlabeled)
        batch = select(name, ctx)
        expected = sorted(
            (k, int(i)) for k in range(ctx.num_domains) for i in ctx.unlabeled[k]
        )
        assert batch == expected, name


def test_select_dispatch_random_delegates():
    ctx = make_real_context(3, budget=4)
    assert select("random", ctx) == random_select(ctx)


def test_every_strategy_returns_b_distinct_unlabeled_items():
    # spec-level invariant, 50 random contexts across all strategies
    for trial in range(50):
        name = STRATEGY_NAMES[trial % len(STRATEGY_NAMES)]
        ctx = make_real_context(1000 + trial)
        batch = select(name, ctx)
        assert len(batch) == ctx.budget
        assert len(set(batch)) == len(batch)
        pools = [set(u.tolist()) for u in ctx.unlabeled]
        assert all(i in pools[k] for k, i in batch)


def test_strategies_are_deterministic():
    for name in STRATEGY_NAMES:
        a = select(name, make_real_context(77, budget=5))
        b = select(name, make_real_context(77, budget=5))
        assert a == b, name


# -------------------------------------------------------------------- random


def test_random_select_uniform_frequencies():
    sizes = (5, 5, 10)
    store = index_store(sizes)
    labeled = [np.array([], dtype=int)] * 3
    unlabeled = [np.arange(n) for n in sizes]
    counts = np.zeros(sum(sizes))
    trials = 10_000
    b = 4
    for t in range(trials):
        ctx = with_defaults(
            SelectionContext,
            model=None, store=store, labeled=labeled, unlabeled=unlabeled,
            budget=b, rng=RngStream(t, "select"),
        )
        for k, i in random_select(ctx):
            counts[sum(sizes[:k]) + i] += 1
    p = b / sum(sizes)
    se = np.sqrt(p * (1 - p) * trials)
    assert np.abs(counts - trials * p).max() < 3.0 * se


# ---------------------------------------------------------------------- bvsb


def test_bvsb_margin_ordering():
    probs = [np.array([[0.6, 0.4], [0.9, 0.1]])]
    store = index_store([2])
    ctx = with_defaults(
        SelectionContext,
        model=TableModel(probs=probs), store=store, labeled=[np.array([], int)],
        unlabeled=[np.arange(2)], budget=1, rng=RngStream(0),
    )
    assert select("bvsb", ctx) == [(0, 0)]


def test_bvsb_uniform_first_onehot_last():
    probs = [np.array([[1.0, 0.0], [0.5, 0.5], [0.8, 0.2]])]
    store = index_store([3])
    ctx = with_defaults(
        SelectionContext,
        model=TableModel(probs=probs), store=store, labeled=[np.array([], int)],
        unlabeled=[np.arange(3)], budget=2, rng=RngStream(0),
    )
    assert select("bvsb", ctx) == [(0, 1), (0, 2)]  # one-hot item left out


# ----------------------------------------------------------------------- egl


def test_egl_hand_value():
    model = tiny_model()
    # p=(0.5,0.5) and h=(1,0): score = 0.5*[norm(-.5,.5)] + 0.5*[same] = 0.7071
    p = np.array([0.5, 0.5])
    h = np.array([1.0, 0.0])
    expected = sum(
        p[c] * np.linalg.norm(p - np.eye(2)[c]) * np.linalg.norm(h)
        for c in range(2)
    )
    assert expected == pytest.approx(np.sqrt(0.5))


def test_egl_matches_bruteforce_backprop(rng):
    from reference_layers import linear_backward, softmax_cross_entropy

    for trial in range(10):
        ctx = make_real_context(trial, budget=1)
        k = trial % ctx.num_domains
        scores = egl_scores(ctx, k)
        model = ctx.model
        clf = model.classifiers[k]
        for pos, i in enumerate(ctx.unlabeled[k]):
            X = ctx.store[k].X[[int(i)]]
            h = model.penultimate_features(X, k)
            probs = model.predict_proba_batch(X, k)[0]
            brute = 0.0
            for c in range(len(probs)):
                _, dlogits, _ = softmax_cross_entropy(clf.forward(h), [c])
                _, dW, _ = linear_backward(clf, h, dlogits)
                brute += probs[c] * np.linalg.norm(dW)
            assert abs(scores[pos] - brute) < 1e-10


def test_egl_takes_largest():
    probs = [np.array([[1.0, 0.0], [0.5, 0.5]])]
    feats = [np.array([[1.0, 0.0], [1.0, 0.0]])]
    store = index_store([2])
    ctx = with_defaults(
        SelectionContext, model=TableModel(probs=probs, feats=feats), store=store,
        labeled=[np.array([], int)], unlabeled=[np.arange(2)], budget=1,
        rng=RngStream(0),
    )
    assert select("egl", ctx) == [(0, 1)]


def count_model_reads(model):
    """Wrap the model's feature and embedding reads with call counters.

    The wrappers are instance attributes, so gradient_embeddings' own
    penultimate_features call is counted too."""
    calls = dict.fromkeys(("penultimate_features", "gradient_embeddings"), 0)
    for name in calls:
        def spy(*args, _read=getattr(model, name), _name=name):
            calls[_name] += 1
            return _read(*args)
        setattr(model, name, spy)
    return calls


@pytest.mark.parametrize("strategy, features, embeddings", [
    ("egl", 2, 0),
    # one feature pass inside each domain's gradient_embeddings, whose h
    # the egl scorer reuses
    ("2s-egl", 2, 2),
])
def test_egl_reads_features_once_per_domain(strategy, features, embeddings):
    ctx = make_real_context(56, budget=4)
    calls = count_model_reads(ctx.model)
    select(strategy, ctx)
    assert calls == {
        "penultimate_features": features, "gradient_embeddings": embeddings
    }


# -------------------------------------------------------------------- coreset


def brute_force_farthest_first(unlabeled_feats, labeled_feats, items, b):
    """Independent re-implementation with raw loops and Euclidean distances."""
    chosen = []
    centers = [f for f in labeled_feats]
    remaining = list(range(len(items)))
    for _ in range(b):
        best_pos, best_dist = None, -1.0
        for pos in remaining:
            dmin = min(
                float(np.linalg.norm(unlabeled_feats[pos] - c)) for c in centers
            )
            if dmin > best_dist or (
                dmin == best_dist and items[pos] < items[best_pos]
            ):
                best_pos, best_dist = pos, dmin
        chosen.append(items[best_pos])
        centers.append(unlabeled_feats[best_pos])
        remaining.remove(best_pos)
    return sorted(chosen)


def test_coreset_hand_trace():
    # 1-D features: labeled {0}, unlabeled {1,2,10}: picks 10 then 2
    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    store = [DomainDataset(X=X, y=np.zeros(4, int), domain_id=0)]
    ctx = with_defaults(
        SelectionContext, model=TableModel(), store=store, labeled=[np.array([0])],
        unlabeled=[np.array([1, 2, 3])], budget=2, rng=RngStream(0),
    )
    assert coreset_select(ctx) == [(0, 2), (0, 3)]


def test_coreset_single_point():
    X = np.array([[0.0], [5.0]])
    store = [DomainDataset(X=X, y=np.zeros(2, int), domain_id=0)]
    ctx = with_defaults(
        SelectionContext, model=TableModel(), store=store, labeled=[np.array([0])],
        unlabeled=[np.array([1])], budget=1, rng=RngStream(0),
    )
    assert coreset_select(ctx) == [(0, 1)]


def test_coreset_matches_bruteforce(rng):
    for trial in range(50):
        gen = np.random.default_rng(trial)
        n = int(gen.integers(4, 21))
        n_lab = int(gen.integers(1, 4))
        X = gen.normal(size=(n, 3))
        store = [DomainDataset(X=X, y=np.zeros(n, int), domain_id=0)]
        lab = np.sort(gen.choice(n, size=n_lab, replace=False))
        mask = np.zeros(n, bool)
        mask[lab] = True
        unl = np.flatnonzero(~mask)
        b = int(gen.integers(1, unl.size + 1))
        ctx = with_defaults(
            SelectionContext,
            model=TableModel(), store=store, labeled=[lab], unlabeled=[unl],
            budget=b, rng=RngStream(trial),
        )
        got = coreset_select(ctx)
        expected = brute_force_farthest_first(
            [X[i] for i in unl], [X[i] for i in lab],
            [(0, int(i)) for i in unl], b,
        )
        assert got == expected


def test_coreset_matches_bruteforce_across_row_blocks():
    """Pools of several row blocks over two domains, each budget's picks
    falling in more than one block of the unlabeled rows."""
    for trial in range(4):
        gen = np.random.default_rng(100 + trial)
        sizes = [int(n) for n in gen.integers(ROW_BLOCK + 10, 2 * ROW_BLOCK, size=2)]
        store = [
            DomainDataset(X=gen.normal(size=(n, 3)), y=np.zeros(n, int), domain_id=k)
            for k, n in enumerate(sizes)
        ]
        labeled = [np.sort(gen.choice(n, size=4, replace=False)) for n in sizes]
        unlabeled = [np.setdiff1d(np.arange(n), lab) for n, lab in zip(sizes, labeled)]
        assert sum(u.size for u in unlabeled) > 2 * ROW_BLOCK
        ctx = with_defaults(
            SelectionContext, model=TableModel(), store=store, labeled=labeled,
            unlabeled=unlabeled, budget=12, rng=RngStream(trial),
        )
        items = [(k, int(i)) for k, u in enumerate(unlabeled) for i in u]
        got = coreset_select(ctx)
        assert len({items.index(item) // ROW_BLOCK for item in got}) > 1
        assert got == brute_force_farthest_first(
            [store[k].X[i] for k, i in items],
            [store[k].X[i] for k, lab in enumerate(labeled) for i in lab],
            items, ctx.budget,
        )


def test_coreset_holds_one_row_block_of_labeled_distances():
    """3,000 unlabeled against 1,500 labeled rows: one (U, L) array of
    distances would take 36 MB; a few row blocks and the features fit in 4."""
    n_unl, n_lab = 3000, 1500
    X = np.random.default_rng(5).normal(size=(n_unl + n_lab, 2))
    store = [DomainDataset(X=X, y=np.zeros(X.shape[0], int), domain_id=0)]
    ctx = with_defaults(
        SelectionContext, model=TableModel(), store=store,
        labeled=[np.arange(n_unl, n_unl + n_lab)], unlabeled=[np.arange(n_unl)],
        budget=2, rng=RngStream(0),
    )
    assert n_unl * n_lab * 8 == 36e6
    tracemalloc.start()
    try:
        coreset_select(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


# --------------------------------------------------------------------- badge


def test_badge_full_pool_selects_everything():
    ctx = make_real_context(5)
    ctx.budget = sum(u.size for u in ctx.unlabeled)
    batch = badge_select(ctx)
    assert len(batch) == ctx.budget


def test_kmeanspp_never_reselects_duplicate_until_distinct_exhausted():
    pts = np.array([[0.0], [0.0], [1.0]])
    for seed in range(200):
        gen = np.random.default_rng(seed)
        chosen = kmeans_pp_indices(np.ones((3, 1)), pts, 2, gen)[0]
        vals = sorted(float(pts[i, 0]) for i in chosen)
        assert vals == [0.0, 1.0]  # one of each, never both zeros


def test_kmeanspp_first_pick_uniform():
    pts = np.random.default_rng(0).normal(size=(6, 2))
    counts = np.zeros(6)
    trials = 10_000
    for seed in range(trials):
        gen = np.random.default_rng(seed)
        counts[kmeans_pp_indices(np.ones((6, 1)), pts, 1, gen)[0, 0]] += 1
    p = 1 / 6
    se = np.sqrt(p * (1 - p) * trials)
    assert np.abs(counts - trials * p).max() < 3.0 * se


def test_badge_reproducible_under_seed():
    a = badge_select(make_real_context(21, budget=4))
    b = badge_select(make_real_context(21, budget=4))
    assert a == b


def padded_vstack_badge(ctx):
    """badge as it stacked its factors before: a list per domain, each
    residual block np.pad-ded to the widest, then np.vstack."""
    resids, feats = [], []
    for k in range(ctx.num_domains):
        if ctx.unlabeled[k].size:
            resid, h = ctx.model.gradient_embeddings(ctx.store[k].X[ctx.unlabeled[k]], k)
            resids.append(resid)
            feats.append(h)
    c = max(r.shape[1] for r in resids)
    R = np.vstack([np.pad(r, ((0, 0), (0, c - r.shape[1]))) for r in resids])
    gen = ctx.rng.child("badge").generator()
    chosen = kmeans_pp_indices(R, np.vstack(feats), ctx.budget, gen)[0]
    items = [(k, int(i)) for k, u in enumerate(ctx.unlabeled) for i in u]
    return sorted(items[j] for j in chosen)


@pytest.mark.parametrize("empty", [None, 0, 1])
def test_badge_pads_two_and_four_classes_as_the_padded_stack(empty):
    for seed in range(6):
        ctx = make_real_context(40 + seed, num_domains=2, n_per=12)
        ctx.model = tiny_model(gen_seed=seed, input_dim=3, shared=4, private=3,
                               classes=(2, 4))
        if empty is not None:
            ctx.unlabeled[empty] = ctx.unlabeled[empty][:0]
        ctx.budget = 1 + seed % sum(u.size for u in ctx.unlabeled)
        assert badge_select(ctx) == padded_vstack_badge(ctx), seed


# ----------------------------------------------------------- budget allocation


def reference_largest_remainder(counts, budget):
    """Exact-arithmetic reference with Fraction shares."""
    total = sum(counts)
    shares = [Fraction(budget * c, total) for c in counts]
    floors = [int(s) for s in shares]
    order = sorted(range(len(counts)), key=lambda k: (-(shares[k] - floors[k]), k))
    alloc = list(floors)
    for k in order[: budget - sum(floors)]:
        alloc[k] += 1
    return alloc


def test_allocate_budget_spec_examples():
    assert allocate_budget([100, 300], 4, [100, 300]) == [1, 3]
    assert allocate_budget([9], 7, [9]) == [7]
    assert allocate_budget([5, 5, 10], 5, [5, 5, 10]) == [1, 1, 3]


def test_allocate_budget_matches_reference_on_random_instances():
    gen = np.random.default_rng(42)
    for _ in range(1000):
        K = int(gen.integers(1, 7))
        counts = [int(gen.integers(0, 40)) for _ in range(K)]
        if sum(counts) == 0:
            counts[0] = 1
        budget = int(gen.integers(1, sum(counts) + 1))
        got = allocate_budget(counts, budget, counts)
        ref = reference_largest_remainder(counts, budget)
        assert got == ref, (counts, budget)
        assert sum(got) == budget
        # pre-clamp proportionality: |B_k - exact share| < 1
        total = sum(counts)
        for k, a in enumerate(got):
            assert abs(a - budget * counts[k] / total) < 1.0


def test_allocate_budget_permutation_equivariant():
    gen = np.random.default_rng(7)
    for _ in range(100):
        K = int(gen.integers(2, 6))
        counts = [int(gen.integers(1, 30)) for _ in range(K)]
        total = sum(counts)
        budget = int(gen.integers(1, total + 1))
        fracs = [(budget * c) % total for c in counts]
        if len(set(fracs)) != K:
            continue  # equivariance only promised for distinct remainders
        base = allocate_budget(counts, budget, counts)
        perm = gen.permutation(K)
        permuted_counts = [counts[p] for p in perm]
        permuted = allocate_budget(permuted_counts, budget, permuted_counts)
        assert permuted == [base[p] for p in perm]


def test_allocate_budget_respects_capacities():
    # proportions from full pools, capacity from a small unlabeled pool
    alloc = allocate_budget([10, 10], 6, capacities=[2, 10])
    assert alloc == [2, 4]
    assert sum(alloc) == 6


def test_allocate_budget_validation():
    with pytest.raises(ValidationError):
        allocate_budget([3, 3], 7, [3, 3])


# -------------------------------------------------------------------- kmeans


def exhaustive_min_sse(points, k):
    """Minimum SSE over all surjective labelings (tiny inputs only)."""
    n = len(points)
    best = np.inf
    for labeling in itertools.product(range(k), repeat=n):
        if len(set(labeling)) != k:
            continue
        labels = np.asarray(labeling)
        sse = 0.0
        for j in range(k):
            members = points[labels == j]
            sse += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


def test_kmeans_singletons_when_k_equals_n(rng):
    pts = rng.normal(size=(6, 2))
    labels, history = kmeans(np.ones((6, 1)), pts, 6, RngStream(0, "km"))
    assert sorted(labels.tolist()) == list(range(6))
    assert history[-1] == pytest.approx(0.0, abs=1e-24)


def test_kmeans_k1_center_is_mean(rng):
    pts = rng.normal(size=(9, 3))
    labels, history = kmeans(np.ones((9, 1)), pts, 1, RngStream(0, "km"))
    assert (labels == 0).all()
    assert history[-1] == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())


def test_kmeans_two_blobs():
    gen = np.random.default_rng(3)
    blob_a = gen.normal(size=(3, 2)) + [0.0, 0.0]
    blob_b = gen.normal(size=(3, 2)) + [20.0, 0.0]
    pts = np.vstack([blob_a, blob_b])
    labels, _ = kmeans(np.ones((6, 1)), pts, 2, RngStream(4, "km"))
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]


def test_kmeans_sse_non_increasing_and_near_optimal(rng):
    hits = 0
    runs = 0
    for seed in range(40):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(4, 9))
        k = int(gen.integers(1, min(3, n) + 1))
        pts = gen.normal(size=(n, 2))
        labels, history = kmeans(
            np.ones((n, 1)), pts, k, RngStream(seed, "km")
        )
        assert all(
            history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1)
        ), "SSE increased during Lloyd iteration"
        best = exhaustive_min_sse(pts, k)
        final = history[-1]
        assert final >= best - 1e-9, "beat the exhaustive optimum (bug)"
        runs += 1
        if final <= best + 1e-9:
            hits += 1
    assert hits / runs >= 0.9


def test_kmeans_no_empty_clusters_with_duplicates():
    pts = np.array([[0.0], [0.0], [0.0], [5.0]])
    labels, _ = kmeans(np.ones((4, 1)), pts, 3, RngStream(11, "km"))
    assert len(set(labels.tolist())) == 3


# ------------------------------------------------------------------- regions


def test_build_regions_structure():
    ctx = make_real_context(31, budget=4)
    counts = [ctx.unlabeled[k].size for k in range(ctx.num_domains)]
    budgets = allocate_budget(counts, 4, counts)
    for k in range(ctx.num_domains):
        if budgets[k] == 0:
            continue
        regions, (resid, h) = build_regions(ctx, k, budgets[k])
        assert len(regions) == budgets[k]
        assert resid.shape[0] == h.shape[0] == ctx.unlabeled[k].size
        union = np.sort(np.concatenate(regions))
        assert np.array_equal(union, np.arange(ctx.unlabeled[k].size))
        assert all(len(r) > 0 for r in regions)


def test_build_regions_singletons_and_single_region():
    ctx = make_real_context(32)
    for k in range(ctx.num_domains):
        n = ctx.unlabeled[k].size
        # B_k = |U_k| -> singletons
        assert all(len(r) == 1 for r in build_regions(ctx, k, n)[0])
        (one,), _ = build_regions(ctx, k, 1)
        assert np.array_equal(one, np.arange(n))


# ------------------------------------------------------- perturbation scoring


def score_one(model, x, k, sigma, num_draws, rng):
    """perturbation_score of the single sample x, as a batch of one."""
    return perturbation_score(model, x[None, :], k, sigma, num_draws, [rng])[0]


def test_perturbation_score_vanishes_with_sigma():
    ctx = make_real_context(40)
    x = ctx.store[0].X[int(ctx.unlabeled[0][0])]
    s = score_one(ctx.model, x, 0, 1e-9, 20, RngStream(0, "p"))
    assert 0.0 <= s < 1e-12


def test_perturbation_score_zero_when_decoupled():
    ctx = make_real_context(41)
    S = ctx.model.config.shared_hidden
    ctx.model.classifiers[0].W[:, :S] = 0.0
    x = ctx.store[0].X[int(ctx.unlabeled[0][0])]
    assert score_one(ctx.model, x, 0, 0.5, 20, RngStream(1, "p")) == 0.0


def test_perturbation_score_monte_carlo_consistency():
    # T=20 estimates stay within 5 standard errors of a T=10^4 estimate
    model = tiny_model(gen_seed=3)
    x = np.array([0.4, -0.2, 0.9])
    sigma = 0.05
    gen = np.random.default_rng(123)
    deltas = gen.normal(0.0, sigma, size=(10_000, model.config.shared_hidden))
    h = model.penultimate_features(x[None, :], 0)
    perturbed = model.perturbed_probs(h, 0, deltas)
    draws = kl_rows(np.repeat(model.classify(h, 0), len(deltas), axis=0), perturbed)
    big_mean = draws.mean()
    se20 = draws.std() / np.sqrt(20)
    for rep in range(100):
        est = score_one(model, x, 0, sigma, 20, RngStream(rep, "mc"))
        assert abs(est - big_mean) < 5.0 * se20


# ----------------------------------------------------------------- two stage


def test_p2s_single_domain_b1_is_score_argmax():
    ctx = make_real_context(50, budget=1, num_domains=1, n_per=10)
    batch = select("p2s", ctx)
    scores = {
        int(i): perturbation_score_row(
            ctx.model, ctx.store[0].X[int(i)], 0, ctx.sigma,
            ctx.num_perturbations, ctx.rng.child(f"perturbation/0/{int(i)}"),
        )
        for i in ctx.unlabeled[0]
    }
    best = min(sorted(scores), key=lambda i: (-scores[i], i))
    assert batch == [(0, best)]


def test_p2s_matches_straightline_pipeline():
    ctx = make_real_context(51, budget=4, num_domains=2, n_per=6)
    got = select("p2s", ctx)

    counts = [ctx.unlabeled[k].size for k in range(2)]
    budgets = reference_largest_remainder(counts, 4)
    expected = []
    for k in range(2):
        if budgets[k] < 1:
            continue
        idx = ctx.unlabeled[k]
        resid, h = ctx.model.gradient_embeddings(ctx.store[k].X[idx], k)
        labels, _ = kmeans(resid, h, budgets[k], ctx.rng.child(f"kmeans/{k}"))
        for j in range(budgets[k]):
            members = idx[labels == j]
            best, best_score = None, -np.inf
            for i in members:
                s = perturbation_score_row(
                    ctx.model, ctx.store[k].X[int(i)], k, ctx.sigma,
                    ctx.num_perturbations,
                    ctx.rng.child(f"perturbation/{k}/{int(i)}"),
                )
                if s > best_score:
                    best, best_score = int(i), s
            expected.append((k, best))
    assert got == sorted(expected)


def test_two_stage_perturbation_equals_p2s():
    a = select("p2s", make_real_context(52, budget=3))
    b = two_stage_variant_select(make_real_context(52, budget=3), perturbation_scores)
    assert a == b


@pytest.mark.parametrize("strategy", ["2s-center", "2s-egl", "2s-bvsb"])
def test_two_stage_scorers_read_each_domain_once(monkeypatch, strategy):
    """The region stage's embedding serves the scorer, so a domain's
    features are read once, by gradient_embeddings."""
    from mdalbench.model import AspMtlModel

    ctx = make_real_context(57, budget=4)
    counts = [ctx.unlabeled[k].size for k in range(ctx.num_domains)]
    assert min(allocate_budget(counts, ctx.budget, counts)) >= 1
    reads = []
    real = AspMtlModel.penultimate_features

    def spy(self, X, k):
        reads.append(k)
        return real(self, X, k)

    monkeypatch.setattr(AspMtlModel, "penultimate_features", spy)
    select(strategy, ctx)
    assert reads == [0, 1]


def test_two_stage_center_singleton_regions():
    ctx = make_real_context(53)
    ctx.budget = sum(u.size for u in ctx.unlabeled)
    batch = two_stage_variant_select(ctx, center_scores, region_stage=True)
    expected = sorted(
        (k, int(i)) for k in range(ctx.num_domains) for i in ctx.unlabeled[k]
    )
    assert batch == expected


def test_two_stage_bvsb_no_region_single_domain_collapses_to_bvsb():
    ctx = make_real_context(54, budget=3, num_domains=1, n_per=10)
    a = two_stage_variant_select(ctx, bvsb_scores, region_stage=False)
    b = select("bvsb", make_real_context(54, budget=3, num_domains=1, n_per=10))
    assert a == b


def test_p2s_no_region_takes_topk_per_domain():
    ctx = make_real_context(55, budget=3, num_domains=2, n_per=5)
    batch = two_stage_variant_select(ctx, perturbation_scores, region_stage=False)
    counts = [ctx.unlabeled[k].size for k in range(2)]
    budgets = reference_largest_remainder(counts, 3)
    expected = []
    for k in range(2):
        scores = {
            int(i): perturbation_score_row(
                ctx.model, ctx.store[k].X[int(i)], k, ctx.sigma,
                ctx.num_perturbations,
                ctx.rng.child(f"perturbation/{k}/{int(i)}"),
            )
            for i in ctx.unlabeled[k]
        }
        ordered = sorted(scores, key=lambda i: (-scores[i], i))
        expected.extend((k, i) for i in ordered[: budgets[k]])
    assert batch == sorted(expected)


def test_perturbation_scores_nonnegative_many(rng):
    for trial in range(20):
        ctx = make_real_context(600 + trial)
        k = trial % ctx.num_domains
        for i in ctx.unlabeled[k][:3]:
            s = score_one(
                ctx.model, ctx.store[k].X[int(i)], k, 0.1, 5,
                RngStream(trial, f"nn/{int(i)}"),
            )
            assert s >= 0.0
