"""Acquisition strategies.

Five conventional baselines (random, bvsb, egl, coreset, badge) plus the
two-stage pipeline: proportional per-domain budget allocation, k-Means region
building over last-layer gradient embeddings, and a per-region winner picked
by a scorer. A scorer is a function (ctx, k, regions, embedding) -> one
score per unlabeled item of domain k, the largest winning; in the region
stage it gets the gradient embedding factors that built the regions, so a
domain's features are read once. The full method uses the perturbation
scorer (expected KL shift of the prediction under Gaussian noise on the
shared feature); the ablation variants swap the scorer or drop the region
stage. _DISPATCH binds each strategy name to its function and is
the one list of names.

k-Means builds its Lloyd form first and then seeds all its restarts, in
lockstep, from that form's distance rows: rows of the Gram matrix for pools
of at most GRAM_MAX_ROWS, else each pick's own matrix-vector products, as
badge's seeding takes too. A lockstep k-means++ pick is Generator.choice's
inverse-CDF search given its uniform draw (_inverse_cdf), so the picks and
the stream's end state are those of Generator.choice(n, p=d2 / total)
called pick by pick, as the sequential fallback calls it.

Tie-breaking is lexicographic on (domain id, sample index) everywhere, and
every strategy is a deterministic function of the context snapshot and seed.

Only the k-Means center form holds a temporary that grows with a product of
pool sizes: its (n, k, c) indicator and (n, k*c) cross products. Coreset
holds its (U + L, d) features and one (ROW_BLOCK, L) block of labeled
distances, badge its (n, c) residuals and (n, d) features, the perturbation
scorer one (ROW_BLOCK, T, shared) noise block per call and one
(ROW_BLOCK, T, shared + private) block of perturbed features, and the Gram
form at most GRAM_MAX_ROWS^2 entries.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .kernels import (
    assign_nearest,
    factor_sq_norms,
    kl_rows,
    pairwise_sq_dists,
    sq_dists_to_point,
)
from .nncore import RngStream, pcg64_states

# Rows per block wherever a selection temporary would grow with a product of
# pool sizes (module docstring). On the paper grid 32 rows held peak memory as
# low as 16 did, and both blocked steps ran within 10% of their time at 64.
ROW_BLOCK = 32


@dataclass
class SelectionContext:
    """Frozen view of everything a strategy may look at.

    store holds the per-domain training pools; labeled/unlabeled are sorted
    int64 index arrays into them. The model is treated as read-only. sigma,
    num_perturbations and budget_counts ("unlabeled", or "pool": the full
    pool sizes in the Eq-3 role) only carry values, which ExperimentConfig
    declares and checks.
    """

    model: object
    store: list
    labeled: list
    unlabeled: list
    budget: int
    rng: RngStream
    sigma: float
    num_perturbations: int
    budget_counts: str

    @property
    def num_domains(self):
        return len(self.unlabeled)


def select(name, ctx):
    """Dispatch to the named strategy; returns a sorted list of (domain, idx).

    Only the batch's size is checked here: ExperimentConfig checks the name
    at load, and engine.annotate rejects an item that is out of range,
    labeled or repeated when it labels the batch.
    """
    batch = _DISPATCH[name](ctx)
    if len(batch) != ctx.budget:
        raise ValidationError(
            f"strategy returned {len(batch)} items, budget is {ctx.budget}"
        )
    return batch


# ----------------------------------------------------------------- baselines


def _pool_index(ctx):
    """The unlabeled pool in (domain, index) order, as two int64 arrays:
    each item's domain id and its index into that domain's pool."""
    sizes = [a.size for a in ctx.unlabeled]
    return np.repeat(np.arange(ctx.num_domains), sizes), np.concatenate(ctx.unlabeled)


def random_select(ctx):
    dom, idx = _pool_index(ctx)
    gen = ctx.rng.child("random").generator()
    pick = gen.choice(idx.size, size=ctx.budget, replace=False)
    return sorted(zip(dom[pick].tolist(), idx[pick].tolist()))


# A scorer maps (ctx, k, regions, embedding) to one score per item of
# ctx.unlabeled[k]; the largest score wins. regions (position arrays into
# ctx.unlabeled[k]) and embedding (the factors (resid, h) of the items'
# gradient embeddings, h their penultimate features) are None outside the
# region stage. Scores where the smallest value is the better pick are
# negated, which is exact: argmax(-m) is argmin(m), ties included.


def _features(ctx, k, embedding):
    """Penultimate features of domain k's unlabeled items: the region
    stage's h when given, else one read of the model."""
    if embedding is not None:
        return embedding[1]
    return ctx.model.penultimate_features(ctx.store[k].X[ctx.unlabeled[k]], k)


def bvsb_scores(ctx, k, regions=None, embedding=None):
    """Negated top-1 minus top-2 probability margin (most uncertain first)."""
    probs = ctx.model.classify(_features(ctx, k, embedding), k)
    top2 = np.partition(probs, probs.shape[1] - 2, axis=1)[:, -2:]
    return -(top2[:, 1] - top2[:, 0])


def egl_scores(ctx, k, regions=None, embedding=None):
    """Expected last-layer gradient length."""
    h = _features(ctx, k, embedding)
    probs = ctx.model.classify(h, k)
    h_norm = np.sqrt(np.einsum("ij,ij->i", h, h))
    p_sq = np.einsum("ij,ij->i", probs, probs)
    # || p - e_c ||_2 = sqrt(|p|^2 - 2 p_c + 1), weighted by p_c over classes
    grad_norms = np.sqrt(np.maximum(p_sq[:, None] - 2.0 * probs + 1.0, 0.0))
    return h_norm * np.einsum("ij,ij->i", probs, grad_norms)


def _take_global(ctx, scorer):
    """The budget's highest scores over every domain's unlabeled items, ties
    to the lower (domain, index)."""
    doms = [k for k in range(ctx.num_domains) if ctx.unlabeled[k].size]
    keys = np.concatenate([-scorer(ctx, k) for k in doms])
    dom, idx = _pool_index(ctx)
    top = np.lexsort((idx, dom, keys))[: ctx.budget]
    return sorted(zip(dom[top].tolist(), idx[top].tolist()))


def _stacked_features(ctx, items):
    """Penultimate features of the items items[k] of every domain k, in
    (domain, index) order, written into one array a domain at a time."""
    out, stop = None, 0
    for k, idx in enumerate(items):
        if idx.size:
            h = ctx.model.penultimate_features(ctx.store[k].X[idx], k)
            if out is None:
                out = np.empty((sum(a.size for a in items), h.shape[1]), h.dtype)
            out[stop : stop + idx.size] = h
            stop += idx.size
    return out


def coreset_select(ctx):
    """Greedy farthest-first cover in penultimate-feature space.

    Each unlabeled row's distance to its nearest labeled row is taken
    ROW_BLOCK rows at a time, so at most a (ROW_BLOCK, L) block of distances
    exists at once."""
    U = _stacked_features(ctx, ctx.unlabeled)
    L = _stacked_features(ctx, ctx.labeled)
    # squared distances preserve the argmax of Euclidean farthest-first
    min_d = np.empty(U.shape[0])
    for start in range(0, U.shape[0], ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        pairwise_sq_dists(U[block], L).min(axis=1, out=min_d[block])
    picked = []
    for _ in range(ctx.budget):
        j = int(np.argmax(min_d))
        picked.append(j)
        d_new = sq_dists_to_point(U, U[j])
        np.minimum(min_d, d_new, out=min_d)
        min_d[j] = -np.inf
    dom, idx = _pool_index(ctx)
    return sorted(zip(dom[picked].tolist(), idx[picked].tolist()))


# Below this fraction of |E_i|^2 + |E_p|^2, a squared distance from the
# expanded form is rounding noise (its error is a few (c + d) ulps of that
# sum) and counts as zero, as the distance between duplicates does.
_ROUNDING = 1e-12


def kmeans_pp_indices(R, H, k, gen, restarts=1, sq_dists=None):
    """k-Means++ seeding over the points r_i (x) h_i, `restarts` times in a
    row from gen; returns the (restarts, k) chosen rows.

    R is (n, c) and H is (n, d), with 1 <= k <= n; plain points are
    R = ones((n, 1)). sq_dists(picks) gives the (len(picks), n) squared
    distances |E_i|^2 + |E_p|^2 - 2 E_i . E_p from every point to each pick,
    rounding noise set to 0. By default each pick takes its own two
    matrix-vector products (_sq_dists_to), at O(n (c + d)) and without
    forming the outer products; kmeans hands in its Lloyd form's rows
    instead, which for the Gram form are gathered from K.

    The restarts are seeded in lockstep: each draws gen.integers(n), then
    one double per later pick, exactly as that many successive seedings
    would, and every pick advances all restarts' distance rows as one
    (restarts, n) array. Should a restart run out of mass (duplicate
    points), a sequential seeding draws an integer in place of that
    double, so gen is rewound and the restarts are seeded one at a time,
    from the same sq_dists.
    """
    n = H.shape[0]
    if sq_dists is None:
        sq_dists = partial(_sq_dists_to, R, H, factor_sq_norms(R, H))
    state = gen.bit_generator.state
    chosen = np.empty((restarts, k), dtype=np.int64)
    uniforms = np.empty((restarts, k - 1))
    for seeds, u in zip(chosen, uniforms):
        seeds[0] = gen.integers(n)
        gen.random(out=u)
    rows = np.arange(restarts)
    d2 = sq_dists(chosen[:, 0])
    d2[rows, chosen[:, 0]] = 0.0
    for j in range(1, k):
        totals = d2.sum(axis=1)
        if not totals.all():  # sums of entries >= 0: some restart has no mass
            gen.bit_generator.state = state
            return np.stack([
                _kmeans_pp_sequential(sq_dists, n, k, gen) for _ in range(restarts)
            ])
        chosen[:, j] = _inverse_cdf(d2 / totals[:, None], uniforms[:, j - 1])
        np.minimum(d2, sq_dists(chosen[:, j]), out=d2)
        d2[rows, chosen[:, j]] = 0.0
    return chosen


def _sq_dists_to(R, H, norms, picks):
    """The (len(picks), n) squared distances from every point to each
    pick, rounding noise set to 0. Each pick keeps its own two
    matrix-vector products: one matrix product for all of them would round
    differently."""
    inner = np.empty((len(picks), norms.size))
    for row, p in zip(inner, picks):
        np.multiply(R @ R[p], H @ H[p], out=row)
    return _floored_sq_dists(inner, norms, picks)


def _floored_sq_dists(inner, norms, picks):
    """norms + norms[p] - 2 inner[row] for each pick p, overwriting the
    (len(picks), n) inner products inner; entries at or below _ROUNDING
    times norms + norms[p] are rounding noise and set to 0."""
    scale = norms + norms[picks, None]
    # scale - 2 x, bit for bit
    inner *= -2.0
    inner += scale
    scale *= _ROUNDING
    np.putmask(inner, inner <= scale, 0.0)
    return inner


def _inverse_cdf(p, u):
    """Generator.choice(p.shape[-1], p=p) given its uniform draw u, per row
    of p, for the lockstep seeding: cumulative sum, normalised by its last
    entry, then the count of entries at or below u (searchsorted, side
    right). The normalised sums never decrease and end at 1 > u, so that
    count is the index of the first entry above u."""
    cdf = np.add.accumulate(p, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf > np.asarray(u)[..., None]).argmax(axis=-1)


def _kmeans_pp_sequential(sq_dists, n, k, gen):
    """One seeding of n points, drawing pick by pick through NumPy itself:
    Generator.choice(n, p=d2 / total) while mass remains, else an integer
    for a uniform pick among the rows not yet chosen. The lockstep seeding
    falls back to it only on duplicate points, which no workload has."""
    chosen = [int(gen.integers(n))]
    d2 = sq_dists(chosen)[0]
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
        np.minimum(d2, sq_dists([nxt])[0], out=d2)
        d2[nxt] = 0.0
    return np.asarray(chosen, dtype=np.int64)


def badge_select(ctx):
    """k-Means++ seeding over pseudo-label gradient embeddings, global pool.

    Domains with fewer classes have their residuals zero-padded to the
    largest class count, so every embedding lives in one space. The factors
    are written into one (n, c) and one (n, d) array a domain at a time.
    """
    config = ctx.model.config
    doms = [k for k in range(ctx.num_domains) if ctx.unlabeled[k].size]
    n = sum(ctx.unlabeled[k].size for k in doms)
    R = np.zeros((n, max(config.num_classes[k] for k in doms)))
    H = np.empty((n, config.shared_hidden + config.private_hidden))
    stop = 0
    for k in doms:
        rows = slice(stop, stop + ctx.unlabeled[k].size)
        resid, h = ctx.model.gradient_embeddings(ctx.store[k].X[ctx.unlabeled[k]], k)
        R[rows, : resid.shape[1]] = resid
        H[rows] = h
        stop = rows.stop
    gen = ctx.rng.child("badge").generator()
    chosen = kmeans_pp_indices(R, H, ctx.budget, gen)[0]
    dom, idx = _pool_index(ctx)
    return sorted(zip(dom[chosen].tolist(), idx[chosen].tolist()))


# ------------------------------------------------------------ stage 1: setup


def allocate_budget(counts, budget, capacities):
    """Largest-remainder proportional split of `budget` across domains.

    counts drive the proportions; capacities cap each domain's share, with
    overflow re-handed to the largest remainders that still have room.
    Exact integer arithmetic, ties broken by domain id. counts sum to at
    least 1; a budget above the total capacity raises, as the overflow
    loop would never end.
    """
    if budget > sum(capacities):
        raise ValidationError(
            f"budget {budget} exceeds total capacity {sum(capacities)}"
        )
    total = sum(counts)

    floors = [budget * n // total for n in counts]
    rems = [budget * n % total for n in counts]
    order = sorted(range(len(counts)), key=lambda k: (-rems[k], k))

    alloc = list(floors)
    for k in order[: budget - sum(floors)]:
        alloc[k] += 1

    # capacity clamp; push overflow to largest remainders with room
    overflow = sum(max(0, a - c) for a, c in zip(alloc, capacities))
    alloc = [min(a, c) for a, c in zip(alloc, capacities)]
    while overflow > 0:
        for k in order:
            if overflow == 0:
                break
            if alloc[k] < capacities[k]:
                alloc[k] += 1
                overflow -= 1
    return alloc


# Pools of at most this many rows cluster on their Gram matrix, larger ones
# on centers in (c, d) form (see kmeans). 400 is where whole kmeans calls
# broke even at d = 128, k = 15 and c = 2 (README has the timings), and it
# keeps the (n, n) matrix at or below 1.3 MB.
GRAM_MAX_ROWS = 400


def kmeans(R, H, k, rng, max_iter=100, n_init=8):
    """k-Means++ seeding plus Lloyd iterations over the points r_i (x) h_i,
    best of n_init restarts, every draw from the stream rng.

    R is (n, c) and H is (n, d), with 1 <= k <= n; plain points are
    R = ones((n, 1)). The points' squared norms are computed once and the
    Lloyd form is built first; the seeding reads that form's distance rows,
    which for the Gram form are gathered from K. All n_init restarts are
    seeded before any Lloyd run, in lockstep (kmeans_pp_indices); Lloyd
    draws nothing, so the stream sees the same calls as when each restart
    seeds just before its Lloyd run. Each restart stops when assignments
    stop changing or after max_iter rounds; the first restart with the
    lowest final SSE wins. An empty cluster seizes the point farthest from
    its own center (never draining a singleton).

    Lloyd has two forms, chosen by n and equal up to rounding. Up to
    GRAM_MAX_ROWS points it runs on the Gram matrix
    K[i, l] = (r_i . r_l)(h_i . h_l) = E_i . E_l, built once per call
    (8 n^2 bytes) and shared by the restarts, at n^2 k multiply-adds per
    iteration. Above that it keeps centers in (c, d) form, at 2 n k c d
    multiply-adds and memory linear in n. The flop counts break even at
    n ~ 2 c d; whole calls broke even lower.
    Returns (labels, sse_history) for the winning restart; sse_history
    interleaves the SSE after each assignment and each recentering.
    """
    norms = factor_sq_norms(R, H)
    form = _gram_form if H.shape[0] <= GRAM_MAX_ROWS else _center_form
    sq_dists, seeded, recentered = form(R, H, norms, k)
    seeds = kmeans_pp_indices(R, H, k, rng.generator(), n_init, sq_dists)
    restarts = (_lloyd(norms, k, max_iter, s, seeded, recentered) for s in seeds)
    return min(restarts, key=lambda result: result[1][-1])


def _gram_form(R, H, norms, k):
    """The seeding's sq_dists and Lloyd's (cross, center_norms), all read
    off the Gram matrix K.

    A pick's distance row is norms + norms[p] - 2 K[p], and the seeds'
    inner products are their columns of K. A recentering is one product
    with the call's one (n, k) indicator:
    cross[i, j] = E_i . C_j = (1/n_j) sum_(l in j) K[i, l], and
    |C_j|^2 = (1/n_j) sum_(l in j) cross[l, j]."""
    K = H @ H.T
    K *= R @ R.T
    rows = np.arange(K.shape[0])
    indicator = np.empty((rows.size, k))

    def sq_dists(picks):
        return _floored_sq_dists(K.take(picks, axis=0), norms, picks)

    def seeded(seeds):
        return K[:, seeds], norms[seeds]

    def recentered(labels, counts):
        indicator.fill(0.0)
        indicator[rows, labels] = 1.0
        cross = K @ indicator
        cross /= counts
        center_norms = np.bincount(
            labels, weights=cross[rows, labels], minlength=counts.size
        )
        center_norms /= counts
        return cross, center_norms

    return sq_dists, seeded, recentered


def _center_form(R, H, norms, k):
    """The seeding's sq_dists, each pick's own products (_sq_dists_to), and
    Lloyd's (cross, center_norms) from centers in (c, d) form.

    A center update is one W.T @ H over the counts, where row i of the
    (n, k, c) indicator W holds r_i at label_i. The cross terms are one
    (n, d) x (d, k*c) matmul contracted with R."""
    n, c = R.shape
    rows = np.arange(n)

    def products(centers):
        flat = centers.reshape(k, -1)
        cross = np.einsum(
            "ikc,ic->ik", (H @ centers.reshape(k * c, -1).T).reshape(n, k, c), R
        )
        return cross, np.einsum("ij,ij->i", flat, flat)

    def seeded(seeds):
        return products(R[seeds, :, None] * H[seeds, None, :])

    def recentered(labels, counts):
        W = np.zeros((n, k, c))
        W[rows, labels] = R
        centers = (W.reshape(n, k * c).T @ H).reshape(k, c, -1)
        centers /= counts[:, None, None]
        return products(centers)

    return partial(_sq_dists_to, R, H, norms), seeded, recentered


def _lloyd(norms, k, max_iter, seeds, seeded, recentered):
    """One restart from its k seed rows; returns (labels, sse_history).
    seeded and recentered give the (n, k) inner products E_i . C_j and the
    (k,) squared center norms (_gram_form, _center_form). The recentering
    SSE is sum_i |E_i|^2 - |C_(label_i)|^2, summed in point order, so it
    does not depend on how the clusters are numbered."""
    cross, center_norms = seeded(seeds)
    labels = None
    sse_history = []
    for _ in range(max_iter):
        new_labels, d2 = assign_nearest(cross, center_norms, norms)
        new_labels = new_labels.astype(np.int64, copy=False)
        sse_history.append(float(d2.sum()))
        if labels is not None and (new_labels == labels).all():
            break
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            for j in np.flatnonzero(counts == 0):
                eligible = counts[new_labels] > 1
                cand = np.where(eligible, d2, -np.inf)
                i = int(np.argmax(cand))
                counts[new_labels[i]] -= 1
                new_labels[i] = j
                counts[j] += 1
                d2[i] = 0.0
        labels = new_labels
        cross, center_norms = recentered(labels, counts)
        sse_history.append(float((norms - center_norms[labels]).sum()))
    return labels, sse_history


def build_regions(ctx, k, bk):
    """Cluster domain k's unlabeled gradient embeddings into bk regions.

    Returns (regions, (resid, h)): each region as positions into
    ctx.unlabeled[k], and the factors of the embeddings it clustered.
    """
    X = ctx.store[k].X[ctx.unlabeled[k]]
    resid, h = ctx.model.gradient_embeddings(X, k)
    labels, _ = kmeans(resid, h, bk, ctx.rng.child(f"kmeans/{k}"))
    return [np.flatnonzero(labels == j) for j in range(bk)], (resid, h)


# ------------------------------------------------------- stage 2: the scorer


def perturbation_score(model, X, k, sigma, num_draws, rngs):
    """Mean KL(original || perturbed) over Gaussian shared-feature noise, for
    every row of the 2-D X; row i draws its (num_draws, shared_hidden) noise
    from rngs[i], seeded for all rows at once by pcg64_states. sigma > 0
    and num_draws >= 1, as ExperimentConfig checks at load.

    Each row's standard normals go into its slice of one
    (ROW_BLOCK, num_draws, shared_hidden) array, allocated once per call;
    each block of them is then scaled by sigma once, which gives
    Generator.normal(0, sigma) byte for byte. A block of rows goes through
    the model once, as a (b, 1, input_dim) stack: numpy runs a stacked
    matmul slice by slice with each slice's shape, so every row takes the
    same BLAS calls, and gets the same score, as when it is scored alone.
    """
    n = X.shape[0]
    S = model.config.shared_hidden
    scores = np.empty(n)
    # One generator whose state is set to each row's stream in turn;
    # PCG64(0) keeps its construction from reading OS entropy.
    gen = np.random.Generator(np.random.PCG64(0))
    states = pcg64_states(rngs)
    noise = np.empty((min(ROW_BLOCK, n), num_draws, S))
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        deltas = noise[: stop - start]
        for row, state in zip(deltas, states[start:stop]):
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        # Generator.normal(0.0, sigma) is 0.0 + sigma * z: adding 0.0 turns
        # a product that underflowed to -0.0 into its +0.0
        deltas *= sigma
        deltas += 0.0
        h = model.penultimate_features(X[start:stop, None, :], k)
        perturbed = model.perturbed_probs(h, k, deltas)
        scores[start:stop] = kl_rows(model.classify(h, k), perturbed).mean(axis=-1)
    return scores


def perturbation_scores(ctx, k, regions=None, embedding=None):
    """perturbation_score of every unlabeled item of domain k, each with
    its own stream perturbation/{k}/{i}. It reads the model again, one
    row per stacked slice, as its bit-identical scores need; embedding goes
    unused."""
    idx = ctx.unlabeled[k]
    return perturbation_score(
        ctx.model, ctx.store[k].X[idx], k, ctx.sigma, ctx.num_perturbations,
        [ctx.rng.child(f"perturbation/{k}/{i}") for i in idx.tolist()],
    )


def center_scores(ctx, k, regions, embedding):
    """Negated squared distance to the owning region's centroid: the
    nearest wins. Needs the region stage and its embedding.

    Confident samples have residuals near 1e-20, so the picks hang on
    rounding: the centroids are means of the formed embeddings, not the
    factored centers.
    """
    resid, h = embedding
    E = (resid[:, :, None] * h[:, None, :]).reshape(h.shape[0], -1)
    dists = np.empty(h.shape[0])
    for members in regions:
        region = E[members]
        dists[members] = sq_dists_to_point(region, region.mean(axis=0))
    return -dists


def two_stage_variant_select(ctx, scorer, region_stage=True):
    """Budget allocation, then per domain the highest-scoring item of each
    k-Means region, or without the region stage the B_k highest scores."""
    counts = [
        (ctx.store[k].X.shape[0] if ctx.budget_counts == "pool" else ctx.unlabeled[k].size)
        for k in range(ctx.num_domains)
    ]
    caps = [ctx.unlabeled[k].size for k in range(ctx.num_domains)]
    budgets = allocate_budget(counts, ctx.budget, caps)

    batch = []
    for k, bk in enumerate(budgets):
        if bk < 1:
            continue
        idx = ctx.unlabeled[k]
        if region_stage:
            regions, embedding = build_regions(ctx, k, bk)
            scores = scorer(ctx, k, regions, embedding)
            picks = [members[np.argmax(scores[members])] for members in regions]
        else:
            picks = np.lexsort((idx, -scorer(ctx, k, None)))[:bk]
        batch.extend((k, int(idx[p])) for p in picks)
    return sorted(batch)


_DISPATCH = {
    "random": random_select,
    "bvsb": partial(_take_global, scorer=bvsb_scores),
    "egl": partial(_take_global, scorer=egl_scores),
    "coreset": coreset_select,
    "badge": badge_select,
    "p2s": partial(two_stage_variant_select, scorer=perturbation_scores),
    "2s-center": partial(two_stage_variant_select, scorer=center_scores),
    "2s-bvsb": partial(two_stage_variant_select, scorer=bvsb_scores),
    "2s-egl": partial(two_stage_variant_select, scorer=egl_scores),
    "p2s-no-region": partial(
        two_stage_variant_select, scorer=perturbation_scores, region_stage=False
    ),
}
STRATEGY_NAMES = tuple(_DISPATCH)
