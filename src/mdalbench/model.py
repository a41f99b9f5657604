"""Shared-private multi-domain classifier with adversarial domain head.

One shared feature extractor serves every domain; each domain adds a private
extractor and a linear classifier over the concatenated features. A linear
domain discriminator sits behind a gradient-reversal layer on the shared
features, pushing them toward domain invariance. Every extractor is one
Linear followed by a ReLU, so the extracted feature IS the hidden layer.
Reads take rows stacked along one or more leading axes (a 2-D batch, or a
(n, 1, input_dim) stack that keeps each row on its own matrix-vector
product): penultimate_features runs the extractors once and classify maps
any feature rows to class distributions, so predictions, gradient
embeddings and perturbed predictions all start from the same h.
Training runs a group of models in lockstep (ModelGroup: every parameter of
the models in one (models, P) buffer, one row per model) through
training_step, one fused forward/backward pass that runs both extractors
through one stacked weight [W_shared; W_private_k] and writes the gradients
of the eight parameters a step touches into one (models, F) buffer per
domain (StepGrads), laid out like the two stretches of the parameter buffer
they update. The backward pass through a ReLU ANDs the gradient's bits with
an int8 mask of 0 or -1 (all bits set) per entry: every bit kept where the
pre-activation is positive, the bits of +0.0 elsewhere, which is np.where's
result bit for bit without its per-element branches. A single model trains
as a group of one, and a member whose step goes non-finite stays in its
group until the round ends, its parameters frozen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .kernels import PROB_FLOOR, softmax_rows
from .nncore import Linear, choice_positions, relu


@dataclass
class ModelConfig:
    """The model's shape and training hyperparameters. It only carries
    values: ExperimentConfig declares and checks the hyperparameters, and
    the loaders check input_dim and the domains' class counts."""

    input_dim: int
    num_classes: tuple  # classes per domain, length = number of domains
    shared_hidden: int
    private_hidden: int
    lam_adv: float
    lam_diff: float
    lr: float
    batch_size: int
    epochs_per_round: int

    @property
    def num_domains(self):
        return len(self.num_classes)


class AspMtlModel:
    """shared and privates[k] are the extractors' Linears (a ReLU follows
    each); classifiers[k] and discriminator are the heads."""

    def __init__(self, config, shared, privates, classifiers, discriminator):
        self.config = config
        self.shared = shared
        self.privates = privates
        self.classifiers = classifiers
        self.discriminator = discriminator

    @classmethod
    def init(cls, config, rng):
        """Fresh parameters drawn from the stream's `init` child."""
        gen = rng.child("init").generator()
        shared = Linear.init(config.input_dim, config.shared_hidden, gen)
        privates = [
            Linear.init(config.input_dim, config.private_hidden, gen)
            for _ in range(config.num_domains)
        ]
        feat_dim = config.shared_hidden + config.private_hidden
        classifiers = [
            Linear.init(feat_dim, c, gen) for c in config.num_classes
        ]
        disc = Linear.init(config.shared_hidden, config.num_domains, gen)
        return cls(config, shared, privates, classifiers, disc)

    # ------------------------------------------------------- read-only pass

    def penultimate_features(self, X, k):
        """Concatenated shared+private features h = F_s(x) (+) F_p_k(x) of
        the rows of X, stacked along its leading axes (at least one); one
        sample goes in as x[None, :]."""
        hs, hp = relu(self.shared.forward(X)), relu(self.privates[k].forward(X))
        return np.concatenate([hs, hp], axis=-1)

    def classify(self, h, k):
        """Domain k's class distributions of the feature rows h."""
        return softmax_rows(self.classifiers[k].forward(h))

    def predict_proba_batch(self, X, k):
        return self.classify(self.penultimate_features(X, k), k)

    def perturbed_probs(self, h, k, deltas):
        """Class distributions of feature rows h, of shape (..., 1, shared +
        private), under the shared-feature perturbations deltas, of shape
        (..., T, shared_hidden); returns (..., T, classes_k). Only the
        classifier runs.
        """
        S = self.config.shared_hidden
        # filled in place: np.concatenate along the last axis of a stack
        # copies slice by slice, several times slower than these two writes
        H = np.empty(deltas.shape[:-1] + h.shape[-1:])
        np.add(h[..., :S], deltas, out=H[..., :S])
        H[..., S:] = h[..., S:]
        return self.classify(H, k)

    def gradient_embeddings(self, X, k):
        """Last-layer weight gradients under the predicted pseudo-label, as
        the factors (resid, h) of their rank-1 rows.

        Row i of the embedding is resid[i] outer h[i], flattened to
        classes_k * (shared+private) entries, with resid = p - onehot(argmax p)
        and h the penultimate feature. The product is left to the caller.
        """
        h = self.penultimate_features(X, k)
        resid = self.classify(h, k)
        resid[np.arange(h.shape[0]), np.argmax(resid, axis=1)] -= 1.0
        return resid, h


def evaluate(model, test_sets):
    """Per-domain argmax accuracy plus unweighted macro average.

    test_sets is a list of (X, y) pairs, one per domain.
    """
    accs = []
    for k, (X, y) in enumerate(test_sets):
        pred = np.argmax(model.predict_proba_batch(X, k), axis=1)
        accs.append(float((pred == y).mean()))
    return accs, float(np.mean(accs))


# ------------------------------------------------------------------ training


@dataclass
class EpochLog:
    sup: float
    adv: float
    diff: float
    total: float


def _xent(logits, labels, starts):
    """Per-member mean softmax cross-entropy of (M, n, c) logits and its
    logit gradient (probs - onehot) / n, built in the probability array
    itself. starts is the (M, n) flat offset of each row of an (M, n, c)
    array (ModelGroup.row_starts), so starts + labels indexes each label."""
    n = logits.shape[1]
    probs = softmax_rows(logits)
    flat = probs.reshape(-1)
    at = starts + labels
    picked = flat[at]
    loss = np.add.reduce(np.log(np.maximum(picked, PROB_FLOOR)), axis=1) / -n
    flat[at] = picked - 1.0
    probs /= n
    return loss, probs


def relu_keep(Z):
    """The int8 mask of Z's positive entries for relu_backward_inplace: -1,
    every bit set, where Z > 0, and 0 elsewhere, NaN included."""
    return np.negative(np.greater(Z, 0.0).view(np.int8))


def relu_backward_inplace(dY, keep):
    """dY, float64, through the ReLU of Z whose relu_keep is keep, in place.

    Exactly np.where(Z > 0, dY, 0.0), bit for bit: the AND of dY's bits with
    keep sign-extended to 64 bits keeps all of them where keep is -1 (NaN
    payloads, infinities, -0.0 and subnormals included) and leaves the bits
    of +0.0 where it is 0. np.where branches per element, and a ReLU's mask
    is random enough to mispredict those branches; the AND has none.
    """
    np.bitwise_and(dY.view(np.int64), keep, out=dY.view(np.int64))
    return dY


class LayerStack:
    """The weights (M, out, in) and biases (M, out) of one layer of M
    models, with the transposed weights (M, in, out) and the biases as
    (M, 1, out) rows held as views, for the step's forward products."""

    def __init__(self, W, b):
        self.W, self.b = W, b
        self.WT, self.b_rows = W.swapaxes(1, 2), b[:, None]


def _carve(buf, shapes):
    """Views of consecutive stretches of the rows of buf (M, F): one
    (M, *shape) array per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[:, start : start + size].reshape(len(buf), *shape))
        start += size
    return views


def _buffer_order(model):
    """A model's parameter arrays in the order of a ModelGroup row (or a
    group's stacks, in the order of its columns): the common block [disc W,
    disc b, shared b, shared W], then for each domain k [private_k W,
    private_k b, classifier_k W, classifier_k b]."""
    disc, shared = model.discriminator, model.shared
    arrays = [disc.W, disc.b, shared.b, shared.W]
    for private, clf in zip(model.privates, model.classifiers):
        arrays += [private.W, private.b, clf.W, clf.b]
    return arrays


def _layers(model):
    return [model.shared, *model.privates, *model.classifiers, model.discriminator]


class ModelGroup:
    """M models of one config whose parameters live in one (M, P) buffer,
    params, with the layer names of AspMtlModel.

    Row m holds model m's parameters in the order of _buffer_order, so a
    step on domain k updates two stretches of every row: the common block
    and domain k's block (blocks[0] and blocks[k + 1]). Each layer is a
    LayerStack of views of the buffer, and each model's Linears hold views
    of those (slice m is model m's layer), so a step that updates the
    buffer updates every model, and each model still reads as it did alone.
    """

    def __init__(self, models):
        rows = [_buffer_order(model) for model in models]
        self.params = np.stack([np.concatenate([a.ravel() for a in r]) for r in rows])
        views = _carve(self.params, [a.shape for a in rows[0]])
        # the common block, then one block per domain, four arrays each
        blocks = [views[i : i + 4] for i in range(0, len(views), 4)]
        disc_W, disc_b, shared_b, shared_W = blocks[0]
        self.discriminator = LayerStack(disc_W, disc_b)
        self.shared = LayerStack(shared_W, shared_b)
        self.privates = [LayerStack(W, b) for W, b, _, _ in blocks[1:]]
        self.classifiers = [LayerStack(W, b) for _, _, W, b in blocks[1:]]
        ends = np.cumsum([sum(v[0].size for v in block) for block in blocks]).tolist()
        self.blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]
        for m, model in enumerate(models):
            for lin, stack in zip(_layers(model), _layers(self)):
                lin.W, lin.b = stack.W[m], stack.b[m]
        self._row_starts = {}

    def row_starts(self, n, c):
        """The flat offset of each row of an (M, n, c) array, as (M, n)."""
        starts = self._row_starts.get((n, c))
        if starts is None:
            M = self.params.shape[0]
            starts = np.arange(0, M * n * c, c).reshape(M, n)
            self._row_starts[n, c] = starts
        return starts


class StepGrads:
    """The gradients of the eight parameters a step on domain k touches, for
    every member of a group, as views of one (M, F) array, flat: row m holds
    member m's gradients in the order of the group's common block, then of
    its domain-k block.

    Shared W ends the common block and private_k W starts the domain block,
    so ext_W, the gradient of the stacked extractor [shared; private_k], is
    one view: its first S rows are shared_W, the rest private_W. updates
    pairs each member's two stretches of parameters with their gradients.
    training_step overwrites every entry.
    """

    def __init__(self, group, k):
        order = _buffer_order(group)
        arrays = order[:4] + order[4 + 4 * k : 8 + 4 * k]
        M, S, input_dim = group.shared.W.shape
        common, block = group.blocks[0], group.blocks[k + 1]
        self.flat = np.empty((M, common.stop + block.stop - block.start))
        (self.disc_W, self.disc_b, self.shared_b, self.shared_W,
         self.private_W, self.private_b, self.clf_W, self.clf_b) = _carve(
            self.flat, [a.shape[1:] for a in arrays]
        )
        start = common.stop - self.shared_W[0].size
        ext = S + group.privates[k].W.shape[1]
        self.ext_W = self.flat[:, start : start + ext * input_dim].reshape(
            M, ext, input_dim
        )
        # one pair per member and stretch: numpy subtracts a (M, F) view of
        # rows of a wider buffer several times slower than its M rows one
        # by one once M >= 4, and the result is the same elementwise
        self.updates = []
        for p, gp in zip(group.params, self.flat):
            self.updates += [(p[common], gp[: common.stop]), (p[block], gp[common.stop :])]


def training_step(group, XX, y, k, d_adv, config, grads):
    """One step's losses for every member of a group, with the gradients
    written into grads.

    XX (M, 2n, input_dim) stacks, per member, the supervised batch (the n
    rows of domain k whose labels are y[m]) over the adversarial batch (n
    rows with domain ids d_adv[m]). Supervised cross-entropy through domain
    k's head, domain-id cross-entropy through the discriminator behind the
    reversal layer (scaled by lam_adv), optional shared/private
    orthogonality penalty. Reads the group's arrays and writes only grads, a
    StepGrads of domain k. Returns (loss_sup, loss_adv, loss_diff), each
    (M,), with loss_adv the raw cross-entropy before weighting; loss_diff
    is 0.0 when lam_diff is 0.

    One matmul through the stacked weight [W_shared; W_private_k] runs both
    extractors on all 2n rows; the supervised features h and the adversarial
    shared features are views of its ReLU, and one mask of its positive
    entries serves both backward passes through it. The mask is an int8 0
    or -1 per entry (relu_keep), ANDed into the bits of the incoming
    gradient in place (relu_backward_inplace): all 64 bits kept or none, so
    the result is exactly np.where(Z > 0, dY, 0.0), NaN, inf and -0.0
    included. The private features of the adversarial rows go unused. One
    dZ.T @ X gives both extractors' supervised weight gradients before the
    adversarial part is subtracted from the shared rows: the reversal's
    factor -1 is folded into that subtraction, which is exact, since a - b
    is a + (-b) and a product or a sum of negated terms is the negated
    result. Every other operation is
    that of a layer-by-layer backward pass (affine, ReLU, reversal) in the
    same order, so the gradients are bit-identical to it;
    tests/reference_layers.py keeps that pass as the reference. numpy runs a
    stacked matmul one BLAS call per member, with that member's shapes, and
    sums each member's rows in the order of a lone batch, so every member's
    results are those of a group of one. The gradients with respect to the
    inputs are never formed.
    """
    M, n = y.shape
    S = config.shared_hidden
    shared, private = group.shared, group.privates[k]
    clf, disc = group.classifiers[k], group.discriminator

    Z = XX @ np.concatenate((shared.W, private.W), axis=1).swapaxes(1, 2)
    Z += np.concatenate((shared.b_rows, private.b_rows), axis=2)
    keep = relu_keep(Z)
    H = relu(Z)
    h = H[:, :n]
    loss_sup, dlogits = _xent(
        h @ clf.WT + clf.b_rows, y, group.row_starts(n, clf.b.shape[1])
    )
    np.matmul(dlogits.swapaxes(1, 2), h, out=grads.clf_W)
    np.add.reduce(dlogits, axis=1, out=grads.clf_b)
    dh = dlogits @ clf.W

    loss_diff = 0.0
    if config.lam_diff > 0:
        hs, hp = h[..., :S], h[..., S:]
        C = hs.swapaxes(1, 2) @ hp
        loss_diff = np.add.reduce(C * C, axis=(1, 2))
        dh[..., :S] += config.lam_diff * 2.0 * (hp @ C.swapaxes(1, 2))
        dh[..., S:] += config.lam_diff * 2.0 * (hs @ C)

    dZ = relu_backward_inplace(dh, keep[:, :n])
    np.matmul(dZ.swapaxes(1, 2), XX[:, :n], out=grads.ext_W)
    # one reduction of the whole dZ, then two copies: numpy would sum the
    # rows of a one-wide slice pairwise, not one by one as here
    ext_b = np.add.reduce(dZ, axis=1)
    grads.shared_b[...] = ext_b[:, :S]
    grads.private_b[...] = ext_b[:, S:]

    ha = H[:, n:, :S]
    loss_adv, dla = _xent(
        ha @ disc.WT + disc.b_rows, d_adv, group.row_starts(n, disc.b.shape[1])
    )
    dla *= config.lam_adv
    np.matmul(dla.swapaxes(1, 2), ha, out=grads.disc_W)
    np.add.reduce(dla, axis=1, out=grads.disc_b)
    # the reversal: the shared rows take the adversarial part with sign -1
    dZa = relu_backward_inplace(dla @ disc.W, keep[:, n:, :S])
    grads.shared_W -= dZa.swapaxes(1, 2) @ XX[:, n:]
    grads.shared_b -= np.add.reduce(dZa, axis=1)
    return loss_sup, loss_adv, loss_diff


def train_round(models, store, labeled, config, rngs):
    """One training round of a group of models, in lockstep.

    Model m trains on labeled[m], its per-domain labeled index lists, with
    batches from rngs[m]'s `batches` child, and takes exactly the steps it
    would take alone. Each step takes a supervised batch from one domain
    (round-robin) and an adversarial domain-id batch drawn uniformly from
    the union of all pools, gathers every member's rows with one index into
    the pooled inputs, runs one stacked training_step and applies plain SGD
    to the two stretches of the group's parameter buffer that the step
    touches (the others have zero gradient). The members share the first
    member's step schedule: the engine groups runs with equal labeled totals.

    A step's two batches are those of gen.choice(labeled set, B) and
    gen.choice(pool size, B) on the member's generator, with replacement
    only when the population is below B. choice_positions draws them for
    every member and step of an epoch at once, before the epoch starts.

    Returns, per model, its per-epoch mean losses, or the NonFiniteError of
    the first step whose losses or gradients were not finite. Such a model
    stays in the group, frozen: from that step on its gradient row is zeroed,
    so it keeps the parameters it had before that step, while the others
    train on, each bit for bit as without it. The call returns once every
    member has failed; the engine drops a failed run after the round.
    """
    K, B = config.num_domains, config.batch_size
    pool_X = np.concatenate([store[k].X for k in range(K)])
    pool_y = np.concatenate([store[k].y for k in range(K)])
    sizes = [store[k].X.shape[0] for k in range(K)]
    pool_domain = np.repeat(np.arange(K, dtype=np.int64), sizes)
    n_pool = pool_domain.shape[0]
    # every member's labeled rows of the pooled arrays, end to end: member
    # m's domain-k set starts at starts[m, k]
    offsets = np.cumsum([0] + sizes[:-1])
    labeled_rows = np.concatenate(
        [offsets[k] + sets[k] for sets in labeled for k in range(K)]
    )
    counts = np.array([[sets[k].size for k in range(K)] for sets in labeled])
    starts = (np.cumsum(counts.ravel()) - counts.ravel()).reshape(counts.shape)
    gens = [rng.child("batches").generator() for rng in rngs]
    steps_per_epoch = max(1, math.ceil(int(counts[0].sum()) / B))

    outcomes = [[] for _ in models]
    failed = np.zeros(len(models), dtype=bool)
    frozen = False  # whether any member has failed: only then are rows zeroed
    group = ModelGroup(models)
    grads = [StepGrads(group, d) for d in range(K)]
    step_counter = 0
    for _ in range(config.epochs_per_round):
        sums = np.zeros((4, len(models)))
        sum_sup, sum_adv, sum_diff, sum_total = sums
        # per member, the epoch's calls alternate supervised and adversarial
        domains = (step_counter + np.arange(steps_per_epoch)) % K
        pops = np.full((len(models), 2 * steps_per_epoch), n_pool)
        pops[:, 0::2] = counts[:, domains]
        positions = choice_positions(gens, pops, B)
        positions = positions.reshape(len(models), steps_per_epoch, 2 * B)
        sup = positions[..., :B]
        sup[...] = labeled_rows[starts[:, domains, None] + sup]
        # (steps, members, 2B): per step and member, B supervised rows over
        # B adversarial rows; and the labels and domain ids of those rows
        epoch_rows = np.ascontiguousarray(positions.transpose(1, 0, 2))
        epoch_y = pool_y[epoch_rows[..., :B]]
        epoch_d = pool_domain[epoch_rows[..., B:]]
        for s in range(steps_per_epoch):
            k = step_counter % K
            step_counter += 1
            g = grads[k]
            loss_sup, loss_adv, loss_diff = training_step(
                group, pool_X[epoch_rows[s]], epoch_y[s], k, epoch_d[s], config, g
            )
            total = (
                loss_sup
                + config.lam_adv * loss_adv
                + config.lam_diff * loss_diff
            )
            # a member's gradient sum is non-finite whenever any entry is,
            # and so is the sum over members whenever any member's is; a
            # finite member may still overflow that sum, so the members are
            # then tested one by one
            grad_sums = np.add.reduce(g.flat, axis=1)
            if not math.isfinite(np.add.reduce(total + grad_sums)):
                new = ~(np.isfinite(total) & np.isfinite(grad_sums) | failed)
                for j in np.flatnonzero(new).tolist():
                    if not math.isfinite(total[j]):
                        diff = loss_diff[j] if config.lam_diff > 0 else loss_diff
                        message = (
                            f"non-finite loss (sup={float(loss_sup[j])}, "
                            f"adv={float(loss_adv[j])}, diff={float(diff)}) "
                            f"at step {step_counter}"
                        )
                    else:
                        message = f"non-finite gradient at step {step_counter}"
                    outcomes[j] = NonFiniteError(message)
                failed |= new
                if failed.all():
                    return outcomes
                frozen = bool(failed.any())
            if frozen:
                # a zero gradient leaves a failed member's parameters as
                # they were before its failing step
                g.flat[failed] = 0.0
            g.flat *= config.lr
            for p, gp in g.updates:
                p -= gp
            sum_sup += loss_sup
            sum_adv += loss_adv
            sum_diff += loss_diff
            sum_total += total

        for m in np.flatnonzero(~failed).tolist():
            outcomes[m].append(
                EpochLog(*(float(v) for v in sums[:, m] / steps_per_epoch))
            )
    return outcomes
