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
Training runs a group of models in lockstep (ModelGroup: each parameter of
the models stacked along a new first axis) through training_step, one fused
forward/backward pass that runs both extractors through one stacked weight
[W_shared; W_private_k] and writes the gradients of the eight parameters a
step touches into one (models, F) buffer per domain (StepGrads). A single
model trains as a group of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError, ValidationError
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
        if not 0 <= k < self.config.num_domains:
            raise ValidationError(
                f"domain id {k} out of range [0, {self.config.num_domains})"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim < 2 or X.shape[-1] != self.config.input_dim:
            raise ShapeError(
                f"input shape {X.shape} incompatible with input_dim "
                f"{self.config.input_dim}"
            )
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
    if len(test_sets) != model.config.num_domains:
        raise ValidationError(
            f"got {len(test_sets)} test sets for "
            f"{model.config.num_domains} domains"
        )
    accs = []
    for k, (X, y) in enumerate(test_sets):
        y = np.asarray(y, dtype=np.int64)
        if y.size == 0:
            raise ValidationError(f"test set for domain {k} is empty")
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


def _xent(logits, labels, at):
    """Per-member mean softmax cross-entropy of (M, n, c) logits and its
    logit gradient (probs - onehot) / n, built in the probability array
    itself. at is (members, rows), the index of each member's rows."""
    n = logits.shape[1]
    probs = softmax_rows(logits)
    at = (*at, labels)
    picked = np.maximum(probs[at], PROB_FLOOR)
    loss = -(np.log(picked).sum(axis=1) / n)
    probs[at] -= 1.0
    probs /= n
    return loss, probs


@dataclass
class LayerStack:
    """The weights (M, out, in) and biases (M, out) of one layer of M models."""

    W: np.ndarray
    b: np.ndarray


def _stack_layer(linears):
    """The LayerStack of linears; each of them then holds views of it."""
    stack = LayerStack(np.stack([lin.W for lin in linears]),
                       np.stack([lin.b for lin in linears]))
    for m, lin in enumerate(linears):
        lin.W, lin.b = stack.W[m], stack.b[m]
    return stack


class ModelGroup:
    """M models of one config whose parameters live in stacked (M, ...)
    arrays, with the layer names of AspMtlModel.

    Each model's Linears hold views of the stacks (slice m is model m's
    layer), so a step that updates a stack updates every model, and each
    model still reads as it did alone.
    """

    def __init__(self, models):
        K = models[0].config.num_domains
        self.shared = _stack_layer([m.shared for m in models])
        self.privates = [
            _stack_layer([m.privates[k] for m in models]) for k in range(K)
        ]
        self.classifiers = [
            _stack_layer([m.classifiers[k] for m in models]) for k in range(K)
        ]
        self.discriminator = _stack_layer([m.discriminator for m in models])


class StepGrads:
    """The gradients of the eight parameters a step on domain k touches, for
    every member of a group, as views of one (M, F) array: row m holds
    member m's gradients.

    ext_W and ext_b hold the stacked extractor [shared; private_k]: the
    shared rows first, then the private rows. pairs lists (stacked
    parameter, gradient view) for shared W/b, private_k W/b, classifier_k
    W/b and discriminator W/b, in that order. training_step overwrites every
    entry.
    """

    def __init__(self, group, k):
        shared, private = group.shared, group.privates[k]
        clf, disc = group.classifiers[k], group.discriminator
        M, S, input_dim = shared.W.shape
        ext = S + private.W.shape[1]
        shapes = [
            (ext, input_dim), (ext,),
            clf.W.shape[1:], clf.b.shape[1:], disc.W.shape[1:], disc.b.shape[1:],
        ]
        self.flat = np.empty((M, sum(math.prod(s) for s in shapes)))
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(self.flat[:, start : start + size].reshape(M, *shape))
            start += size
        self.ext_W, self.ext_b, self.clf_W, self.clf_b, self.disc_W, self.disc_b = views
        self.pairs = [
            (shared.W, self.ext_W[:, :S]), (shared.b, self.ext_b[:, :S]),
            (private.W, self.ext_W[:, S:]), (private.b, self.ext_b[:, S:]),
            (clf.W, self.clf_W), (clf.b, self.clf_b),
            (disc.W, self.disc_W), (disc.b, self.disc_b),
        ]


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
    shared features are views of its ReLU, and the private features of the
    adversarial rows go unused. One dZ.T @ X gives both extractors'
    supervised weight gradients before the adversarial part is added onto
    the shared rows. Every other operation is that of a layer-by-layer
    backward pass (affine, ReLU, reversal) in the same order, so the
    gradients are bit-identical to it; tests/reference_layers.py keeps that
    pass as the reference. numpy runs a stacked matmul one BLAS call per
    member, with that member's shapes, and sums each member's rows in the
    order of a lone batch, so every member's results are those of a group
    of one. The gradients with respect to the inputs are never formed.
    """
    M, n = y.shape
    S = config.shared_hidden
    shared, private = group.shared, group.privates[k]
    clf, disc = group.classifiers[k], group.discriminator
    at = (np.arange(M)[:, None], np.arange(n))

    Z = XX @ np.concatenate((shared.W, private.W), axis=1).swapaxes(1, 2)
    Z += np.concatenate((shared.b, private.b), axis=1)[:, None]
    H = relu(Z)
    h = H[:, :n]
    loss_sup, dlogits = _xent(h @ clf.W.swapaxes(1, 2) + clf.b[:, None], y, at)
    np.matmul(dlogits.swapaxes(1, 2), h, out=grads.clf_W)
    dlogits.sum(axis=1, out=grads.clf_b)
    dh = dlogits @ clf.W

    loss_diff = 0.0
    if config.lam_diff > 0:
        hs, hp = h[..., :S], h[..., S:]
        C = hs.swapaxes(1, 2) @ hp
        loss_diff = (C * C).sum(axis=(1, 2))
        dh[..., :S] += config.lam_diff * 2.0 * (hp @ C.swapaxes(1, 2))
        dh[..., S:] += config.lam_diff * 2.0 * (hs @ C)

    dZ = np.where(Z[:, :n] > 0.0, dh, 0.0)
    np.matmul(dZ.swapaxes(1, 2), XX[:, :n], out=grads.ext_W)
    dZ.sum(axis=1, out=grads.ext_b)

    ha = H[:, n:, :S]
    loss_adv, dla = _xent(ha @ disc.W.swapaxes(1, 2) + disc.b[:, None], d_adv, at)
    dla *= config.lam_adv
    np.matmul(dla.swapaxes(1, 2), ha, out=grads.disc_W)
    dla.sum(axis=1, out=grads.disc_b)
    dZa = np.where(Z[:, n:, :S] > 0.0, -1.0 * (dla @ disc.W), 0.0)
    grads.ext_W[:, :S] += dZa.swapaxes(1, 2) @ XX[:, n:]
    grads.ext_b[:, :S] += dZa.sum(axis=1)
    return loss_sup, loss_adv, loss_diff


def train_round(models, store, labeled, config, rngs):
    """One training round of a group of models, in lockstep.

    Model m trains on labeled[m], its per-domain labeled index lists, with
    batches from rngs[m]'s `batches` child, and takes exactly the steps it
    would take alone. Each step takes a supervised batch from one domain
    (round-robin) and an adversarial domain-id batch drawn uniformly from
    the union of all pools, gathers every member's rows with one index into
    the pooled inputs, runs one stacked training_step and applies plain SGD
    to the eight parameters the step touches (the others have zero
    gradient). The members share one step schedule, so their labeled
    totals must be equal.

    A step's two batches are those of gen.choice(labeled set, B) and
    gen.choice(pool size, B) on the member's generator, with replacement
    only when the population is below B. choice_positions draws them for
    every member and step of an epoch at once, before the epoch starts.

    Returns, per model, its per-epoch mean losses, or the NonFiniteError of
    the step whose losses or gradients were not finite. Such a model keeps
    the parameters it had before that step and leaves the group; the others
    train on.
    """
    K, B = config.num_domains, config.batch_size
    for k in range(K):
        if store[k].X.shape[0] == 0:
            raise ValidationError(f"domain {k} pool is empty")
    labeled = [[np.asarray(l, dtype=np.int64) for l in sets] for sets in labeled]
    for sets in labeled:
        for k in range(K):
            if sets[k].size == 0:
                raise ValidationError(f"domain {k} has no labeled samples")
    totals = {int(sum(l.size for l in sets)) for sets in labeled}
    if len(totals) > 1:
        raise ValidationError(
            f"a group needs equal labeled totals, got {sorted(totals)}"
        )
    if not models:
        return []

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
    steps_per_epoch = max(1, math.ceil(totals.pop() / B))

    outcomes = [[] for _ in models]
    live = list(range(len(models)))  # members still training, in order
    group = ModelGroup(models)
    grads = [StepGrads(group, d) for d in range(K)]
    step_counter = 0
    for _ in range(config.epochs_per_round):
        sums = np.zeros((4, len(live)))
        # per member, the epoch's calls alternate supervised and adversarial
        domains = (step_counter + np.arange(steps_per_epoch)) % K
        pops = np.full((len(live), 2 * steps_per_epoch), n_pool)
        pops[:, 0::2] = counts[live][:, domains]
        positions = choice_positions([gens[m] for m in live], pops, B)
        positions = positions.reshape(len(live), steps_per_epoch, 2 * B)
        sup = positions[..., :B]
        sup[...] = labeled_rows[starts[live][:, domains, None] + sup]
        # (steps, members, 2B): per step and member, B supervised rows over
        # B adversarial rows
        epoch_rows = np.ascontiguousarray(positions.transpose(1, 0, 2))
        for s in range(steps_per_epoch):
            rows = epoch_rows[s]
            k = step_counter % K
            step_counter += 1
            g = grads[k]
            loss_sup, loss_adv, loss_diff = training_step(
                group, pool_X[rows], pool_y[rows[:, :B]], k,
                pool_domain[rows[:, B:]], config, g,
            )
            total = (
                loss_sup
                + config.lam_adv * loss_adv
                + config.lam_diff * loss_diff
            )
            # a member's gradient sum is non-finite whenever any entry is
            grad_sums = g.flat.sum(axis=1)
            finite = np.isfinite(total) & np.isfinite(grad_sums)
            failed = [] if finite.all() else np.flatnonzero(~finite).tolist()
            for j in failed:
                if not math.isfinite(total[j]):
                    diff = loss_diff[j] if config.lam_diff > 0 else loss_diff
                    message = (
                        f"non-finite loss (sup={float(loss_sup[j])}, "
                        f"adv={float(loss_adv[j])}, diff={float(diff)}) "
                        f"at step {step_counter}"
                    )
                else:
                    message = f"non-finite gradient at step {step_counter}"
                outcomes[live[j]] = NonFiniteError(message)
                # a zero gradient leaves the failed member's parameters as
                # they were before this step
                g.flat[j] = 0.0
            g.flat *= config.lr
            for p, gp in g.pairs:
                p -= gp
            sums[0] += loss_sup
            sums[1] += loss_adv
            sums[2] += loss_diff
            sums[3] += total
            if failed:
                keep = finite.nonzero()[0]
                live = [live[j] for j in keep]
                if not live:
                    return outcomes
                sums = sums[:, keep]
                epoch_rows = epoch_rows[:, keep]
                group = ModelGroup([models[m] for m in live])
                grads = [StepGrads(group, d) for d in range(K)]

        for j, m in enumerate(live):
            outcomes[m].append(
                EpochLog(*(float(v) for v in sums[:, j] / steps_per_epoch))
            )
    return outcomes
