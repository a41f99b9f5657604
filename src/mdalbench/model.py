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
Training runs through training_step, one fused forward/backward pass that
runs both extractors through one stacked weight [W_shared; W_private_k] and
writes the gradients of the eight parameters a step touches into one flat
buffer per domain (StepGrads).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError, ValidationError
from .kernels import PROB_FLOOR, softmax_rows
from .nncore import Linear, relu


@dataclass
class ModelConfig:
    input_dim: int
    num_classes: tuple  # classes per domain, length = number of domains
    shared_hidden: int = 64
    private_hidden: int = 64
    lam_adv: float = 0.05
    lam_diff: float = 0.0
    lr: float = 0.01
    batch_size: int = 8
    epochs_per_round: int = 30

    def __post_init__(self):
        self.num_classes = tuple(int(c) for c in self.num_classes)
        if self.num_domains < 1:
            raise ValidationError("need at least one domain")
        if min(self.input_dim, self.shared_hidden, self.private_hidden) < 1:
            raise ValidationError("dimensions must be >= 1")
        if any(c < 2 for c in self.num_classes):
            raise ValidationError("every domain needs >= 2 classes")
        if self.lam_adv < 0 or self.lam_diff < 0:
            raise ValidationError("loss weights must be >= 0")
        if self.lr <= 0 or self.batch_size < 1 or self.epochs_per_round < 0:
            raise ValidationError("invalid training hyperparameters")

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


def _xent(logits, labels, rows):
    """Mean softmax cross-entropy and its logit gradient (probs - onehot) / n,
    built in the probability array itself. rows is np.arange(n)."""
    n = logits.shape[0]
    probs = softmax_rows(logits)
    picked = np.maximum(probs[rows, labels], PROB_FLOOR)
    loss = -(float(np.log(picked).sum()) / n)
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, probs


class StepGrads:
    """The gradients of the eight parameters a step on domain k touches, as
    views of one flat array.

    ext_W and ext_b hold the stacked extractor [shared; private_k]: the
    shared rows first, then the private rows. pairs lists (parameter array,
    gradient view) for shared W/b, private_k W/b, classifier_k W/b and
    discriminator W/b, in that order. training_step overwrites every entry.
    """

    def __init__(self, model, k):
        shared, private = model.shared, model.privates[k]
        clf, disc = model.classifiers[k], model.discriminator
        S = shared.W.shape[0]
        ext = S + private.W.shape[0]
        shapes = [
            (ext, shared.W.shape[1]), (ext,),
            clf.W.shape, clf.b.shape, disc.W.shape, disc.b.shape,
        ]
        self.flat = np.empty(sum(math.prod(s) for s in shapes))
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(self.flat[start : start + size].reshape(shape))
            start += size
        self.ext_W, self.ext_b, self.clf_W, self.clf_b, self.disc_W, self.disc_b = views
        self.pairs = [
            (shared.W, self.ext_W[:S]), (shared.b, self.ext_b[:S]),
            (private.W, self.ext_W[S:]), (private.b, self.ext_b[S:]),
            (clf.W, self.clf_W), (clf.b, self.clf_b),
            (disc.W, self.disc_W), (disc.b, self.disc_b),
        ]


def training_step(model, XX, y, k, d_adv, config, grads):
    """One step's losses, with the gradients written into grads.

    XX stacks the supervised batch (n = len(y) rows of domain k) over the
    adversarial batch (n rows with domain ids d_adv). Supervised
    cross-entropy through domain k's head, domain-id cross-entropy through
    the discriminator behind the reversal layer (scaled by lam_adv),
    optional shared/private orthogonality penalty. Reads the model's arrays
    and writes only grads, a StepGrads of domain k. Returns (loss_sup,
    loss_adv, loss_diff) with loss_adv the raw cross-entropy before
    weighting.

    One matmul through the stacked weight [W_shared; W_private_k] runs both
    extractors on all 2n rows; the supervised features h and the adversarial
    shared features are views of its ReLU, and the private features of the
    adversarial rows go unused. One dZ.T @ X gives both extractors'
    supervised weight gradients before the adversarial part is added onto
    the shared rows. Every other operation is that of a layer-by-layer
    backward pass (affine, ReLU, reversal) in the same order, so the
    gradients are bit-identical to it; tests/reference_layers.py keeps that
    pass as the reference. The gradients with respect to the inputs are
    never formed.
    """
    n = y.shape[0]
    S = config.shared_hidden
    shared, private = model.shared, model.privates[k]
    clf, disc = model.classifiers[k], model.discriminator
    rows = np.arange(n)

    Z = XX @ np.concatenate((shared.W, private.W)).T
    Z += np.concatenate((shared.b, private.b))
    H = relu(Z)
    h = H[:n]
    loss_sup, dlogits = _xent(h @ clf.W.T + clf.b, y, rows)
    np.matmul(dlogits.T, h, out=grads.clf_W)
    dlogits.sum(axis=0, out=grads.clf_b)
    dh = dlogits @ clf.W

    loss_diff = 0.0
    if config.lam_diff > 0:
        hs, hp = h[:, :S], h[:, S:]
        M = hs.T @ hp
        loss_diff = float((M * M).sum())
        dh[:, :S] += config.lam_diff * 2.0 * (hp @ M.T)
        dh[:, S:] += config.lam_diff * 2.0 * (hs @ M)

    dZ = np.where(Z[:n] > 0.0, dh, 0.0)
    np.matmul(dZ.T, XX[:n], out=grads.ext_W)
    dZ.sum(axis=0, out=grads.ext_b)

    ha = H[n:, :S]
    loss_adv, dla = _xent(ha @ disc.W.T + disc.b, d_adv, rows)
    dla *= config.lam_adv
    np.matmul(dla.T, ha, out=grads.disc_W)
    dla.sum(axis=0, out=grads.disc_b)
    dZa = np.where(Z[n:, :S] > 0.0, -1.0 * (dla @ disc.W), 0.0)
    grads.ext_W[:S] += dZa.T @ XX[n:]
    grads.ext_b[:S] += dZa.sum(axis=0)
    return loss_sup, loss_adv, loss_diff


def train_round(model, store, labeled, config, rng):
    """One training round over the current labeled sets.

    Each step takes a supervised batch from one domain (round-robin) and an
    adversarial domain-id batch drawn uniformly from the union of all pools,
    gathers both with one index into the pooled inputs, then applies plain
    SGD to the eight parameters the step touches (the others have zero
    gradient). Returns the per-epoch mean losses.
    """
    K, B = config.num_domains, config.batch_size
    labeled = [np.asarray(l, dtype=np.int64) for l in labeled]
    for k in range(K):
        if labeled[k].size == 0:
            raise ValidationError(f"domain {k} has no labeled samples")
        if store[k].X.shape[0] == 0:
            raise ValidationError(f"domain {k} pool is empty")

    pool_X = np.concatenate([store[k].X for k in range(K)])
    pool_y = np.concatenate([store[k].y for k in range(K)])
    sizes = [store[k].X.shape[0] for k in range(K)]
    pool_domain = np.repeat(np.arange(K, dtype=np.int64), sizes)
    n_pool = pool_domain.shape[0]
    # labeled rows of the pooled arrays; choice draws its positions from the
    # array's length alone, so the batches are those of the per-domain ids
    offsets = np.cumsum([0] + sizes[:-1])
    labeled = [offsets[k] + labeled[k] for k in range(K)]
    grads = [StepGrads(model, k) for k in range(K)]

    gen = rng.child("batches").generator()
    total_labeled = int(sum(l.size for l in labeled))
    steps_per_epoch = max(1, math.ceil(total_labeled / B))

    logs = []
    step_counter = 0
    for _ in range(config.epochs_per_round):
        sum_sup = sum_adv = sum_diff = sum_total = 0.0
        for _ in range(steps_per_epoch):
            k = step_counter % K
            step_counter += 1

            pool = labeled[k]
            take = gen.choice(pool, size=B, replace=pool.size < B)
            rows = gen.choice(n_pool, size=B, replace=n_pool < B)
            g = grads[k]
            loss_sup, loss_adv, loss_diff = training_step(
                model, pool_X[np.concatenate((take, rows))], pool_y[take], k,
                pool_domain[rows], config, g,
            )

            total = (
                loss_sup
                + config.lam_adv * loss_adv
                + config.lam_diff * loss_diff
            )
            if not math.isfinite(total):
                raise NonFiniteError(
                    f"non-finite loss (sup={loss_sup}, adv={loss_adv}, "
                    f"diff={loss_diff}) at step {step_counter}"
                )
            # the sum is non-finite whenever any entry is
            if not math.isfinite(g.flat.sum()):
                raise NonFiniteError(f"non-finite gradient at step {step_counter}")
            g.flat *= config.lr
            for p, gp in g.pairs:
                p -= gp
            sum_sup += loss_sup
            sum_adv += loss_adv
            sum_diff += loss_diff
            sum_total += total

        logs.append(EpochLog(
            sum_sup / steps_per_epoch, sum_adv / steps_per_epoch,
            sum_diff / steps_per_epoch, sum_total / steps_per_epoch,
        ))
    return logs
