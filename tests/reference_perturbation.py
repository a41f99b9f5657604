"""The one-row perturbation scorer that strategies.perturbation_score stacks.

perturbation_score_row scores a single sample the way the scorer did before
it took whole blocks of rows: one 2-D read of the model on x[None, :], a
(T, classes) base prediction repeated from it, and the mean of T row KLs.
The stacked scorer must reproduce it bit for bit.
"""

import numpy as np

from mdalbench.errors import ValidationError
from mdalbench.kernels import kl_rows
from mdalbench.nncore import RngStream


def perturbation_score_row(model, x, k, sigma, num_draws, rng):
    """Mean KL(original || perturbed) over Gaussian shared-feature noise of
    the 1-D sample x, drawing (num_draws, shared_hidden) noise from rng."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if num_draws < 1:
        raise ValidationError(f"need >= 1 perturbation draws, got {num_draws}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    deltas = gen.normal(0.0, sigma, size=(num_draws, model.config.shared_hidden))
    h = model.penultimate_features(x[None, :], k)
    base = np.repeat(model.classify(h, k), num_draws, axis=0)
    return float(kl_rows(base, model.perturbed_probs(h, k, deltas)).mean())
