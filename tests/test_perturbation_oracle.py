"""The stacked perturbation scorer against the one-row scorer.

strategies.perturbation_score reads the model once per block of rows, as a
(b, 1, input_dim) stack; reference_perturbation.py scores one row at a
time on 2-D batches of one. Each row keeps its own random stream, and numpy
runs a stacked matmul slice by slice with each slice's own BLAS call, so
the scores must be equal bit for bit, with no tolerance.
"""

import itertools

import numpy as np
import pytest

from conftest import tiny_model
from mdalbench.nncore import RngStream
from mdalbench.strategies import _PERTURBATION_BLOCK as B
from mdalbench.strategies import perturbation_score, perturbation_scores
from reference_perturbation import perturbation_score_row
from test_strategies import make_real_context

WIDTHS = (1, 3, 64)


@pytest.mark.parametrize("num_draws", [1, 20])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
def test_stacked_scores_equal_one_row_scores(n, num_draws):
    X = np.random.default_rng(n + 100 * num_draws).normal(size=(n, 5))
    rngs = [RngStream(n, f"oracle/{i}") for i in range(n)]
    for shared, private, classes in itertools.product(WIDTHS, WIDTHS, (2, 3, 4)):
        model = tiny_model(
            gen_seed=shared + private + classes, input_dim=5, shared=shared,
            private=private, classes=(classes, 2),
        )
        for k in (0, 1):
            got = perturbation_score(model, X, k, 0.3, num_draws, rngs)
            want = np.array([
                perturbation_score_row(model, X[i], k, 0.3, num_draws, rngs[i])
                for i in range(n)
            ])
            assert np.array_equal(got, want), (shared, private, classes, k)


def test_perturbation_scores_use_one_stream_per_item():
    ctx = make_real_context(70, budget=1, n_per=12)
    for k in range(ctx.num_domains):
        want = [
            perturbation_score_row(
                ctx.model, ctx.store[k].X[i], k, ctx.sigma,
                ctx.num_perturbations, ctx.rng.child(f"perturbation/{k}/{i}"),
            )
            for i in ctx.unlabeled[k].tolist()
        ]
        assert np.array_equal(perturbation_scores(ctx, k), want)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("d_in, d_out", [(1, 1), (5, 1), (1, 4), (20, 64), (128, 4)])
def test_stacked_matmul_repeats_each_slice_call(d_in, d_out, rows):
    # The premise of the stacked scorer: numpy calls BLAS once per 2-D slice
    # of a stack, with that slice's shape, so an (n, 1, d) stack computes
    # each row as a batch of one would (gemv, or dot at width 1) and an
    # (n, T, d) stack each slice as a 2-D gemm. A numpy or BLAS that handled
    # stacks another way would move the selections; it fails here first.
    gen = np.random.default_rng(d_in * 1000 + d_out)
    W = gen.normal(size=(d_out, d_in))
    X = gen.normal(size=(7, rows, d_in))
    stacked = X @ W.T
    for i in range(7):
        assert stacked[i].tobytes() == (X[i] @ W.T).tobytes()
    if rows == 1:
        flat = X[:, 0, :]
        assert (flat[:, None, :] @ W.T)[:, 0].tobytes() == b"".join(
            (x[None, :] @ W.T).tobytes() for x in flat
        )


@pytest.mark.parametrize("M", [1, 3])
def test_negated_operand_negates_stacked_matmul_and_row_sums(M):
    # The premise of the training step's folded reversal: it subtracts
    # dZa.T @ X and the row sums of dZa where the layers add those of -dZa.
    # A product or a sum of negated terms is the negated result, byte for
    # byte, at the step's stacked shape (M, 64, 8) @ (M, 8, 20) with the
    # left operand a transposed view; a numpy or BLAS that broke this would
    # move every trained model, and fails here first.
    gen = np.random.default_rng(M)
    A = gen.normal(size=(M, 8, 64)).swapaxes(1, 2)
    X = gen.normal(size=(M, 8, 20))
    assert ((-A) @ X).tobytes() == (-(A @ X)).tobytes()
    rows = A.swapaxes(1, 2)
    sums = np.add.reduce(rows, axis=1)
    assert np.add.reduce(-rows, axis=1).tobytes() == (-sums).tobytes()
