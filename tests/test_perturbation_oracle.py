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
from mdalbench.strategies import ROW_BLOCK as B
from mdalbench.strategies import perturbation_score, perturbation_scores
from reference_perturbation import perturbation_score_row
from test_strategies import make_real_context

WIDTHS = (1, 3, 64)
# one row, then counts that end a block one row short, on its edge, one row
# past it and partway into a later block
ROWS = (1, 63, 64, 65, 131)


def test_row_counts_end_on_each_side_of_a_block_edge():
    assert {n % B for n in ROWS[1:4]} == {B - 1, 0, 1} and ROWS[-1] > 2 * B


@pytest.mark.parametrize("num_draws", [1, 20])
@pytest.mark.parametrize("n", ROWS)
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


@pytest.mark.parametrize("sigma", [0.01, 1e-310, 5e-324])
@pytest.mark.parametrize("n", ROWS)
def test_stacked_noise_is_generator_normal_row_by_row(n, sigma):
    # the scorer draws standard normals into one reused block and scales it
    # by sigma once; each row's noise must be that row's
    # Generator.normal(0, sigma) byte for byte, signed zeros included: at
    # the paper's 0.01, at 1e-310 where the products are subnormal, and at
    # 5e-324 where most of them underflow to a signed zero. The scores must
    # still be the one-row scores.
    X = np.random.default_rng(n).normal(size=(n, 5))
    rngs = [RngStream(n, f"oracle/{i}") for i in range(n)]
    for shared, classes in itertools.product(WIDTHS, (2, 4)):
        model = tiny_model(
            gen_seed=shared + classes, input_dim=5, shared=shared, private=3,
            classes=(classes, 2),
        )
        drawn = []
        perturbed_probs = model.perturbed_probs

        def recording(h, k, deltas):
            drawn.append(deltas.copy())
            return perturbed_probs(h, k, deltas)

        model.perturbed_probs = recording
        got = perturbation_score(model, X, 0, sigma, 20, rngs)
        del model.perturbed_probs
        noise = np.concatenate(drawn)
        for i in range(n):
            want = rngs[i].generator().normal(0.0, sigma, size=(20, shared))
            assert noise[i].tobytes() == want.tobytes(), (shared, classes, i)
        want = [perturbation_score_row(model, X[i], 0, sigma, 20, rngs[i]) for i in range(n)]
        assert got.tobytes() == np.array(want).tobytes(), (shared, classes)


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
