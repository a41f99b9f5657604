import numpy as np
import pytest

from conftest import assert_grad_close, finite_difference
from mdalbench.errors import ValidationError
from mdalbench.kernels import kl_rows
from mdalbench import nncore
from mdalbench.nncore import Linear, RngStream, choice_positions, pcg64_states, relu
from reference_layers import (
    grad_reversal_backward,
    linear_backward,
    relu_backward,
    softmax_cross_entropy,
)


def kl(P, Q):
    return float(kl_rows(np.asarray([P], float), np.asarray([Q], float))[0])


# ----------------------------------------------------------------- rng stream


def test_rng_stream_replays_and_separates():
    a = RngStream(7, "init").generator().normal(size=5)
    b = RngStream(7, "init").generator().normal(size=5)
    c = RngStream(7, "shuffle").generator().normal(size=5)
    d = RngStream(8, "init").generator().normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_children_are_independent():
    root = RngStream(3)
    u = root.child("a").generator().normal(size=4)
    v = root.child("b").generator().normal(size=4)
    assert not np.array_equal(u, v)
    assert np.array_equal(u, RngStream(3, "root/a").generator().normal(size=4))


# Seeds on each side of the 32-bit word boundaries and of the 4-word pool:
# 2**128 + 5 has five words and is the one seed SeedSequence does not pad,
# so pcg64_states seeds its call through NumPy itself.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127, 2**128 + 5)
LABELS = ("", "root", "root" + "".join(f"/c{i}" for i in range(40)), "données/✓")


def assert_starts_like_generator(streams, states):
    assert len(states) == len(streams)
    gen = np.random.Generator(np.random.PCG64(0))
    for stream, state in zip(streams, states):
        want = stream.generator()
        assert state == want.bit_generator.state, stream
        gen.bit_generator.state = state
        assert np.array_equal(gen.normal(0.0, 0.3, size=(20, 64)),
                              want.normal(0.0, 0.3, size=(20, 64))), stream


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_states_equal_numpy_seeding(seed):
    streams = [RngStream(seed, label) for label in LABELS]
    assert_starts_like_generator(streams, pcg64_states(streams))


@pytest.mark.parametrize(
    "seeds, mirrored", [(SEEDS[:-1], True), (SEEDS, False)], ids=["mirror", "numpy"]
)
def test_pcg64_states_mix_seeds_in_one_call(seeds, mirrored, monkeypatch):
    # seeds below 2**128 are mixed together by the mirror, across the
    # 32-bit word boundaries; one larger seed sends the call to NumPy
    mixed = []
    pool = nncore._pool

    def recording(entropy):
        mixed.append(entropy.shape)
        return pool(entropy)

    monkeypatch.setattr(nncore, "_pool", recording)
    streams = [RngStream(seed, label) for label in LABELS for seed in seeds]
    assert_starts_like_generator(streams, pcg64_states(streams))
    assert mixed == ([(len(streams), 8)] if mirrored else [])


def test_pcg64_states_of_one_stream_and_of_none():
    stream = RngStream(11, "root/perturbation/0/7")
    assert_starts_like_generator([stream], pcg64_states([stream]))
    assert pcg64_states([]) == []


# ------------------------------------------------------------ batch positions


def choice_calls(gen, pops, B):
    """The reference: one Generator.choice call per population, in order."""
    return np.array(
        [gen.choice(p, size=B, replace=p < B) for p in pops], dtype=np.int64
    ).reshape(len(pops), B)


def assert_same_draws(gens, refs, pops, B, chunks=None):
    """choice_positions on gens, over the calls split at chunks, equals
    consecutive choice calls on refs; both end in the same state."""
    pops = np.asarray(pops, dtype=np.int64).reshape(len(gens), -1)
    cuts = [0, *(chunks or []), pops.shape[1]]
    got = np.concatenate(
        [choice_positions(gens, pops[:, a:b], B) for a, b in zip(cuts, cuts[1:])],
        axis=1,
    )
    for m, (gen, ref) in enumerate(zip(gens, refs)):
        assert np.array_equal(got[m], choice_calls(ref, pops[m], B))
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.integers(0, 1000, size=9), ref.integers(0, 1000, size=9))


def twin_generators(seed, held=False):
    """Two generators in one state; held leaves a 32-bit half-word pending."""
    pair = [np.random.default_rng(seed), np.random.default_rng(seed)]
    if held:
        for gen in pair:
            gen.integers(0, 7)
    return pair


# (populations, batch size): p > B, p == B, p < B with p == 1, NumPy's
# tail-shuffle branch (p > 10000 and B > p // 50), populations near 2**32
# where about a third of the draws reject, populations beyond 2**32 that
# take 64-bit draws, and all of them mixed. A member with a call of p < B or
# in the tail branch makes its calls with choice itself.
CHOICE_CASES = {
    "floyd": ([900, 1500, 17, 9, 270, 4000], 8),
    "p-equals-b": ([8, 8, 9, 8], 8),
    "replace": ([1, 2, 5, 7, 1, 3], 8),
    "unit-batch": ([1, 2, 900, 1, 3_000_000_000], 1),
    "tail-20000-500": ([20000, 900, 20000], 500),
    "tail-12000-300": ([12000, 12000, 300, 12001, 5], 300),
    "near-2**32": ([3_000_000_000, 4_294_967_295, 2**32, 3_100_000_017], 6),
    "beyond-2**32": ([2**32 + 1, 2**40 + 7, 900, 2**33, 6], 6),
    "mixed": ([3_000_000_001, 1, 8, 12000, 5, 900, 3_000_000_000, 2, 700], 5),
}


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 123456])
@pytest.mark.parametrize("case", sorted(CHOICE_CASES))
def test_choice_positions_equal_consecutive_choice_calls(case, seed, held):
    pops, B = CHOICE_CASES[case]
    gen, ref = twin_generators(seed, held)
    assert_same_draws([gen], [ref], [pops], B)


@pytest.mark.parametrize("chunks", [[1], [1, 2], [2, 3], [3]])
@pytest.mark.parametrize("held", [False, True])
def test_choice_positions_carry_a_half_word_across_chunks(chunks, held):
    """A Floyd call with p > B reads 2B - 1 words, an odd count, so a chunk
    ends in the middle of a raw word; the next chunk, or any other draw,
    starts from its unread half."""
    gen, ref = twin_generators(3, held)
    assert_same_draws([gen], [ref], [[900, 8, 901, 5]], 8, chunks)
    for a, b in zip(twin_generators(4, held), twin_generators(4, held)):
        choice_positions([a], [[900]], 8)
        b.choice(900, size=8, replace=False)
        assert a.random() == b.random()


def test_choice_positions_draw_every_member_from_its_own_generator():
    pops = [[90, 1500] * 20, [45, 1500] * 20, [7, 1500] * 20]
    gens = [np.random.default_rng(s) for s in (5, 6, 7)]
    refs = [np.random.default_rng(s) for s in (5, 6, 7)]
    gens[1].random(), refs[1].random()
    assert_same_draws(gens, refs, pops, 8, [11])


def generator_reading(raw, ahead, inc):
    """A PCG64 generator whose raw 64-bit draw number ahead is raw.

    PCG64 steps its 128-bit state (state * mult + inc) and outputs its high
    and low halves xor-ed, rotated right by the top 6 bits; the state raw
    (high half 0) outputs raw. Step back ahead + 1 times from there.
    """
    inverse = pow(nncore._PCG64_MULT, -1, 1 << 128)
    state = raw
    for _ in range(ahead + 1):
        state = (state - inc) * inverse & nncore._MASK128
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


@pytest.mark.parametrize("ahead", range(24))
def test_choice_positions_replay_a_rejected_word(ahead):
    """Output equal to NumPy's through rejected words. A zero word rejects
    in every range that is not a power of two. Put one zero raw word (two
    zero halves) at each position of the stream, so that rejections fall on
    Floyd draws and shuffle draws, in every call."""
    inc = np.random.default_rng(1).bit_generator.state["state"]["inc"]
    probe = generator_reading(0, ahead, inc)
    assert probe.bit_generator.random_raw(ahead + 1)[-1] == 0
    gen, ref = generator_reading(0, ahead, inc), generator_reading(0, ahead, inc)
    assert_same_draws([gen], [ref], [[900, 6, 7, 901, 6, 7, 900]], 6)


@pytest.mark.parametrize("held", [False, True])
def test_choice_positions_split_tail_members_from_bulk_members(held, monkeypatch):
    """A member with a call off Floyd's branch, a tail shuffle or a
    population below B (with replacement), makes its calls with choice
    itself, while the other members of the same call are drawn in bulk:
    _choice_bulk never sees a population below B."""
    handed = []
    bulk = nncore._choice_bulk

    def recording(gens, pops, B):
        handed.append(pops.tolist())
        return bulk(gens, pops, B)

    monkeypatch.setattr(nncore, "_choice_bulk", recording)
    pops = [[900, 12000, 900, 300], [900, 901, 300, 1500], [900, 5, 900, 1500],
            [3, 300, 12001, 1]]
    pairs = [twin_generators(seed, held) for seed in (8, 9, 10, 11)]
    gens, refs = zip(*pairs)
    assert_same_draws(list(gens), list(refs), pops, 300)
    assert handed == [[pops[1]]]


@pytest.mark.parametrize("held", [False, True])
def test_integers_over_a_bound_array_make_one_choice_draw_per_bound(held):
    """The premise of choice_positions: integers over an int64 array of
    upper bounds makes, per element, the draw a one-item choice makes."""
    bounds = [1, 2, 7, 900, 2**31 + 1, 2**32, 2**32 + 1, 2**40]
    for seed in range(20):
        gen, ref = twin_generators(seed, held)
        got = gen.integers(0, np.array(bounds, dtype=np.int64), dtype=np.int64)
        assert got.tolist() == [int(ref.choice(h, 1)[0]) for h in bounds]
        assert gen.bit_generator.state == ref.bit_generator.state


# --------------------------------------------------------------------- linear


def test_linear_identity_weights():
    lin = Linear(np.eye(2), np.zeros(2))
    Y = lin.forward([[3.0, 4.0]])
    assert np.array_equal(Y, [[3.0, 4.0]])


def test_linear_hand_product():
    lin = Linear(np.array([[1.0, 1.0]]), np.array([1.0]))
    Y = lin.forward([[2.0, 3.0]])
    assert np.array_equal(Y, [[6.0]])


def test_linear_zero_weights_pass_bias():
    lin = Linear(np.zeros((1, 4)), np.array([5.0]))
    Y = lin.forward([[1.0, -2.0, 3.5, 0.0]])
    assert np.array_equal(Y, [[5.0]])


def test_linear_backward_zero_upstream():
    lin = Linear(np.array([[2.0]]), np.zeros(1))
    dX, dW, db = linear_backward(lin, np.array([[3.0]]), np.zeros((1, 1)))
    assert np.array_equal(dX, [[0.0]])
    assert np.array_equal(dW, [[0.0]])
    assert np.array_equal(db, [0.0])


def test_linear_backward_scalar_chain_rule():
    lin = Linear(np.array([[2.0]]), np.zeros(1))
    dX, dW, _ = linear_backward(lin, np.array([[3.0]]), np.array([[1.0]]))
    assert np.array_equal(dW, [[3.0]])
    assert np.array_equal(dX, [[2.0]])


def test_linear_backward_matches_finite_differences(rng):
    for _ in range(5):
        n, d_in, d_out = rng.integers(1, 5, size=3)
        lin = Linear(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out))
        X = rng.normal(size=(n, d_in))
        R = rng.normal(size=(n, d_out))  # fixed probe direction

        def loss():
            return float((lin.forward(X) * R).sum())

        dX, dW, db = linear_backward(lin, X, R)
        assert_grad_close(dW, finite_difference(loss, lin.W))
        assert_grad_close(db, finite_difference(loss, lin.b))
        assert_grad_close(dX, finite_difference(loss, X))


# ----------------------------------------------------------------------- relu


def test_relu_forward_backward_hand_values():
    X = np.array([[-1.0, 2.0]])
    assert np.array_equal(relu(X), [[0.0, 2.0]])
    assert np.array_equal(relu_backward(X, np.array([[5.0, 5.0]])), [[0.0, 5.0]])


def test_relu_subgradient_zero_at_zero():
    assert relu_backward(np.array([[0.0]]), np.array([[7.0]]))[0, 0] == 0.0


def test_relu_finite_difference_away_from_zero(rng):
    X = rng.normal(size=(3, 4))
    X[np.abs(X) < 0.1] = 0.5  # keep away from the kink
    R = rng.normal(size=(3, 4))

    def loss():
        return float((relu(X) * R).sum())

    assert_grad_close(relu_backward(X, R), finite_difference(loss, X))


# -------------------------------------------------------- softmax cross entropy


def test_softmax_ce_symmetric_logits():
    loss, _, probs = softmax_cross_entropy(np.zeros((1, 2)), [0])
    assert probs[0] == pytest.approx([0.5, 0.5])
    assert loss == pytest.approx(np.log(2.0))


def test_softmax_ce_hand_value():
    loss, _, probs = softmax_cross_entropy(np.array([[np.log(3.0), 0.0]]), [0])
    assert probs[0, 0] == pytest.approx(0.75)
    assert loss == pytest.approx(-np.log(0.75))


def test_softmax_ce_label_out_of_range():
    with pytest.raises(ValidationError):
        softmax_cross_entropy(np.zeros((1, 3)), [3])


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(scale=5.0, size=(50, 7))
    _, _, probs = softmax_cross_entropy(logits, rng.integers(0, 7, size=50))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert (probs > 0).all() and (probs < 1).all()


def test_softmax_ce_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, dlogits, _ = softmax_cross_entropy(logits, labels)
        assert_grad_close(dlogits, finite_difference(loss, logits))


# ------------------------------------------------------------- grad reversal


def test_grad_reversal_sign_flip():
    g = np.array([[0.3, -0.7]])
    assert np.array_equal(grad_reversal_backward(g, 1.0), -g)


def test_grad_reversal_zero_lambda_blocks():
    assert np.array_equal(grad_reversal_backward(np.array([[9.0]]), 0.0), [[0.0]])


def test_grad_reversal_scaling():
    out = grad_reversal_backward(np.array([[2.0, -4.0]]), 0.5)
    assert np.array_equal(out, [[-1.0, 2.0]])


def test_grad_reversal_rejects_negative_lambda():
    with pytest.raises(ValidationError):
        grad_reversal_backward(np.zeros((1, 1)), -0.1)


def test_grad_reversal_in_two_layer_net_matches_flipped_fd(rng):
    # lin2(grl(lin1(X))) -> CE; params below the reversal get -lam times
    # the finite-difference gradient of the plain loss
    lam = 0.7
    lin1 = Linear(rng.normal(size=(3, 2)), rng.normal(size=3))
    lin2 = Linear(rng.normal(size=(2, 3)), rng.normal(size=2))
    X = rng.normal(size=(4, 2))
    y = rng.integers(0, 2, size=4)

    def loss():
        return softmax_cross_entropy(lin2.forward(lin1.forward(X)), y)[0]

    h = lin1.forward(X)
    _, dlogits, _ = softmax_cross_entropy(lin2.forward(h), y)
    drev, dW2, _ = linear_backward(lin2, h, dlogits)
    _, dW1, db1 = linear_backward(lin1, X, grad_reversal_backward(drev, lam))

    assert_grad_close(dW2, finite_difference(loss, lin2.W))
    assert_grad_close(dW1, -lam * finite_difference(loss, lin1.W))
    assert_grad_close(db1, -lam * finite_difference(loss, lin1.b))


# --------------------------------------------------------------- kl divergence


def test_kl_identical_is_exactly_zero():
    assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_hand_values():
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-9)
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)


def test_kl_nonnegative_and_self_zero_on_random_pairs(rng):
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        p = rng.random(c) + 1e-9
        q = rng.random(c) + 1e-9
        p /= p.sum()
        q /= q.sum()
        assert kl(p, q) >= 0.0
        assert kl(p, p) == 0.0
