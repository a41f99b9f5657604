"""Deterministic random streams and the dense layer of the model.

pcg64_states seeds many streams at once, for the perturbation scorer's one
stream per row; a single stream is seeded by its own generator().
choice_positions makes many Generator.choice calls at once, for a training
epoch's batches: NumPy draws the integers and it computes the picks. It
relies on choice's layout, Floyd's sampler and then a shuffle, and on
Generator.integers making one random_bounded_uint64 draw per element of an
int64 array of upper bounds. Each mirror covers the one path the program
takes: seeds below 2**128, and calls without replacement or a tail shuffle.
Any other input goes to NumPy itself.

Everything is float64. A Linear holds its weight and bias as plain arrays
and its forward pass keeps no cache: training runs through the fused step in
``model.training_step``, which stacks the shared and private weights per
step, writes the gradients into a flat buffer of its own and updates these
arrays in place. The layer-by-layer backward pass it reproduces lives in the
tests as the reference it is checked against.
"""

import hashlib

import numpy as np


def _label_digest(label):
    """The 16 bytes of a label's sha256 that key its stream: read as four
    little-endian 32-bit words, they are the SeedSequence's spawn key."""
    return hashlib.sha256(label.encode("utf-8")).digest()[:16]


class RngStream:
    """Deterministic random stream keyed by (seed, label).

    Identical (seed, label) pairs replay the same draws; distinct labels give
    independent streams. Children extend the label path, so any consumer can
    derive its own stream without coordinating with others.
    """

    def __init__(self, seed, label="root"):
        self.seed = int(seed)
        self.label = label

    def child(self, label):
        return RngStream(self.seed, f"{self.label}/{label}")

    def generator(self):
        """A Generator at the start of this stream.

        One stream is seeded through NumPy's own SeedSequence: 20-30 µs on
        a 2-vCPU x86 box. pcg64_states derives the same state for many
        streams at once, 3-5 µs a stream at 300, but it costs about 180 µs
        for a single one, and a grid seeds a few hundred single streams
        (initial splits, model init, batches, k-Means, badge and random).
        """
        words = np.frombuffer(_label_digest(self.label), "<u4").tolist()
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=words)
        return np.random.default_rng(seq)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, label={self.label!r})"


# SeedSequence's hash constants and PCG64's multiplier. NumPy keeps both
# seeding algorithms fixed under its stream-compatibility policy (NEP 19);
# tests/test_nncore.py checks pcg64_states against NumPy itself.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init, mult, count):
    """count + 1 successive hash constants as uint32: init, init * mult, ..."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value, consts):
    """SeedSequence's hashmix of value against consts[:-1], each step
    multiplying by the next constant; value broadcasts over the steps."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _pool(entropy):
    """SeedSequence.mix_entropy for every row of the (n, 8) uint32 entropy
    (4 seed words, then 4 spawn-key words) into an (n, 4) pool.

    Each hashmix call takes the next hash constant. Within one source word
    the destinations are independent, so they are mixed together with
    consecutive constants.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, 32)
    pool = _hashmix(entropy[:, :4], consts[:5])
    c = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[:, src, None], consts[c : c + 4])
        pool[:, dst] = _mix(pool[:, dst], mixed)
        c += 3
    for src in range(4, 8):
        pool = _mix(pool, _hashmix(entropy[:, src, None], consts[c : c + 5]))
        c += 4
    return pool


def pcg64_states(streams):
    """The PCG64 state that each stream's generator() starts from, as the
    dict bit_generator.state takes, computed for all streams at once.

    Streams may have different seeds. SeedSequence pads a seed below 2**128
    to 4 words, which the mirror takes; a call holding a larger seed, which
    no workload has, seeds every stream through NumPy itself.
    """
    if any(s.seed >> 128 for s in streams):
        return [s.generator().bit_generator.state for s in streams]
    entropy = b"".join(
        s.seed.to_bytes(16, "little") + _label_digest(s.label) for s in streams
    )
    pools = _pool(np.frombuffer(entropy, dtype="<u4").reshape(len(streams), 8))
    # generate_state(4, uint64): 8 words cycled from the pool, paired low
    # word first into (seed high, seed low, inc high, inc low).
    words = _hashmix(np.tile(pools, 2), _hash_consts(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    halves = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in halves.tolist():
        # pcg64_srandom_r: state = ((inc + seed) * mult + inc) mod 2**128.
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        state = (((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT) + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


# Generator.choice(p, B, replace=p < B) without probabilities, as the
# installed NumPy implements it: B draws in [0, p) when p < B; NumPy's
# shuffle of the last B of range(p) when p > 10000 and B > p // 50; else
# Floyd's sampler, B draws in [0, p - B + i], then a shuffle of the B picks,
# draws in [0, i] for i = B - 1, ..., 1. Only the last branch is mirrored.
# Each of its draws is one random_bounded_uint64 call, which
# Generator.integers also makes for each element of an int64 array of upper
# bounds, in order; an upper bound of 1 reads nothing and yields 0. So NumPy
# makes every draw here, and only the picks are encoded. NEP 19 freezes
# neither algorithm; tests/test_nncore.py checks both against the installed
# NumPy.
_TAIL_MIN_POP, _TAIL_DIVISOR = 10000, 50


def _choice_bulk(gens, pops, B):
    """The (members, calls, B) positions of every member's calls, all of
    which take Floyd's branch: B <= p, and no tail shuffle.

    Each call has 2B - 1 draws in stream order: Floyd's B, then the
    shuffle's B - 1. Each member draws its (calls, 2B - 1) table of upper
    bounds in one integers call. Column c of the draw table t lists call
    c's draws; calls run along the last axis, so every operation below
    reads whole rows.
    """
    M, C = pops.shape
    p = pops.ravel()
    i = np.arange(B)[:, None]
    bounds = np.empty((M * C, 2 * B - 1), dtype=np.int64)
    bounds[:, :B] = (p - B + 1 + i).T
    bounds[:, B:] = np.arange(B, 1, -1)
    draws = [
        gen.integers(0, b, dtype=np.int64)
        for gen, b in zip(gens, bounds.reshape(M, -1))
    ]
    t = np.concatenate(draws).reshape(M * C, -1).T.copy()
    low = p - B
    cols = np.arange(M * C)

    # Floyd's pick i is t_i unless t_i is already picked, then it is j_i =
    # low + i. The picks before i hold every t before i, and j_i' for each
    # earlier duplicate i', so t_i is a duplicate when it equals an earlier
    # t, or when it is j_i' of a duplicate i' < i: a chain back through
    # i' = t_i - low, followed by pointer doubling.
    dup = np.zeros((B, M * C), dtype=bool)
    for d in range(1, B):
        dup[d:] |= t[d:B] == t[: B - d]
    back = t[:B] - low
    ptr = (np.where((back >= 0) & (back < i), back, i) * (M * C) + cols).ravel()
    dup = dup.ravel()
    for _ in range((B - 1).bit_length()):
        dup |= dup[ptr]
        ptr = ptr[ptr]
    picks = np.where(dup.reshape(B, -1), low + i, t[:B])

    # the shuffle swaps position i with r_i for i = B - 1, ..., 1
    flat = picks.ravel()
    for draw, pos in enumerate(range(B - 1, 0, -1), start=B):
        at = t[draw] * (M * C) + cols
        row = picks[pos].copy()
        picks[pos] = flat[at]
        flat[at] = row
    return picks.T.reshape(M, C, B)


def choice_positions(gens, pops, B):
    """Row m of the (members, calls, B) int64 result holds the positions of
    [gens[m].choice(p, B, replace=p < B) for p in pops[m]], and each
    generator ends where those calls leave it.

    NumPy draws every member's integers (_choice_bulk), and the picks of all
    members' calls are computed together. A member with any call off
    Floyd's branch, a population below B (with replacement) or a tail
    shuffle, makes its calls with Generator.choice itself; no workload has
    one. B >= 1, pops has one row per generator and every population is
    >= 1, as train_round guarantees.
    """
    pops = np.asarray(pops, dtype=np.int64)
    out = np.empty((*pops.shape, B), dtype=np.int64)
    tail = (pops > _TAIL_MIN_POP) & (B > pops // _TAIL_DIVISOR)
    off = ((pops < B) | tail).any(1)
    for m in np.flatnonzero(off):
        out[m] = [gens[m].choice(p, size=B, replace=p < B) for p in pops[m].tolist()]
    bulk = np.flatnonzero(~off)
    if bulk.size:
        out[bulk] = _choice_bulk([gens[m] for m in bulk], pops[bulk], B)
    return out


def glorot_uniform(out_dim, in_dim, gen):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return gen.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Affine map Y = X W^T + b with W of shape (out_dim, in_dim); rows may
    be stacked along leading axes of X."""

    def __init__(self, W, b):
        self.W, self.b = W, b

    @classmethod
    def init(cls, in_dim, out_dim, gen):
        return cls(glorot_uniform(out_dim, in_dim, gen), np.zeros(out_dim))

    def forward(self, X):
        return X @ self.W.T + self.b


def relu(X):
    return np.maximum(0.0, X)
