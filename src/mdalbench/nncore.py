"""Deterministic random streams and the dense layer of the model.

pcg64_states seeds many streams at once, for the perturbation scorer's one
stream per row; a single stream is seeded by its own generator().
choice_positions draws many Generator.choice batches at once, for a
training epoch's batches.

Everything is float64. A Linear holds its weight and bias as plain arrays
and its forward pass keeps no cache: training runs through the fused step in
``model.training_step``, which stacks the shared and private weights per
step, writes the gradients into a flat buffer of its own and updates these
arrays in place. The layer-by-layer backward pass it reproduces lives in the
tests as the reference it is checked against.
"""

import hashlib

import numpy as np

from .errors import ShapeError


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
        digest = _label_digest(self.label)
        words = tuple(
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        )
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


def _seed_words(seed):
    """The seed as SeedSequence assembles it before a spawn key: its 32-bit
    words, least significant first, zero-padded to the pool size of 4."""
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    return words + [0] * (4 - len(words))


def _pool(entropy):
    """SeedSequence.mix_entropy for every row of the (n, L) uint32 entropy,
    L >= 8, into an (n, 4) pool.

    Each hashmix call takes the next hash constant, so the constants depend
    only on L. Within one source word the destinations are independent, so
    they are mixed together with consecutive constants.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (entropy.shape[1] - 4))
    pool = _hashmix(entropy[:, :4], consts[:5])
    c = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[:, src, None], consts[c : c + 4])
        pool[:, dst] = _mix(pool[:, dst], mixed)
        c += 3
    for src in range(4, entropy.shape[1]):
        pool = _mix(pool, _hashmix(entropy[:, src, None], consts[c : c + 5]))
        c += 4
    return pool


def pcg64_states(streams):
    """The PCG64 state that each stream's generator() starts from, as the
    dict bit_generator.state takes, computed for all streams at once.

    Streams may have different seeds. Seeds below 2**128 pad to 4 words;
    larger ones do not, so rows are mixed in groups of one entropy length.
    """
    n = len(streams)
    labels = np.frombuffer(
        b"".join(_label_digest(s.label) for s in streams), dtype="<u4"
    ).reshape(n, 4)
    seed_words = {seed: _seed_words(seed) for seed in {s.seed for s in streams}}
    groups = {}
    for i, s in enumerate(streams):
        groups.setdefault(len(seed_words[s.seed]), []).append(i)
    pools = np.empty((n, 4), dtype=np.uint32)
    for rows in groups.values():
        seeds = np.array([seed_words[streams[i].seed] for i in rows], dtype=np.uint32)
        pools[rows] = _pool(np.concatenate([seeds, labels[rows]], axis=1))
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
# installed NumPy implements it: Floyd's sampler for p >= B, then a shuffle
# of the B picks; NumPy's shuffle of the last B of range(p) when p > 10000
# and B > p // 50; B bounded integers when p < B. Every draw in [0, r)
# takes Lemire's bounded method on one 32-bit word (none when r == 1), and
# redraws on a rejection, which has a chance of (2**32 mod r) / 2**32.
# NEP 19 does not freeze this algorithm; tests/test_nncore.py checks
# choice_positions against the installed NumPy.
_TAIL_MIN_POP, _TAIL_DIVISOR = 10000, 50
_LOW32 = np.uint64(0xFFFFFFFF)


class _Words:
    """A Generator's 32-bit draws (next_uint32): the half-word its bit
    generator holds over, if any, then each raw 64-bit word low half first.

    Words are drawn only when read, so the stream never runs ahead; close()
    hands a half-word left unread back to the generator.
    """

    def __init__(self, gen):
        self.bit_generator = gen.bit_generator
        self.state = self.bit_generator.state
        held = [self.state["uinteger"]] if self.state["has_uint32"] else []
        self.buf = np.array(held, dtype=np.uint32)
        self.pos = 0

    def take(self, n):
        """The next n words, as uint32."""
        short = self.pos + n - self.buf.size
        if short > 0:
            raw = self.bit_generator.random_raw((short + 1) // 2)
            halves = raw.astype("<u8", copy=False).view("<u4")
            self.buf = np.concatenate([self.buf[self.pos :], halves])
            self.pos = 0
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def bounded(self, r):
        """One Lemire draw in [0, r), redrawing on a rejection."""
        if r == 1:
            return 0
        threshold = (1 << 32) % r
        while True:
            m = int(self.take(1)[0]) * r
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def close(self):
        # next_uint32 keeps the high half of the last raw word it split,
        # and keeps it after handing it out
        last = int(self.buf[-1]) if self.buf.size else self.state["uinteger"]
        held = (int(self.pos < self.buf.size), last)
        if held != (self.state["has_uint32"], self.state["uinteger"]):
            state = self.bit_generator.state
            state["has_uint32"], state["uinteger"] = held
            self.bit_generator.state = state


def _choice_one(words, p, B):
    """One Generator.choice(p, B, replace=p < B), draw by draw."""
    if p < B:
        return [words.bounded(p) for _ in range(B)]
    if p > _TAIL_MIN_POP and B > p // _TAIL_DIVISOR:
        moved = {}  # the entries of range(p) that the shuffle has moved
        for i in range(p - 1, max(p - B, 1) - 1, -1):
            j = words.bounded(i + 1)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(p - B, p)]
    picks, seen = [], set()
    for j in range(p - B, p):
        t = words.bounded(j + 1)
        picks.append(j if t in seen else t)
        seen.add(picks[-1])
    for i in range(B - 1, 0, -1):
        r = words.bounded(i + 1)
        picks[i], picks[r] = picks[r], picks[i]
    return picks


def _choice_bulk(words, pops, B, out):
    """Fill out[m, :n[m]] with the leading calls of member m, for every
    member at once, and return n: each member stops before its first call
    that would reject a word or that takes the tail-shuffle branch, and
    hands the words of that call and of the calls after it back.

    pops is (members, calls); words[m] reads member m's generator. Column c
    of the draw table lists call c's ranges in stream order: Floyd's B
    draws in [0, p - B + i], then the shuffle's in [0, B - 1 - i]; or, when
    p < B, B draws in [0, p) and no shuffle. A range of 1 takes no word.
    Calls run along the last axis, so every operation reads whole rows.
    """
    M, C = pops.shape
    p = pops.ravel()
    floyd = p >= B
    tail = floyd & (p > _TAIL_MIN_POP) & (B > p // _TAIL_DIVISOR)
    i = np.arange(B)[:, None]
    ranges = np.ones((2 * B - 1, M * C), dtype=np.uint64)
    ranges[:B] = np.where(floyd, p - B + 1 + i, p)
    ranges[B:, floyd] = i[:0:-1] + 1
    ranges[:, tail] = 1
    used = ranges > 1
    per_call = used.sum(axis=0).reshape(M, C)
    # Lemire: word * r, whose high half is the draw; words fill in stream
    # order, call by call
    prod = np.zeros(ranges.shape, dtype=np.uint64)
    prod.T[used.T] = np.concatenate(
        [w.take(int(n)) for w, n in zip(words, per_call.sum(axis=1))]
    )
    prod *= ranges
    # a draw rejects when its low half is below 2**32 mod r, which is below
    # r: only the rare low halves below r need the modulo
    low32 = prod & _LOW32
    rejected = low32 < ranges
    rejected[rejected] = low32[rejected] < np.uint64(1 << 32) % ranges[rejected]
    stop = rejected.any(axis=0) | tail
    stop = stop.reshape(M, C)
    n = np.where(stop.any(axis=1), stop.argmax(axis=1), C)
    for j in np.flatnonzero(n < C):
        words[j].pos -= int(per_call[j, n[j] :].sum())
    t = (prod >> np.uint64(32)).astype(np.int64)
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
    picks = np.where(dup.reshape(B, -1) & floyd, low + i, t[:B])

    # the shuffle swaps position i with r_i for i = B - 1, ..., 1
    flat = picks.ravel()
    for draw, pos in enumerate(range(B - 1, 0, -1), start=B):
        at = np.where(floyd, t[draw], pos) * (M * C) + cols
        row = picks[pos].copy()
        picks[pos] = flat[at]
        flat[at] = row
    # rows from a member's stop on are rewritten by the caller
    out[...] = picks.T.reshape(M, C, B)
    return n


def choice_positions(gens, pops, B):
    """Row m of the (members, calls, B) int64 result holds the positions of
    [gens[m].choice(p, B, replace=p < B) for p in pops[m]], and each
    generator ends where those calls leave it.

    The calls of every member are computed together from the generators'
    raw words. A call that would reject a word, or that takes the
    tail-shuffle branch, is replayed draw by draw, and the member's calls
    after it are again computed together. Populations above 2**32 take
    NumPy's 64-bit draws, which are not encoded here: they raise, as do
    populations below 1 and batch sizes below 1.
    """
    pops = np.asarray(pops, dtype=np.int64)
    if pops.ndim != 2 or pops.shape[0] != len(gens):
        raise ValueError(
            f"expected one row of populations per generator, got {pops.shape}"
        )
    if B < 1:
        raise ValueError(f"expected a batch size >= 1, got {B}")
    if pops.size and (pops.min() < 1 or pops.max() > 1 << 32):
        raise ValueError("populations must lie in [1, 2**32]")
    C = pops.shape[1]
    out = np.empty((len(gens), C, B), dtype=np.int64)
    if not pops.size:
        return out
    words = [_Words(gen) for gen in gens]
    for j, c in enumerate(_choice_bulk(words, pops, B, out).tolist()):
        while c < C:
            out[j, c] = _choice_one(words[j], int(pops[j, c]), B)
            c += 1
            if c < C:
                rest = (words[j : j + 1], pops[j : j + 1, c:], B, out[j : j + 1, c:])
                c += int(_choice_bulk(*rest)[0])
    for w in words:
        w.close()
    return out


def glorot_uniform(out_dim, in_dim, gen):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return gen.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Affine map Y = X W^T + b with W of shape (out_dim, in_dim); rows may
    be stacked along leading axes of X."""

    def __init__(self, W, b):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.W.shape[0],):
            raise ShapeError(
                f"bias shape {self.b.shape} does not match weight rows "
                f"{self.W.shape}"
            )

    @classmethod
    def init(cls, in_dim, out_dim, gen):
        return cls(glorot_uniform(out_dim, in_dim, gen), np.zeros(out_dim))

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[-1] != self.W.shape[1]:
            raise ShapeError(
                f"input shape {X.shape} incompatible with weight shape "
                f"{self.W.shape}"
            )
        return X @ self.W.T + self.b


def relu(X):
    return np.maximum(0.0, X)
