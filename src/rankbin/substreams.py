"""Every bin's random substream, and numpy's ``SeedSequence`` hash and
PCG64's first draw for many streams at once.

Bin ``node_id`` (its heap id, ``engine``) of a tree with seed ``seed`` draws
from ``default_rng(SeedSequence((seed, node_id)))`` alone, so a partition
grown to one depth limit is exactly a deeper run truncated there.
``best_splits`` reads a bin's draws by index: under random scoring draw 0
scores the s-margin pseudo-point, draws 1..cnt the s-margin members, draw
cnt + 1 the t-margin pseudo-point, draws cnt + 2..2 cnt + 1 the t-margin
members, and draw 2 cnt + 2 is the tie coin (``>= 0.5`` halves on t); under
chi or mi a degenerate bin whose margins tie draws only the coin, draw 0.

A scan pair's binning seed is the first word of ``SeedSequence((base_seed,
ia, ib), spawn_key=(2,))`` (``scan``).  Building each object costs several
microseconds for one value, so ``pair_seeds`` and ``first_draws`` run both
fixed integer algorithms in uint32 and uint64 ufuncs over arrays, bit for bit.

``SeedSequence`` (O'Neill's ``seed_seq`` design) splits each entropy integer
into little-endian 32-bit words (at least one), pads the run entropy with
zero words to the pool size of 4 when a spawn key follows, and hash-mixes
the words into the pool, each ``hashmix`` call with the next constant of a
fixed sequence; ``generate_state`` hashes the pool words out in turn.  Items
whose integers take the same numbers of words share one array pass.

PCG64 (O'Neill 2014, XSL-RR 128/64) seeds from ``generate_state(4,
uint64)``: state ``S = w0 << 64 | w1``, increment ``inc = (w2 << 64 | w3)
<< 1 | 1``, and reaches its first output after the LCG steps ``x -> M x +
inc`` from 0, adding ``S`` after the first: ``M**2 S + (M**2 + M + 1)
inc`` (mod 2**128).  The output is the state's high and low words xored and
rotated right by its top 6 bits.  ``Generator.random()`` is that output's
top 53 bits over 2**53, so ``random() >= 0.5`` is its top bit.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
POOL = 4
_MIX_L, _MIX_R = np.uint32(MIX_L), np.uint32(MIX_R)

# PCG64's multiplier M; the first output's state is A S + B w + C with the
# increment's seed words w = w2 << 64 | w3 (inc = 2 w + 1)
_M = 0x2360ED051FC65DA44385DF649FCCF645
_C = (_M * _M + _M + 1) % (1 << 128)
_A, _B = _M * _M % (1 << 128), 2 * _C % (1 << 128)


def _column(values, count: int) -> np.ndarray:
    """``values``, or one integer repeated ``count`` times, as uint64, or as
    Python ints if one is 2**64 or more; refuses what ``SeedSequence`` does."""
    x = (np.asarray(values) if np.ndim(values) else
         np.full(count, operator.index(values), dtype=object))
    if x.dtype.kind not in "iuO":
        raise TypeError("SeedSequence expects integer entropy")
    if x.size and x.min() < 0:
        raise ValueError("expected non-negative integer")
    return x.astype(np.uint64 if not x.size or x.max() < 1 << 64 else object)


def _words(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each of ``x`` split as ``SeedSequence`` splits an int: its uint32 words,
    lowest first, as rows, and the count each item takes (at least one)."""
    rows, count = [], np.ones(x.size, dtype=np.intp)
    while True:
        rows.append((x & M32).astype(np.uint32))
        x = x >> 32
        more = x != 0
        if not more.any():
            return rows, count
        count += more


@functools.cache
def _consts(start: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` + 1 values of a hash constant, as a read-only uint32 column."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & M32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


def _hash(rows: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` (uint32, rows) of the assembled entropy
    ``rows`` (at least ``POOL``, items as columns)."""
    ha = _consts(INIT_A, MULT_A, POOL * len(rows))

    def hashmix(v, k, n):  # calls k .. k + n - 1 of the hash, a row each
        v = v ^ ha[k:k + n]
        v *= ha[k + 1:k + 1 + n]
        v ^= v >> 16
        return v

    def mix(x, y):
        x = x * _MIX_L
        x -= y * _MIX_R
        x ^= x >> 16
        return x

    pool = hashmix(rows[:POOL], 0, POOL)
    k = POOL
    # each pool word mixes into every other; its three updates read it
    # alone, so they run as one
    for src in range(POOL):
        dst = [d for d in range(POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, POOL - 1))
        k += POOL - 1
    # then each further word into every pool word
    for w in rows[POOL:]:
        pool = mix(pool, hashmix(w, k, POOL))
        k += POOL
    hb = _consts(INIT_B, MULT_B, n_words)
    out = np.resize(pool, (n_words, pool.shape[1])) ^ hb[:-1]
    out *= hb[1:]
    out ^= out >> 16
    return out


def generate_state(entropy, n_words: int, spawn_key: tuple = ()) -> np.ndarray:
    """``SeedSequence(entropy=(entropy[0][i], entropy[1][i], ...),
    spawn_key=spawn_key).generate_state(n_words)`` of every item i, as uint32
    rows (n_words, items).  Each of ``entropy`` is an array of non-negative
    integers or one integer for every item."""
    count = max((np.size(e) for e in entropy if np.ndim(e)), default=1)
    cols = [_words(_column(e, count)) for e in entropy]
    tail = [w for key in spawn_key for w in _words(_column(key, 1))[0]]
    counts = np.array([c for _, c in cols])
    if not count:
        return np.empty((n_words, 0), dtype=np.uint32)
    if (counts.min(axis=1) == counts.max(axis=1)).all():
        # one group, as the general path below finds, but without its index
        # arrays: that saves 15 to 40 us of about 130 per ``first_draws`` call
        # at 11 to 43 items, which would raise ``BULK_COINS`` to about 13
        groups = [slice(None)]
    else:
        # items whose integers take the same numbers of words hash as one array
        key = np.ravel_multi_index(counts, counts.max(axis=1) + 1)
        groups = [np.flatnonzero(key == g) for g in np.unique(key)]
    out = np.empty((n_words, count), dtype=np.uint32)
    for at in groups:
        sizes = counts[:, at][:, 0]
        rows = [r[at] for (words, _), size in zip(cols, sizes) for r in words[:size]]
        m = rows[0].size
        # zero words pad the run entropy to the pool size (without a spawn
        # key numpy hashes zeros for the missing words, the same thing)
        rows += [np.zeros(m, dtype=np.uint32)] * (POOL - len(rows))
        rows += [np.broadcast_to(w, m) for w in tail]
        out[:, at] = _hash(np.array(rows), n_words)
    return out


def _mul_lo_hi(a, b0, b1):
    """Low and high 64 bits of the 128-bit products of uint64 ``a`` and the
    64-bit ``b1 << 32 | b0``, by 32-bit limbs."""
    a0, a1 = a & M32, a >> 32
    lo, mid_a, mid_b = a0 * b0, a0 * b1, a1 * b0
    mid = (lo >> 32) + (mid_a & M32) + (mid_b & M32)
    return (lo & M32) | (mid << 32), a1 * b1 + (mid_a >> 32) + (mid_b >> 32) + (mid >> 32)


# the high and low halves of A and B, then the low half's two 32-bit limbs
_K = tuple((k >> s) & m for s, m in ((64, M64), (0, M64), (0, M32), (32, M32))
           for k in (_A, _B))


def pcg64_first(state: np.ndarray) -> np.ndarray:
    """The first ``random_raw()`` of PCG64 seeded from each column of
    ``state``: ``generate_state(8)`` words of each item, uint32 rows."""
    # generate_state(4, np.uint64): pairs of words, the low one first
    w = state.astype(np.uint64)
    words = w[0::2] | (w[1::2] << np.uint64(32))
    hi, lo = words[0::2], words[1::2]  # rows S and w
    # both products at once: A S in row 0, B w in row 1
    kh, kl, k0, k1 = np.array(_K, dtype=np.uint64).reshape(4, 2, 1)
    p_lo, p_hi = _mul_lo_hi(lo, k0, k1)
    p_hi += hi * kl + lo * kh
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[0])
    state_lo = lo + np.uint64(_C & M64)
    state_hi = hi + np.uint64(_C >> 64) + (state_lo < lo)
    v, r = state_hi ^ state_lo, state_hi >> np.uint64(58)
    return (v >> r) | (v << ((np.uint64(64) - r) & np.uint64(63)))


def stream(seed: int, node_id: int) -> np.random.Generator:
    """Bin ``node_id``'s substream under the run seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, node_id)))


def first_draws(seeds, node_ids) -> np.ndarray:
    """``stream(seeds[i], node_ids[i]).random()`` of each bin i, hashed at once."""
    return (pcg64_first(generate_state((seeds, node_ids), 8)) >> np.uint64(11)) * 2.0**-53


# One-draw bins ``draws`` hashes at once: a ``first_draws`` pass costs about
# 130 us whatever the count, a stream built about 12 us (timed at 1 to 64 bins).
BULK_COINS = 11


def draws(seeds, node_ids, counts) -> np.ndarray:
    """``stream(seeds[i], node_ids[i]).random(counts[i])`` of each bin i in turn
    (arrays, an entry per bin); hashed when ``BULK_COINS`` or more draw one each."""
    if counts.size >= BULK_COINS and (counts == 1).all():
        return first_draws(seeds, node_ids)
    ends = np.cumsum(counts)
    out = np.empty(int(counts.sum()))
    for seed, node_id, a, b in zip(seeds.tolist(), node_ids.tolist(),
                                   (ends - counts).tolist(), ends.tolist()):
        stream(seed, node_id).random(out=out[a:b])
    return out


def pair_seeds(base_seed: int, jobs) -> list[int]:
    """Each column pair (ia, ib) of ``jobs``'s binning seed: the first uint64
    of ``SeedSequence((base_seed, ia, ib), spawn_key=(2,)).generate_state``."""
    ia, ib = np.array(jobs, dtype=np.int64).reshape(-1, 2).T
    words = generate_state((base_seed, ia, ib), 2, spawn_key=(2,)).astype(np.uint64)
    return (words[0] | (words[1] << np.uint64(32))).tolist()
