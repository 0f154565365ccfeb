"""Many keyed random streams drawn at once, each equal to numpy's own.

Row n of a ``KeyedStreams`` yields exactly the values that
``np.random.default_rng(keys[n])`` yields for the same calls: the key is
seeded through numpy's SeedSequence into a PCG64 state, and the draws follow
``Generator``'s algorithms.  Everything is uint32/uint64 array arithmetic
over the N keys: seeding keys below 2**32, as a sweep's are, costs about
0.3 us per key and wider ones about 1 us, against 20-35 us to build one
Generator (2-core x86-64, numpy 2.4).  Building a ``KeyedStreams`` also
has a fixed cost, the same array passes whatever N: building one takes
0.18-0.20 ms for one key below 2**32, 0.23-0.44 ms for one wider key,
0.24-0.46 ms for 1,000 keys below 2**32 and ~0.47 ms for 5,000, where
``np.random.default_rng`` takes 13-20 us (the same host, quiet and
busy).  So below roughly ten keys Generators are cheaper, and a one-fix
``measure`` draws from its Generator through ``GeneratorStreams``; and
one seeding of many keys is cheaper than several of fewer, so a sweep
call seeds the fixes of all its noisy cells at once and gives each cell
its rows (``KeyedStreams.take``).
This module is the only place that knows numpy's seeding algorithm, and
``check_seed`` the one rule for what a seed is.

``GeneratorStreams`` gives N numpy Generators the same draw methods, and
``normals`` draws Gaussians from either kind by Box-Muller on their
uniforms, so noise is drawn by one code path whichever kind a caller has.

PCG64 is the XSL-RR 128/64 generator of O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation" (2014).  Its 128-bit state is held as (hi, lo) uint64 pairs.
"""

from __future__ import annotations

import math

import numpy as np

# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier, and 2**-53 for doubles.
_MULT_HI, _MULT_LO = 2549297995355413924, 4865540595714422341
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def check_seed(seed, name: str = "seed"):
    """``seed`` if it is a seed: a Python int >= 0 of any size, as numpy's
    SeedSequence takes it (a bool or a float is none); else a ValueError
    naming ``name``."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got "
                         f"{seed!r}")
    return seed


def _int_words(value) -> list:
    """SeedSequence's coercion of one key value: 32-bit little-endian words,
    0 as one zero word."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _column_words(col: np.ndarray):
    """One key column's entropy words: a (N, W) uint32 array and each
    value's word count (N,).  Integer columns, and object columns whose
    values fit in uint64, are split as arrays; a wider object column is
    split once per distinct value."""
    if col.dtype.kind == "O" and len(col) and not 0 <= col.min() \
            <= col.max() < 2**64:
        values, inverse = np.unique(col, return_inverse=True)
        words = [_int_words(v) for v in values]
        width = max(map(len, words))
        table = np.array([w + [0] * (width - len(w)) for w in words],
                         dtype=np.uint32)
        return table[inverse], np.array([len(w) for w in words])[inverse]
    if col.dtype.kind == "i" and (col < 0).any():
        raise ValueError("expected non-negative integer")
    col = col.astype(np.uint64)
    high = col >> 32
    return (np.stack([col & _MASK32, high], axis=1).astype(np.uint32),
            1 + (high != 0))


def _entropy_groups(keys: np.ndarray):
    """The entropy words of (N, K) keys grouped by length, as a list of
    (row indices, (rows, words) uint32 array).  Integer keys all below
    2**32 are one word per value, so they are their own words."""
    if keys.dtype.kind in "iu" and keys.size and 0 <= keys.min() \
            and keys.max() <= _MASK32:
        return [(slice(None), keys.astype(np.uint32))]
    columns = [_column_words(keys[:, j]) for j in range(keys.shape[1])]
    words = np.zeros((len(keys), sum(w.shape[1] for w, _ in columns)),
                     dtype=np.uint32)
    # Each value's words go after the words of the values before it.  Its
    # unused trailing words are zeros, which the next values' words
    # overwrite, or which lie past the row's length.
    length = np.zeros(len(keys), dtype=np.intp)
    for w, n in columns:
        words[np.arange(len(keys))[:, None],
              length[:, None] + np.arange(w.shape[1])] = w
        length += n
    return [(rows, words[rows, :n]) for n in np.unique(length)
            for rows in [np.flatnonzero(length == n)]]


def _seed_state(words: np.ndarray):
    """SeedSequence(key).generate_state(4, np.uint64) for (rows, L)
    entropy words, as four (rows,) uint64 arrays."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))

    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Little-endian word pairs make the uint64 values.
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


def _mul_hi(a, b: int):
    """High 64 bits of the 128-bit products a * b, by 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, add_hi, add_lo):
    lo_sum = lo + add_lo
    return hi + add_hi + (lo_sum < lo), lo_sum


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, mod 2**128."""
    prod_hi = (_mul_hi(lo, _MULT_LO) + lo * np.uint64(_MULT_HI)
               + hi * np.uint64(_MULT_LO))
    return _add128(prod_hi, lo * np.uint64(_MULT_LO), inc_hi, inc_lo)


class KeyedStreams:
    """N random streams; stream n draws what
    ``np.random.default_rng(keys[n])`` draws for the same calls.

    ``keys`` is an (N, K) integer array, or an object array of Python
    integers, which values of 2**64 and above need.  A negative value
    raises ValueError, as numpy does.  Values
    of 2**32 and above take more entropy words; keys are seeded in groups
    of equal entropy length.  Each draw method returns one row per stream
    and advances every stream alike.
    """

    def __init__(self, keys: np.ndarray):
        # Every stream's PCG64 state, as numpy seeds it from the key.
        self._hi, self._lo, self._inc_hi, self._inc_lo = np.zeros(
            (4, len(keys)), np.uint64)
        for rows, words in _entropy_groups(keys):
            s_hi, s_lo, q_hi, q_lo = _seed_state(words)
            # PCG64 srandom: inc = seq << 1 | 1, step from 0, add, step.
            inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
            hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
            hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
            self._hi[rows], self._lo[rows] = hi, lo
            self._inc_hi[rows], self._inc_lo[rows] = inc_hi, inc_lo
        # The buffered upper half of a 64-bit draw.
        self._half = None

    def __len__(self) -> int:
        return len(self._hi)

    def take(self, rows) -> KeyedStreams:
        """The streams at ``rows`` (an index array or a slice) in their
        current state, the buffered half of a 64-bit draw included: their
        later draws are those same rows of this object's.  A slice shares
        the state arrays, which draws replace and never write into."""
        sub = object.__new__(KeyedStreams)
        sub._hi, sub._lo = self._hi[rows], self._lo[rows]
        sub._inc_hi, sub._inc_lo = self._inc_hi[rows], self._inc_lo[rows]
        sub._half = None if self._half is None else self._half[rows]
        return sub

    def _next64(self) -> np.ndarray:
        self._hi, self._lo = _lcg_step(self._hi, self._lo, self._inc_hi,
                                       self._inc_lo)
        # XSL-RR: xor the halves, rotate right by the top six bits.
        value, rot = self._hi ^ self._lo, self._hi >> 58
        return value >> rot | value << ((64 - rot) & 63)

    def _next32(self, count: int) -> np.ndarray:
        """(N, count) uint32 draws: the lower half of a 64-bit draw first,
        its upper half kept for the next 32-bit draw."""
        words = [] if self._half is None else [self._half]
        while len(words) < count:
            value = self._next64()
            words += [value & _MASK32, value >> 32]
        self._half = words[count] if len(words) > count else None
        if not count:
            return np.empty((len(self), 0), dtype=np.uint64)
        return np.stack(words[:count], axis=1)

    def uniform(self, low: float, high: float) -> np.ndarray:
        """(N,) draws of ``Generator.uniform(low, high)``; like numpy,
        raises ValueError when ``high - low`` is negative (or -0.0)."""
        if math.copysign(1.0, high - low) < 0:
            raise ValueError("high - low < 0")
        unit = (self._next64() >> 11).astype(np.float64) * _DOUBLE_UNIT
        return low + (high - low) * unit

    def binary(self, shape: tuple) -> np.ndarray:
        """(N, *shape) draws of ``Generator.integers(0, 2, size=shape)``.

        Lemire's bounded method on buffered 32-bit draws never rejects for
        a range of two: each value is the draw's top bit."""
        return (self._next32(math.prod(shape)) >> 31).astype(
            np.int64).reshape((len(self),) + shape)

    def integers63(self, count: int) -> np.ndarray:
        """(N, count) values of ``count`` calls of
        ``Generator.integers(2**63)``.

        The 64-bit Lemire method never rejects for a range of 2**63: each
        value is a 64-bit draw shifted right by one."""
        out = np.empty((len(self), count), dtype=np.int64)
        for c in range(count):
            out[:, c] = (self._next64() >> 1).astype(np.int64)
        return out


class GeneratorStreams:
    """N numpy Generators with ``KeyedStreams``'s draw methods.  Row n of
    each draw comes from calling the n-th Generator, so its draws are
    those of the same calls made on it directly."""

    def __init__(self, generators):
        self._gens = list(generators)

    def __len__(self) -> int:
        return len(self._gens)

    def _each(self, draw, dtype, shape=()) -> np.ndarray:
        """(N, *shape) rows, row n ``draw`` of the n-th Generator."""
        out = np.empty((len(self),) + shape, dtype=dtype)
        for n, gen in enumerate(self._gens):
            out[n] = draw(gen)
        return out

    def uniform(self, low: float, high: float) -> np.ndarray:
        return self._each(lambda g: g.uniform(low, high), np.float64)

    def binary(self, shape: tuple) -> np.ndarray:
        return self._each(lambda g: g.integers(0, 2, size=shape), np.int64,
                          shape)

    def integers63(self, count: int) -> np.ndarray:
        # Generator.integers(2**63) is each 64-bit draw shifted right by
        # one (see KeyedStreams.integers63): the same values, and the
        # same state after, from the raw draws without its bound checks.
        return self._each(lambda g: g.bit_generator.random_raw(count) >> 1,
                          np.int64, (count,))


def normals(streams, sd: float) -> np.ndarray:
    """(N,) Gaussian draws of mean 0 and standard deviation ``sd``, one per
    stream of a ``KeyedStreams`` or ``GeneratorStreams``: Box-Muller on
    two uniforms u1, u2 in [0, 1), sqrt(-2 log(1 - u1)) cos(2 pi u2), which
    is exactly standard normal for exact uniforms (Box & Muller, "A note
    on the generation of random normal deviates", Ann. Math. Stat. 29(2),
    1958).  1 - u1 lies in (0, 1], so the logarithm is finite."""
    u1, u2 = streams.uniform(0.0, 1.0), streams.uniform(0.0, 1.0)
    return sd * (np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))
