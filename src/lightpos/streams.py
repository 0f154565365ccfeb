"""Many keyed random streams drawn at once, each equal to numpy's own.

Row n of a ``KeyedStreams`` yields exactly the values that
``np.random.default_rng(keys[n])`` yields for the same calls: the key is
seeded through numpy's SeedSequence into a PCG64 state, and the draws follow
``Generator``'s algorithms.  Everything is uint32/uint64 array arithmetic
over the N keys: seeding and a few draws cost about 1 us per key, against
20-35 us to build one Generator (2-core x86-64, numpy 2.4).  This module
is the only place that knows numpy's seeding algorithm.

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


def _entropy_groups(keys):
    """The keys' entropy words grouped by length, as a list of
    (row indices, (rows, words) uint32 array)."""
    if isinstance(keys, np.ndarray) and keys.ndim == 2 \
            and keys.dtype.kind in "iu":
        if keys.dtype.kind == "i" and (keys < 0).any():
            raise ValueError("expected non-negative integer")
        keys = keys.astype(np.uint64)
        low, high = keys & _MASK32, keys >> 32
        # Bit j of a row's layout: value j takes a second word.
        layout = (high != 0) @ (1 << np.arange(keys.shape[1]))
        groups = []
        for code in np.unique(layout):
            rows = np.flatnonzero(layout == code)
            words = []
            for j in range(keys.shape[1]):
                words.append(low[rows, j])
                if code >> j & 1:
                    words.append(high[rows, j])
            groups.append((rows, np.stack(words, axis=1).astype(np.uint32)))
        return groups
    by_length = {}
    for n, key in enumerate(keys):
        words = [w for v in np.ravel(np.asarray(key, dtype=object))
                 for w in _int_words(v)]
        rows, group = by_length.setdefault(len(words), ([], []))
        rows.append(n)
        group.append(words)
    return [(np.array(rows), np.array(words, dtype=np.uint32))
            for rows, words in by_length.values()]


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

    ``keys`` is an (N, K) integer array or a sequence of N keys, each a
    non-negative integer or a sequence of them.  A negative value raises
    ValueError, as numpy does.  Values of 2**32 and above take more entropy
    words; keys are seeded in groups of equal entropy length.  Each draw
    method returns one row per stream and advances every stream alike.
    """

    def __init__(self, keys):
        self._keys = keys
        n = len(keys)
        self._hi, self._lo = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
        self._inc_hi, self._inc_lo = self._hi.copy(), self._lo.copy()
        for rows, words in _entropy_groups(keys):
            s_hi, s_lo, q_hi, q_lo = _seed_state(words)
            # PCG64 srandom: inc = seq << 1 | 1, step from 0, add, step.
            inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
            hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
            hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
            self._hi[rows], self._lo[rows] = hi, lo
            self._inc_hi[rows], self._inc_lo[rows] = inc_hi, inc_lo
        # The bit generator's buffered upper half of a 64-bit draw.
        self._half = None

    def __len__(self) -> int:
        return len(self._hi)

    def generators(self):
        """One numpy Generator per key, in order, each at the start of its
        stream."""
        keys = self._keys.tolist() if isinstance(self._keys, np.ndarray) \
            else self._keys
        return (np.random.default_rng(key) for key in keys)

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

    def binary(self, shape) -> np.ndarray:
        """(N, *shape) draws of ``Generator.integers(0, 2, size=shape)``.

        Lemire's bounded method on buffered 32-bit draws never rejects for
        a range of two: each value is the draw's top bit."""
        shape = tuple(np.atleast_1d(shape))
        return (self._next32(int(np.prod(shape))) >> 31).astype(
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
