"""Keyed array streams against numpy's own seeded generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos import streams
from lightpos.streams import GeneratorStreams, KeyedStreams, normals

# Word-count edges of SeedSequence's coercion, and values of every size.
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
_value = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**32 - 1),
                   st.integers(0, 2**64 - 1))
_big_value = st.one_of(_value, st.integers(2**64, 2**100))

_draw = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.just("binary"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("integers63"), st.integers(1, 4)),
    st.tuples(st.just("normals"), st.floats(0, 10)),
)


@st.composite
def _array_keys(draw):
    """An (N, K) uint64 key array: one key length, mixed word counts."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_value, min_size=k, max_size=k),
                         min_size=1, max_size=12))
    return np.array(rows, dtype=np.uint64)


@st.composite
def _object_keys(draw):
    """An (N, K) object key array: columns of any size, some wider than
    uint64, as a seed of 2**64 and above makes them."""
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_big_value, min_size=k, max_size=k),
                         min_size=1, max_size=12))
    keys = np.empty((len(rows), k), dtype=object)
    keys[:] = rows
    return keys


def _check_draws(keys, draws):
    # Keyed streams, and the same keys' Generators behind GeneratorStreams,
    # against direct calls of the Generators: normals as Box-Muller on two
    # of their uniforms, evaluated with numpy on arrays.
    streams = KeyedStreams(keys)
    wrapped = GeneratorStreams(np.random.default_rng(k)
                               for k in keys.tolist())
    gens = [np.random.default_rng(k) for k in keys.tolist()]
    assert len(streams) == len(wrapped) == len(keys)
    for op in draws:
        if op[0] == "uniform":
            low, high = op[1:]
            if math.copysign(1.0, high - low) < 0:
                with pytest.raises(ValueError):
                    gens[0].uniform(low, high)
                with pytest.raises(ValueError):
                    streams.uniform(low, high)
                continue
            got = streams.uniform(low, high), wrapped.uniform(low, high)
            want = [g.uniform(low, high) for g in gens]
        elif op[0] == "binary":
            shape = (op[1], op[2])
            got = streams.binary(shape), wrapped.binary(shape)
            want = [g.integers(0, 2, size=shape) for g in gens]
        elif op[0] == "integers63":
            count = op[1]
            got = streams.integers63(count), wrapped.integers63(count)
            want = [[g.integers(2**63) for _ in range(count)] for g in gens]
        else:
            sd = op[1]
            got = normals(streams, sd), normals(wrapped, sd)
            u = np.array([[g.uniform(), g.uniform()] for g in gens])
            want = sd * (np.sqrt(-2.0 * np.log1p(-u[:, 0]))
                         * np.cos(2.0 * np.pi * u[:, 1]))
        want = np.array(want)
        for form in got:
            assert (form.dtype, form.shape) == (want.dtype, want.shape), op
            assert form.tobytes() == want.tobytes(), op


@settings(max_examples=150, deadline=None)
@given(_array_keys(), st.lists(_draw, min_size=1, max_size=6))
def test_array_keys_draw_numpy_streams(keys, draws):
    # Odd sizes of binary leave a buffered 32-bit half for the next call.
    _check_draws(keys, draws)


@settings(max_examples=100, deadline=None)
@given(_object_keys(), st.lists(_draw, min_size=1, max_size=4))
def test_object_keys_draw_numpy_streams(keys, draws):
    _check_draws(keys, draws)


def test_sweep_keys_with_wide_seed_draw_numpy_streams():
    # A sweep cell's (N, 5) keys at a seed above uint64: an object array
    # whose seed column is constant and the other columns small.
    cell = np.array((2**64 + 7, 1, 2))
    assert cell.dtype == object
    keys = np.empty((40, 5), dtype=object)
    keys[:, :3] = cell
    keys[:, 3:] = [(t, i) for t in range(4) for i in range(10)]
    _check_draws(keys, [("uniform", -0.5, 0.5), ("binary", 3, 5),
                        ("integers63", 2), ("normals", 0.5)])


@pytest.mark.parametrize("top", [2**32 - 1, 2**32])
def test_narrow_keys_seed_like_object_keys(top):
    # Integer keys all below 2**32 are their own entropy words, seeded as
    # one group; one value of 2**32 sends them through the per-column
    # split.  Either way their streams are those of the same values as
    # Python integers, which always take the split, and numpy's.
    rows = [[0, top, 5], [top, 0, 0], [1, 2, 3], [7, 2**31, top - 1]]
    ints = np.array(rows, dtype=np.int64)
    objs = np.empty(ints.shape, dtype=object)
    objs[:] = rows
    groups = streams._entropy_groups(ints)
    assert isinstance(groups[0][0], slice) == (top < 2**32)
    draws = [("uniform", -0.5, 0.5), ("binary", 3, 5), ("integers63", 2),
             ("normals", 1.0)]
    for keys in (ints, objs):
        _check_draws(keys, draws)
    a, b = KeyedStreams(ints), KeyedStreams(objs)
    assert a.binary((1, 7)).tobytes() == b.binary((1, 7)).tobytes()
    assert a.integers63(3).tobytes() == b.integers63(3).tobytes()


@settings(max_examples=50, deadline=None)
@given(_array_keys())
def test_raw_stream_matches_pcg64(keys):
    streams = KeyedStreams(keys)
    raw = streams.integers63(5)
    for row, key in zip(raw, keys.tolist()):
        want = np.random.default_rng(key).bit_generator.random_raw(5) >> 1
        assert row.tolist() == want.tolist()


@pytest.mark.parametrize("keys, bad", [
    (np.array([[3, -1], [1, 2]]), [3, -1]),
    (np.array([[3, 1], [0, -2**40]]), [0, -2**40]),
    (np.array([[-5]]), -5),
    (np.array([[2**64, 1], [-1, 2]], dtype=object), [-1, 2]),
])
def test_negative_key_raises_like_numpy(keys, bad):
    with pytest.raises(ValueError):
        np.random.default_rng(bad)
    with pytest.raises(ValueError):
        KeyedStreams(keys)



def test_normals_are_gaussian():
    # N = 200,000 keyed Box-Muller draws of sd 2, standardized, against
    # N(0, 1).  Each bound is 5 standard errors of its statistic at this
    # N, or a tail of at most 1e-6, so a correct sampler fails none of
    # them by chance (the draws are fixed by their keys anyway):
    # - the mean of N standard normals has standard error 1/sqrt(N);
    # - their sample variance has standard error sqrt(2 / (N - 1));
    # - the Kolmogorov-Smirnov distance D exceeds eps with probability at
    #   most 2 exp(-2 N eps^2) (Dvoretzky-Kiefer-Wolfowitz, with Massart's
    #   constant), so eps = sqrt(ln(2 / 1e-6) / (2 N)) ~ 0.0060.
    n, sd = 200_000, 2.0
    keys = np.column_stack([np.full(n, 11), np.arange(n)])
    x = normals(KeyedStreams(keys), sd) / sd
    assert x.shape == (n,) and np.all(np.isfinite(x))
    assert abs(x.mean()) <= 5 / math.sqrt(n)
    assert abs(x.var(ddof=1) - 1) <= 5 * math.sqrt(2 / (n - 1))
    x.sort()
    cdf = 0.5 * (1 + np.vectorize(math.erf)(x / math.sqrt(2)))
    ks = max(np.max(np.arange(1, n + 1) / n - cdf),
             np.max(cdf - np.arange(n) / n))
    assert ks <= math.sqrt(math.log(2 / 1e-6) / (2 * n))


@st.composite
def _narrow_keys(draw):
    """An (N, K) int64 key array of values below 2**32: one entropy group."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=k,
                                  max_size=k), min_size=1, max_size=12))
    return np.array(rows, dtype=np.int64)


# Draws that advance streams: a binary draw of an odd count leaves the
# upper half of a 64-bit draw buffered for the next 32-bit draw.
_advance = st.one_of(
    st.tuples(st.just("binary"), st.integers(0, 3).map(lambda n: 2 * n + 1)),
    st.tuples(st.just("binary"), st.integers(0, 4)),
    st.tuples(st.just("uniform")), st.tuples(st.just("integers63"),
                                             st.integers(1, 3)))


def _apply(streams, op) -> np.ndarray:
    if op[0] == "binary":
        return streams.binary((op[1],))
    if op[0] == "uniform":
        return streams.uniform(-1.0, 1.0)
    return streams.integers63(op[1])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_narrow_keys(), _array_keys(), _object_keys()),
       st.lists(_advance, max_size=4), st.lists(_advance, min_size=1,
                                                max_size=4),
       st.data())
def test_row_subset_draws_the_same_rows_of_the_streams(keys, before, after,
                                                       data):
    # A subset taken mid-sequence, the buffered half included, continues
    # each of its rows as the full streams do: as an index array (rows in
    # any order, repeated) and as a slice.
    full = KeyedStreams(keys)
    for op in before:
        _apply(full, op)
    idx = np.array(data.draw(st.lists(st.integers(0, len(keys) - 1),
                                      max_size=8)), dtype=np.intp)
    start = data.draw(st.integers(0, len(keys)))
    stop = data.draw(st.integers(start, len(keys)))
    subsets = [(full.take(idx), idx), (full.take(slice(start, stop)),
                                       slice(start, stop))]
    for sub, rows in subsets:
        assert len(sub) == len(np.arange(len(keys))[rows])
    for op in after:
        want = _apply(full, op)
        for sub, rows in subsets:
            got = _apply(sub, op)
            assert got.dtype == want.dtype, op
            assert got.tobytes() == want[rows].tobytes(), op
