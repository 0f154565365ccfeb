"""Keyed array streams against numpy's own seeded generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos.streams import KeyedStreams

# Word-count edges of SeedSequence's coercion, and values of every size.
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
_value = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**32 - 1),
                   st.integers(0, 2**64 - 1))
_big_value = st.one_of(_value, st.integers(2**64, 2**100))

_draw = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.just("binary"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("integers63"), st.integers(1, 4)),
)


@st.composite
def _array_keys(draw):
    """An (N, K) uint64 key array: one key length, mixed word counts."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_value, min_size=k, max_size=k),
                         min_size=1, max_size=12))
    return np.array(rows, dtype=np.uint64)


# Keys of 1-6 values and of any size, lengths mixed in one batch.
_ragged_keys = st.lists(st.lists(_big_value, min_size=1, max_size=6)
                        .map(tuple), min_size=1, max_size=12)


def _check_draws(keys, draws):
    streams = KeyedStreams(keys)
    gens = list(streams.generators())
    assert len(streams) == len(gens) == len(keys)
    for op in draws:
        if op[0] == "uniform":
            low, high = op[1:]
            if math.copysign(1.0, high - low) < 0:
                with pytest.raises(ValueError):
                    gens[0].uniform(low, high)
                with pytest.raises(ValueError):
                    streams.uniform(low, high)
                continue
            got = streams.uniform(low, high)
            want = [g.uniform(low, high) for g in gens]
        elif op[0] == "binary":
            shape = (op[1], op[2])
            got = streams.binary(shape)
            want = [g.integers(0, 2, size=shape) for g in gens]
        else:
            count = op[1]
            got = streams.integers63(count)
            want = [[g.integers(2**63) for _ in range(count)] for g in gens]
        assert np.array(want).tobytes() == got.tobytes(), op


@settings(max_examples=150, deadline=None)
@given(_array_keys(), st.lists(_draw, min_size=1, max_size=6))
def test_array_keys_draw_numpy_streams(keys, draws):
    # Odd sizes of binary leave a buffered 32-bit half for the next call.
    _check_draws(keys, draws)
    # numpy seeds the same key given as a row of ints.
    for key, gen in zip(keys.tolist(), KeyedStreams(keys).generators()):
        assert np.random.default_rng(key).bit_generator.state == \
            gen.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(_ragged_keys, st.lists(_draw, min_size=1, max_size=4))
def test_ragged_keys_draw_numpy_streams(keys, draws):
    _check_draws(keys, draws)


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
    ([(3, 1), (0, -2**40)], (0, -2**40)),
    ([-5], -5),
])
def test_negative_key_raises_like_numpy(keys, bad):
    with pytest.raises(ValueError):
        np.random.default_rng(bad)
    with pytest.raises(ValueError):
        KeyedStreams(keys)
