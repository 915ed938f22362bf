"""ShotStreams against shot_rng: the same (seed, shot) streams, bit for bit.

Draws are compared as uint64 views, so two floats only match when every
bit does.  Seeds run from one 32-bit entropy word to seven, so
SeedSequence's tail mixing (more than four words) runs; shot ranges
straddle 2**32, where a shot index gains a second word, and the run's
chunk boundaries.  The Generator built for a row continues its stream.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qirvm import shot_rng
from qirvm.interpreter import SHOT_CHUNK, ShotStreams

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 150 + 12345]),
    st.integers(0, 2 ** 200),
)
FIRST_SHOTS = st.one_of(
    st.integers(0, 10 ** 6),
    st.integers(2 ** 32 - 40, 2 ** 32 + 8),
    st.integers(1, 4).map(lambda k: k * SHOT_CHUNK - 20),
)


def reference(seed, first, count, draws):
    return np.array([shot_rng(seed, first + i).random(draws) for i in range(count)])


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, 48), st.integers(1, 4))
@example(seed=2 ** 32 - 1, first=2 ** 32 - 24, count=48, draws=3)
@example(seed=3 ** 130, first=2 ** 32 - 24, count=48, draws=2)
@example(seed=0, first=0, count=1, draws=1)
def test_draws_equal_shot_rng_bit_for_bit(seed, first, count, draws):
    streams = ShotStreams(seed, first, count)
    rows = np.arange(count)
    got = np.stack([streams.random(rows) for _ in range(draws)], axis=1)
    assert np.array_equal(bits(got), bits(reference(seed, first, count, draws)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.data())
def test_advancing_some_rows_leaves_the_others_alone(seed, first, data):
    count = data.draw(st.integers(1, 32))
    advanced = np.array(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    expected = reference(seed, first, count, 4)
    streams = ShotStreams(seed, first, count)
    head = streams.random(np.flatnonzero(advanced))
    # a trie miss continues its row's stream from there in a Generator
    for row in range(count):
        taken = int(advanced[row])
        continued = streams.generator(row).random(3)
        assert np.array_equal(bits(continued), bits(expected[row, taken:taken + 3]))
    after = streams.random(np.arange(count))
    assert np.array_equal(bits(head), bits(expected[advanced, 0]))
    assert np.array_equal(bits(after), bits(np.where(advanced, expected[:, 1], expected[:, 0])))
