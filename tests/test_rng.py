"""ShotStreams against shot_rng: the same (seed, shot) streams, bit for bit.

Draws are compared as uint64 views, so two floats only match when every
bit does.  Seeds run from one 32-bit entropy word to seven, so
SeedSequence's tail mixing (more than four words) runs; shot ranges
straddle 2**32, where a shot index gains a second word, and the run's
chunk boundaries.  draws(rows, k) gives the same bits for a lone row, as a
trie miss reads its lowest shot, and for index arrays, as routing reads a
group, at any k in any order: in increasing k over all rows, depth-first
as routing splits groups, for a lone row continued past routed draws and
at k up to 10**6.  Reads leave no trace on other rows.  outcomes(rows, k,
p1) is draws(rows, k) < p1 at any p1, fixed ones included, in the rows'
shape; and a run never loads numpy.random.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
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
MAX_ROWS = 48
# p1 values that fix the outcome (the first three) or leave it in doubt
P1 = st.sampled_from([0.0, 1.0, 1.0000000000000002, 0.9999999999999998, 5e-324, 0.5])
# (rows, k, p1): a lone row or an index array (taken mod the row count), a
# draw index, and None to read draws or a p1 to read outcomes
READS = st.lists(st.tuples(
    st.one_of(st.integers(0, MAX_ROWS - 1),
              st.lists(st.integers(0, MAX_ROWS - 1), min_size=1, max_size=MAX_ROWS)),
    st.one_of(st.integers(0, 7), st.integers(0, 300)),
    st.one_of(st.none(), P1),
), min_size=1, max_size=12)


def reference(seed, first, count, draws):
    return np.array([shot_rng(seed, first + i).random(draws) for i in range(count)])


def bits(values):
    return np.asarray(values).view(np.uint64)


def read(streams, rows, k, p1, expected):
    """Check `rows`' k-th draws, or their outcomes at `p1`, against `expected` uniforms."""
    if p1 is None:
        assert np.array_equal(bits(streams.draws(rows, k)), bits(expected))
    else:
        ones = streams.outcomes(rows, k, p1)
        assert np.shape(ones) == np.shape(rows) and not isinstance(ones, bool)
        assert np.array_equal(ones, expected < p1)


@settings(max_examples=150, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, MAX_ROWS), READS)
@example(seed=2 ** 32 - 1, first=2 ** 32 - 24, count=48,
         reads=[(list(range(48)), 2, None), (23, 1, None), (list(range(48)), 0, None)])
@example(seed=3 ** 130, first=2 ** 32 - 24, count=48, reads=[([47, 0, 47], 3, None), (24, 3, 0.0)])
@example(seed=0, first=0, count=1, reads=[(0, 0, None), (0, 300, 1.0), (0, 300, 0.5)])
def test_draws_equal_shot_rng_for_any_rows_and_k(seed, first, count, reads):
    """Random row subsets read random draw indices, decreasing and repeated
    ones included; a lone row is a numpy scalar, as a miss reads its shot."""
    expected = reference(seed, first, count, max(k for _, k, _ in reads) + 1)
    streams = ShotStreams(seed, first, count)
    for picked, k, p1 in reads:
        rows = np.arange(count)[picked % count] if isinstance(picked, int) else \
            np.array(picked) % count
        read(streams, rows, k, p1, expected[rows, k])


@settings(max_examples=150, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, MAX_ROWS), st.integers(1, 4))
@example(seed=2 ** 32 - 1, first=2 ** 32 - 24, count=48, draws=3)
@example(seed=3 ** 130, first=2 ** 32 - 24, count=48, draws=2)
@example(seed=0, first=0, count=1, draws=1)
def test_draws_equal_shot_rng_bit_for_bit(seed, first, count, draws):
    streams = ShotStreams(seed, first, count)
    rows = np.arange(count)
    got = np.stack([streams.draws(rows, k) for k in range(draws)], axis=1)
    assert np.array_equal(bits(got), bits(reference(seed, first, count, draws)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.data())
def test_reading_some_rows_leaves_every_stream_as_seeded(seed, first, data):
    """A group reads draw 0 and a miss's lone row reads on from its next
    draw; afterwards every row still reads draws 0-4 of its own stream."""
    count = data.draw(st.integers(1, 32))
    advanced = np.array(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    row = data.draw(st.integers(0, count - 1))
    expected = bits(reference(seed, first, count, 5))
    streams = ShotStreams(seed, first, count)
    head = streams.draws(np.flatnonzero(advanced), 0)
    start = int(advanced[row])
    alone = [streams.draws(row, k) for k in range(start, start + 3)]
    after = np.stack([streams.draws(np.arange(count), k) for k in range(5)], axis=1)
    assert np.array_equal(bits(head), expected[advanced, 0])
    assert np.array_equal(bits(alone), expected[row, start:start + 3])
    assert np.array_equal(bits(after), expected)


@settings(max_examples=60, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, 16), st.data())
def test_a_continued_stream_equals_shot_rng_after_routed_draws(seed, first, count, data):
    routed = data.draw(st.integers(0, 6))
    streams = ShotStreams(seed, first, count)
    for k in range(routed):
        streams.draws(np.arange(count), k)
    row = data.draw(st.integers(0, count - 1))
    continued = [streams.draws(row, k) for k in range(routed, routed + 64)]
    expected = shot_rng(seed, first + row).random(routed + 64)[routed:]
    assert np.array_equal(bits(continued), bits(expected))


ROUTED_DEPTHS = 6


@settings(max_examples=100, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, 40), st.data())
def test_draws_equal_shot_rng_in_routing_order(seed, first, count, data):
    """Random subsets read depth-first, as run_program routes: a part goes
    deeper while its sibling waits, then reads the shallower depth.  At
    each depth a part reads its draws or its outcomes at some p1."""
    expected = reference(seed, first, count, ROUTED_DEPTHS)
    streams = ShotStreams(seed, first, count)
    waiting = [(np.arange(count), 0)]
    while waiting:
        rows, k = waiting.pop()
        read(streams, rows, k, data.draw(st.one_of(st.none(), P1)), expected[rows, k])
        if k + 1 < ROUTED_DEPTHS:
            mask = data.draw(st.integers(0, 2 ** rows.size - 1))
            ones = (mask >> np.arange(rows.size) & 1).astype(bool)
            waiting += [(part, k + 1) for part in (rows[~ones], rows[ones]) if part.size]


@settings(max_examples=30, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(0, 10 ** 6))
@example(seed=2 ** 150 + 12345, first=2 ** 32 - 2, k=10 ** 6)
def test_a_far_draw_equals_shot_rng(seed, first, k):
    """Draw k up to 10**6, far past the depths a run routes, from one jump."""
    streams = ShotStreams(seed, first, 3)
    expected = [shot_rng(seed, first + row).random(k + 1)[k] for row in range(3)]
    assert np.array_equal(bits(streams.draws(np.arange(3), k)), bits(expected))


# prints whether numpy.random is loaded after `import numpy`, after `qirvm
# run` on teleport and after a run_program call, all in one fresh process
LOADED_AFTER_RUNS = """
import json, pathlib, sys
import numpy
loaded = ["numpy.random" in sys.modules]
from qirvm import RunConfig, default_registry, find_entry, parse_module, run_program
from qirvm.cli import main
assert main(["run", sys.argv[1], "--shots", "4096", "--output", sys.argv[2]]) == 0
loaded.append("numpy.random" in sys.modules)
module = parse_module(pathlib.Path(sys.argv[1]).read_text())
run_program(module, find_entry(module), default_registry(), RunConfig(shots=4096, seed=3))
loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def test_a_run_never_loads_numpy_random(tmp_path):
    tests = pathlib.Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUNS, str(tests / "fixtures" / "teleport.ll"),
         str(tmp_path / "result.json")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    with_numpy, after_cli, after_run = json.loads(done.stdout)
    if with_numpy:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not after_cli and not after_run
