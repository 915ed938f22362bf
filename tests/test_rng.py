"""ShotStreams against shot_rng: the same (seed, shot) streams, bit for bit.

Draws are compared as uint64 views, so two floats only match when every
bit does.  Seeds run from one 32-bit entropy word to seven, so
SeedSequence's tail mixing (more than four words) runs; shot ranges
straddle 2**32, where a shot index gains a second word, and the run's
chunk boundaries.  A row stepped alone, as a trie miss steps its lowest
shot, continues its stream from any routed draws; draws(rows, k) gives the
same bits from the per-depth table and past it, in the order routing reads
it, also where outcomes(rows, k, p1) skips the draws a fixed p1 needs
none of; and a run never loads numpy.random.
"""

import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qirvm import interpreter, shot_rng
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
    row = data.draw(st.integers(0, count - 1))
    expected = reference(seed, first, count, 5)
    streams = ShotStreams(seed, first, count)
    head = streams.random(np.flatnonzero(advanced))
    # a trie miss steps its row alone, by its row number
    taken = advanced.astype(int)
    alone = [streams.random(row) for _ in range(3)]
    assert np.array_equal(bits(alone), bits(expected[row, taken[row]:taken[row] + 3]))
    taken[row] += 3
    after = streams.random(np.arange(count))
    assert np.array_equal(bits(head), bits(expected[advanced, 0]))
    assert np.array_equal(bits(after), bits(expected[np.arange(count), taken]))


@settings(max_examples=60, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, 16), st.data())
def test_a_continued_stream_equals_shot_rng_after_routed_draws(seed, first, count, data):
    routed = data.draw(st.integers(0, 6))
    streams = ShotStreams(seed, first, count)
    for _ in range(routed):
        streams.random(np.arange(count))
    row = data.draw(st.integers(0, count - 1))
    continued = [streams.random(row) for _ in range(64)]
    expected = shot_rng(seed, first + row).random(routed + 64)[routed:]
    assert np.array_equal(bits(continued), bits(expected))


ROUTED_DEPTHS = 6
FIXED_P1 = st.sampled_from([0.0, 1.0, 1.0000000000000002])


def read(streams, rows, k, fixed):
    """`rows`' k-th uniforms, or None where a `fixed` p1 lets them skip the draw."""
    if fixed is None:
        return streams.draws(rows, k)
    assert streams.outcomes(rows, k, fixed) is (fixed >= 1.0)  # one bool for all rows
    return None


@settings(max_examples=100, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(1, 40), st.integers(0, 3), st.data())
def test_table_draws_equal_shot_rng_in_routing_order(seed, first, count, depths, data):
    """Random subsets read depth-first, as run_program routes: a part goes
    deeper while its sibling waits, then reads the shallower depth.  At
    each depth a part draws or, where p1 fixes its outcome, skips the draw.
    The table ends after `depths` depths, and rows step by themselves past
    it, over the depths they skipped."""
    expected = bits(reference(seed, first, count, ROUTED_DEPTHS))
    streams = ShotStreams(seed, first, count)
    waiting, deepest = [(np.arange(count), 0)], -1
    with mock.patch.object(interpreter, "MAX_DRAW_TABLE_BYTES", depths * count * 8 + 1):
        while waiting:
            rows, k = waiting.pop()
            fixed = data.draw(st.one_of(st.none(), FIXED_P1))
            got = read(streams, rows, k, fixed)
            if got is not None:
                assert np.array_equal(bits(got), expected[rows, k])
                deepest = max(deepest, k)
            if k + 1 < ROUTED_DEPTHS:
                mask = data.draw(st.integers(0, 2 ** rows.size - 1))
                ones = (mask >> np.arange(rows.size) & 1).astype(bool)
                waiting += [(part, k + 1) for part in (rows[~ones], rows[ones]) if part.size]
    # the table holds every depth up to the deepest one drawn, within its cut
    assert len(streams.table) == min(depths, deepest + 1)


@settings(max_examples=60, deadline=None)
@given(SEEDS, FIRST_SHOTS, st.integers(2, 32), st.integers(0, 3), st.data())
def test_a_row_stepped_past_the_table_leaves_the_others_alone(seed, first, count, depths, data):
    """A miss's lead row reads by its row number, filling the table, then
    steps alone; the others read and skip the depths it does."""
    total = depths + 4
    expected = bits(reference(seed, first, count, total))
    streams = ShotStreams(seed, first, count)
    row = np.arange(count)[data.draw(st.integers(0, count - 1))]
    others = np.delete(np.arange(count), row)
    fixed = data.draw(st.lists(st.one_of(st.none(), FIXED_P1), min_size=total, max_size=total))
    drawn = [k for k in range(total) if fixed[k] is None]
    with mock.patch.object(interpreter, "MAX_DRAW_TABLE_BYTES", depths * count * 8 + 1):
        alone = [read(streams, row, k, fixed[k]) for k in range(total)]
        rest = [read(streams, others, k, fixed[k]) for k in range(total)]
    assert len(streams.table) == min(depths, max(drawn, default=-1) + 1)
    assert np.array_equal(bits([alone[k] for k in drawn]), expected[row, drawn])
    assert np.array_equal(bits(np.reshape([rest[k] for k in drawn], (len(drawn), len(others))).T),
                          expected[others][:, drawn])


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
