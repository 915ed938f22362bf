"""Shot branching: run_program against a plain loop of fresh shots.

The reference runs every shot through `execute_shot` on a fresh backend
(a `StatevectorBackend` unless a test names another) with its own
`shot_rng(seed, i)` stream, which is what run_program did before shots
shared an outcome-history trie.  The two must give byte-identical JSON,
or fault at the same shot with the same message.
"""

import contextlib
import json
import math
import os
import pathlib
import resource
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qirvm import (
    RunConfig,
    RuntimeFault,
    StatevectorBackend,
    aggregate,
    compile_program,
    default_registry,
    emit_json,
    execute_shot,
    find_entry,
    parse_module,
    run_program,
    shot_rng,
)
from qirvm import TraceBackend, backends, interpreter
from qirvm.interpreter import RNG_ID

from conftest import QPE_LL, TELEPORT_LL, make_program

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

GATES_1Q = ["h", "x", "y", "z", "s", "t", "sy"]
ADJOINTS_1Q = ["s", "t"]
ROTATIONS = ["rx", "ry", "rz"]
GATES_2Q = ["cnot", "cy", "cz", "swap", "zz", "xx"]

DECLS = "\n".join(
    [f"declare void @__quantum__qis__{g}__body(%Qubit*)" for g in GATES_1Q]
    + [f"declare void @__quantum__qis__{g}__adj(%Qubit*)" for g in ADJOINTS_1Q]
    + [f"declare void @__quantum__qis__{g}__body(double, %Qubit*)" for g in ROTATIONS]
    + [f"declare void @__quantum__qis__{g}__body(%Qubit*, %Qubit*)" for g in GATES_2Q]
    + [
        "declare void @__quantum__qis__rzz__body(double, %Qubit*, %Qubit*)",
        "declare void @__quantum__qis__ccnot__body(%Qubit*, %Qubit*, %Qubit*)",
        "declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)",
        "declare void @__quantum__qis__reset__body(%Qubit*)",
        "declare i1 @__quantum__qis__read_result__body(%Result*)",
        "declare void @__quantum__rt__array_record_output(i64, i8*)",
        "declare void @__quantum__rt__result_record_output(%Result*, i8*)",
    ]
)


def qubit(q):
    return "%Qubit* null" if q == 0 else f"%Qubit* inttoptr (i64 {q} to %Qubit*)"


def result(r):
    return "%Result* null" if r == 0 else f"%Result* inttoptr (i64 {r} to %Result*)"


def hexdouble(value):
    return "0x%016X" % struct.unpack(">Q", struct.pack(">d", value))[0]


def call(name, *args, suffix="body"):
    return f"  call void @__quantum__qis__{name}__{suffix}({', '.join(args)})"


def mz(q, r):
    return call("mz", qubit(q), result(r))


def record(r):
    return f"  call void @__quantum__rt__result_record_output({result(r)}, i8* null)"


def branch(index, r, then_lines, else_lines, before_br=(), exits=(None, None)):
    """Bind %c<index> to result r, run `before_br`, then branch on it.

    Each arm jumps to its label in `exits`, or by default to join<index>.
    """
    then_exit, else_exit = (label or f"join{index}" for label in exits)
    return [
        f"  %c{index} = call i1 @__quantum__qis__read_result__body({result(r)})",
        *before_br,
        f"  br i1 %c{index}, label %then{index}, label %else{index}",
        f"then{index}:",
        *then_lines,
        f"  br label %{then_exit}",
        f"else{index}:",
        *else_lines,
        f"  br label %{else_exit}",
        f"join{index}:",
    ]


def program(lines, num_qubits, recorded, num_results, recorded_before=0):
    """`lines`, which record `recorded_before` results, then a record of each of `recorded`."""
    length = recorded_before + len(recorded)
    body = ["entry:", *lines,
            f"  call void @__quantum__rt__array_record_output(i64 {length}, i8* null)"]
    body += [record(r) for r in recorded]
    body.append("  ret void")
    return make_program(
        "\n".join(body),
        declarations=DECLS,
        attrs=f'"entry_point" "num_required_qubits"="{num_qubits}" '
              f'"num_required_results"="{num_results}"',
    )


def reference(module, entry, shots, seed, backend_choice):
    """Plain per-shot loop: JSON text, or the fault run_program must raise."""
    compiled = compile_program(module, entry, default_registry())
    outputs = []
    for shot_index in range(shots):
        backend = backends.create_backend(backend_choice)
        backend.allocate(entry.num_qubits)
        try:
            outputs.append(execute_shot(compiled, backend, shot_rng(seed, shot_index)))
        except RuntimeFault as fault:
            return RuntimeFault(f"shot {shot_index}: {fault}")
    return emit_json(aggregate(
        outputs,
        program_name=module.source_name or entry.function_name,
        backend_name=backend_choice,
        seed=seed,
        rng_id=RNG_ID,
        num_qubits=entry.num_qubits,
        num_results=entry.num_results,
        keep_per_shot=True,
    ))


def assert_matches_reference(source, shots, seed, backend_choice="statevector"):
    module = parse_module(source)
    entry = find_entry(module)
    expected = reference(module, entry, shots, seed, backend_choice)
    config = RunConfig(shots=shots, seed=seed, backend_choice=backend_choice, per_shot=True)
    if isinstance(expected, RuntimeFault):
        with pytest.raises(RuntimeFault) as raised:
            run_program(module, entry, default_registry(), config)
        assert str(raised.value) == str(expected)
        return expected
    assert emit_json(run_program(module, entry, default_registry(), config)) == expected
    return expected


# ry's angle for p1 = 1/8 from |0>: few shots jump at a coin, so the lowest
# that does most often shares its history with a lower one that did not
COIN = f"double {hexdouble(2 * math.asin(math.sqrt(1 / 8)))}"


@st.composite
def feed_forward_programs(draw):
    """Random gates, mid-circuit mz/reset and `br i1` on read_result.

    Records every result some path measures, so a history that skips a
    measurement faults on the unmeasured result; both sides must agree.
    Some rounds measure again between binding a bit and branching on it,
    and some record their bit before later measurements, so a shot that
    resumes at a later measurement needs its SSA values and records.
    Some branch arms end by measuring a random bit into the result of an
    earlier round, so a shot that resumes where an earlier one did and
    takes the other arm must read the result bits of the resume point, not
    the earlier shot's writes.  Some arms end with a jump back to an earlier
    block: a shot faults there if it entered that block, which a shot that
    resumes past it must remember, and otherwise runs it.  Others flip a
    coin at their end and on 1 jump back to a round-0 block (in round 0,
    to the arm itself), so the shots that jump part there from those that
    do not: the lowest shot to jump is then often one that resumed past
    that block, not the one that ran first.  Some begin with a measurement
    of a qubit still at |0>, a draw whose p1 fixes it, so the first node's
    draw index is above 0: a miss that replays from block 0 counts its
    draws from 0, not from that node's index.
    """
    n = draw(st.integers(1, 4))
    num_results = draw(st.integers(1, 3))
    measured = set()
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    first = []
    if draw(st.booleans()):
        measured.add(0)
        first.append(mz(draw(st.integers(0, n - 1)), 0))

    def ops():
        lines = []
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(["1q", "1q", "rot", "2q", "3q", "mz", "reset"]))
            if kind in ("2q", "3q") and n < int(kind[0]):
                kind = "1q"
            if kind == "1q":
                name = draw(st.sampled_from(GATES_1Q + ADJOINTS_1Q))
                suffix = "adj" if draw(st.booleans()) and name in ADJOINTS_1Q else "body"
                lines.append(call(name, qubit(draw(st.integers(0, n - 1))), suffix=suffix))
            elif kind == "rot":
                name = draw(st.sampled_from(ROTATIONS + ["rzz"] * (n > 1)))
                targets = draw(st.permutations(range(n)))[: 2 if name == "rzz" else 1]
                lines.append(call(name, f"double {hexdouble(draw(angles))}",
                                  *map(qubit, targets)))
            elif kind in ("2q", "3q"):
                name = draw(st.sampled_from(GATES_2Q)) if kind == "2q" else "ccnot"
                targets = draw(st.permutations(range(n)))[: int(kind[0])]
                lines.append(call(name, *map(qubit, targets)))
            elif kind == "mz":
                r = draw(st.integers(0, num_results - 1))
                measured.add(r)
                lines.append(mz(draw(st.integers(0, n - 1)), r))
            else:
                lines.append(call("reset", qubit(draw(st.integers(0, n - 1)))))
        return lines

    def measure_random_bit(r=None):
        r = draw(st.integers(0, num_results - 1)) if r is None else r
        q = draw(st.integers(0, n - 1))
        measured.add(r)
        # a rotation first, so most branch conditions are random
        return r, [call("ry", f"double {hexdouble(draw(angles))}", qubit(q)), mz(q, r)]

    lines, recorded_before, earlier, labels = first + ops(), 0, set(), ["entry"]
    for index in range(draw(st.integers(0, 4))):
        r, measure = measure_random_bit()
        lines += measure
        if draw(st.booleans()):
            lines.append(record(r))
            recorded_before += 1
        before_br = measure_random_bit()[1] if draw(st.integers(0, 2)) else []
        overwrite = sorted(earlier - {r})
        arms = [ops() + (measure_random_bit(draw(st.sampled_from(overwrite)))[1]
                         if overwrite and draw(st.booleans()) else []) for _ in range(2)]
        exits = [None, None]
        for arm, arm_lines in enumerate(arms):
            # about one arm in ten jumps back (hypothesis draws a range's ends more often)
            back = draw(st.integers(0, 9))
            if back == 7:
                exits[arm] = draw(st.sampled_from(
                    labels + [f"then{index}", f"else{index}"][: arm + 1]))
            elif back in (3, 5):
                # about one in five jumps back only if a coin into r (which every path
                # has measured) lands 1, to a round-0 block or, in round 0, this arm
                q, to = draw(st.integers(0, n - 1)), draw(st.sampled_from(
                    labels[1:4] or [("then", "else")[arm] + str(index)]))
                arm_lines += [call("reset", qubit(q)), call("ry", COIN, qubit(q)), mz(q, r),
                              f"  %b{index}_{arm} = call i1 "
                              f"@__quantum__qis__read_result__body({result(r)})",
                              f"  br i1 %b{index}_{arm}, label %{to}, label %stay{index}_{arm}",
                              f"stay{index}_{arm}:"]
        lines += branch(index, r, *arms, before_br, exits)
        labels += [f"then{index}", f"else{index}", f"join{index}"]
        earlier.add(r)
        lines += ops()
    return program(lines, n, sorted(measured), num_results, recorded_before)


# Small budgets make misses replay from an ancestor's stored state, or from
# |0...0>, and stop the trie growing partway through a run.  A budget is
# (amplitudes, states of the program's size); a zero budget holds one state.
# A small chunk makes runs of up to 64 shots cross several chunk boundaries.
BUDGETS = [(interpreter.MAX_STORED_AMPLITUDES, 0), (32, 0), (8, 0), (0, 0), (0, 1), (0, 2)]
SMALL_CHUNK = 5


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feed_forward_programs(), st.integers(1, 64), st.integers(0, 2 ** 32),
       st.sampled_from(BUDGETS), st.sampled_from([interpreter.MAX_TRIE_NODES, 3]),
       st.sampled_from([interpreter.SHOT_CHUNK, SMALL_CHUNK]))
def test_run_program_matches_per_shot_loop(source, shots, seed, budget, max_nodes, chunk):
    amplitudes, states = budget
    amplitudes += states << find_entry(parse_module(source)).num_qubits
    with mock.patch.multiple(interpreter, MAX_STORED_AMPLITUDES=amplitudes,
                             MAX_TRIE_NODES=max_nodes, SHOT_CHUNK=chunk):
        assert_matches_reference(source, shots, seed)


def three_coin_flips(if_111, if_011=None, otherwise=()):
    """Measure three |+> qubits into results 0-2, then branch on the history."""
    otherwise = list(otherwise)
    if_011 = otherwise if if_011 is None else if_011
    return [*(call("h", qubit(q)) for q in range(3)), *(mz(q, q) for q in range(3)),
            *branch(0, 0, branch(1, 1, branch(2, 2, if_111, otherwise), otherwise),
                    branch(3, 1, branch(4, 2, if_011, otherwise), otherwise))]


def coin(r):
    return [call("h", qubit(0)), mz(0, r)]


# Past the node cap, shots with shot 0's first two outcomes resume from one
# stored state, one after another.
@pytest.mark.parametrize("then_arm, after, seeds", [
    # One that takes the else arm records result 0 as measured before that
    # node, not as an earlier resumed shot's then arm overwrote it.
    (coin(0), [], range(3)),
    # One that takes the else arm, which does not bind %v, faults on the
    # branch on %v, although an earlier resumed shot's then arm bound it.
    ([f"  %v = call i1 @__quantum__qis__read_result__body({result(0)})"],
     ["  br i1 %v, label %a, label %b", "a:", "  br label %b", "b:"], (12, 16)),
], ids=["result-bits", "ssa-values"])
def test_shots_resuming_at_one_node_read_its_state(then_arm, after, seeds):
    lines = [*coin(0), *coin(1), *coin(1), *branch(0, 1, then_arm, []), *after]
    source = program(lines, 1, [0, 1], 2)
    with mock.patch.object(interpreter, "MAX_TRIE_NODES", 3):
        for seed in seeds:
            assert_matches_reference(source, shots=64, seed=seed)


def test_lowest_faulting_shot_past_the_first_chunk():
    # history 111 records result 3 without measuring it; at seed 2 the
    # first shot with that history is shot 8, in the second chunk
    source = program(three_coin_flips([], otherwise=[mz(0, 3)]), 3, [3], 4)
    with mock.patch.object(interpreter, "SHOT_CHUNK", SMALL_CHUNK):
        fault = assert_matches_reference(source, shots=24, seed=2)
    assert str(fault) == "shot 8: use of unmeasured result 3"


def test_labels_first_reached_in_a_later_chunk():
    def records(label):
        text = "null" if label is None else \
            f"getelementptr inbounds ([3 x i8], [3 x i8]* @{label}, i64 0, i64 0)"
        return ["  call void @__quantum__rt__array_record_output(i64 3, i8* null)"] + [
            f"  call void @__quantum__rt__result_record_output({result(r)}, i8* {text})"
            for r in range(3)]

    # histories 111 and 011 label their records "hi" and "lo"; at seed 2 the
    # first labelled shots are 6 (011) and 8 (111), both in the second chunk
    lines = ["entry:", *three_coin_flips(records("hi"), records("lo"), records(None)),
             "  ret void"]
    source = ('@hi = internal constant [3 x i8] c"hi\\00"\n'
              '@lo = internal constant [3 x i8] c"lo\\00"\n') + make_program(
        "\n".join(lines), declarations=DECLS,
        attrs='"entry_point" "num_required_qubits"="3" "num_required_results"="3"')
    with mock.patch.object(interpreter, "SHOT_CHUNK", SMALL_CHUNK):
        doc = json.loads(assert_matches_reference(source, shots=24, seed=2))
    labelled = [i for i, bits in enumerate(doc["per_shot"]) if bits.endswith("11")]
    assert labelled[:2] == [6, 8] and doc["labels"] == ["lo"] * 3


def test_teleport_matches_per_shot_loop():
    assert_matches_reference(TELEPORT_LL, shots=512, seed=11)


def run(source, shots, seed):
    module = parse_module(source)
    return run_program(module, find_entry(module), default_registry(),
                       RunConfig(shots=shots, seed=seed))


@contextlib.contextmanager
def allocated_states():
    """Collect the `state` argument of each StatevectorBackend.allocate call."""
    states = []
    real_allocate = StatevectorBackend.allocate

    def allocate(backend, num_qubits, state=None):
        states.append(state)
        real_allocate(backend, num_qubits, state)

    with mock.patch.object(StatevectorBackend, "allocate", allocate):
        yield states


@contextlib.contextmanager
def applied_gates():
    """Collect the gate of each StatevectorBackend.apply_gate call."""
    gates = []
    real_apply = StatevectorBackend.apply_gate

    def apply_gate(backend, gate):
        gates.append(gate)
        real_apply(backend, gate)

    with mock.patch.object(StatevectorBackend, "apply_gate", apply_gate):
        yield gates


@contextlib.contextmanager
def captured_trie():
    """Collect the OutcomeTrie each run_program builds."""
    tries = []
    real_trie = interpreter.OutcomeTrie

    def outcome_trie():
        tries.append(real_trie())
        return tries[-1]

    with mock.patch.object(interpreter, "OutcomeTrie", outcome_trie):
        yield tries


def test_a_miss_from_block_0_counts_its_fixed_first_draw():
    # draw 0 (qubit 1 at |0>) is fixed and makes no node, so the first node
    # is draw 1; with no state stored (every budget holds one, so `store` is
    # patched to keep none), the shots that part there replay from block 0,
    # and their draw 2 must read uniform 2, not uniform 3
    lines = [mz(1, 0), call("h", qubit(0)), mz(0, 1), call("h", qubit(0)), mz(0, 2)]
    source = program(lines, 2, [0, 1, 2], 3)
    with mock.patch.object(interpreter.OutcomeTrie, "store", lambda *args: None), \
            captured_trie() as tries:
        for seed in range(4):
            assert_matches_reference(source, shots=32, seed=seed)
    assert tries[0].root.children[0].k == 1 and not tries[0].stored


def trie_nodes(node):
    """Every node under `node`, depth first."""
    return [node] + [below for child in node.children if isinstance(child, interpreter._Node)
                     for below in trie_nodes(child)]


@pytest.mark.parametrize("workload, shots, nodes, most_gates", [("teleport", 16384, 3, 10),
                                                                ("ffloop-n14", 48, 1089, 15070)])
def test_every_trie_node_is_a_draw_in_doubt(workload, shots, nodes, most_gates, tmp_path):
    # teleport's five draws a shot hold two in doubt: one node for draw 0
    # and one for draw 2 under each of its outcomes.  The gate calls bound
    # the benchmark workloads' work: a change of eviction must not raise them.
    root = pathlib.Path(__file__).parent.parent
    path = tmp_path / "program.ll"
    subprocess.run([sys.executable, str(root / "perfbench" / "workloads.py"), workload,
                    "--seed", "0", str(path)], check=True, cwd=root, capture_output=True)
    with captured_trie() as tries, applied_gates() as gates:
        run(path.read_text(), shots=shots, seed=0)
    [trie] = tries
    got = trie_nodes(trie.root)[1:]
    assert len(got) == trie.nodes == nodes
    assert len(gates) <= most_gates
    assert all(0.0 < node.p1 < 1.0 for node in got)
    assert all(node.k > node.up[0].k for node in got if node.up[0] is not trie.root)


def test_a_state_larger_than_the_budget_is_stored_alone():
    n = 17
    assert 2 ** n > interpreter.MAX_STORED_AMPLITUDES
    lines = [call("h", qubit(0)), mz(0, 0), *branch(0, 0, [call("x", qubit(n - 1))], []),
             call("h", qubit(1)), mz(1, 1), mz(n - 1, 2)]
    source = program(lines, n, [0, 1, 2], 3)
    assert_matches_reference(source, shots=24, seed=3)
    with allocated_states() as states, captured_trie() as tries:
        run(source, shots=24, seed=3)
    # the budget holds one state.  The parting at draw 1 takes the place of
    # draw 0's, so the miss there resumes from it; the miss at draw 0's other
    # outcome starts from |0...0>, and the one it leaves at draw 1 resumes
    assert [state is None for state in states] == [True, False, True, False]
    [trie] = tries
    assert len(trie.stored) == 1


def test_ghz_17_applies_each_gate_once():
    # draw 0 is the only one in doubt: the 17 gates run once, and the shots
    # of its other outcome resume from the state stored there
    n = 17
    lines = [call("h", qubit(0)), *(call("cnot", qubit(0), qubit(q)) for q in range(1, n)),
             *(mz(q, q) for q in range(n))]
    source = program(lines, n, range(n), n)
    assert_matches_reference(source, shots=64, seed=0)
    with applied_gates() as gates:
        histogram = run(source, shots=64, seed=0).histogram
    assert sorted(histogram) == ["0" * n, "1" * n]
    assert len(gates) == n


# prints the tracemalloc peak of a warm run_program of the program on stdin
# at argv[1] shots.  Each peak is taken in a fresh process with the collector
# off: in a used one, Python's free lists hand out objects that tracemalloc
# never sees allocated, so a peak there depends on what ran before.
TRACED_PEAK = """
import gc, sys, tracemalloc
from qirvm import RunConfig, default_registry, find_entry, parse_module, run_program
module = parse_module(sys.stdin.read())
args = module, find_entry(module), default_registry(), RunConfig(shots=int(sys.argv[1]))
run_program(*args)
gc.disable()
tracemalloc.start()
run_program(*args)
print(tracemalloc.get_traced_memory()[1])
"""


def test_a_deep_program_peaks_within_a_mebibyte_of_its_64_shot_peak():
    # two histories of 1,001 draws a shot, each in doubt (the ry leaves p1
    # about 2.5e-19 before each mz of qubit 1): a per-depth table of every
    # shot's draws would add 32 MiB at 4,096 shots
    nudge = [call("ry", f"double {hexdouble(1e-9)}", qubit(1)), mz(1, 1)]
    source = program([call("h", qubit(0)), mz(0, 0), *nudge * 1000], 2, [0, 1], 2)
    env = dict(os.environ, PYTHONPATH=SRC)
    few, many = (int(subprocess.run(
        [sys.executable, "-c", TRACED_PEAK, str(shots)], input=source, env=env,
        capture_output=True, text=True, check=True, timeout=120).stdout) for shots in (64, 4096))
    assert many - few < 1 << 20


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))


@pytest.mark.parametrize("fixed_first", [False, True], ids=["deep", "fixed-first"])
def test_a_million_shots_of_1000_fixed_draws_fit_in_a_gigabyte(fixed_first, tmp_path):
    # h, mz, then 1,000 mz of a qubit at |0>: a draw whose p1 is 0 computes no
    # uniform and makes no node, so 10^6 shots route through one node a chunk.
    # With the fixed draws first, that node is draw 1,000, and a shot that
    # resumes there counts its draws from it.
    coin, fixed = [call("h", qubit(0)), mz(0, 0)], [mz(1, 1)] * 1000
    path = tmp_path / "program.ll"
    path.write_text(program(fixed + coin if fixed_first else coin + fixed, 2, [0, 1], 2))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    first, second = (subprocess.run(
        [sys.executable, "-m", "qirvm.cli", "run", str(path), "--shots", "1000000"], env=env,
        capture_output=True, check=True, timeout=30, preexec_fn=cap_address_space).stdout
        for _ in range(2))
    assert first == second
    assert json.loads(first)["histogram"].keys() == {"00", "10"}


# p1 values at which a draw is fixed (the first three) or in doubt: u < p1
# is 0 or 1 for every uniform u in [0, 1) exactly when p1 is not strictly
# between 0 and 1.  The coin after them shows the streams stay in step.
BOUNDARY_P1 = (0.0, 1.0, 1.0000000000000002, 0.9999999999999998, 5e-324, 0.5)


class BoundaryBackend(TraceBackend):
    """Hands `choose` the p1 of BOUNDARY_P1 at the measured qubit's index."""

    def measure(self, qubit, choose):
        return choose(BOUNDARY_P1[qubit], None)


@contextlib.contextmanager
def read_draws():
    """Collect the draw indices ShotStreams.draws is called with."""
    reads = set()
    real_draws = interpreter.ShotStreams.draws

    def draws(streams, rows, k):
        reads.add(k)
        return real_draws(streams, rows, k)

    with mock.patch.object(interpreter.ShotStreams, "draws", draws):
        yield reads


@pytest.mark.parametrize("chunk", [interpreter.SHOT_CHUNK, SMALL_CHUNK])
def test_fixed_draws_take_their_outcome_and_doubtful_ones_draw(chunk):
    n = len(BOUNDARY_P1)
    source = program([mz(q, q) for q in range(n)] * 2, n, range(n), n)
    with mock.patch.dict(backends._BACKENDS, boundary=BoundaryBackend), \
            mock.patch.object(interpreter, "SHOT_CHUNK", chunk), read_draws() as reads:
        doc = json.loads(assert_matches_reference(source, 40, 7, backend_choice="boundary"))
    assert set(doc["histogram"]) == {"011100", "011101"}  # the second round's outcomes
    # both rounds draw at 0.9999999999999998, 5e-324 and 0.5, and nowhere else
    assert reads == {k for k in range(2 * n) if 0.0 < BOUNDARY_P1[k % n] < 1.0}


def test_a_chunk_reads_only_its_doubtful_draws():
    # teleport's five draws a shot: the resets (draws 1 and 3) measure the
    # qubit the draw before fixed, and the corrections leave qubit 2, which
    # draw 4 measures, exactly at |0>; draws 0 and 2 are in doubt
    module = parse_module(TELEPORT_LL)
    entry = find_entry(module)
    with read_draws() as reads:
        run_program(module, entry, default_registry(), RunConfig(shots=16384))
    assert reads == {0, 2}
    with read_draws() as reads:
        run_program(module, entry, default_registry(),
                    RunConfig(shots=16384, backend_choice="trace"))
    # every p1 the trace backend hands over is 0.0 or 1.0
    assert not reads


def test_a_miss_computes_no_gate_before_its_stored_state():
    # K gates on qubit 0, then two measurements of qubit 1 give four
    # histories; each miss after the first resumes from a stored state
    gates = 20
    lines = [call("ry", f"double {hexdouble(0.1 * k)}", qubit(0)) for k in range(gates)]
    lines += [call("h", qubit(1)), mz(1, 0), call("h", qubit(1)), mz(1, 1)]
    source = program(lines, 2, [0, 1], 2)
    assert_matches_reference(source, shots=64, seed=1)
    with allocated_states() as states, applied_gates() as applied:
        histogram = run(source, shots=64, seed=1).histogram
    assert len(histogram) == len(states) == 4
    assert sum(state is not None for state in states) == 3
    assert sum(0 in gate.targets for gate in applied) == gates


def test_parted_shots_resume_from_a_stored_state_with_its_values_and_records():
    # every shot measures result 0 as 1, records it and binds it to %c0;
    # shots part at the second draw, and those that leave resume from the
    # state stored there, before the branch that reads %c0
    lines = [call("x", qubit(0)), mz(0, 0), record(0),
             f"  %c0 = call i1 @__quantum__qis__read_result__body({result(0)})",
             call("h", qubit(1)), mz(1, 1), "  br i1 %c0, label %then0, label %else0",
             "then0:", call("x", qubit(1)), "  br label %join0", "else0:", "  br label %join0",
             "join0:", call("h", qubit(1)), mz(1, 2)]
    source = program(lines, 2, [1, 2], 3, recorded_before=1)
    assert_matches_reference(source, shots=32, seed=4)
    with allocated_states() as states, captured_trie() as tries:
        histogram = run(source, shots=32, seed=4).histogram
    assert sorted(histogram) == ["100", "101", "110", "111"]
    second_draw = tries[0].root.children[0].children[1]
    assert second_draw.state is not None
    assert any(state is second_draw.state for state in states)


def gates_per_history_prefix(source, shots, seed):
    """{outcome-history prefix: gates a shot applies after it}, by the per-shot loop."""
    module = parse_module(source)
    entry = find_entry(module)
    compiled = compile_program(module, entry, default_registry())
    events = []
    real_apply, real_measure = StatevectorBackend.apply_gate, StatevectorBackend.measure

    def apply_gate(backend, gate):
        events.append(None)
        real_apply(backend, gate)

    def measure(backend, qubit, choose):
        events.append(real_measure(backend, qubit, choose))
        return events[-1]

    gates = {}
    with mock.patch.multiple(StatevectorBackend, apply_gate=apply_gate, measure=measure):
        for shot in range(shots):
            events.clear()
            backend = StatevectorBackend()
            backend.allocate(entry.num_qubits)
            execute_shot(compiled, backend, shot_rng(seed, shot))
            history = ()
            gates[history] = 0
            for event in events:
                if event is None:
                    gates[history] += 1
                else:
                    history += (event,)
                    gates[history] = 0
    return gates


def test_each_history_prefix_runs_its_gates_once():
    # rounds of gates and a coin flip whose outcome picks the next gates;
    # measuring the coin again after a 1 leaves p1 just below 1.0 on some
    # histories, a node where no shots part (after a 0 it is 0.0, fixed),
    # so storing a state at every node (24) would overrun this budget, but
    # one at every parting (15) does not
    lines = []
    for index in range(4):
        lines += [call("ry", f"double {hexdouble(0.3 + index)}", qubit(0)), call("h", qubit(1)),
                  mz(1, index), mz(1, index),
                  *branch(index, index, [call("x", qubit(0))],
                          [call("y", qubit(0)), call("s", qubit(0))])]
    source = program(lines, 2, [0, 1, 2, 3], 4)
    shots, seed = 64, 3
    gates = gates_per_history_prefix(source, shots, seed)
    assert len(gates) == 1 + 2 * (2 + 4 + 8 + 16)  # every history occurs
    with mock.patch.object(interpreter, "MAX_STORED_AMPLITUDES", 16 * 4):  # 16 states
        assert_matches_reference(source, shots, seed)
        with applied_gates() as counted:
            run(source, shots, seed)
    assert len(counted) == sum(gates.values())


def test_a_full_budget_gives_a_needed_state_to_a_deeper_parting():
    def chain():
        """A new trie, and three nodes down its outcome-0 slots."""
        trie = interpreter.OutcomeTrie()
        nodes = [trie.root]
        for k in range(3):
            nodes.append(interpreter._Node(0.5, k, (nodes[-1], 0)))
        return trie, *nodes[1:]

    trie, first, second, third = chain()
    amplitudes, rows = np.ones(4, dtype=complex), np.arange(2)
    with mock.patch.object(interpreter, "MAX_STORED_AMPLITUDES", 8):  # two states
        trie.store(first, amplitudes, (), [])
        trie.store(second, amplitudes, (), [(rows, first, 1)])
        assert list(trie.stored) == [first, second]
        # both are needed: the shallowest gives way to a deeper parting ...
        waiting = [(rows, first, 1), (rows, second, 1)]
        trie.store(third, amplitudes, (), waiting)
        assert list(trie.stored) == [second, third] and first.state is first.resume is None
        # ... but not to a shallower one
        trie.store(first, amplitudes, (), waiting + [(rows, third, 1)])
        assert list(trie.stored) == [second, third] and first.state is None
        # a state no waiting group resumes from gives way first ...
        trie.store(first, amplitudes, (), [(rows, third, 1)])
        assert list(trie.stored) == [third, first]
        # ... one state, the deepest: the shallow one, where later chunks
        # resume, stays
        trie, first, second, third = chain()
        for node in first, second, third:
            trie.store(node, amplitudes, (), [])
        assert list(trie.stored) == [first, third] and second.state is second.resume is None
        assert first.state is not None


def test_a_two_state_budget_evicts_and_matches_the_per_shot_loop():
    # five rounds of a gate on qubit 0 and a coin flip on qubit 1
    lines = []
    for r in range(5):
        lines += [call("ry", f"double {hexdouble(0.7 * r + 0.2)}", qubit(0)), call("h", qubit(1)),
                  mz(1, r)]
    source = program(lines, 2, list(range(5)), 5)
    with mock.patch.object(interpreter, "MAX_STORED_AMPLITUDES", 8):  # two 2-qubit states
        assert_matches_reference(source, shots=64, seed=2)
        with allocated_states() as states:
            run(source, shots=64, seed=2)
    # some group's state gave way to a deeper parting's, so it starts again
    # from |0...0>; with the default budget none does
    assert states[0] is None and any(state is None for state in states[1:])
    with allocated_states() as states:
        run(source, shots=64, seed=2)
    assert states[0] is None and all(state is not None for state in states[1:])


@pytest.mark.parametrize("seed", range(4))
def test_later_chunks_resume_from_the_state_before_the_first_measurement(seed):
    # three layers of ry on 8 qubits, then a measurement of each: every gate
    # comes before the first draw, and 512 shots in chunks of 64 reach many
    # histories, so the 8-state budget fills within a chunk.  A state that
    # no waiting group needs at a chunk's end, the one before the first
    # measurement above all, is what the next chunk's misses resume from.
    n = 8
    lines = [call("ry", f"double {hexdouble(1.3 + 0.05 * q + 0.02 * layer)}", qubit(q))
             for layer in range(3) for q in range(n)]
    lines += [mz(q, q) for q in range(n)]
    source = program(lines, n, range(n), n)
    with mock.patch.multiple(interpreter, SHOT_CHUNK=64, MAX_STORED_AMPLITUDES=8 * 2 ** n):
        assert_matches_reference(source, shots=512, seed=seed)
        with applied_gates() as gates:
            run(source, shots=512, seed=seed)
    assert len(gates) == 3 * n


READ_C = f"  %c = call i1 @__quantum__qis__read_result__body({result(0)})"


@pytest.mark.parametrize("lines", [
    # outcome 1 enters `spin`, which jumps back into itself
    [call("h", qubit(0)), mz(0, 0), READ_C, "  br i1 %c, label %spin, label %done",
     "spin:", "  br label %spin", "done:"],
    # `spin` measures, then flips the qubit.  Shot 0 measures 0, so shot 2,
    # the first to measure 1, resumes at the mz inside `spin` and must fault
    # at the jump back; a shot that forgot it had entered `spin` would
    # measure 0 there and end.
    [call("h", qubit(0)), "  br label %spin", "spin:", mz(0, 0), call("x", qubit(0)), READ_C,
     "  br i1 %c, label %spin, label %done", "done:"],
], ids=["loop", "resumed"])
def test_reentering_a_block_faults_on_one_history_only(lines):
    source = program(lines, 1, [0], 1)
    fault = assert_matches_reference(source, shots=16, seed=0)
    assert str(fault) == "shot 2: entered block 1 twice"  # earlier shots were sealed first
    with allocated_states() as states, pytest.raises(RuntimeFault):
        run(source, shots=16, seed=0)
    assert states[0] is None and states[-1] is not None  # shot 2 resumed from a stored state


def test_fault_names_lowest_faulting_shot():
    # result 2 is measured only when both earlier outcomes are 0; otherwise
    # recording it faults, after a walk that replays from a stored state
    lines = [call("h", qubit(0)), call("h", qubit(1)), mz(0, 0),
             *branch(0, 0, [], [mz(1, 1), *branch(1, 1, [], [mz(1, 2)])])]
    source = program(lines, 2, [2], 3)
    faults = {seed: assert_matches_reference(source, shots=16, seed=seed) for seed in range(4)}
    assert all("use of unmeasured result 2" in str(f) for f in faults.values())
    assert {str(f).split(":")[0] for f in faults.values()} != {"shot 0"}


def test_fault_reached_first_on_a_deeper_parting_names_the_lower_shot():
    # at seed 21, shot 0 draws 000 and parts the others at each draw; shot 2
    # (1..) faults on result 4 and shot 4 (001) on result 3, and the group
    # of shot 4, which parted deeper, runs first
    lines = [*(call("h", qubit(q)) for q in range(3)), *(mz(q, q) for q in range(3)),
             *branch(0, 0, [record(4)], branch(1, 1, [], branch(2, 2, [record(3)], [])))]
    source = program(lines, 3, [0, 1, 2], 5)
    faults = []
    real_execute = interpreter.execute_shot

    def execute_shot(*args):
        try:
            return real_execute(*args)
        except RuntimeFault as fault:
            faults.append(str(fault))
            raise

    with mock.patch.object(interpreter, "execute_shot", execute_shot):
        fault = assert_matches_reference(source, shots=8, seed=21)
    assert faults == ["use of unmeasured result 3", "use of unmeasured result 4"]
    assert str(fault) == "shot 2: use of unmeasured result 4"


def _cli_json(args):
    code = "import sys; from qirvm.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, check=True, timeout=120)
    return done.stdout


def test_output_does_not_depend_on_earlier_runs_in_the_process(tmp_path, capsysbinary):
    from qirvm.cli import main

    teleport, qpe = tmp_path / "teleport.ll", tmp_path / "qpe.ll"
    teleport.write_text(TELEPORT_LL)
    qpe.write_text(QPE_LL)
    runs = [[str(qpe), "--shots", "1024", "--seed", "2"],
            [str(teleport), "--shots", "2048", "--seed", "5", "--per-shot"],
            [str(teleport), "--shots", "2048", "--seed", "5", "--per-shot"]]
    for args in runs:
        assert main(["run", *args]) == 0
        in_process = capsysbinary.readouterr().out
        assert in_process == _cli_json(["run", *args])
