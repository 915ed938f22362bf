"""Shot branching: run_program against a plain loop of fresh shots.

The reference runs every shot through `execute_shot` on a fresh
`StatevectorBackend` with its own `shot_rng(seed, i)` stream, which is what
run_program did before shots shared an outcome-history trie.  The two must
give byte-identical JSON, or fault at the same shot with the same message.
"""

import contextlib
import json
import math
import os
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
from qirvm import interpreter
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


def reference(module, entry, shots, seed):
    """Plain per-shot loop: JSON text, or the fault run_program must raise."""
    compiled = compile_program(module, entry, default_registry())
    outputs = []
    for shot_index in range(shots):
        backend = StatevectorBackend()
        backend.allocate(entry.num_qubits)
        try:
            outputs.append(execute_shot(compiled, backend, shot_rng(seed, shot_index)))
        except RuntimeFault as fault:
            return RuntimeFault(f"shot {shot_index}: {fault}")
    return emit_json(aggregate(
        outputs,
        program_name=module.source_name or entry.function_name,
        backend_name="statevector",
        seed=seed,
        rng_id=RNG_ID,
        num_qubits=entry.num_qubits,
        num_results=entry.num_results,
        keep_per_shot=True,
    ))


def assert_matches_reference(source, shots, seed):
    module = parse_module(source)
    entry = find_entry(module)
    expected = reference(module, entry, shots, seed)
    config = RunConfig(shots=shots, seed=seed, per_shot=True)
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
    that block, not the one that ran first.
    """
    n = draw(st.integers(1, 4))
    num_results = draw(st.integers(1, 3))
    measured = set()
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)

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

    lines, recorded_before, earlier, labels = ops(), 0, set(), ["entry"]
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
# |0...0>, and stop the trie growing partway through a run.  A small chunk
# makes runs of up to 64 shots cross several chunk boundaries.
SMALL_CHUNK = 5


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feed_forward_programs(), st.integers(1, 64), st.integers(0, 2 ** 32),
       st.sampled_from([interpreter.MAX_STORED_AMPLITUDES, 32, 8, 0]),
       st.sampled_from([interpreter.MAX_TRIE_NODES, 3]),
       st.sampled_from([interpreter.SHOT_CHUNK, SMALL_CHUNK]))
def test_run_program_matches_per_shot_loop(source, shots, seed, max_amplitudes, max_nodes,
                                           chunk):
    with mock.patch.multiple(interpreter, MAX_STORED_AMPLITUDES=max_amplitudes,
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
def captured_trie():
    """Collect the OutcomeTrie each run_program builds."""
    tries = []
    real_trie = interpreter.OutcomeTrie

    def outcome_trie():
        tries.append(real_trie())
        return tries[-1]

    with mock.patch.object(interpreter, "OutcomeTrie", outcome_trie):
        yield tries


def test_state_too_large_to_store_starts_misses_from_zero_state():
    n = 17
    assert 2 ** n > interpreter.MAX_STORED_AMPLITUDES
    lines = [call("h", qubit(0)), mz(0, 0), *branch(0, 0, [call("x", qubit(n - 1))], []),
             call("h", qubit(1)), mz(1, 1), mz(n - 1, 2)]
    source = program(lines, n, [0, 1, 2], 3)
    assert_matches_reference(source, shots=24, seed=3)
    with allocated_states() as states, captured_trie() as tries:
        run(source, shots=24, seed=3)
    # every miss after the first replays a walk, and each starts from |0...0>
    assert len(states) > 1 and all(state is None for state in states)
    [trie] = tries
    assert trie.nodes > 0 and not trie.stored


def test_a_miss_computes_no_gate_before_its_stored_state():
    # K gates on qubit 0, then two measurements of qubit 1 give four
    # histories; each miss after the first resumes from a stored state
    gates = 20
    lines = [call("ry", f"double {hexdouble(0.1 * k)}", qubit(0)) for k in range(gates)]
    lines += [call("h", qubit(1)), mz(1, 0), call("h", qubit(1)), mz(1, 1)]
    source = program(lines, 2, [0, 1], 2)
    assert_matches_reference(source, shots=64, seed=1)
    on_qubit_0 = []
    real_apply = StatevectorBackend.apply_gate

    def apply_gate(backend, gate_id, params, targets):
        on_qubit_0.extend(q for q in targets if q == 0)
        real_apply(backend, gate_id, params, targets)

    with allocated_states() as states, \
            mock.patch.object(StatevectorBackend, "apply_gate", apply_gate):
        histogram = run(source, shots=64, seed=1).histogram
    assert len(histogram) == len(states) == 4
    assert sum(state is not None for state in states) == 3
    assert len(on_qubit_0) == gates


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

    def apply_gate(backend, *args):
        events.append(None)
        real_apply(backend, *args)

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
    # measuring the coin again adds a node where no shots part, so storing
    # a state at every node would overrun this budget, but one at every
    # parting does not
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
    counted = []
    real_apply = StatevectorBackend.apply_gate

    def apply_gate(backend, *args):
        counted.append(args)
        real_apply(backend, *args)

    with mock.patch.object(interpreter, "MAX_STORED_AMPLITUDES", 16 * 4):  # 16 states
        assert_matches_reference(source, shots, seed)
        with mock.patch.object(StatevectorBackend, "apply_gate", apply_gate):
            run(source, shots, seed)
    assert len(counted) == sum(gates.values())


def test_a_full_budget_gives_a_needed_state_to_a_deeper_parting():
    trie = interpreter.OutcomeTrie()
    nodes = [trie.root]
    for _ in range(3):
        nodes.append(interpreter._Node(0.5, (nodes[-1], 0)))
    _, first, second, third = nodes
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
        # states no waiting group resumes from are dropped first
        trie.store(first, amplitudes, (), [(rows, third, 1)])
        assert list(trie.stored) == [third, first]


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
