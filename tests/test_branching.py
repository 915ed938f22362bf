"""Shot branching: run_program against a plain loop of fresh shots.

The reference runs every shot through `execute_shot` on a fresh
`StatevectorBackend` with its own `shot_rng(seed, i)` stream, which is what
run_program did before shots shared an outcome-history trie.  The two must
give byte-identical JSON, or fault at the same shot with the same message.
"""

import json
import math
import os
import struct
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qirvm import (
    RunConfig,
    RuntimeFault,
    ShotRecorder,
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
from qirvm import backends, interpreter
from qirvm.backends import ShotPath
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


def branch(index, r, then_lines, else_lines):
    return [
        f"  %c{index} = call i1 @__quantum__qis__read_result__body({result(r)})",
        f"  br i1 %c{index}, label %then{index}, label %else{index}",
        f"then{index}:",
        *then_lines,
        f"  br label %join{index}",
        f"else{index}:",
        *else_lines,
        f"  br label %join{index}",
        f"join{index}:",
    ]


def program(lines, num_qubits, recorded, num_results):
    body = ["entry:", *lines,
            f"  call void @__quantum__rt__array_record_output(i64 {len(recorded)}, i8* null)"]
    body += [f"  call void @__quantum__rt__result_record_output({result(r)}, i8* null)"
             for r in recorded]
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
        backend.allocate(entry.num_qubits, rng=shot_rng(seed, shot_index))
        try:
            outputs.append(execute_shot(compiled, backend, ShotRecorder()))
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


@st.composite
def feed_forward_programs(draw):
    """Random gates, mid-circuit mz/reset and `br i1` on read_result.

    Records every result some path measures, so a history that skips a
    measurement faults on the unmeasured result; both sides must agree.
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

    lines = ops()
    for index in range(draw(st.integers(0, 4))):
        r, q = draw(st.integers(0, num_results - 1)), draw(st.integers(0, n - 1))
        # a rotation first, so most branch conditions are random
        lines += [call("ry", f"double {hexdouble(draw(angles))}", qubit(q)), mz(q, r)]
        measured.add(r)
        lines += branch(index, r, ops(), ops())
        lines += ops()
    recorded = sorted(measured)
    return program(lines, n, recorded, num_results)


# Small budgets make misses replay from an ancestor's stored state, or from
# |0...0>, and stop the trie growing partway through a run.  A small chunk
# makes runs of up to 64 shots cross several chunk boundaries.
SMALL_CHUNK = 5


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feed_forward_programs(), st.integers(1, 64), st.integers(0, 2 ** 32),
       st.sampled_from([backends.MAX_STORED_AMPLITUDES, 32, 0]),
       st.sampled_from([backends.MAX_TRIE_NODES, 3]),
       st.sampled_from([interpreter.SHOT_CHUNK, SMALL_CHUNK]))
def test_run_program_matches_per_shot_loop(source, shots, seed, max_amplitudes, max_nodes,
                                           chunk):
    with mock.patch.multiple(backends, MAX_STORED_AMPLITUDES=max_amplitudes,
                             MAX_TRIE_NODES=max_nodes), \
            mock.patch.object(interpreter, "SHOT_CHUNK", chunk):
        assert_matches_reference(source, shots, seed)


def three_coin_flips(if_111, if_011=None, otherwise=()):
    """Measure three |+> qubits into results 0-2, then branch on the history."""
    otherwise = list(otherwise)
    if_011 = otherwise if if_011 is None else if_011
    return [*(call("h", qubit(q)) for q in range(3)), *(mz(q, q) for q in range(3)),
            *branch(0, 0, branch(1, 1, branch(2, 2, if_111, otherwise), otherwise),
                    branch(3, 1, branch(4, 2, if_011, otherwise), otherwise))]


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


def test_state_too_large_to_store_starts_misses_from_zero_state():
    n = 17
    assert 2 ** n > backends.MAX_STORED_AMPLITUDES
    lines = [call("h", qubit(0)), mz(0, 0), *branch(0, 0, [call("x", qubit(n - 1))], []),
             call("h", qubit(1)), mz(1, 1), mz(n - 1, 2)]
    source = program(lines, n, [0, 1, 2], 3)
    misses = []  # per trie miss of run_program: (path, walk, amplitude 0 after allocate)

    def shot_path(rng, walk, tail, trie):
        misses.append([ShotPath(rng, walk, tail, trie), walk])
        return misses[-1][0]

    real_allocate = StatevectorBackend.allocate

    def allocate(backend, num_qubits, rng=None, path=None):
        real_allocate(backend, num_qubits, rng, path)
        if path is not None:  # run_program's miss; the reference loop passes rng
            misses[-1].append(backend.amplitudes[0])

    with mock.patch.object(interpreter, "ShotPath", shot_path), \
            mock.patch.object(StatevectorBackend, "allocate", allocate):
        assert_matches_reference(source, shots=24, seed=3)
    assert misses and all(path.start is None and amplitude == 1.0
                          for path, _, amplitude in misses)
    trie = misses[0][0].trie
    assert trie.nodes > 0 and trie.stored_amplitudes == 0
    assert any(walk for _, walk, _ in misses)  # some replayed a walk with no stored state


def test_step_limit_hit_on_one_history_only():
    lines = [call("h", qubit(0)), mz(0, 0),
             f"  %c = call i1 @__quantum__qis__read_result__body({result(0)})",
             "  br i1 %c, label %spin, label %done",
             "spin:", "  br label %spin", "done:"]
    with mock.patch.object(interpreter, "STEP_LIMIT", 500):
        fault = assert_matches_reference(program(lines, 1, [0], 1), shots=16, seed=0)
    assert "step limit of 500 exceeded" in str(fault)
    assert not str(fault).startswith("shot 0:")  # earlier shots were sealed first


def test_fault_names_lowest_faulting_shot():
    # result 2 is measured only when both earlier outcomes are 0; otherwise
    # recording it faults, after a walk that replays from a stored state
    lines = [call("h", qubit(0)), call("h", qubit(1)), mz(0, 0),
             *branch(0, 0, [], [mz(1, 1), *branch(1, 1, [], [mz(1, 2)])])]
    source = program(lines, 2, [2], 3)
    faults = {seed: assert_matches_reference(source, shots=16, seed=seed) for seed in range(4)}
    assert all("use of unmeasured result 2" in str(f) for f in faults.values())
    assert {str(f).split(":")[0] for f in faults.values()} != {"shot 0"}


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
