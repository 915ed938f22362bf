import dataclasses
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from qirvm import (
    RunConfig,
    RuntimeFault,
    StatevectorBackend,
    TraceBackend,
    compile_program,
    default_registry,
    emit_json,
    execute_shot,
    find_entry,
    parse_module,
    run_program,
    shot_rng,
    validate_profile,
)
from qirvm import backends
from qirvm.analyze import Control
from qirvm.ir import Call
from qirvm.registry import OpKind

from conftest import make_program
from irprint import render_module, same_records

MEASURE_DECLS = """\
declare void @__quantum__qis__x__body(%Qubit*)
declare void @__quantum__qis__h__body(%Qubit*)
declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)
declare i1 @__quantum__qis__read_result__body(%Result*)
declare void @__quantum__rt__result_record_output(%Result*, i8*)
declare void @__quantum__rt__array_record_output(i64, i8*)"""

ENTRY_1Q = '"entry_point" "num_required_qubits"="1" "num_required_results"="1"'


def feedforward_program(prep_gate):
    # the recorded bit equals the branch condition, so the histogram counts
    # then-branch shots directly
    return make_program(
        "entry:\n"
        f"  call void @__quantum__qis__{prep_gate}__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %then, label %else\n"
        "then:\n"
        "  br label %done\n"
        "else:\n"
        "  br label %done\n"
        "done:\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )


def run(src, **config):
    module = parse_module(src)
    entry = find_entry(module)
    return run_program(module, entry, default_registry(), RunConfig(**config))


def test_deterministic_then_branch():
    result = run(feedforward_program("x"), shots=100, seed=0)
    assert result.histogram == {"1": 100}


def test_fair_branch_frequency():
    result = run(feedforward_program("h"), shots=1000, seed=0)
    taken = result.histogram.get("1", 0)
    assert 470 <= taken <= 530


def test_empty_main_shots():
    result = run(make_program("entry:\n  ret void"), shots=5)
    assert result.shots == 5
    assert result.histogram == {"": 5}


def test_determinism_byte_identical_json():
    a = run(feedforward_program("h"), shots=64, seed=42, per_shot=True)
    b = run(feedforward_program("h"), shots=64, seed=42, per_shot=True)
    assert emit_json(a) == emit_json(b)


def test_seed_changes_outcomes_but_conserves_counts():
    a = run(feedforward_program("h"), shots=256, seed=1, per_shot=True)
    b = run(feedforward_program("h"), shots=256, seed=2, per_shot=True)
    assert a.per_shot != b.per_shot
    assert sum(a.histogram.values()) == sum(b.histogram.values()) == 256


def test_shot_isolation_rng_depends_only_on_seed_and_index():
    draws_a = [shot_rng(9, i).random() for i in range(8)]
    draws_b = [shot_rng(9, i).random() for i in reversed(range(8))]
    assert draws_a == list(reversed(draws_b))


# bool is an int subclass that JSON would write as true; a negative seed
# failed only inside numpy, and would wrap in a uint32 cast
@pytest.mark.parametrize("seed", [True, False, -1, 1.0, "3", None])
def test_run_config_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        RunConfig(seed=seed)


@pytest.mark.parametrize("backend", ["foo", "", None, ["statevector"]])
def test_run_config_rejects_an_unknown_backend(backend):
    with pytest.raises(ValueError, match=r"^backend must be one of statevector, trace, not "):
        RunConfig(backend_choice=backend)


def test_run_config_cannot_be_changed_past_its_checks():
    config = RunConfig()
    for name, value in ("shots", 0), ("seed", -1), ("backend_choice", "foo"), ("per_shot", True):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert config == RunConfig()


# shots=True ran one shot; 2.5 and "3" failed with a TypeError inside run_program
@pytest.mark.parametrize("shots", [True, False, 0, -1, 2.5, "3", None])
def test_run_config_rejects_shots_that_are_not_a_positive_int(shots):
    with pytest.raises(ValueError, match="shots must be a positive int"):
        RunConfig(shots=shots)


def test_read_unmeasured_result_faults():
    src = make_program(
        "entry:\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %a, label %a\n"
        "a:\n  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )
    with pytest.raises(RuntimeFault, match="unmeasured result"):
        run(src, shots=1)


def test_fault_is_annotated_with_shot_index():
    src = make_program(
        "entry:\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %a, label %a\n"
        "a:\n  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )
    with pytest.raises(RuntimeFault, match="shot 0"):
        run(src, shots=3)


LOOP = make_program(
    "entry:\n  br label %loop\n"
    "loop:\n"
    "  call void @__quantum__qis__h__body(%Qubit* null)\n"
    "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
    "  br label %loop",
    declarations=MEASURE_DECLS,
    attrs=ENTRY_1Q,
)


def test_a_shot_faults_at_the_jump_back_into_a_block():
    module = parse_module(LOOP)
    entry = find_entry(module)
    with pytest.raises(RuntimeFault, match=r"^shot 0: entered block 1 twice$"):
        run_program(module, entry, default_registry(), RunConfig(shots=3))
    backend = StatevectorBackend()
    backend.allocate(entry.num_qubits)
    with pytest.raises(RuntimeFault, match=r"^entered block 1 twice$"):
        execute_shot(compile_program(module, entry, default_registry()), backend, shot_rng(0, 0))


def test_a_jump_back_to_the_entry_block_faults():
    with pytest.raises(RuntimeFault, match=r"^shot 0: entered block 0 twice$"):
        run(make_program("entry:\n  br label %next\nnext:\n  br label %entry"), shots=1)


@pytest.mark.parametrize("cond,taken,bit", [("true", "one", "1"), ("false", "zero", "0")])
def test_constant_condition_branch_is_a_jump_to_the_named_block(cond, taken, bit):
    src = make_program(
        f"entry:\n  br i1 {cond}, label %one, label %zero\n"
        "one:\n  call void @__quantum__qis__x__body(%Qubit* null)\n  br label %zero\n"
        "zero:\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )
    module = parse_module(src)
    assert same_records(parse_module(render_module(module)), module)
    entry = find_entry(module)
    labels = [block.label for block in module.function(entry.function_name).blocks]
    program = compile_program(module, entry, default_registry())
    assert program[0] == ((Control.JUMP, labels.index(taken)),)
    assert run(src, shots=8).histogram == {bit: 8}


def test_teleport_executes_10_to_12_qis_calls_per_shot(teleport_module, teleport_entry):
    # backend ops (gates + mz + reset) per branch path, plus 2 read_result
    # calls, give 11/12/13 QIS calls; trace log sees the 9/10/11 backend ops
    for bits, expected_qis_calls in [((0, 0), 11), ((1, 0), 12), ((0, 1), 12), ((1, 1), 13)]:
        backend = TraceBackend(measure_bits=list(bits))
        backend.allocate(teleport_entry.num_qubits)
        execute_shot(compile_program(teleport_module, teleport_entry, default_registry()),
                     backend, shot_rng(0, 0))
        assert len(backend.log) + 2 == expected_qis_calls


def test_teleport_forced_bits_give_expected_bitstring(teleport_module, teleport_entry):
    backend = TraceBackend(measure_bits=[1, 0, 0])
    backend.allocate(teleport_entry.num_qubits)
    out = execute_shot(
        compile_program(teleport_module, teleport_entry, default_registry()),
        backend, shot_rng(0, 0),
    )
    assert out.bitstring == "100"


def test_a_loop_back_to_a_binding_faults_at_the_jump():
    # the parser lets %0 be defined once, and the jump that would bind it again faults
    src = make_program(
        "entry:\n"
        "  call void @__quantum__qis__x__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  br label %loop\n"
        "loop:\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %loop, label %done\n"
        "done:\n"
        "  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )
    with pytest.raises(RuntimeFault, match=r"^shot 0: entered block 1 twice$"):
        run(src, shots=1)


def test_branch_on_unbound_ssa_value_faults():
    src = make_program(
        "entry:\n  br i1 %7, label %a, label %a\na:\n  ret void",
        attrs=ENTRY_1Q,
    )
    with pytest.raises(RuntimeFault, match=r"^shot 0: use of unbound SSA value %7$"):
        run(src, shots=1)


def branch_program(then_call):
    """Measure |+>, run `then_call` only when the outcome is 1, record the bit."""
    return make_program(
        "entry:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %then, label %done\n"
        "then:\n"
        f"  {then_call}\n"
        "  br label %done\n"
        "done:\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  ret void",
        declarations=MEASURE_DECLS,
        attrs='"entry_point" "num_required_qubits"="2" "num_required_results"="1"',
    )


def first_then_shot(seed, shots=16):
    outcomes = run(branch_program("call void @__quantum__qis__x__body(%Qubit* null)"),
                   shots=shots, seed=seed, per_shot=True).per_shot
    return outcomes.index("1")


@pytest.mark.parametrize("seed", range(4))
def test_call_with_ssa_operand_faults_when_reached(seed):
    # at qubit count 2 the boolean would silently address qubit 1
    src = branch_program("call void @__quantum__qis__x__body(i1 %0)")
    message = "@__quantum__qis__x__body expects (qubit) but was called with (i1)"
    module = parse_module(src)
    diagnostics = validate_profile(module, find_entry(module), default_registry())
    assert [(d.severity, d.message) for d in diagnostics] == [("error", message)]
    with pytest.raises(RuntimeFault) as fault:
        run(src, shots=16, seed=seed)
    assert str(fault.value) == f"shot {first_then_shot(seed)}: {message}"


@pytest.mark.parametrize("seed", range(4))
def test_unresolved_call_faults_at_lowest_shot_taking_its_branch(seed):
    src = branch_program("call void @__quantum__qis__nope__body(%Qubit* null)")
    message = "call to unresolved function @__quantum__qis__nope__body"
    with pytest.raises(RuntimeFault) as fault:
        run(src, shots=16, seed=seed)
    assert str(fault.value) == f"shot {first_then_shot(seed)}: {message}"


def test_branch_soundness_on_crafted_program():
    # trace backend forces the measurement, so the recorded gate stream
    # reveals which branch ran
    src = make_program(
        "entry:\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %then, label %else\n"
        "then:\n"
        "  call void @__quantum__qis__x__body(%Qubit* null)\n"
        "  br label %done\n"
        "else:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        "  br label %done\n"
        "done:\n  ret void",
        declarations=MEASURE_DECLS,
        attrs=ENTRY_1Q,
    )
    module = parse_module(src)
    entry = find_entry(module)
    for bit, gate in [(1, "x"), (0, "h")]:
        backend = TraceBackend(measure_bits=[bit])
        backend.allocate(1)
        execute_shot(compile_program(module, entry, default_registry()), backend,
                     shot_rng(0, 0))
        assert backend.log[-1][0] == gate


def test_statevector_backend_through_interpreter(teleport_module, teleport_entry):
    backend = StatevectorBackend()
    backend.allocate(teleport_entry.num_qubits)
    out = execute_shot(
        compile_program(teleport_module, teleport_entry, default_registry()),
        backend, np.random.default_rng(0),
    )
    assert len(out.bitstring) == 3
    assert out.bitstring[2] == "0"  # teleported |0> always measures 0


def test_each_gate_is_lowered_once_per_run_not_once_per_application(tmp_path):
    # ffloop-n14 (seed 0, 48 shots) applies 15,070 gates at 408 gate call sites
    root = pathlib.Path(__file__).parent.parent
    program = tmp_path / "ffloop.ll"
    subprocess.run([sys.executable, str(root / "perfbench" / "workloads.py"), "ffloop-n14",
                    "--seed", "0", str(program)], check=True)
    module = parse_module(program.read_text())
    entry, registry = find_entry(module), default_registry()
    kinds = [registry.resolve(ins.callee).kind
             for block in module.function(entry.function_name).blocks
             for ins in block.instructions if isinstance(ins, Call)]
    sites, resets = kinds.count(OpKind.GATE), kinds.count(OpKind.RESET)
    real_apply = StatevectorBackend.apply_gate
    applied = []

    def apply_gate(backend, gate):
        applied.append(gate)
        real_apply(backend, gate)

    with mock.patch.object(backends, "gate_matrix", wraps=backends.gate_matrix) as gate_matrix, \
            mock.patch.object(StatevectorBackend, "apply_gate", apply_gate):
        run_program(module, entry, registry, RunConfig(shots=48, seed=0))
    assert (sites, resets) == (408, 24)
    assert len(applied) > 10 * (sites + resets)
    assert sites <= gate_matrix.call_count <= sites + resets  # once per site, at compile time
