"""Operand signatures: the registry types, validates and dispatches every call."""

import pytest

from qirvm import (
    GateId,
    OpKind,
    OpSpec,
    RunConfig,
    default_registry,
    find_entry,
    parse_module,
    run_program,
    validate_profile,
)
from qirvm.ir import Const
from qirvm.registry import MEASURE_SPEC

from conftest import make_program

ATTRS = '"entry_point" "num_required_qubits"="3" "num_required_results"="3"'

# (typed spelling, opaque spelling) of one operand of each kind
SPELLINGS = {
    "qubit": lambda i: (f"%Qubit* inttoptr (i64 {i} to %Qubit*)", f"ptr inttoptr (i64 {i} to ptr)"),
    "result": lambda i: (f"%Result* inttoptr (i64 {i} to %Result*)",
                         f"ptr inttoptr (i64 {i} to ptr)"),
    "label": lambda i: ("i8* null", "ptr null"),
    "double": lambda i: ("double 0.5", "double 0.5"),
    "i64": lambda i: ("i64 3", "i64 3"),
}


def call_sources(name, spec):
    """The same call to `name` in typed and in opaque spelling, as modules."""
    args = [SPELLINGS[kind](i) for i, kind in enumerate(spec.operands)]
    sources = []
    for spelling in (0, 1):
        operands = ", ".join(arg[spelling] for arg in args)
        binding = "%0 = call i1" if spec.returns_bool else "call void"
        body = ["entry:"]
        # measure every result first, so reading one draws no warning
        body += [f"  call void @__quantum__qis__mz__body(%Qubit* null, {SPELLINGS['result'](r)[0]})"
                 for r in range(3)]
        body += [f"  {binding} @{name}({operands})", "  ret void"]
        sources.append(make_program("\n".join(body), attrs=ATTRS))
    return sources


def check_both_spellings(name, registry):
    typed, opaque = call_sources(name, registry.resolve(name))
    typed_module = parse_module(typed, registry)
    opaque_module = parse_module(opaque, registry)
    assert opaque_module == typed_module
    assert validate_profile(opaque_module, find_entry(opaque_module), registry) == []
    return opaque_module.functions[0].blocks[0].instructions[3]


@pytest.mark.parametrize("name", sorted(default_registry().names()))
def test_every_registered_name_parses_the_same_in_both_spellings(name):
    check_both_spellings(name, default_registry())


def test_custom_measure_intrinsic_in_opaque_spelling():
    registry = default_registry()
    registry.register("__quantum__qis__mymeasure__body", MEASURE_SPEC)
    call = check_both_spellings("__quantum__qis__mymeasure__body", registry)
    assert call.args == (Const("qubit", 0), Const("result", 1))


MYREAD = "__quantum__qis__myread__body"


def myread_program(binding):
    return make_program(
        "entry:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        f"  {binding} @{MYREAD}(%Result* null)\n"
        "  br i1 %0, label %one, label %done\n"
        "one:\n  call void @__quantum__qis__x__body(%Qubit* inttoptr (i64 1 to %Qubit*))\n"
        "  br label %done\n"
        "done:\n"
        "  call void @__quantum__qis__mz__body(%Qubit* inttoptr (i64 1 to %Qubit*), "
        "%Result* inttoptr (i64 1 to %Result*))\n"
        "  call void @__quantum__rt__array_record_output(i64 2, i8* null)\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  call void @__quantum__rt__result_record_output(%Result* inttoptr (i64 1 to %Result*), "
        "i8* null)\n"
        "  ret void",
        attrs='"entry_point" "num_required_qubits"="2" "num_required_results"="2"',
    )


def test_custom_read_result_intrinsic_binds_an_i1_and_branches_on_it():
    registry = default_registry()
    registry.register(MYREAD, OpSpec(OpKind.READ_RESULT))
    module = parse_module(myread_program("%0 = call i1"), registry)
    entry = find_entry(module)
    assert validate_profile(module, entry, registry) == []
    for seed in range(3):
        result = run_program(module, entry, registry, RunConfig(shots=32, seed=seed))
        assert result.histogram.keys() == {"00", "11"}  # result 1 copies the branch taken
    unbound = parse_module(myread_program("call void"), registry)
    diagnostics = validate_profile(unbound, find_entry(unbound), registry)
    assert [d.message for d in diagnostics if d.severity == "error"] == [
        f"@{MYREAD} return-binding mismatch"]


def test_unregistered_ptr_operand_stays_a_qubit_and_fails_validation():
    src = make_program(
        "entry:\n  call void @__quantum__qis__mine__body(ptr null, ptr inttoptr (i64 1 to ptr))\n"
        "  ret void",
        attrs=ATTRS,
    )
    module = parse_module(src)
    call = module.functions[0].blocks[0].instructions[0]
    assert call.args == (Const("qubit", 0), Const("qubit", 1))
    diagnostics = validate_profile(module, find_entry(module), default_registry())
    assert [d.severity for d in diagnostics] == ["error"]


def test_opaque_declaration_params_take_the_signature():
    typed = make_program("entry:\n  ret void",
                         declarations="declare void @__quantum__qis__mz__body(%Qubit*, %Result*)")
    opaque = make_program("entry:\n  ret void",
                          declarations="declare void @__quantum__qis__mz__body(ptr, ptr)")
    assert parse_module(opaque) == parse_module(typed)


def test_gate_spec_shape_comes_from_the_gate_table():
    rzz = OpSpec(OpKind.GATE, GateId.RZZ)
    assert (rzz.num_qubits, rzz.num_params) == (2, 1)
    assert rzz.operands == ("double", "qubit", "qubit")
    assert OpSpec(OpKind.MEASURE).operands == ("qubit", "result")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=OpKind.GATE),
        dict(kind=OpKind.MEASURE, gate_id=GateId.X),
    ],
)
def test_spec_disagreeing_with_its_shape_is_rejected_when_built(kwargs):
    with pytest.raises(ValueError):
        OpSpec(**kwargs)


def test_initialize_arity_is_checked():
    src = make_program(
        "entry:\n  call void @__quantum__rt__initialize(i64 3, double 1.0)\n  ret void",
        attrs=ATTRS,
    )
    module = parse_module(src)
    diagnostics = validate_profile(module, find_entry(module), default_registry())
    assert [d.severity for d in diagnostics] == ["error"]
    assert "expects (label)" in diagnostics[0].message
