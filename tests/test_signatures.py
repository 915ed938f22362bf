"""Operand signatures: the registry types, validates and dispatches every call."""

import pytest

from qirvm import (
    GateId,
    OpKind,
    OpSpec,
    default_registry,
    find_entry,
    parse_module,
    validate_profile,
)
from qirvm.ir import QubitRef, ResultRef
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
    assert call.args == (QubitRef(0), ResultRef(1))


def test_unregistered_ptr_operand_stays_a_qubit_and_fails_validation():
    src = make_program(
        "entry:\n  call void @__quantum__qis__mine__body(ptr null, ptr inttoptr (i64 1 to ptr))\n"
        "  ret void",
        attrs=ATTRS,
    )
    module = parse_module(src)
    assert module.functions[0].blocks[0].instructions[0].args == (QubitRef(0), QubitRef(1))
    diagnostics = validate_profile(module, find_entry(module), default_registry())
    assert [d.severity for d in diagnostics] == ["error"]


def test_opaque_declaration_params_take_the_signature():
    typed = make_program("entry:\n  ret void",
                         declarations="declare void @__quantum__qis__mz__body(%Qubit*, %Result*)")
    opaque = make_program("entry:\n  ret void",
                          declarations="declare void @__quantum__qis__mz__body(ptr, ptr)")
    assert parse_module(opaque) == parse_module(typed)


def test_gate_spec_shape_comes_from_the_gate_table():
    assert OpSpec(OpKind.GATE, GateId.RZZ) == OpSpec(OpKind.GATE, GateId.RZZ, 2, 1)
    assert OpSpec(OpKind.GATE, GateId.RZZ).operands == ("double", "qubit", "qubit")
    assert OpSpec(OpKind.MEASURE).operands == ("qubit", "result")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=OpKind.GATE, gate_id=GateId.CNOT, num_qubits=1),
        dict(kind=OpKind.GATE, gate_id=GateId.RX, num_params=0),
        dict(kind=OpKind.GATE),
        dict(kind=OpKind.MEASURE, num_qubits=2),
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
