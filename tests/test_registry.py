import pytest

from qirvm import GateId, OpKind, OpSpec, Unresolved, default_registry

# the complete default name set, enumerated independently of the builder
EXPECTED_NAMES = (
    [
        f"__quantum__qis__{op}__body"
        for op in (
            "h", "x", "y", "z", "s", "t", "sy", "rx", "ry", "rz", "rzz",
            "cnot", "cx", "cy", "cz", "ccx", "ccnot", "swap", "zz", "xx",
            "mz", "m", "reset",
        )
    ]
    + ["__quantum__qis__s__adj", "__quantum__qis__t__adj"]
    + ["__quantum__qis__read_result__body"]
    + [
        "__quantum__rt__initialize",
        "__quantum__rt__array_record_output",
        "__quantum__rt__result_record_output",
    ]
)


def test_default_name_set_is_exact():
    reg = default_registry()
    assert reg.names() == frozenset(EXPECTED_NAMES)
    assert len(reg) == len(EXPECTED_NAMES)


def test_hadamard_spec():
    spec = default_registry().resolve("__quantum__qis__h__body")
    assert spec == OpSpec(OpKind.GATE, GateId.H, num_qubits=1, num_params=0)


def test_rz_spec():
    spec = default_registry().resolve("__quantum__qis__rz__body")
    assert spec.kind is OpKind.GATE
    assert spec.gate_id is GateId.RZ
    assert (spec.num_qubits, spec.num_params) == (1, 1)


def test_record_result_spec():
    spec = default_registry().resolve("__quantum__rt__result_record_output")
    assert spec.kind is OpKind.RECORD_RESULT
    assert spec.num_qubits == 0 and spec.num_params == 0


@pytest.mark.parametrize(
    "a,b",
    [
        ("__quantum__qis__cnot__body", "__quantum__qis__cx__body"),
        ("__quantum__qis__ccnot__body", "__quantum__qis__ccx__body"),
        ("__quantum__qis__mz__body", "__quantum__qis__m__body"),
    ],
)
def test_alias_coherence(a, b):
    reg = default_registry()
    assert reg.resolve(a) == reg.resolve(b)
    assert not isinstance(reg.resolve(a), Unresolved)


def test_every_gate_id_reachable():
    reg = default_registry()
    reachable = {
        spec.gate_id
        for spec in (reg.resolve(n) for n in reg.names())
        if not isinstance(spec, Unresolved) and spec.kind is OpKind.GATE
    }
    assert reachable == set(GateId)


def test_unresolved_carries_name():
    miss = default_registry().resolve("__quantum__qis__nope__body")
    assert miss == Unresolved("__quantum__qis__nope__body")


def test_register_then_resolve():
    reg = default_registry()
    spec = OpSpec(OpKind.GATE, GateId.RZ, num_qubits=1, num_params=1)
    replaced = reg.register("__quantum__qis__mygate__body", spec)
    assert replaced is False
    assert reg.resolve("__quantum__qis__mygate__body") == spec


def test_overwrite_reports_replacement():
    reg = default_registry()
    new_spec = OpSpec(OpKind.GATE, GateId.X, num_qubits=1)
    assert reg.register("__quantum__qis__h__body", new_spec) is True
    assert reg.resolve("__quantum__qis__h__body") == new_spec


def test_frozen_registry_rejects_writes():
    reg = default_registry().freeze()
    with pytest.raises(RuntimeError):
        reg.register("__quantum__qis__late__body", OpSpec(OpKind.RESET, num_qubits=1))


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        default_registry().register("", OpSpec(OpKind.RESET, num_qubits=1))
