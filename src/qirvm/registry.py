"""Name -> operation mapping for QIS and runtime functions.

The registry is the dispatch table between parsed call instructions and
backend operations.  It is built once during setup, optionally extended
with custom operations, then frozen and shared across shot executors.

An OpSpec is a kind and, for a gate, a GateId; everything else about it
is derived.  It is the one place that states an operation's operand
signature (`OpSpec.operands`, from GATE_SHAPES for gates): the parser types
opaque `ptr` operands by it, the validator checks every call against it,
and the gate layer and backends take gate arity from GATE_SHAPES.  A name
the registry does not hold resolves to None.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class GateId(enum.Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    SY = "sy"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    RZZ = "rzz"
    CNOT = "cnot"
    CY = "cy"
    CZ = "cz"
    CCNOT = "ccnot"
    SWAP = "swap"
    ZZ = "zz"
    XX = "xx"


class OpKind(enum.Enum):
    GATE = "gate"
    MEASURE = "measure"
    RESET = "reset"
    READ_RESULT = "read_result"
    RECORD_ARRAY = "record_array"
    RECORD_RESULT = "record_result"
    INITIALIZE = "initialize"


# GateId -> (num_params, num_qubits): the one statement of each gate's shape.
# Parameters come first in a call, then the qubits they act on.
GATE_SHAPES = {
    **{g: (0, 1) for g in (GateId.H, GateId.X, GateId.Y, GateId.Z, GateId.S, GateId.SDG,
                           GateId.SY, GateId.T, GateId.TDG)},
    **{g: (1, 1) for g in (GateId.RX, GateId.RY, GateId.RZ)},
    GateId.RZZ: (1, 2),
    **{g: (0, 2) for g in (GateId.CNOT, GateId.CY, GateId.CZ, GateId.SWAP,
                           GateId.ZZ, GateId.XX)},
    GateId.CCNOT: (0, 3),
}

# Operand kinds of every non-gate operation.  Kinds are the IR's type names:
# qubit, result, label (i8*), double, i64, i32, i1.
_KIND_OPERANDS = {
    OpKind.MEASURE: ("qubit", "result"),
    OpKind.RESET: ("qubit",),
    OpKind.READ_RESULT: ("result",),
    OpKind.RECORD_ARRAY: ("i64", "label"),
    OpKind.RECORD_RESULT: ("result", "label"),
    OpKind.INITIALIZE: ("label",),
}


@dataclass(frozen=True)
class OpSpec:
    """One operation: its kind and, for a gate, its GateId.

    The rest follows from those two: the operand signature from GATE_SHAPES
    or _KIND_OPERANDS, and only READ_RESULT binds an i1.
    """

    kind: OpKind
    gate_id: Optional[GateId] = None

    def __post_init__(self):
        if (self.kind is OpKind.GATE) != (self.gate_id in GATE_SHAPES):
            raise ValueError(f"a GateId is given exactly for a gate spec, "
                             f"got {self.kind.value} with {self.gate_id!r}")

    @property
    def operands(self) -> tuple:
        """The kind of each call operand, in order."""
        if self.kind is OpKind.GATE:
            num_params, num_qubits = GATE_SHAPES[self.gate_id]
            return ("double",) * num_params + ("qubit",) * num_qubits
        return _KIND_OPERANDS[self.kind]

    @property
    def num_params(self) -> int:
        return self.operands.count("double")

    @property
    def num_qubits(self) -> int:
        return self.operands.count("qubit")

    @property
    def returns_bool(self) -> bool:
        return self.kind is OpKind.READ_RESULT


_ADJOINTS = {"s": GateId.SDG, "t": GateId.TDG}  # registered with the __adj suffix

# unmangled name -> gate: every other gate by its value, plus two aliases
_DEFAULT_GATES = {
    **{gate.value: gate for gate in GateId if gate not in _ADJOINTS.values()},
    "cx": GateId.CNOT,
    "ccx": GateId.CCNOT,
}

MEASURE_SPEC = OpSpec(OpKind.MEASURE)
RESET_SPEC = OpSpec(OpKind.RESET)
READ_RESULT_SPEC = OpSpec(OpKind.READ_RESULT)

_RUNTIME = {
    "__quantum__rt__initialize": OpSpec(OpKind.INITIALIZE),
    "__quantum__rt__array_record_output": OpSpec(OpKind.RECORD_ARRAY),
    "__quantum__rt__result_record_output": OpSpec(OpKind.RECORD_RESULT),
}


class Registry:
    def __init__(self):
        self._table = {}
        self._frozen = False

    def freeze(self) -> "Registry":
        self._frozen = True
        return self

    def register(self, name: str, spec: OpSpec) -> bool:
        """Add or overwrite an entry; returns True if it replaced one."""
        if self._frozen:
            raise RuntimeError("registry is frozen")
        if not name:
            raise ValueError("operation name must be non-empty")
        replaced = name in self._table
        self._table[name] = spec
        return replaced

    def resolve(self, name: str) -> Optional[OpSpec]:
        """Exact-match lookup: the OpSpec registered as `name`, or None."""
        return self._table.get(name)

    def names(self) -> frozenset:
        return frozenset(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table


def default_registry() -> Registry:
    reg = Registry()
    for op, gate_id in _DEFAULT_GATES.items():
        reg.register(f"__quantum__qis__{op}__body", OpSpec(OpKind.GATE, gate_id))
    for op, gate_id in _ADJOINTS.items():
        reg.register(f"__quantum__qis__{op}__adj", OpSpec(OpKind.GATE, gate_id))
    reg.register("__quantum__qis__mz__body", MEASURE_SPEC)
    reg.register("__quantum__qis__m__body", MEASURE_SPEC)
    reg.register("__quantum__qis__reset__body", RESET_SPEC)
    reg.register("__quantum__qis__read_result__body", READ_RESULT_SPEC)
    for name, spec in _RUNTIME.items():
        reg.register(name, spec)
    return reg
