"""Name -> operation mapping for QIS and runtime functions.

The registry is the dispatch table between parsed call instructions and
backend operations.  It is built once during setup, optionally extended
with custom operations, then frozen and shared across shot executors.

It is also the one place that states an operation's operand signature
(`OpSpec.operands`, from GATE_SHAPES for gates): the parser types opaque
`ptr` operands by it, the validator checks every call against it, and the
gate layer and backends take gate arity from GATE_SHAPES.
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
    """One operation: its kind, its gate if any, and whether it binds an i1.

    `num_qubits` and `num_params` follow from the kind (and, for a gate,
    from GATE_SHAPES); left out they are filled in, and given values that
    disagree raise ValueError.
    """

    kind: OpKind
    gate_id: Optional[GateId] = None
    num_qubits: Optional[int] = None
    num_params: Optional[int] = None
    returns_bool: bool = False

    def __post_init__(self):
        if self.kind is OpKind.GATE:
            if self.gate_id not in GATE_SHAPES:
                raise ValueError(f"a gate spec needs a GateId, got {self.gate_id!r}")
            num_params, num_qubits = GATE_SHAPES[self.gate_id]
        else:
            operands = _KIND_OPERANDS[self.kind]
            num_params, num_qubits = operands.count("double"), operands.count("qubit")
        for name, value in (("num_params", num_params), ("num_qubits", num_qubits)):
            given = getattr(self, name)
            if given is None:
                object.__setattr__(self, name, value)
            elif given != value:
                what = self.gate_id.name if self.gate_id is not None else self.kind.value
                raise ValueError(f"{what} has {name}={value}, got {given}")

    @property
    def operands(self) -> tuple:
        """The kind of each call operand, in order."""
        if self.kind is OpKind.GATE:
            return ("double",) * self.num_params + ("qubit",) * self.num_qubits
        return _KIND_OPERANDS[self.kind]


@dataclass(frozen=True)
class Unresolved:
    """Lookup miss; carries the name for diagnostics."""

    name: str


# unmangled name -> gate; adjoints get the __adj suffix below.
_DEFAULT_GATES = {
    "h": GateId.H,
    "x": GateId.X,
    "y": GateId.Y,
    "z": GateId.Z,
    "s": GateId.S,
    "t": GateId.T,
    "sy": GateId.SY,
    "rx": GateId.RX,
    "ry": GateId.RY,
    "rz": GateId.RZ,
    "rzz": GateId.RZZ,
    "cnot": GateId.CNOT,
    "cx": GateId.CNOT,
    "cy": GateId.CY,
    "cz": GateId.CZ,
    "ccx": GateId.CCNOT,
    "ccnot": GateId.CCNOT,
    "swap": GateId.SWAP,
    "zz": GateId.ZZ,
    "xx": GateId.XX,
}

_ADJOINTS = {
    "s": GateId.SDG,
    "t": GateId.TDG,
}

MEASURE_SPEC = OpSpec(OpKind.MEASURE)
RESET_SPEC = OpSpec(OpKind.RESET)
READ_RESULT_SPEC = OpSpec(OpKind.READ_RESULT, returns_bool=True)

_RUNTIME = {
    "__quantum__rt__initialize": OpSpec(OpKind.INITIALIZE),
    "__quantum__rt__array_record_output": OpSpec(OpKind.RECORD_ARRAY),
    "__quantum__rt__result_record_output": OpSpec(OpKind.RECORD_RESULT),
}


class Registry:
    def __init__(self, table: Optional[dict] = None):
        self._table = dict(table or {})
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

    def resolve(self, name: str):
        """Exact-match lookup; returns OpSpec or Unresolved(name)."""
        spec = self._table.get(name)
        return spec if spec is not None else Unresolved(name)

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
