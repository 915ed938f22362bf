"""Program model for the QIR textual-assembly subset.

A parsed module is immutable in practice (nothing mutates it after the
parser returns) and safe to share between concurrent shot executors.
Source line numbers are carried for diagnostics but excluded from
equality, so a module reparsed from printed text compares equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

# ---------------------------------------------------------------------------
# Operands


@dataclass(frozen=True)
class QubitRef:
    index: int
    kind: ClassVar[str] = "qubit"


@dataclass(frozen=True)
class ResultRef:
    index: int
    kind: ClassVar[str] = "result"


@dataclass(frozen=True)
class IntConst:
    value: int
    width: int = 64

    @property
    def kind(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class DoubleConst:
    value: float
    kind: ClassVar[str] = "double"


@dataclass(frozen=True)
class BoolVar:
    name: str
    kind: ClassVar[str] = "i1"


@dataclass(frozen=True)
class LabelConst:
    """A string-label argument; ``text`` is None for an ``i8* null`` label."""

    text: Optional[str]
    kind: ClassVar[str] = "label"


# Each operand's `kind` is its type name, the same names the parser gives
# declaration parameters and the registry gives an operation's operands.
Operand = Union[QubitRef, ResultRef, IntConst, DoubleConst, BoolVar, LabelConst]

# ---------------------------------------------------------------------------
# Instructions


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple
    result_var: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CondBranch:
    cond: Operand
    then_label: str
    else_label: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Branch:
    target_label: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ReturnVoid:
    line: int = field(default=0, compare=False)


Instruction = Union[Call, CondBranch, Branch, ReturnVoid]

TERMINATORS = (CondBranch, Branch, ReturnVoid)

# ---------------------------------------------------------------------------
# Module structure


@dataclass(frozen=True)
class BasicBlock:
    label: str
    instructions: tuple

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


@dataclass(frozen=True)
class FunctionDef:
    name: str
    blocks: tuple
    attr_group: Optional[int] = None


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    param_kinds: tuple  # e.g. ("qubit", "result")
    return_kind: str  # "void" or "i1"
    attr_group: Optional[int] = None


@dataclass(frozen=True)
class AttrGroup:
    bare_keys: frozenset
    kv: tuple  # ordered (key, value) pairs

    def get(self, key: str) -> Optional[str]:
        for k, v in self.kv:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class ModuleFlag:
    behavior: int
    key: str
    value: Union[int, bool]


@dataclass(frozen=True)
class ProgramModule:
    source_name: str
    opaque_types: frozenset
    globals: tuple  # ordered (name, payload) pairs
    functions: tuple
    declarations: tuple
    attribute_groups: tuple  # ordered (group_id, AttrGroup) pairs
    module_flags: tuple

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def attr_group(self, group_id: int) -> Optional[AttrGroup]:
        for gid, grp in self.attribute_groups:
            if gid == group_id:
                return grp
        return None
