"""Program model for the QIR textual-assembly subset.

A parsed module is immutable in practice (nothing mutates it after the
parser returns) and safe to share between concurrent shot executors.
Type definitions and global strings are checked by the parser but not
kept: a label operand carries its global's text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Operands


class Const(NamedTuple):
    """A constant operand.

    `kind` is its type name, the one the parser gives declaration
    parameters and the registry an operation's operands: qubit, result,
    label, double, i64, i32 or i1.  `value` is the qubit or result index,
    the label text (None for ``i8* null``) or the number.  Equality
    compares `kind` too, so ``Const("qubit", 0) != Const("result", 0)``.
    """

    kind: str
    value: Union[int, float, str, None]


@dataclass(frozen=True)
class BoolVar:
    """An SSA i1 value, bound by a read-result call."""

    name: str
    kind: ClassVar[str] = "i1"


Operand = Union[Const, BoolVar]

# ---------------------------------------------------------------------------
# Instructions


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple
    result_var: Optional[str] = None


@dataclass(frozen=True)
class CondBranch:
    cond: Operand
    then_label: str
    else_label: str


@dataclass(frozen=True)
class Branch:
    target_label: str


@dataclass(frozen=True)
class ReturnVoid:
    pass


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
