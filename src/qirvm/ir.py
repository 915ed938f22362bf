"""Program model for the QIR textual-assembly subset.

A parsed module holds only what a run reads: its functions, their
blocks and instructions, and each function's attribute group.  Type
definitions, global strings, declarations and module flags are checked
by the parser but not kept: a label operand carries its global's text.
Every record is an immutable NamedTuple, safe to share between
concurrent shot executors.  Within each position of a module the records
differ in length or in the type of their first field, so no two kinds
of record compare equal.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Operands


class Const(NamedTuple):
    """A constant operand.

    `kind` is its type name, the one the registry gives an operation's
    operands: qubit, result, label, double, i64, i32 or i1.  `value` is
    the qubit or result index, the label text (None for ``i8* null``) or
    the number.  Equality compares `kind` too, so
    ``Const("qubit", 0) != Const("result", 0)``.
    """

    kind: str
    value: Union[int, float, str, None]


class BoolVar(NamedTuple):
    """An SSA i1 value, bound by a read-result call."""

    name: str
    kind = "i1"


Operand = Union[Const, BoolVar]

# ---------------------------------------------------------------------------
# Instructions


class Call(NamedTuple):
    callee: str
    args: tuple
    result_var: Optional[str] = None


class CondBranch(NamedTuple):
    cond: Operand
    then_label: str
    else_label: str


class Branch(NamedTuple):
    target_label: str


class ReturnVoid(NamedTuple):
    pass


Instruction = Union[Call, CondBranch, Branch, ReturnVoid]

TERMINATORS = (CondBranch, Branch, ReturnVoid)

# ---------------------------------------------------------------------------
# Module structure


class BasicBlock(NamedTuple):
    label: str
    instructions: tuple  # the last one is its terminator


class AttrGroup(NamedTuple):
    bare_keys: frozenset
    kv: tuple  # ordered (key, value) pairs

    def get(self, key: str) -> Optional[str]:
        for k, v in self.kv:
            if k == key:
                return v
        return None


class FunctionDef(NamedTuple):
    name: str
    blocks: tuple
    attrs: Optional[AttrGroup] = None


class ProgramModule(NamedTuple):
    source_name: str
    functions: tuple

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)
