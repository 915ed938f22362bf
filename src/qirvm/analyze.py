"""Entry-point discovery and pre-execution validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .backends import DEFAULT_MAX_QUBITS
from .errors import AmbiguousEntry, EntryPointError, NoEntry
from .ir import Call, FunctionDef, ProgramModule, QubitRef, ResultRef
from .registry import OpKind, OpSpec, Registry, Unresolved


@dataclass(frozen=True)
class EntryPoint:
    function_name: str
    num_qubits: int
    num_results: int
    profile_name: str = ""


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    location: str

    def __str__(self):
        return f"{self.severity}: {self.location}: {self.message}"


def _is_entry_group(group) -> bool:
    if group is None:
        return False
    return "entry_point" in group.bare_keys or group.get("EntryPoint") is not None


_QUBIT_COUNT_KEYS = ("num_required_qubits", "requiredQubits")
_RESULT_COUNT_KEYS = ("num_required_results", "requiredResults")


def _count_from_group(group, keys) -> Optional[int]:
    if group is None:
        return None
    for key in keys:
        value = group.get(key)
        if value is not None:
            if not (value.isascii() and value.isdigit()):
                raise EntryPointError(f"{key} must be a non-negative integer, got {value!r}")
            return int(value)
    return None


def _scan_max_indices(fn: FunctionDef):
    max_q, max_r = -1, -1
    for block in fn.blocks:
        for ins in block.instructions:
            if not isinstance(ins, Call):
                continue
            for arg in ins.args:
                if isinstance(arg, QubitRef):
                    max_q = max(max_q, arg.index)
                elif isinstance(arg, ResultRef):
                    max_r = max(max_r, arg.index)
    return max_q, max_r


def find_entry(module: ProgramModule, override: Optional[str] = None) -> EntryPoint:
    """Locate the entry function and its declared qubit/result counts.

    Counts missing from the attribute group are inferred from the highest
    qubit/result index the function touches.
    """
    if override is not None:
        try:
            fn = module.function(override)
        except KeyError:
            raise NoEntry(f"no defined function named {override!r}")
    else:
        candidates = [
            f for f in module.functions
            if f.attr_group is not None and _is_entry_group(module.attr_group(f.attr_group))
        ]
        if not candidates:
            raise NoEntry("no function carries the entry_point attribute")
        if len(candidates) > 1:
            names = ", ".join(f.name for f in candidates)
            raise AmbiguousEntry(f"multiple entry_point functions: {names}")
        fn = candidates[0]

    group = module.attr_group(fn.attr_group) if fn.attr_group is not None else None
    num_qubits = _count_from_group(group, _QUBIT_COUNT_KEYS)
    num_results = _count_from_group(group, _RESULT_COUNT_KEYS)
    max_q, max_r = _scan_max_indices(fn)
    if num_qubits is None:
        num_qubits = max_q + 1
    if num_results is None:
        num_results = max_r + 1
    profile = group.get("qir_profiles") if group is not None else None
    return EntryPoint(fn.name, num_qubits, num_results, profile or "")


def operand_mismatch(call: Call, spec: OpSpec) -> Optional[str]:
    """Why the kinds of `call`'s operands differ from `spec.operands`, or None."""
    got = tuple(arg.kind for arg in call.args)
    if got == spec.operands:
        return None
    return (f"@{call.callee} expects ({', '.join(spec.operands)}) "
            f"but was called with ({', '.join(got)})")


def validate_profile(
    module: ProgramModule, entry: EntryPoint, registry: Registry
) -> list:
    """Static checks over the entry function; empty list means executable.

    Warnings do not block execution; any error-severity diagnostic does.
    """
    diagnostics = []
    fn = module.function(entry.function_name)
    if entry.num_qubits > DEFAULT_MAX_QUBITS:
        message = f"{entry.num_qubits} qubits exceeds the maximum of {DEFAULT_MAX_QUBITS}"
        diagnostics.append(Diagnostic("error", message, fn.name))
    measured = set()
    read_results = []

    for block in fn.blocks:
        for i, ins in enumerate(block.instructions):
            if not isinstance(ins, Call):
                continue
            loc = f"{fn.name}:{block.label}:{i}"
            spec = registry.resolve(ins.callee)
            if isinstance(spec, Unresolved):
                if ins.callee.startswith("__quantum__"):
                    diagnostics.append(
                        Diagnostic("error", f"unresolved QIS/runtime function @{ins.callee}", loc)
                    )
                else:
                    diagnostics.append(
                        Diagnostic("error", f"call to unregistered function @{ins.callee}", loc)
                    )
                continue

            mismatch = operand_mismatch(ins, spec)
            if mismatch is not None:
                diagnostics.append(Diagnostic("error", mismatch, loc))
                continue
            if spec.returns_bool != (ins.result_var is not None):
                diagnostics.append(
                    Diagnostic("error", f"@{ins.callee} return-binding mismatch", loc)
                )

            for arg in ins.args:
                if isinstance(arg, QubitRef) and arg.index >= entry.num_qubits:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"qubit index {arg.index} out of range "
                            f"(program declares {entry.num_qubits} qubits)",
                            loc,
                        )
                    )
                if isinstance(arg, ResultRef) and arg.index >= entry.num_results:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"result index {arg.index} out of range "
                            f"(program declares {entry.num_results} results)",
                            loc,
                        )
                    )

            if spec.kind is OpKind.MEASURE:
                measured.add(ins.args[1].index)
            if spec.kind in (OpKind.READ_RESULT, OpKind.RECORD_RESULT):
                read_results.append((ins.args[0].index, loc))

    # path-insensitive: only flag results no measurement writes anywhere
    for index, loc in read_results:
        if index not in measured:
            diagnostics.append(
                Diagnostic("warning", f"result {index} is read but never measured", loc)
            )
    return diagnostics
