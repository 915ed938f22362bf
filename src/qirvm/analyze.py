"""Entry-point discovery, compilation of the entry function, and validation."""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .backends import DEFAULT_MAX_QUBITS, lower_gate
from .errors import AmbiguousEntry, EntryPointError, NoEntry
from .ir import (
    BoolVar,
    Branch,
    Call,
    CondBranch,
    FunctionDef,
    ProgramModule,
)
from .registry import OpKind, Registry


class EntryPoint(NamedTuple):
    function_name: str
    num_qubits: int
    num_results: int


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    location: str

    def __str__(self):
        return f"{self.severity}: {self.location}: {self.message}"


def _is_entry_group(group) -> bool:
    if group is None:
        return False
    return "entry_point" in group.bare_keys or group.get("EntryPoint") is not None


_QUBIT_COUNT_KEYS = ("required_num_qubits", "num_required_qubits", "requiredQubits")
_RESULT_COUNT_KEYS = ("required_num_results", "num_required_results", "requiredResults")


def _count_from_group(group, keys) -> Optional[int]:
    if group is None:
        return None
    for key in keys:
        value = group.get(key)
        if value is not None:
            # past 20 digits a count fits no 64 bits, and int() may refuse it
            if not (value.isascii() and value.isdigit() and len(value) <= 20):
                raise EntryPointError(f"{key} must be a non-negative integer of at most "
                                      f"20 digits, got {value[:80]!r}")
            return int(value)
    return None


def _scan_max_indices(fn: FunctionDef):
    max_q, max_r = -1, -1
    for block in fn.blocks:
        for ins in block.instructions:
            if not isinstance(ins, Call):
                continue
            for arg in ins.args:
                if arg.kind == "qubit":
                    max_q = max(max_q, arg.value)
                elif arg.kind == "result":
                    max_r = max(max_r, arg.value)
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
        candidates = [f for f in module.functions if _is_entry_group(f.attrs)]
        if not candidates:
            raise NoEntry("no function carries the entry_point attribute")
        if len(candidates) > 1:
            names = ", ".join(f.name for f in candidates)
            raise AmbiguousEntry(f"multiple entry_point functions: {names}")
        fn = candidates[0]

    num_qubits = _count_from_group(fn.attrs, _QUBIT_COUNT_KEYS)
    num_results = _count_from_group(fn.attrs, _RESULT_COUNT_KEYS)
    max_q, max_r = _scan_max_indices(fn)
    if num_qubits is None:
        num_qubits = max_q + 1
    if num_results is None:
        num_results = max_r + 1
    return EntryPoint(fn.name, num_qubits, num_results)


class Control(enum.Enum):
    """Step codes other than an operation's OpKind."""

    JUMP = "jump"  # (JUMP, block index)
    BRANCH = "branch"  # (BRANCH, SSA name, then block index, else block index)
    RETURN = "return"  # (RETURN,)
    FAULT = "fault"  # (FAULT, message): raised when a shot reaches it


def _call_fault(call: Call, spec, entry: EntryPoint) -> Optional[str]:
    """Why `call`, resolved to `spec`, cannot run in `entry`, or None."""
    if spec is None:
        return f"call to unresolved function @{call.callee}"
    got = tuple(arg.kind for arg in call.args)
    if got != spec.operands:
        return (f"@{call.callee} expects ({', '.join(spec.operands)}) "
                f"but was called with ({', '.join(got)})")
    if spec.returns_bool != (call.result_var is not None):
        return f"@{call.callee} return-binding mismatch"
    if spec.kind is OpKind.RECORD_ARRAY and call.args[0].value < 0:
        return f"@{call.callee} declares a negative length ({call.args[0].value})"
    qubits = [arg.value for arg in call.args if arg.kind == "qubit"]
    for index in qubits:
        if index >= entry.num_qubits:
            return (f"qubit index {index} out of range "
                    f"(program declares {entry.num_qubits} qubits)")
    if len(set(qubits)) != len(qubits):
        return f"duplicate qubit targets {qubits}"
    for arg in call.args:
        if arg.kind == "result" and arg.value >= entry.num_results:
            return (f"result index {arg.value} out of range "
                    f"(program declares {entry.num_results} results)")
        if arg.kind == "double" and not math.isfinite(arg.value):
            return f"@{call.callee} takes a non-finite double operand ({arg.value})"
    return None


def _call_step(call: Call, registry: Registry, entry: EntryPoint) -> tuple:
    spec = registry.resolve(call.callee)
    fault = _call_fault(call, spec, entry)
    if fault is not None:
        return (Control.FAULT, fault)
    vals = tuple(arg.value for arg in call.args)
    if spec.kind is OpKind.GATE:
        return (OpKind.GATE, lower_gate(spec.gate_id, vals[: spec.num_params],
                                        vals[spec.num_params :], entry.num_qubits))
    if spec.kind is OpKind.READ_RESULT:
        return (OpKind.READ_RESULT, vals[0], call.result_var)
    return (spec.kind, *vals)


def compile_program(module: ProgramModule, entry: EntryPoint, registry: Registry) -> tuple:
    """The entry function compiled for one run: a tuple of blocks, block 0 first.

    Block i holds one step per instruction of block i.  A call step is
    its operation's OpKind followed by constant operand values:
    (GATE, lower_gate's Gate), (MEASURE, qubit, result),
    (RESET, qubit), (READ_RESULT, result, SSA name),
    (RECORD_ARRAY, length, label), (RECORD_RESULT, result, label) or
    (INITIALIZE, label).  Other steps are Control codes.

    Call operands in the base profile are constants (only branch conditions
    read SSA values), so each call's OpSpec and operand values, each gate's
    kernel form and axes (lower_gate) and each branch target are fixed here,
    once.  This is the one place that decides whether a call can run: one
    that cannot (see _call_fault) becomes a FAULT step, raised only when a
    shot reaches it, and validate_profile reports the same message.
    """
    fn = module.function(entry.function_name)
    index = {block.label: i for i, block in enumerate(fn.blocks)}

    def step(ins) -> tuple:
        if isinstance(ins, Call):
            return _call_step(ins, registry, entry)
        if isinstance(ins, Branch):
            return (Control.JUMP, index[ins.target_label])
        if isinstance(ins, CondBranch):
            if isinstance(ins.cond, BoolVar):
                return (Control.BRANCH, ins.cond.name,
                        index[ins.then_label], index[ins.else_label])
            return (Control.JUMP, index[ins.then_label if ins.cond.value else ins.else_label])
        return (Control.RETURN,)  # ReturnVoid, the one other instruction

    return tuple(tuple(step(ins) for ins in block.instructions) for block in fn.blocks)


def _blocks_on_cycles(program: tuple) -> list:
    """The blocks reachable from block 0 that lie on a cycle, in order.

    Kosaraju's algorithm: in reverse post-order, each search over reversed
    edges finds one strongly connected component.
    """
    targets = [args[-2:] if code is Control.BRANCH else args if code is Control.JUMP else []
               for code, *args in (steps[-1] for steps in program)]

    def postorder(start, edges, seen):  # the blocks `seen` gains, in post-order, on a stack
        order, path = [], [(start, iter(edges[start]))]
        seen.add(start)
        while path:
            block = next((b for b in path[-1][1] if b not in seen), None)
            if block is None:
                order.append(path.pop()[0])
            else:
                seen.add(block)
                path.append((block, iter(edges[block])))
        return order

    order, assigned, cyclic = postorder(0, targets, set()), set(), []
    sources = [[] for _ in program]
    for block in order:
        for target in targets[block]:
            sources[target].append(block)
    for root in reversed(order):
        if root not in assigned:
            component = postorder(root, sources, assigned)
            if len(component) > 1 or root in targets[root]:
                cyclic += component
    return sorted(cyclic)


def validate_profile(
    module: ProgramModule, entry: EntryPoint, registry: Registry
) -> list:
    """Static checks over the entry function; empty list means executable.

    Warnings do not block execution; any error-severity diagnostic does.
    The errors are the qubit-count limit and one per FAULT step of
    compile_program, located at function:block:instruction.  A block on a
    cycle reachable from the entry block is a warning: a shot faults only
    if it enters the block again, and the QIR Adaptive Profile allows
    backward branches as the opt-in `backwards_branching` capability.
    """
    diagnostics = []
    fn = module.function(entry.function_name)
    if entry.num_qubits > DEFAULT_MAX_QUBITS:
        message = f"{entry.num_qubits} qubits exceeds the maximum of {DEFAULT_MAX_QUBITS}"
        diagnostics.append(Diagnostic("error", message, fn.name))
    measured = set()
    read_results = []
    program = compile_program(module, entry, registry)

    for block, steps in zip(fn.blocks, program):
        for i, (code, *args) in enumerate(steps):
            loc = f"{fn.name}:{block.label}:{i}"
            if code is Control.FAULT:
                diagnostics.append(Diagnostic("error", args[0], loc))
            elif code is OpKind.MEASURE:
                measured.add(args[1])
            elif code in (OpKind.READ_RESULT, OpKind.RECORD_RESULT):
                read_results.append((args[0], loc))

    # path-insensitive: only flag results no measurement writes anywhere
    for index, loc in read_results:
        if index not in measured:
            diagnostics.append(
                Diagnostic("warning", f"result {index} is read but never measured", loc)
            )

    diagnostics += [Diagnostic("warning", "block is on a cycle; a shot that enters it again "
                               "faults", f"{fn.name}:{fn.blocks[block].label}")
                    for block in _blocks_on_cycles(program)]
    return diagnostics
