"""qirvm: a virtual machine for QIR base-profile textual assembly.

Parses the textual LLVM-assembly subset emitted by QIR toolchains,
interprets the entry point with classical branching on mid-circuit
measurement results, dispatches quantum operations through a pluggable
name registry onto swappable backends, and aggregates shot results into
a JSON histogram.
"""

__version__ = "0.1.0"

from .analyze import Diagnostic, EntryPoint, compile_program, find_entry, validate_profile
from .backends import StatevectorBackend, TraceBackend, available_backends, create_backend
from .errors import (
    AmbiguousEntry,
    NoEntry,
    ParseError,
    QirVmError,
    RuntimeFault,
    UnknownBackend,
)
from .gates import gate_matrix
from .interpreter import RunConfig, execute_shot, run_program, shot_rng
from .parser import parse_module
from .recorder import RunResult, ShotRecorder, aggregate, emit_json
from .registry import GateId, OpKind, OpSpec, Registry, Unresolved, default_registry

__all__ = [
    "AmbiguousEntry",
    "Diagnostic",
    "EntryPoint",
    "GateId",
    "NoEntry",
    "OpKind",
    "OpSpec",
    "ParseError",
    "QirVmError",
    "Registry",
    "RunConfig",
    "RunResult",
    "RuntimeFault",
    "ShotRecorder",
    "StatevectorBackend",
    "TraceBackend",
    "UnknownBackend",
    "Unresolved",
    "aggregate",
    "available_backends",
    "compile_program",
    "create_backend",
    "default_registry",
    "emit_json",
    "execute_shot",
    "find_entry",
    "gate_matrix",
    "parse_module",
    "run_program",
    "shot_rng",
    "validate_profile",
]
