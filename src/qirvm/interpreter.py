"""Shot-by-shot execution of the entry function.

Shot counts live outside the program, so each shot is the entry function
run with a fresh backend state, a fresh SSA environment, and an RNG stream
derived deterministically from (seed, shot_index).  Shots are therefore
order-independent: a shot whose outcome history an earlier shot already
ran reuses that work (see OutcomeTrie) and gets the same output it would
have computed itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analyze import EntryPoint
from .backends import BackendInterface, OutcomeTrie, ShotPath, create_backend
from .errors import RuntimeFault
from .ir import (
    BoolVar,
    Branch,
    Call,
    CondBranch,
    DoubleConst,
    IntConst,
    LabelConst,
    ProgramModule,
    QubitRef,
    ResultRef,
    ReturnVoid,
)
from .recorder import Histogram, RunResult, ShotOutput, ShotRecorder
from .recorder import aggregate  # noqa: F401  (public name of this module too)
from .registry import OpKind, Registry, Unresolved

DEFAULT_SHOTS = 1024
DEFAULT_STEP_LIMIT = 10 ** 7

# Identifies the per-shot stream derivation so results stay reproducible:
# numpy PCG64 seeded with SeedSequence(entropy=[seed, shot_index]).
RNG_ID = "numpy-pcg64/seedseq[seed,shot]"


@dataclass
class RunConfig:
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    backend_choice: str = "statevector"
    step_limit: int = DEFAULT_STEP_LIMIT
    output_path: Optional[str] = None
    per_shot: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be at least 1")


@dataclass
class ExecEnv:
    num_results: int
    ssa: dict = field(default_factory=dict)
    result_bits: list = None
    step_count: int = 0

    def __post_init__(self):
        if self.result_bits is None:
            self.result_bits = [None] * self.num_results

    def bind(self, name: str, value: bool):
        if name in self.ssa:
            raise RuntimeFault(f"SSA value {name} written twice in one shot")
        self.ssa[name] = value


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, shot_index]))


def eval_operand(env: ExecEnv, operand):
    if isinstance(operand, (QubitRef, ResultRef)):
        return operand.index
    if isinstance(operand, (IntConst, DoubleConst)):
        return operand.value
    if isinstance(operand, LabelConst):
        return operand.text
    if isinstance(operand, BoolVar):
        if operand.name not in env.ssa:
            raise RuntimeFault(f"use of unbound SSA value {operand.name}")
        return env.ssa[operand.name]
    raise RuntimeFault(f"cannot evaluate operand {operand!r}")


def _result_bit(env: ExecEnv, index: int) -> int:
    if index >= len(env.result_bits):
        raise RuntimeFault(f"result index {index} out of range")
    bit = env.result_bits[index]
    if bit is None:
        raise RuntimeFault(f"use of unmeasured result {index}")
    return bit


def _dispatch_call(ins: Call, spec, vals, env: ExecEnv, backend, recorder):
    kind = spec.kind
    if kind is OpKind.GATE:
        backend.apply_gate(
            spec.gate_id, vals[: spec.num_params], vals[spec.num_params :]
        )
    elif kind is OpKind.MEASURE:
        qubit, result = vals
        if result >= len(env.result_bits):
            raise RuntimeFault(f"result index {result} out of range")
        env.result_bits[result] = backend.measure(qubit)
    elif kind is OpKind.RESET:
        backend.reset(vals[0])
    elif kind is OpKind.READ_RESULT:
        bit = _result_bit(env, vals[0])
        env.bind(ins.result_var, bool(bit))
    elif kind is OpKind.RECORD_ARRAY:
        label = vals[1] if len(vals) > 1 else None
        recorder.record_array(vals[0], label)
    elif kind is OpKind.RECORD_RESULT:
        bit = _result_bit(env, vals[0])
        label = vals[1] if len(vals) > 1 else None
        recorder.record_result(bit, label)
    elif kind is OpKind.INITIALIZE:
        pass
    else:
        raise RuntimeFault(f"unhandled operation kind {spec.kind!r}")


def _compile_calls(fn, registry: Registry) -> dict:
    """Pre-resolve each call's op spec and constant operands, keyed by id().

    Call operands in the base-profile subset are always constants (only
    branch conditions reference SSA values), so evaluating them once per
    run instead of once per shot is sound.  Calls that cannot be prepared
    here (unresolved names, non-constant operands) are left out and fault
    or evaluate lazily at execution time.
    """
    plan = {}
    for block in fn.blocks:
        for ins in block.instructions:
            if not isinstance(ins, Call):
                continue
            spec = registry.resolve(ins.callee)
            if isinstance(spec, Unresolved):
                continue
            if any(isinstance(a, BoolVar) for a in ins.args):
                continue
            plan[id(ins)] = (spec, tuple(eval_operand(None, a) for a in ins.args))
    return plan


def execute_shot(
    module: ProgramModule,
    entry: EntryPoint,
    registry: Registry,
    backend: BackendInterface,
    recorder: ShotRecorder,
    rng: Optional[np.random.Generator] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    plan: Optional[dict] = None,
) -> ShotOutput:
    """Run the entry function once; backend must already be allocated."""
    fn = module.function(entry.function_name)
    if plan is None:
        plan = _compile_calls(fn, registry)
    env = ExecEnv(num_results=entry.num_results)
    block = fn.blocks[0]
    cursor = 0

    while True:
        env.step_count += 1
        if env.step_count > step_limit:
            raise RuntimeFault(f"step limit of {step_limit} exceeded")
        ins = block.instructions[cursor]

        if isinstance(ins, Call):
            prepared = plan.get(id(ins))
            if prepared is None:
                spec = registry.resolve(ins.callee)
                if isinstance(spec, Unresolved):
                    raise RuntimeFault(f"call to unresolved function @{ins.callee}")
                vals = tuple(eval_operand(env, a) for a in ins.args)
            else:
                spec, vals = prepared
            _dispatch_call(ins, spec, vals, env, backend, recorder)
            cursor += 1
        elif isinstance(ins, Branch):
            block = fn.block(ins.target_label)
            cursor = 0
        elif isinstance(ins, CondBranch):
            cond = eval_operand(env, ins.cond)
            block = fn.block(ins.then_label if cond else ins.else_label)
            cursor = 0
        elif isinstance(ins, ReturnVoid):
            return recorder.finalize()
        else:
            raise RuntimeFault(f"unexecutable instruction {ins!r}")


def run_program(
    module: ProgramModule,
    entry: EntryPoint,
    registry: Registry,
    config: RunConfig,
) -> RunResult:
    """Execute the entry function config.shots times and aggregate.

    Shots share one OutcomeTrie.  A shot whose drawn outcome history is
    already in it takes the recorded output without running; any other
    runs here and extends the trie.  Outputs stream into the histogram.
    """
    plan = _compile_calls(module.function(entry.function_name), registry)
    trie = OutcomeTrie()
    histogram = Histogram(keep_per_shot=config.per_shot)
    for shot_index in range(config.shots):
        path = ShotPath(shot_rng(config.seed, shot_index), trie)
        output = path.leaf
        if output is None:
            backend = create_backend(config.backend_choice)
            backend.allocate(entry.num_qubits, path=path)
            try:
                output = execute_shot(
                    module, entry, registry, backend, ShotRecorder(),
                    step_limit=config.step_limit, plan=plan,
                )
            except RuntimeFault as fault:
                raise RuntimeFault(f"shot {shot_index}: {fault}") from fault
            path.seal(output)
        histogram.add(output)

    return histogram.result(
        program_name=module.source_name or entry.function_name,
        backend_name=config.backend_choice,
        seed=config.seed,
        rng_id=RNG_ID,
        num_qubits=entry.num_qubits,
        num_results=entry.num_results,
    )
