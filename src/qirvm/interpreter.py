"""Shot-by-shot execution of the entry function.

A run compiles the entry function once (compile_program) and executes
the compiled Program once per shot, with a fresh backend state, a fresh
SSA environment, and an RNG stream derived deterministically from
(seed, shot_index).  Shots are therefore
order-independent: a shot whose outcome history an earlier shot already
ran reuses that work (see OutcomeTrie) and gets the same output it would
have computed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyze import Control, EntryPoint, Program, compile_program
from .backends import OutcomeTrie, ShotPath, create_backend
from .errors import RuntimeFault
from .ir import ProgramModule
from .recorder import Histogram, RunResult, ShotOutput, ShotRecorder
from .recorder import aggregate  # noqa: F401  (public name of this module too)
from .registry import OpKind, Registry

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
    per_shot: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be at least 1")


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, shot_index]))


def _result_bit(bits: list, index: int) -> int:
    bit = bits[index]
    if bit is None:
        raise RuntimeFault(f"use of unmeasured result {index}")
    return bit


def execute_shot(
    program: Program,
    backend,
    recorder: ShotRecorder,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ShotOutput:
    """Run `program` once; backend must already be allocated."""
    ssa = {}
    bits = [None] * program.num_results
    steps, cursor = program.blocks[0], 0
    for _ in range(step_limit):
        code, *args = steps[cursor]
        cursor += 1
        if code is OpKind.GATE:
            backend.apply_gate(*args)
        elif code is OpKind.MEASURE:
            qubit, result = args
            bits[result] = backend.measure(qubit)
        elif code is OpKind.RESET:
            backend.reset(args[0])
        elif code is OpKind.READ_RESULT:
            result, name = args
            if name in ssa:
                raise RuntimeFault(f"SSA value {name} written twice in one shot")
            ssa[name] = bool(_result_bit(bits, result))
        elif code is OpKind.RECORD_ARRAY:
            recorder.record_array(*args)
        elif code is OpKind.RECORD_RESULT:
            result, label = args
            recorder.record_result(_result_bit(bits, result), label)
        elif code is Control.JUMP:
            steps, cursor = program.blocks[args[0]], 0
        elif code is Control.BRANCH:
            name, then_index, else_index = args
            if name not in ssa:
                raise RuntimeFault(f"use of unbound SSA value {name}")
            steps, cursor = program.blocks[then_index if ssa[name] else else_index], 0
        elif code is Control.RETURN:
            return recorder.finalize()
        elif code is Control.FAULT:
            raise RuntimeFault(args[0])
        # OpKind.INITIALIZE does nothing
    raise RuntimeFault(f"step limit of {step_limit} exceeded")


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
    program = compile_program(module, entry, registry)
    trie = OutcomeTrie()
    histogram = Histogram(keep_per_shot=config.per_shot)
    for shot_index in range(config.shots):
        path = ShotPath(shot_rng(config.seed, shot_index), trie)
        output = path.leaf
        if output is None:
            backend = create_backend(config.backend_choice)
            backend.allocate(entry.num_qubits, path=path)
            try:
                output = execute_shot(program, backend, ShotRecorder(),
                                      step_limit=config.step_limit)
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
