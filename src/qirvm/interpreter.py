"""Shot-by-shot execution of the entry function.

A run compiles the entry function once (compile_program) and executes
the compiled Program once per shot, with a fresh backend state, a fresh
SSA environment, and an RNG stream derived deterministically from
(seed, shot_index), by shot_rng for one shot or ShotStreams for many.
Shots are therefore order-independent: a shot whose outcome history an
earlier shot already ran reuses that work (see OutcomeTrie), and a shot
that misses replays the outcomes recorded on its walk and continues the
stream that routed it, so each gets the output it would compute alone.
"""

from __future__ import annotations

import heapq
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
SHOT_CHUNK = 1 << 12  # shots routed through the trie together

# Identifies the per-shot stream, numpy PCG64 seeded with SeedSequence([seed, shot_index]):
# shot_rng defines it; ShotStreams computes it, and a trie miss continues it, bit for bit.
RNG_ID = "numpy-pcg64/seedseq[seed,shot]"


@dataclass
class RunConfig:
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    backend_choice: str = "statevector"
    step_limit: int = DEFAULT_STEP_LIMIT
    per_shot: bool = False

    def __post_init__(self):
        for name, least, kind in ("shots", 1, "positive"), ("seed", 0, "non-negative"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be a {kind} int, not {value!r}")


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, shot_index]))


# SeedSequence's hash constants and PCG64's multiplier.  Arrays meet only
# np.uint32/np.uint64 scalars: numpy 1.x turns uint64 with an int to float64.
_M32, _LOW, _S32 = (1 << 32) - 1, np.uint64((1 << 32) - 1), np.uint64(32)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ML, _MH = np.uint64(_PCG_MULT & (1 << 64) - 1), np.uint64(_PCG_MULT >> 64)
_ML0, _ML1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 words, keyed by `const`; each call advances it."""
    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT16)
    return hash_words


class ShotStreams:
    """The streams of shot_rng(seed, i) for shots first..first+count-1.

    Redoes SeedSequence([seed, i]) and PCG64's seeding in uint32/uint64
    arrays, one row per shot, 128-bit values as (hi, lo) pairs.  Each row's
    draws equal those of shot_rng(seed, first + row).random(), bit for bit.
    """

    def __init__(self, seed: int, first: int, count: int):
        shots = np.arange(first, first + count, dtype=np.uint64)
        high = (shots >> _S32).astype(np.uint32)
        # entropy words, low first, as SeedSequence joins them; a shot below
        # 2**32 has no high word: its 0 acts as pool padding, then is skipped
        entropy = [np.full(count, seed >> bit & _M32, np.uint32)
                   for bit in range(0, max(seed.bit_length(), 1), 32)]
        entropy += [shots.astype(np.uint32), high]
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in (entropy + [np.zeros_like(high)])[:4]]
        for src in range(max(len(entropy), 4)):
            word = pool[src] if src < 4 else entropy[src]
            for dst in range(4):
                if src >= 4 or src != dst:
                    mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(word)
                    mixed ^= mixed >> _SHIFT16
                    pool[dst] = mixed if src < 4 else np.where(
                        (high > 0) | (src < len(entropy) - 1), mixed, pool[dst])
        # generate_state(4, uint64): 8 words hashed from the pool, cycled
        words = (word.astype(np.uint64) for word in map(_hasher(_INIT_B, _MULT_B), pool * 2))
        seed_hi, seed_lo, seq_hi, seq_lo = (w0 | w1 << _S32 for w0, w1 in zip(words, words))
        # PCG64 srandom: inc = 2 * initseq + 1, step, add the seed, step
        self.inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
        self.inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
        self.lo = self.inc_lo + seed_lo
        self.hi = self.inc_hi + seed_hi + (self.lo < seed_lo)
        self.random(slice(None))

    def random(self, rows) -> np.ndarray:
        """Step `rows` (state = state * _PCG_MULT + inc) and return their next uniforms."""
        hi, lo, inc_lo = self.hi[rows], self.lo[rows], self.inc_lo[rows]
        lo0, lo1 = lo & _LOW, lo >> _S32  # the high word of lo * _ML, over 32-bit limbs
        cross = lo0 * _ML1 + (lo0 * _ML0 >> _S32)
        cross2 = lo1 * _ML0 + (cross & _LOW)
        hi = hi * _ML + lo * _MH + lo1 * _ML1 + (cross >> _S32) + (cross2 >> _S32)
        lo = lo * _ML + inc_lo
        hi += self.inc_hi[rows] + (lo < inc_lo)  # and the carry out of lo
        self.hi[rows], self.lo[rows] = hi, lo
        bits, rotation = hi ^ lo, hi >> np.uint64(58)  # XSL-RR output
        bits = (bits >> rotation) | (bits << ((np.uint64(64) - rotation) & np.uint64(63)))
        return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def generator(self, row: int) -> np.random.Generator:
        """A Generator that continues `row`'s stream from its current state."""
        pcg = np.random.PCG64(0)
        pcg.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": int(self.hi[row]) << 64 | int(self.lo[row]),
            "inc": int(self.inc_hi[row]) << 64 | int(self.inc_lo[row])}}
        return np.random.Generator(pcg)


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

    Shots go through one OutcomeTrie SHOT_CHUNK at a time, in groups taken
    lowest shot index first.  A group at a node draws from ShotStreams and
    splits on u < p1, noting (node, outcome) on its walk; a group at a
    leaf takes its output.  At an empty slot the group's lowest shot runs
    alone: it replays the walk's outcomes, continues its stream past them
    and extends the trie; the rest waits there again.  Every lower shot
    has its output by then, so a fault names the lowest faulting shot.
    """
    program = compile_program(module, entry, registry)
    trie = OutcomeTrie()
    histogram = Histogram(keep_per_shot=config.per_shot)
    for first in range(0, config.shots, SHOT_CHUNK):
        count = min(SHOT_CHUNK, config.shots - first)
        streams = ShotStreams(config.seed, first, count)
        taken = []  # (rows, output) per group that has its output
        waiting = [(0, np.arange(count), trie.root, 0, ())]
        while waiting:
            low, rows, slots, slot, walk = heapq.heappop(waiting)
            held = slots[slot]
            if held is None:
                path = ShotPath(streams.generator(low), walk, (slots, slot), trie)
                backend = create_backend(config.backend_choice)
                backend.allocate(entry.num_qubits, path=path)
                try:
                    held = execute_shot(program, backend, ShotRecorder(),
                                        step_limit=config.step_limit)
                except RuntimeFault as fault:
                    raise RuntimeFault(f"shot {first + low}: {fault}") from fault
                path.seal(held)
                if rows.size > 1:
                    heapq.heappush(waiting, (int(rows[1]), rows[1:], slots, slot, walk))
                rows = rows[:1]
            elif not isinstance(held, ShotOutput):  # a trie node
                ones = streams.random(rows) < held.p1
                for outcome, part in (1, rows[ones]), (0, rows[~ones]):
                    if part.size:
                        heapq.heappush(waiting, (int(part[0]), part, held.children, outcome,
                                                 walk + ((held, outcome),)))
                continue
            taken.append((rows, held))
        histogram.add_groups(taken, count)

    return histogram.result(
        program_name=module.source_name or entry.function_name,
        backend_name=config.backend_choice,
        seed=config.seed,
        rng_id=RNG_ID,
        num_qubits=entry.num_qubits,
        num_results=entry.num_results,
    )
