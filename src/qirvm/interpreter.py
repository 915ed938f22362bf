"""Shot-by-shot execution of the entry function.

A run compiles the entry function once (compile_program) and executes
its blocks once per trie miss, with a fresh backend, SSA environment,
result bits and recorder, and an RNG stream derived deterministically from
(seed, shot_index): shot_rng defines it for one shot, and ShotStreams
computes any shot's k-th draw of a chunk directly, by a jump from its seeded
state, so a run never loads numpy.random.  Each measurement owns one
uniform, but none is computed, and no trie node made, where p1 (0, or 1
and above) fixes the outcome.  Shots are order-independent: a shot whose
outcome history an earlier shot already ran reuses that work (see
OutcomeTrie), and a group that misses runs as one shot, which the others
leave where their draws differ (see _Miss), so each gets the output it
would compute alone.  Only this module routes, replays and stores shots.
A shot enters each block at most once: a jump or branch into a block it
entered faults (see execute_shot).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analyze import Control, EntryPoint, compile_program
from .backends import available_backends, create_backend
from .errors import RuntimeFault
from .ir import ProgramModule
from .recorder import Histogram, RunResult, ShotOutput, ShotRecorder
from .recorder import aggregate  # noqa: F401  (public name of this module too)
from .registry import OpKind, Registry

DEFAULT_SHOTS = 1024
SHOT_CHUNK = 1 << 12  # shots routed through the trie together

# Identifies the per-shot stream, numpy PCG64 seeded with SeedSequence([seed, shot_index]):
# shot_rng defines it; ShotStreams computes it bit for bit, each draw by a jump.
RNG_ID = "numpy-pcg64/seedseq[seed,shot]"


@dataclass(frozen=True)
class RunConfig:
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    backend_choice: str = "statevector"
    per_shot: bool = False

    def __post_init__(self):
        for name, least, kind in ("shots", 1, "positive"), ("seed", 0, "non-negative"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be a {kind} int, not {value!r}")
        if self.backend_choice not in available_backends():
            raise ValueError(f"backend must be one of {', '.join(available_backends())}, "
                             f"not {self.backend_choice!r}")


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Shot `shot_index`'s stream, by definition.  It loads numpy.random; a run never calls it."""
    return np.random.default_rng(np.random.SeedSequence([seed, shot_index]))


# SeedSequence's hash constants, PCG64's multiplier and its output's shifts.  Arrays
# meet only np.uint32/np.uint64 scalars: numpy 1.x turns uint64 with an int to float64.
_M32, _LOW, _S32 = (1 << 32) - 1, np.uint64((1 << 32) - 1), np.uint64(32)
_S11, _S58, _S63, _S64 = map(np.uint64, (11, 58, 63, 64))
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _M64 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 64) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 words, keyed by `const`; each call advances it."""
    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT16)
    return hash_words


def _times(hi, lo, c_lo, c_lo0, c_lo1, c_hi):
    """(hi, lo) * c mod 2**128, for c's low word, the low word's 32-bit halves, c's high word."""
    lo0, lo1 = lo & _LOW, lo >> _S32  # the high word of lo * c_lo, over 32-bit limbs
    cross = lo0 * c_lo1 + (lo0 * c_lo0 >> _S32)
    cross2 = lo1 * c_lo0 + (cross & _LOW)
    return hi * c_lo + lo * c_hi + lo1 * c_lo1 + (cross >> _S32) + (cross2 >> _S32), lo * c_lo


class ShotStreams:
    """The streams of shot_rng(seed, i) for shots first..first+count-1.

    Redoes SeedSequence([seed, i]) and PCG64's seeding in uint32/uint64
    arrays, one row per shot, 128-bit values as (hi, lo) pairs.  Nothing
    changes after seeding: draws(rows, k) equals the k-th draw of
    shot_rng(seed, first + row).random(), bit for bit, for any rows and k.
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
        # PCG64 srandom: inc = 2 * initseq + 1, step, add the seed, step; the
        # state kept is inc + seed, before that last step
        self.inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
        self.inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
        self.lo = self.inc_lo + seed_lo
        self.hi = self.inc_hi + seed_hi + (self.lo < seed_lo)
        self.jumps = {}  # k: _times's limbs of A, then of C, for each draw index k read

    def outcomes(self, rows, k: int, p1: float):
        """Whether each of `rows` draws 1 at its k-th draw: uniform < p1."""
        return self.draws(rows, k) < p1

    @np.errstate(over="ignore")  # a row index gives numpy scalars, which warn when they wrap
    def draws(self, rows, k: int):
        """The k-th uniform (from 0) of each of `rows`, for rows and k in any order.

        PCG64 steps, then outputs, so draw k is the XSL-RR output of the
        state m = k + 2 steps past inc + seed (srandom's last step, then one
        per draw).  m steps of state * a + inc give state * A + inc * C, with
        A = a**m and C = 1 + a + ... + a**(m-1) mod 2**128 (Brown, "Random
        Number Generation with Arbitrary Strides", 1994), kept per k.
        """
        if k not in self.jumps:
            mult = pow(_PCG_MULT, k + 2, 1 << 128)
            add = (pow(_PCG_MULT, k + 2, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)
            self.jumps[k] = tuple(np.uint64(limb) for const in (mult, add) for limb in (
                const & _M64, const & _M32, const >> 32 & _M32, const >> 64))
        a_lo, a_lo0, a_lo1, a_hi, c_lo, c_lo0, c_lo1, c_hi = self.jumps[k]
        hi, lo = _times(self.hi[rows], self.lo[rows], a_lo, a_lo0, a_lo1, a_hi)
        inc_hi, inc_lo = _times(self.inc_hi[rows], self.inc_lo[rows], c_lo, c_lo0, c_lo1, c_hi)
        lo += inc_lo
        hi += inc_hi + (lo < inc_lo)  # and the carry out of lo
        bits, rotation = hi ^ lo, hi >> _S58  # XSL-RR output
        bits = (bits >> rotation) | (bits << ((_S64 - rotation) & _S63))
        return (bits >> _S11).astype(np.float64) * 2.0 ** -53


# Shot branching.  The gates a shot applies between two measurements depend
# only on the outcomes drawn before them, so a run keeps one trie of outcome
# histories.  A node is the point just before a draw in doubt (0 < p1 < 1)
# reached by one history: it holds that draw's index k and p1 and, where
# shots part and within a budget, the state there and where the shot was.
# A draw whose p1 fixes its outcome makes no node.  A leaf holds the output
# the history records.  Every stored value is what a shot with that history
# computes from |0...0> by the same float operations, so a shot that resumes
# from them draws the same outcomes.
MAX_TRIE_NODES = 1 << 16
MAX_STORED_AMPLITUDES = 1 << 16


class _Node:
    __slots__ = ("p1", "k", "up", "state", "resume", "children")

    def __init__(self, p1, k, up=None):  # k: the draw's index; up: the (node, outcome) it fills
        self.p1, self.k, self.up = p1, k, up
        # if stored: a copy of the amplitudes before the draw, and (steps,
        # cursor, entered blocks, SSA values, result bits, recorder entries,
        # declared length) at the MEASURE/RESET step that draws
        self.state = self.resume = None
        self.children = [None, None]  # per outcome: a _Node, a leaf, or None


def _walk(node: _Node, outcome: int) -> list:
    """The (node, outcome) pairs down to that slot, from the deepest stored state or the root."""
    walk = []
    while node.up is not None:
        walk.append((node, outcome))
        if node.state is not None:
            break
        node, outcome = node.up
    return walk[::-1]


class OutcomeTrie:
    """One run's outcome-history trie; run_program walks it, execute_shot extends it."""

    def __init__(self):
        self.root = _Node(None, None)  # draws nothing: slot 0 holds the first node or leaf
        self.nodes, self.stored = 0, {}  # stored: the nodes holding a state, in order

    def store(self, node: _Node, amplitudes, resume: tuple, waiting: list):
        """Store the state where a group parts, within MAX_STORED_AMPLITUDES.

        The states of one run are of one size.  A full budget evicts one:
        the deepest state no group on `waiting` resumes from or, if each is
        needed, the shallowest, and that only for a deeper `node`.
        """
        if amplitudes is None:
            return
        if (len(self.stored) + 1) * amplitudes.size > MAX_STORED_AMPLITUDES:
            needed = {walk[0][0] for walk in (_walk(up, slot) for _, up, slot in waiting) if walk}
            free = [old for old in self.stored if old not in needed]
            old = (max(free, key=lambda old: old.k) if free
                   else min(self.stored, key=lambda old: old.k, default=node))
            if not free and old.k >= node.k:
                return
            del self.stored[old]
            old.state = old.resume = None
        self.stored[node] = None
        node.state, node.resume = amplitudes.copy(), resume


class _Miss(NamedTuple):
    """A group of run_program at an empty trie slot, `tail` = (node, outcome).

    Its lowest shot resumes at `walk` (see _walk); draw(k, p1) is its outcome
    at its k-th draw.  At each node it adds, `others` draw from `streams`;
    those whose outcome differs wait on `waiting` at its other slot, the
    rest at the leaf.
    """

    draw: Callable[[int, float], bool]  # execute_shot wraps any other rng to draw every time
    walk: list = ()
    tail: Optional[tuple] = None
    trie: Optional[OutcomeTrie] = None
    streams: Optional[ShotStreams] = None
    others: Optional[np.ndarray] = None
    waiting: Optional[list] = None


def _result_bit(bits: dict, index: int) -> int:
    bit = bits.get(index)
    if bit is None:
        raise RuntimeFault(f"use of unmeasured result {index}")
    return bit


def execute_shot(program: tuple, backend, rng) -> ShotOutput:
    """Run `program` (compile_program's blocks) once on an allocated backend.

    Its result bits are a dict of the results written so far.  A
    measurement's outcome is 1 iff rng.random() < p1.  A jump or branch into
    a block the shot entered faults, so, as the parser lets a function
    define each SSA value once, a shot binds each value at most once.

    run_program passes a _Miss as `rng`: the shot then resumes where its
    walk's first node stored it (the backend holds that state), or starts
    at block 0, takes the walk's outcomes, then draws, adds a node per
    draw in doubt, parting its others there, and seals its leaf.
    """
    miss = rng if isinstance(rng, _Miss) else _Miss(lambda k, p1: rng.random() < p1)
    tail, trie, others, recorder = miss.tail, miss.trie, miss.others, ShotRecorder()
    start = miss.walk[0][0].resume if miss.walk else None
    drawn = miss.walk[0][0].k if start else 0  # the shot's draws before the next
    steps, cursor, entered, ssa, bits, entries, recorder.declared_len = start or (
        program[0], 0, {0}, {}, {}, [], None)
    entered, ssa, bits, recorder.entries = set(entered), dict(ssa), dict(bits), list(entries)
    replay = iter([outcome for _, outcome in miss.walk])

    def choose(p1, amplitudes):
        nonlocal tail, others, drawn
        k, drawn = drawn, drawn + 1  # this is the shot's k-th draw (from 0), replayed or not
        if trie is not None and not 0.0 < p1 < 1.0:  # a miss's fixed draw: no uniform, no node
            return 1 if p1 >= 1.0 else 0
        outcome = next(replay, None)
        if outcome is not None:
            return outcome
        outcome = 1 if miss.draw(k, p1) else 0
        if tail is None:
            return outcome
        if trie.nodes >= MAX_TRIE_NODES:  # the trie stops growing: the others wait here
            if others.size:
                miss.waiting.append((others, *tail))
            tail = None
            return outcome
        trie.nodes += 1
        node = tail[0].children[tail[1]] = _Node(p1, k, tail)
        if others.size:
            leave = miss.streams.outcomes(others, k, p1) != outcome
            if leave.any():
                trie.store(node, amplitudes, (
                    steps, cursor - 1, set(entered), dict(ssa), dict(bits),
                    list(recorder.entries), recorder.declared_len), miss.waiting)
                miss.waiting.append((others[leave], node, 1 - outcome))
                others = others[~leave]
        tail = (node, outcome)
        return outcome

    while True:
        code, *args = steps[cursor]
        cursor += 1
        if code is OpKind.GATE:
            backend.apply_gate(args[0])
        elif code is OpKind.MEASURE:
            qubit, result = args
            bits[result] = backend.measure(qubit, choose)
        elif code is OpKind.RESET:
            backend.reset(args[0], choose)
        elif code is OpKind.READ_RESULT:
            result, name = args
            ssa[name] = bool(_result_bit(bits, result))
        elif code is OpKind.RECORD_ARRAY:
            recorder.record_array(*args)
        elif code is OpKind.RECORD_RESULT:
            result, label = args
            recorder.record_result(_result_bit(bits, result), label)
        elif code is Control.JUMP or code is Control.BRANCH:
            block = args[0]
            if code is Control.BRANCH:
                name, then_index, else_index = args
                if name not in ssa:
                    raise RuntimeFault(f"use of unbound SSA value {name}")
                block = then_index if ssa[name] else else_index
            if block in entered:
                raise RuntimeFault(f"entered block {block} twice")
            entered.add(block)
            steps, cursor = program[block], 0
        elif code is Control.RETURN:
            output = recorder.finalize()
            if tail is not None:
                tail[0].children[tail[1]] = output
                if others.size:  # they take the leaf
                    miss.waiting.append((others, *tail))
            return output
        elif code is Control.FAULT:
            raise RuntimeFault(args[0])
        # OpKind.INITIALIZE does nothing


def run_program(
    module: ProgramModule,
    entry: EntryPoint,
    registry: Registry,
    config: RunConfig,
) -> RunResult:
    """Execute the entry function config.shots times and aggregate.

    Shots go through one OutcomeTrie SHOT_CHUNK at a time, in groups on a
    stack, deepest parting first.  A group at a node splits by its
    ShotStreams.outcomes; at a leaf it takes its output; at an empty slot
    it runs as one _Miss.  A fault is kept if its shot is the lowest yet,
    misses above that shot are skipped, and the chunk then raises it, so a
    fault names the lowest faulting shot.
    """
    program = compile_program(module, entry, registry)
    trie = OutcomeTrie()
    histogram = Histogram(keep_per_shot=config.per_shot)
    for first in range(0, config.shots, SHOT_CHUNK):
        count = min(SHOT_CHUNK, config.shots - first)
        streams = ShotStreams(config.seed, first, count)
        taken, fault = [], None  # (rows, output) per group that has its output; (row, fault)
        waiting = [(np.arange(count), trie.root, 0)]  # (rows, node, outcome) of each group
        while waiting:
            rows, node, outcome = waiting.pop()
            held = node.children[outcome]
            if isinstance(held, _Node):
                ones = streams.outcomes(rows, held.k, held.p1)
                waiting += [(part, held, outcome)
                            for outcome, part in enumerate((rows[~ones], rows[ones])) if part.size]
            elif held is not None:
                taken.append((rows, held))
            elif fault is None or rows[0] < fault[0]:
                walk = _walk(node, outcome)
                backend = create_backend(config.backend_choice)
                backend.allocate(entry.num_qubits, walk[0][0].state if walk else None)
                miss = _Miss(partial(streams.outcomes, rows[0]), walk, (node, outcome), trie,
                             streams, rows[1:], waiting)
                try:
                    taken.append((rows[:1], execute_shot(program, backend, miss)))
                except RuntimeFault as error:
                    fault = (rows[0], error)
        if fault is not None:
            raise RuntimeFault(f"shot {first + fault[0]}: {fault[1]}") from fault[1]
        taken.sort(key=lambda group: group[0][0])
        histogram.add_groups(taken, count)
        del streams  # its arrays go before the next chunk's are computed

    return histogram.result(
        program_name=module.source_name or entry.function_name,
        backend_name=config.backend_choice,
        seed=config.seed,
        rng_id=RNG_ID,
        num_qubits=entry.num_qubits,
        num_results=entry.num_results,
    )
