#!/usr/bin/env python3
"""Benchmark workloads: program text, shot counts and reference distributions.

Each workload turns a benchmark seed into the `.ll` text the program
receives and into an outcome distribution computed here, without qirvm.
Two workloads read the checked-in fixtures; the other two are generated
from the seed in the style of `scripts/make_qpe_fixture.py`:

- `layered-n8`: a brick circuit on 8 qubits, depth 20.  Each layer applies
  a random rx/ry/rz with a fresh angle to every qubit, then a cz brick.
  All qubits are measured at the end.
- `ffloop-n14`: 24 feed-forward rounds on 13 data qubits and 1 ancilla.
  Each round rotates the data, copies the parity of three data qubits
  onto the ancilla, measures and resets it, and applies an x correction
  to one data qubit when the bit is 1.

Write one generated program to a file (run from the repository root):

    python3 perfbench/workloads.py layered-n8 --seed 3 layered.ll
"""

import argparse
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A histogram fails its reference check when the chi-square goodness-of-fit
# p-value falls below this.  It is small because a workload seed fixes the
# histogram: a seed that failed by chance would fail on every run.
SIGNIFICANCE = 1e-6
MIN_EXPECTED = 5.0

FIXTURES = "tests/fixtures"

LAYERED_QUBITS, LAYERED_DEPTH = 8, 20
FFLOOP_DATA, FFLOOP_ROUNDS, FFLOOP_PARITY = 13, 24, 3
FFLOOP_CHECKED_BITS = 4
QPE_PHI, QPE_BITS = 1 / 3, 5


@dataclass(frozen=True)
class Workload:
    name: str
    shots: int
    program: Callable[[int], str]  # seed -> .ll text
    reference: Callable[[int], "Reference"]  # seed -> expected outcomes


@dataclass(frozen=True)
class Reference:
    """Expected probabilities over `key(bitstring)`; other keys must not occur."""

    probs: dict
    key: Callable[[str], str] = lambda bits: bits
    note: str = ""


# ---------------------------------------------------------------------------
# Dense reference simulator (little-endian: qubit i is bit i of the index;
# targets[0] is the most significant bit of a gate matrix)


def _rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz}


def _matrix(name, params):
    return _ROTATIONS[name](*params) if params else _FIXED[name]


def _apply(state, name, params, targets, n):
    k = len(targets)
    axes = [n - 1 - q for q in targets]
    psi = np.tensordot(
        _matrix(name, params).reshape([2] * 2 * k), state.reshape([2] * n),
        axes=(list(range(k, 2 * k)), axes),
    )
    return np.moveaxis(psi, range(k), axes).reshape(-1)


def _zero_state(n):
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    return state


# ---------------------------------------------------------------------------
# Program text


def _hexdouble(value):
    return "0x%016X" % struct.unpack(">Q", struct.pack(">d", value))[0]


def _qubit(q):
    return "%Qubit* null" if q == 0 else f"%Qubit* inttoptr (i64 {q} to %Qubit*)"


def _result(r):
    return "%Result* null" if r == 0 else f"%Result* inttoptr (i64 {r} to %Result*)"


def _call(name, params=(), targets=()):
    args = [f"double {_hexdouble(p)}" for p in params] + [_qubit(q) for q in targets]
    return f"  call void @__quantum__qis__{name}__body({', '.join(args)})"


def _module(name, comment, body, num_qubits, num_results, declares):
    lines = [
        f"; {comment}",
        f'source_filename = "{name}"',
        "",
        "%Qubit = type opaque",
        "%Result = type opaque",
        "",
        "define void @main() #0 {",
        "entry:",
        *body,
        f"  call void @__quantum__rt__array_record_output(i64 {num_results}, i8* null)",
        *(f"  call void @__quantum__rt__result_record_output({_result(r)}, i8* null)"
          for r in range(num_results)),
        "  ret void",
        "}",
        "",
        *declares,
        "declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly) #1",
        "declare void @__quantum__rt__array_record_output(i64, i8*)",
        "declare void @__quantum__rt__result_record_output(%Result*, i8*)",
        "",
        f'attributes #0 = {{ "entry_point" "num_required_qubits"="{num_qubits}" '
        f'"num_required_results"="{num_results}" "qir_profiles"="custom" }}',
        'attributes #1 = { "irreversible" }',
        "",
        "!llvm.module.flags = !{!0, !1}",
        "",
        '!0 = !{i32 1, !"qir_major_version", i32 1}',
        '!1 = !{i32 7, !"qir_minor_version", i32 0}',
        "",
    ]
    return "\n".join(lines)


_ROTATION_DECLARES = [
    f"declare void @__quantum__qis__{r}__body(double, %Qubit*)" for r in ("rx", "ry", "rz")
]


def _rotation_layer(rng, qubits):
    names = ("rx", "ry", "rz")
    return [
        (names[rng.integers(3)], (float(rng.uniform(0.0, 2 * math.pi)),), (q,))
        for q in qubits
    ]


# ---------------------------------------------------------------------------
# layered-n8


def layered_gates(seed):
    rng = np.random.default_rng(seed)
    gates = []
    for layer in range(LAYERED_DEPTH):
        gates += _rotation_layer(rng, range(LAYERED_QUBITS))
        gates += [("cz", (), (q, q + 1)) for q in range(layer % 2, LAYERED_QUBITS - 1, 2)]
    return gates


def layered_program(seed):
    n = LAYERED_QUBITS
    body = [_call(*g) for g in layered_gates(seed)]
    body += [f"  call void @__quantum__qis__mz__body({_qubit(q)}, {_result(q)})" for q in range(n)]
    return _module(
        f"layered_n{n}_s{seed}", f"seeded brick circuit, {n} qubits, depth {LAYERED_DEPTH}",
        body, n, n,
        _ROTATION_DECLARES + ["declare void @__quantum__qis__cz__body(%Qubit*, %Qubit*)"],
    )


def layered_reference(seed):
    n = LAYERED_QUBITS
    state = _zero_state(n)
    for gate in layered_gates(seed):
        state = _apply(state, *gate, n)
    probs = np.abs(state) ** 2
    # result r is qubit r, recorded left to right
    return Reference({
        "".join(str((idx >> q) & 1) for q in range(n)): float(p)
        for idx, p in enumerate(probs)
    }, note="dense simulation")


# ---------------------------------------------------------------------------
# ffloop-n14


def ffloop_rounds(seed):
    """Per round: (rotations, parity qubits, corrected qubit)."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(FFLOOP_ROUNDS):
        rotations = _rotation_layer(rng, range(FFLOOP_DATA))
        parity = tuple(int(q) for q in rng.choice(FFLOOP_DATA, FFLOOP_PARITY, replace=False))
        rounds.append((rotations, parity, int(rng.integers(FFLOOP_DATA))))
    return rounds


def ffloop_program(seed):
    anc = FFLOOP_DATA
    body = []
    for r, (rotations, parity, fix) in enumerate(ffloop_rounds(seed)):
        body += [_call(*g) for g in rotations]
        body += [_call("cnot", (), (q, anc)) for q in parity]
        body += [
            f"  call void @__quantum__qis__mz__body({_qubit(anc)}, {_result(r)})",
            f"  call void @__quantum__qis__reset__body({_qubit(anc)})",
            f"  %bit{r} = call i1 @__quantum__qis__read_result__body({_result(r)})",
            f"  br i1 %bit{r}, label %fix{r}, label %next{r}",
            "",
            f"fix{r}:",
            _call("x", (), (fix,)),
            f"  br label %next{r}",
            "",
            f"next{r}:",
        ]
    return _module(
        f"ffloop_n{FFLOOP_DATA + 1}_s{seed}",
        f"seeded feed-forward loop, {FFLOOP_DATA} data qubits + 1 ancilla, "
        f"{FFLOOP_ROUNDS} rounds",
        body, FFLOOP_DATA + 1, FFLOOP_ROUNDS,
        _ROTATION_DECLARES + [
            "declare void @__quantum__qis__cnot__body(%Qubit*, %Qubit*)",
            "declare void @__quantum__qis__x__body(%Qubit*)",
            "declare void @__quantum__qis__reset__body(%Qubit*)",
            "declare i1 @__quantum__qis__read_result__body(%Result*)",
        ],
    )


def ffloop_reference(seed):
    """Exact distribution of the first FFLOOP_CHECKED_BITS recorded bits."""
    n, anc = FFLOOP_DATA + 1, FFLOOP_DATA
    rounds = ffloop_rounds(seed)[:FFLOOP_CHECKED_BITS]
    anc_set = ((np.arange(2 ** n) >> anc) & 1).astype(bool)
    probs = {}

    def branch(state, history, weight, r):
        if r == len(rounds):
            probs[history] = weight
            return
        rotations, parity, fix = rounds[r]
        for gate in rotations:
            state = _apply(state, *gate, n)
        for q in parity:
            state = _apply(state, "cnot", (), (q, anc), n)
        p1 = float(np.sum(np.abs(state[anc_set]) ** 2))
        for bit, p in ((0, 1.0 - p1), (1, p1)):
            if p <= 0.0:
                continue
            kept = np.where(anc_set == bool(bit), state, 0.0) / math.sqrt(p)
            if bit:  # reset the ancilla, then apply the correction
                kept = _apply(_apply(kept, "x", (), (anc,), n), "x", (), (fix,), n)
            branch(kept, history + str(bit), weight * p, r + 1)

    branch(_zero_state(n), "", 1.0, 0)
    return Reference(probs, key=lambda bits: bits[:FFLOOP_CHECKED_BITS],
                     note=f"exact first {FFLOOP_CHECKED_BITS} bits")


# ---------------------------------------------------------------------------
# Fixtures


def _fixture(name):
    def read(seed):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
            return handle.read()
    return read


def teleport_reference(seed):
    # |0> is teleported, so the last bit is always 0; the two Bell-measurement
    # bits are uniform.  Keys ending in 1 have probability 0 and fail at once.
    return Reference({f"{m:02b}0": 0.25 for m in range(4)}, note="last bit 0, uniform pair")


def qpe_reference(seed):
    """Closed form P(m) = sin^2(2^k pi d) / (4^k sin^2(pi d)), d = phi - m / 2^k."""
    probs = {}
    for m in range(2 ** QPE_BITS):
        d = QPE_PHI - m / 2 ** QPE_BITS
        probs[format(m, f"0{QPE_BITS}b")] = (
            math.sin(2 ** QPE_BITS * math.pi * d) ** 2
            / (4 ** QPE_BITS * math.sin(math.pi * d) ** 2)
        )
    return Reference(probs, note="closed form")


# Why each workload is here: BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("teleport", 16384, _fixture("teleport.ll"), teleport_reference),
        Workload("qpe-k5", 4096, _fixture("qpe_phi_third_k5.ll"), qpe_reference),
        Workload("layered-n8", 100, layered_program, layered_reference),
        Workload("ffloop-n14", 48, ffloop_program, ffloop_reference),
    )
}


# ---------------------------------------------------------------------------
# Goodness of fit


def chi2_sf(stat, df):
    """Upper tail of the chi-square distribution: Q(df/2, stat/2)."""
    a, x = df / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:  # series for the lower tail
        term = total = 1.0 / a
        for i in range(1, 10000):
            term *= x / (a + i)
            total += term
            if term < total * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefactor))
    tiny = 1e-300  # continued fraction for the upper tail (modified Lentz)
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return math.exp(log_prefactor) * h


def goodness_of_fit(histogram, reference):
    """Pearson chi-square p-value of `histogram` against `reference`.

    Outcomes are pooled, least likely first, into bins expecting at least
    MIN_EXPECTED counts.  An outcome the reference gives probability 0
    returns p = 0.
    """
    observed = {}
    for bits, count in histogram.items():
        key = reference.key(bits)
        if reference.probs.get(key, 0.0) <= 0.0:
            return 0.0
        observed[key] = observed.get(key, 0) + count
    shots = sum(observed.values())
    bins, exp_acc, obs_acc = [], 0.0, 0
    for key, p in sorted(reference.probs.items(), key=lambda kv: (kv[1], kv[0])):
        exp_acc += p * shots
        obs_acc += observed.get(key, 0)
        if exp_acc >= MIN_EXPECTED:
            bins.append((obs_acc, exp_acc))
            exp_acc, obs_acc = 0.0, 0
    if bins and exp_acc > 0.0:
        last_obs, last_exp = bins.pop()
        bins.append((last_obs + obs_acc, last_exp + exp_acc))
    if len(bins) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return chi2_sf(stat, len(bins) - 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("output")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(WORKLOADS[args.workload].program(args.seed))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
