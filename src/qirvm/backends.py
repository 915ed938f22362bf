"""Execution backends: dense statevector simulator and trace recorder.

A backend instance is exclusively owned by a single shot execution: the
interpreter gets a fresh instance from the factory per trie miss.  Basis
convention: qubit i is bit i of the little-endian amplitude index.
The protocol: allocate(n, state=None), apply_gate(gate) of a lower_gate
Gate, measure(qubit, choose) and reset(qubit, choose).  A backend holds no
RNG or trie: the interpreter's draw choose(p1, amplitudes) returns each outcome.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import RuntimeFault, UnknownBackend
from .gates import gate_matrix
from .registry import GateId

DEFAULT_MAX_QUBITS = 24


def qubit_limit_error(num_qubits: int):
    """The message for a count above DEFAULT_MAX_QUBITS, or None within it."""
    return (f"{num_qubits} qubits exceeds the maximum of {DEFAULT_MAX_QUBITS}"
            if num_qubits > DEFAULT_MAX_QUBITS else None)


class StatevectorBackend:
    """Exact simulation over all 2^n complex amplitudes.

    Gates update the state in place as 2x2 matrices on pairs of slices
    (through the four `scratch` rows), since a fresh state per gate ties
    the speed to the C heap's layout; only rzz, zz and xx build one
    (`_apply_matrix`).  README, Gate kernels, lists the forms.

    `fixed` maps each qubit known to be in a basis state (from allocate,
    mz or reset, until a gate targets it) to its bit: every amplitude with
    the other bit is exactly zero, so one-qubit and paired gates skip it.
    A state enters only through `allocate`, so the map holds for it.

    Each measurement asks `choose` for its outcome exactly once, with p1
    computed from the current state, and projects onto that outcome; on a
    qubit fixed at 0, p1 is exactly 0.0 and the projection changes no bit,
    so both are skipped.
    """

    def __init__(self):
        self.n = 0
        self.amplitudes = None
        self.scratch = None
        self.fixed = {}

    def allocate(self, num_qubits: int, state=None):
        """Start a shot in |0...0>, or in a copy of the 2^n amplitudes `state`."""
        if message := qubit_limit_error(num_qubits):
            raise RuntimeFault(message)
        self.n = num_qubits
        self.scratch = np.empty((4, 2 ** max(num_qubits - 1, 0)), dtype=complex)
        if state is None:
            self.amplitudes = np.zeros(2 ** max(num_qubits, 0), dtype=complex)
            self.amplitudes[0] = 1.0
            self.fixed = dict.fromkeys(range(num_qubits), 0)
        else:
            self.amplitudes = state.copy()
            self.fixed = {}

    def apply_gate(self, gate: Gate):
        """Apply a gate lowered by lower_gate for this run's n.

        The targets leave `fixed`.  A one-qubit or paired gate indexes every
        other fixed qubit's axis at its bit, so it computes only the pairs
        that can be nonzero; each output pair depends on its own inputs
        alone, so those get the bits a full-state kernel gives them.
        """
        n, fixed = self.n, self.fixed
        for q in gate.targets:
            fixed.pop(q, None)
        if gate.kernel is _apply_matrix:
            self.amplitudes = _apply_matrix(self.amplitudes, gate.coefficients, gate.targets, n)
            return
        psi = self.amplitudes.reshape([2] * n)
        idx = [slice(None)] * n
        for q, bit in fixed.items():
            idx[n - 1 - q] = bit
        halves = []
        for bits in gate.zero_bits, gate.one_bits:
            for axis, bit in zip(gate.axes, bits):
                idx[axis] = bit
            halves.append(psi[(*idx, ...)])  # `...` keeps a view when every axis is indexed
        gate.kernel(*halves, gate.coefficients, self.scratch)

    def _prob_one(self, qubit: int) -> float:
        # view with the measured qubit as the middle axis
        psi = self.amplitudes.reshape(-1, 2, 1 << qubit)
        branch = psi[:, 1, :]
        return float(np.real(np.einsum("ij,ij->", branch, branch.conj())))

    def measure(self, qubit: int, choose) -> int:
        known_zero = self.fixed.get(qubit) == 0
        p1 = 0.0 if known_zero else self._prob_one(qubit)
        outcome = choose(p1, self.amplitudes)
        if outcome or not known_zero:
            self._project(qubit, outcome, p1 if outcome else 1.0 - p1)
        return outcome

    def _project(self, qubit: int, outcome: int, probability: float):
        if probability <= 0.0:
            raise RuntimeFault("measurement projected onto a zero-probability branch")
        psi = self.amplitudes.reshape(-1, 2, 1 << qubit)
        psi[:, 1 - outcome, :] = 0.0
        self.amplitudes *= 1.0 / np.sqrt(probability)
        self.fixed[qubit] = outcome

    def reset(self, qubit: int, choose):
        if self.measure(qubit, choose) == 1:
            self.apply_gate(_RESET_X._replace(targets=(qubit,), axes=(self.n - 1 - qubit,)))
            self.fixed[qubit] = 0


# What the paired gates do, stated here alone: a controlled gate applies its
# base gate to the target's slices where every control is 1; swap applies X
# to the |10> and |01> slices.
_PAIRED = {GateId.CNOT: GateId.X, GateId.CCNOT: GateId.X, GateId.CY: GateId.Y,
           GateId.CZ: GateId.Z, GateId.SWAP: GateId.X}


class Gate(NamedTuple):
    """A gate call site lowered for a run of n qubits; see lower_gate."""

    gate_id: GateId  # gate_id, params and targets are what TraceBackend logs
    params: tuple
    targets: tuple
    kernel: Callable  # _diagonal, _antidiagonal, _general or _apply_matrix
    coefficients: object  # a 2x2 form's (m00, m01, m10, m11); _apply_matrix's matrix
    axes: tuple = ()  # the axis n - 1 - q of each target, controls first
    zero_bits: tuple = ()  # the bit of each axis on the zero half
    one_bits: tuple = ()  # and on the one half; a control is 1 on both


def lower_gate(gate_id: GateId, params, targets, n: int) -> Gate:
    """The Gate of a call site on n qubits; compile_program, having checked
    the targets, lowers each site once per run."""
    if len(targets) > 1 and gate_id not in _PAIRED:
        return Gate(gate_id, params, targets, _apply_matrix, gate_matrix(gate_id, params))
    m = tuple(gate_matrix(_PAIRED.get(gate_id, gate_id), params).flat)
    kernel = _diagonal if m[1] == m[2] == 0 else _antidiagonal if m[0] == m[3] == 0 else _general
    controls = (1,) * (len(targets) - 1)  # 1 on both halves
    bits = ((1, 0), (0, 1)) if gate_id is GateId.SWAP else (controls + (0,), controls + (1,))
    return Gate(gate_id, params, targets, kernel, m, tuple(n - 1 - q for q in targets), *bits)


# The 2x2 kernels apply m = (m00, m01, m10, m11) in place to the views `zero`
# and `one` of a state, with the bits of the allocating formula but for the
# sign of exact zeros.  Every multiply puts the scalar first, as the formula
# does, and none works in place on one element or, but by the exact 1 and
# +-i, reads `zero` into `one`: numpy rounds each of those differently.  The
# general form copies each half into a contiguous `scratch` row and each
# result back once, where a ufunc would buffer a strided view on every call.

def _diagonal(zero: np.ndarray, one: np.ndarray, m: tuple, scratch: np.ndarray):
    if zero.size == 1:  # not in place on one element
        return _general(zero, one, m, scratch)
    np.multiply(m[0], zero, out=zero)
    np.multiply(m[3], one, out=one)


def _antidiagonal(zero: np.ndarray, one: np.ndarray, m: tuple, scratch: np.ndarray):
    new_zero = scratch[0, :zero.size].reshape(zero.shape)
    np.multiply(m[1], one, out=new_zero)
    np.multiply(m[2], zero, out=one)
    zero[...] = new_zero


def _general(zero: np.ndarray, one: np.ndarray, m: tuple, scratch: np.ndarray):
    # rows of shape (1, *zero.shape), which stay arrays where zero is 0-d
    old_zero, old_one, left, right = scratch[:, :zero.size].reshape((4, 1, *zero.shape))
    old_zero[...] = zero
    old_one[...] = one
    np.multiply(m[0], old_zero, out=left)
    np.multiply(m[1], old_one, out=right)
    np.add(left, right, out=left)
    zero[...] = left
    np.multiply(m[2], old_zero, out=left)
    np.multiply(m[3], old_one, out=right)
    np.add(left, right, out=right)
    one[...] = right


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Return a new state with a 2^k x 2^k matrix applied to the targets' subspace.

    Only rzz, zz and xx take this path: their entries are non-trivial
    complex numbers, and BLAS may round `matrix @ psi` differently from
    elementwise multiplies, so moving them would change result bits.
    """
    k, axes = len(targets), [n - 1 - q for q in targets]  # axis order is matrix bit order
    psi = np.moveaxis(state.reshape([2] * n), axes, range(k)).reshape(2 ** k, -1)
    return np.moveaxis((matrix @ psi).reshape([2] * n), range(k), axes).reshape(-1)


class TraceBackend:
    """Records the dispatched instruction stream instead of simulating.

    Measurement outcomes come from `measure_bits` (cycled) or default 0,
    so branch paths can be forced deterministically in tests: `measure`
    passes the bit as p1, which a draw u < p1 returns.  `reset` only logs.
    """

    def __init__(self, measure_bits=None):
        self.measure_bits = list(measure_bits) if measure_bits is not None else []
        self._measure_cursor = 0
        self.log = []
        self.n = 0

    def allocate(self, num_qubits: int, state=None):
        self.n = num_qubits
        self.log = []
        self._measure_cursor = 0

    def apply_gate(self, gate: Gate):
        self.log.append((gate.gate_id.value, tuple(gate.params), tuple(gate.targets)))

    def measure(self, qubit: int, choose) -> int:
        if self.measure_bits:
            bit = self.measure_bits[self._measure_cursor % len(self.measure_bits)]
            self._measure_cursor += 1
        else:
            bit = 0
        self.log.append(("mz", (), (qubit,)))
        return choose(float(bit), None)

    def reset(self, qubit: int, choose):
        self.log.append(("reset", (), (qubit,)))


_RESET_X = lower_gate(GateId.X, (), (0,), 1)  # reset's X; it sets the target and axis
_BACKENDS = {
    "statevector": StatevectorBackend,
    "trace": TraceBackend,
}


def available_backends():
    return sorted(_BACKENDS)


def create_backend(choice: str):
    """Instantiate a fresh backend by registered name."""
    factory = _BACKENDS.get(choice)
    if factory is None:
        raise UnknownBackend(
            f"unknown backend {choice!r}; available: {', '.join(available_backends())}"
        )
    return factory()
