"""Execution backends: dense statevector simulator and trace recorder.

A backend instance is exclusively owned by a single shot execution: the
interpreter gets a fresh instance from the factory per trie miss.  Basis
convention: qubit i is bit i of the little-endian amplitude index.
The protocol: allocate(n, state=None), apply_gate, measure(qubit, choose)
and reset(qubit, choose).  A backend holds no RNG and no trie: the
interpreter's draw choose(p1, amplitudes) returns each outcome.
"""

from __future__ import annotations

import numpy as np

from .errors import RuntimeFault, UnknownBackend
from .gates import gate_matrix
from .registry import GateId

DEFAULT_MAX_QUBITS = 24


class StatevectorBackend:
    """Exact simulation over all 2^n complex amplitudes.

    Gates update the state in place as 2x2 matrices on pairs of slices
    (`_apply_2x2`, through the two `scratch` rows), since a fresh state per
    gate ties the speed to the C heap's layout; only rzz, zz and xx build
    one (`_apply_matrix`).  README, Gate kernels, lists the forms.

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
        if num_qubits > DEFAULT_MAX_QUBITS:
            raise RuntimeFault(
                f"{num_qubits} qubits exceeds the maximum of {DEFAULT_MAX_QUBITS}"
            )
        self.n = num_qubits
        self.scratch = np.empty((2, 2 ** max(num_qubits - 1, 0)), dtype=complex)
        if state is None:
            self.amplitudes = np.zeros(2 ** max(num_qubits, 0), dtype=complex)
            self.amplitudes[0] = 1.0
            self.fixed = dict.fromkeys(range(num_qubits), 0)
        else:
            self.amplitudes = state.copy()
            self.fixed = {}

    def apply_gate(self, gate_id: GateId, params, targets):
        """Apply a gate to distinct in-range targets, as compile_program checks.

        The targets leave `fixed`.  A one-qubit or paired gate indexes every
        other fixed qubit's axis at its bit, so it computes only the pairs
        that can be nonzero; each output pair depends on its own inputs
        alone, so those get the bits a full-state kernel gives them.
        """
        n, fixed = self.n, self.fixed
        for q in targets:
            fixed.pop(q, None)
        if len(targets) == 1:
            matrix, axes, zero_bits, one_bits = gate_matrix(gate_id, params), targets, (0,), (1,)
        elif gate_id in _PAIRED:
            matrix, axes, zero_bits = gate_matrix(_PAIRED[gate_id]), targets[-2:], (1, 0)
            one_bits = (0, 1) if gate_id is GateId.SWAP else (1, 1)
        else:
            self.amplitudes = _apply_matrix(self.amplitudes, gate_matrix(gate_id, params),
                                            targets, n)
            return
        psi = self.amplitudes.reshape([2] * n)
        idx = [slice(None)] * n
        for q, bit in fixed.items():
            idx[n - 1 - q] = bit
        for q in targets[:-2]:  # ccnot's first control
            idx[n - 1 - q] = 1
        halves = []
        for bits in zero_bits, one_bits:
            for q, bit in zip(axes, bits):
                idx[n - 1 - q] = bit
            halves.append(psi[(*idx, ...)])  # `...` keeps a view when every axis is indexed
        _apply_2x2(*halves, matrix, self.scratch)

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
            self.apply_gate(GateId.X, (), (qubit,))
            self.fixed[qubit] = 0


# What the paired gates do, stated here alone: a controlled gate applies its
# base gate to the target's slices where every control is 1; swap applies X
# to the |10> and |01> slices.
_PAIRED = {GateId.CNOT: GateId.X, GateId.CCNOT: GateId.X, GateId.CY: GateId.Y,
           GateId.CZ: GateId.Z, GateId.SWAP: GateId.X}


def _apply_2x2(zero: np.ndarray, one: np.ndarray, matrix: np.ndarray, scratch: np.ndarray):
    """Apply a 2x2 matrix in place to the views `zero` and `one` of a state.

    A diagonal matrix is two in-place multiplies, an antidiagonal one a
    multiply per half through a `scratch` row, any other m0*zero + m1*one.
    The bits are the allocating formula's, but for the sign of exact zeros.
    Every multiply puts the scalar first, as the formula does, and none
    works in place on one element or, but by the exact 1 and +-i, reads
    `zero` into `one`: numpy rounds each of those differently.
    """
    size = zero.size
    if matrix[0, 1] == 0 and matrix[1, 0] == 0 and size > 1:
        np.multiply(matrix[0, 0], zero, out=zero)
        np.multiply(matrix[1, 1], one, out=one)
        return
    new_zero = scratch[0, :size].reshape(zero.shape)
    if matrix[0, 0] == 0 and matrix[1, 1] == 0:
        np.multiply(matrix[0, 1], one, out=new_zero)
        np.multiply(matrix[1, 0], zero, out=one)
        zero[...] = new_zero
        return
    term = scratch[1, :size].reshape(zero.shape)
    np.multiply(matrix[0, 0], zero, out=new_zero)
    np.multiply(matrix[0, 1], one, out=term)
    np.add(new_zero, term, out=new_zero)
    np.multiply(matrix[1, 0], zero, out=term)
    zero[...] = new_zero
    np.multiply(matrix[1, 1], one, out=new_zero)
    np.add(term, new_zero, out=one)


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Return a new state with a 2^k x 2^k matrix applied to the targets' subspace.

    Only rzz, zz and xx take this path: their entries are non-trivial
    complex numbers, and BLAS may round `matrix @ psi` differently from
    elementwise multiplies, so moving them would change result bits.
    """
    k = len(targets)
    axes = [n - 1 - q for q in targets]  # axis order matches matrix bit order
    rest = [a for a in range(n) if a not in axes]
    perm = axes + rest
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    psi = state.reshape([2] * n).transpose(perm).reshape(2 ** k, -1)
    psi = matrix @ psi
    return psi.reshape([2] * n).transpose(inverse).reshape(-1)


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

    def apply_gate(self, gate_id: GateId, params, targets):
        self.log.append((gate_id.value, tuple(params), tuple(targets)))

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
