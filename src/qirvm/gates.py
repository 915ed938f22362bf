"""Unitary matrices of the gates the statevector kernels apply.

A k-qubit matrix is indexed by bits (t0 t1 ... t_{k-1}) with targets[0]
as the most significant bit.  cnot, ccnot, cy, cz and swap have no matrix
here: `backends._PAIRED` names the 2x2 gate each applies to a pair of
slices.  The tests build their full matrices, controls first, as an
oracle (`full_matrix` in tests/conftest.py).
"""

from __future__ import annotations

import numpy as np

from .registry import GateId

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED = {
    GateId.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    GateId.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateId.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateId.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateId.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateId.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateId.T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    GateId.TDG: np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    # principal square root of Y
    GateId.SY: 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=complex),
}

def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def _rzz(theta: float) -> np.ndarray:
    # exp(-i theta (Z(x)Z) / 2): |00>,|11> pick up -theta/2; |01>,|10> +theta/2
    a, b = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return np.array([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, b, 0], [0, 0, 0, a]], dtype=complex)


def _xx_fixed() -> np.ndarray:
    # exp(-i (pi/4) X(x)X), the maximally entangling Ising/MS convention
    xkron = np.kron(_FIXED[GateId.X], _FIXED[GateId.X])
    return (np.eye(4) - 1j * xkron).astype(complex) * _SQ2


_FIXED[GateId.ZZ] = _rzz(np.pi / 2)
_FIXED[GateId.XX] = _xx_fixed()
for _matrix in _FIXED.values():
    _matrix.setflags(write=False)  # shared by every caller

_ROTATIONS = {GateId.RX: _rx, GateId.RY: _ry, GateId.RZ: _rz, GateId.RZZ: _rzz}


def gate_matrix(gate_id: GateId, params=()) -> np.ndarray:
    """Return the unitary of a one-qubit gate, rzz, zz or xx; angles are radians.

    compile_program has checked the gate and its parameter count.  Fixed
    gates return one shared read-only array, rotations a new one; any other
    gate raises KeyError.
    """
    return _ROTATIONS[gate_id](*params) if params else _FIXED[gate_id]
