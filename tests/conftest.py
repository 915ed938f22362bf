import json
import pathlib

import numpy as np
import pytest

from qirvm import GateId, RunResult, default_registry, find_entry, gate_matrix, parse_module
from qirvm.backends import lower_gate
from qirvm.recorder import JSON_SCHEMA_ID
from qirvm.registry import GATE_SHAPES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TELEPORT_LL = (FIXTURES / "teleport.ll").read_text()
QPE_LL = (FIXTURES / "qpe_phi_third_k5.ll").read_text()
TELEPORT_CALLS = 17  # call instructions in teleport.ll


@pytest.fixture
def teleport_module():
    return parse_module(TELEPORT_LL)


@pytest.fixture
def teleport_entry(teleport_module):
    return find_entry(teleport_module)


@pytest.fixture
def qpe_module():
    return parse_module(QPE_LL)


@pytest.fixture
def registry():
    return default_registry()


def make_program(body, declarations="", attrs=None, extra=""):
    """Assemble a minimal module around a main-function body."""
    if attrs is None:
        attrs = '"entry_point"'
    return f"""\
source_filename = "test"

%Qubit = type opaque
%Result = type opaque

define void @main() #0 {{
{body}
}}

{declarations}

attributes #0 = {{ {attrs} }}
{extra}
"""


def qpe_reference_distribution(phi: float, k: int) -> np.ndarray:
    """Analytic outcome distribution of k-bit phase estimation of phase phi.

    P(m) = sin^2(2^k pi d) / (4^k sin^2(pi d)) with d = phi - m/2^k, and
    P(m) = 1 in the d -> 0 limit.
    """
    if k > 20:
        raise ValueError("k must be at most 20")
    two_k = 2 ** k
    m = np.arange(two_k)
    delta = phi - m / two_k
    exact = np.isclose(np.sin(np.pi * delta), 0.0, atol=1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.sin(two_k * np.pi * delta) ** 2 / (
            4 ** k * np.sin(np.pi * delta) ** 2
        )
    probs[exact] = 1.0
    return probs


def parse_json(text: str) -> RunResult:
    """Read a document written by emit_json back into a RunResult."""
    doc = json.loads(text)
    if doc.get("schema") != JSON_SCHEMA_ID:
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    return RunResult(
        program_name=doc["program"],
        backend_name=doc["backend"],
        shots=doc["shots"],
        seed=doc["seed"],
        rng_id=doc["rng"],
        num_qubits=doc["num_qubits"],
        num_results=doc["num_results"],
        histogram=dict(doc["histogram"]),
        labels=tuple(doc["labels"]) if doc["labels"] is not None else None,
        per_shot=tuple(doc["per_shot"]) if doc["per_shot"] is not None else None,
    )


_CONTROLLED = {GateId.CNOT: GateId.X, GateId.CCNOT: GateId.X, GateId.CY: GateId.Y,
               GateId.CZ: GateId.Z}


def full_matrix(gate: GateId, params=()) -> np.ndarray:
    """The unitary of any gate, as the tests' oracle.

    `targets[0]` is the most significant bit of the matrix index, so a
    controlled gate takes its controls first: it is the identity whose last
    2x2 block is gate_matrix of its base gate (cnot = diag(I, X)).  swap is
    the permutation [0, 2, 1, 3] of the 4x4 identity.  Every other gate
    comes from gate_matrix, which holds only the gates a kernel applies.
    """
    if gate is GateId.SWAP:
        return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    if gate in _CONTROLLED:
        matrix = np.eye(2 ** GATE_SHAPES[gate][1], dtype=complex)
        matrix[-2:, -2:] = gate_matrix(_CONTROLLED[gate])
        return matrix
    return gate_matrix(gate, params)


def apply(backend, gate: GateId, params, targets):
    """backend.apply_gate of the gate lowered for the backend's qubit count."""
    backend.apply_gate(lower_gate(gate, tuple(params), tuple(targets), backend.n))


def allocating_apply(state: np.ndarray, matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Return a new state with `matrix` applied, by the allocating formula.

    A one-qubit gate computes m0*zero + m1*one for each half; a wider gate
    transposes its target axes to the front, multiplies by `matrix` and
    transposes back.  The in-place kernels of StatevectorBackend must give
    the same bits, except the sign of exact zeros.
    """
    if len(targets) == 1:
        psi = state.reshape(-1, 2, 1 << targets[0])
        zero, one = psi[:, 0, :], psi[:, 1, :]
        return np.stack([matrix[0, 0] * zero + matrix[0, 1] * one,
                         matrix[1, 0] * zero + matrix[1, 1] * one], axis=1).reshape(-1)
    k = len(targets)
    perm = [n - 1 - q for q in targets]  # axis order matches matrix bit order
    perm += [a for a in range(n) if a not in perm]
    psi = state.reshape([2] * n).transpose(perm).reshape(2 ** k, -1)
    return (matrix @ psi).reshape([2] * n).transpose(np.argsort(perm)).reshape(-1)
