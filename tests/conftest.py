import json
import pathlib

import numpy as np
import pytest

from qirvm import RunResult, default_registry, find_entry, parse_module
from qirvm.recorder import JSON_SCHEMA_ID

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TELEPORT_LL = (FIXTURES / "teleport.ll").read_text()
QPE_LL = (FIXTURES / "qpe_phi_third_k5.ll").read_text()


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
