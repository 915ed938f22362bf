import numpy as np
import pytest

from qirvm import (
    GateId,
    StatevectorBackend,
    default_registry,
    find_entry,
    gate_matrix,
    parse_module,
    validate_profile,
)
from qirvm.registry import GATE_SHAPES

from conftest import apply, full_matrix, make_program

RNG = np.random.default_rng(1234)

ALL_GATES = list(GateId)
# the gates a kernel applies; cnot, ccnot, cy, cz and swap have no matrix in src
KERNEL_GATES = [g for g in GateId
                if g not in (GateId.CNOT, GateId.CCNOT, GateId.CY, GateId.CZ, GateId.SWAP)]
PARAMETERIZED = {GateId.RX, GateId.RY, GateId.RZ, GateId.RZZ}


def kernel_matrix(gate_id, params=()):
    """The matrix StatevectorBackend applies, column by column from basis states.

    The targets are (k-1, ..., 0), so targets[0] is the most significant bit
    of both the matrix index and the amplitude index.
    """
    k = GATE_SHAPES[gate_id][1]
    targets = tuple(range(k - 1, -1, -1))
    columns = []
    for column in np.eye(2 ** k, dtype=complex):
        backend = StatevectorBackend()
        backend.allocate(k, column)
        apply(backend, gate_id, params, targets)
        columns.append(backend.amplitudes)
    return np.stack(columns, axis=1)


def random_params(gate_id):
    if gate_id in PARAMETERIZED:
        return (RNG.uniform(-2 * np.pi, 2 * np.pi),)
    return ()


def unitarity_defect(u):
    return np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))


@pytest.mark.parametrize("gate_id", ALL_GATES, ids=[g.name for g in ALL_GATES])
def test_unitary(gate_id):
    params = random_params(gate_id)
    if gate_id in KERNEL_GATES:
        assert unitarity_defect(gate_matrix(gate_id, params)) < 1e-12
    assert unitarity_defect(kernel_matrix(gate_id, params)) < 1e-12


@pytest.mark.parametrize("gate_id", sorted(PARAMETERIZED, key=lambda g: g.name))
def test_unitary_over_random_angles(gate_id):
    for _ in range(200):
        u = gate_matrix(gate_id, (RNG.uniform(-10, 10),))
        assert unitarity_defect(u) < 1e-12


@pytest.mark.parametrize(
    "a,b",
    [(GateId.S, GateId.SDG), (GateId.T, GateId.TDG)],
    ids=["S*Sdg", "T*Tdg"],
)
def test_adjoint_pairs(a, b):
    product = gate_matrix(a) @ gate_matrix(b)
    assert np.max(np.abs(product - np.eye(2))) < 1e-12


def test_sy_squared_is_y():
    sy = gate_matrix(GateId.SY)
    assert np.max(np.abs(sy @ sy - gate_matrix(GateId.Y))) < 1e-12


def test_rz_zero_is_identity():
    assert np.max(np.abs(gate_matrix(GateId.RZ, (0.0,)) - np.eye(2))) < 1e-15


def test_rzz_against_cnot_rz_cnot_oracle():
    cnot = full_matrix(GateId.CNOT)
    for theta in RNG.uniform(-2 * np.pi, 2 * np.pi, size=20):
        direct = gate_matrix(GateId.RZZ, (theta,))
        composed = cnot @ np.kron(np.eye(2), gate_matrix(GateId.RZ, (theta,))) @ cnot
        assert np.max(np.abs(direct - composed)) < 1e-12


def test_zz_is_quarter_turn_ising():
    zz = gate_matrix(GateId.ZZ)
    assert np.max(np.abs(zz - gate_matrix(GateId.RZZ, (np.pi / 2,)))) < 1e-15


def test_xx_matches_expansion():
    x = gate_matrix(GateId.X)
    expected = (np.eye(4) - 1j * np.kron(x, x)) / np.sqrt(2)
    assert np.max(np.abs(gate_matrix(GateId.XX) - expected)) < 1e-15


def test_hadamard_entries():
    h = gate_matrix(GateId.H)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_cnot_flips_on_control_set():
    cnot = kernel_matrix(GateId.CNOT)
    # control is the high bit: |10> -> |11>
    assert cnot[3, 2] == 1 and cnot[2, 3] == 1
    assert cnot[0, 0] == 1 and cnot[1, 1] == 1


def test_toffoli_permutes_last_two_rows():
    ccx = kernel_matrix(GateId.CCNOT)
    assert ccx[7, 6] == 1 and ccx[6, 7] == 1
    assert np.allclose(ccx[:6, :6], np.eye(6))


def test_wrong_param_count():
    # compile_program checks each gate's parameter count, so gate_matrix need not
    for call, message in [
        ("call void @__quantum__qis__rx__body(%Qubit* null)",
         "@__quantum__qis__rx__body expects (double, qubit) but was called with (qubit)"),
        ("call void @__quantum__qis__h__body(double 0.5, %Qubit* null)",
         "@__quantum__qis__h__body expects (qubit) but was called with (double, qubit)"),
    ]:
        module = parse_module(make_program(f"entry:\n  {call}\n  ret void"))
        diagnostics = validate_profile(module, find_entry(module), default_registry())
        assert [(d.severity, d.message) for d in diagnostics] == [("error", message)]


def test_fixed_matrices_are_shared_and_read_only():
    h = gate_matrix(GateId.H)
    assert h is gate_matrix(GateId.H)
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 0
