import itertools

import numpy as np
import pytest

from qirvm import (
    GateId,
    RunConfig,
    RuntimeFault,
    StatevectorBackend,
    TraceBackend,
    create_backend,
    default_registry,
    find_entry,
    gate_matrix,
    parse_module,
    run_program,
    validate_profile,
)
from qirvm import backends
from qirvm.backends import DEFAULT_MAX_QUBITS, lower_gate
from qirvm.registry import GATE_SHAPES

from conftest import allocating_apply, apply, full_matrix, make_program, qpe_reference_distribution


def fresh(n):
    backend = StatevectorBackend()
    backend.allocate(n)
    return backend


def draw(rng):
    """The interpreter's draw, for measure and reset: outcome 1 iff u < p1."""
    return lambda p1, amplitudes: int(rng.random() < p1)


def test_hadamard_superposition():
    sv = fresh(1)
    apply(sv, GateId.H, (), (0,))
    assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_bell_state():
    sv = fresh(2)
    apply(sv, GateId.H, (), (0,))
    apply(sv, GateId.CNOT, (), (0, 1))
    assert np.allclose(np.abs(sv.amplitudes) ** 2, [0.5, 0, 0, 0.5])


def test_x_then_measure_is_deterministic():
    sv = fresh(1)
    apply(sv, GateId.X, (), (0,))
    before = sv.amplitudes.copy()
    assert sv.measure(0, draw(np.random.default_rng(0))) == 1
    assert np.allclose(sv.amplitudes, before)


def test_plus_state_measurement_is_fair():
    ones = 0
    trials = 10_000
    choose = draw(np.random.default_rng(7))
    for _ in range(trials):
        sv = StatevectorBackend()
        sv.allocate(1)
        apply(sv, GateId.H, (), (0,))
        ones += sv.measure(0, choose)
    assert 0.48 <= ones / trials <= 0.52


def test_ghz_measurements_perfectly_correlated():
    for seed in range(50):
        sv, choose = fresh(3), draw(np.random.default_rng(seed))
        apply(sv, GateId.H, (), (0,))
        apply(sv, GateId.CNOT, (), (0, 1))
        apply(sv, GateId.CNOT, (), (1, 2))
        bits = [sv.measure(0, choose), sv.measure(1, choose), sv.measure(2, choose)]
        assert len(set(bits)) == 1


def test_reset_one_to_zero():
    sv = fresh(1)
    apply(sv, GateId.X, (), (0,))
    sv.reset(0, draw(np.random.default_rng(0)))
    assert np.allclose(np.abs(sv.amplitudes) ** 2, [1, 0])


def test_reset_zero_is_fixpoint():
    sv = fresh(1)
    before = sv.amplitudes.copy()
    sv.reset(0, draw(np.random.default_rng(0)))
    assert np.array_equal(sv.amplitudes, before)


def test_reset_on_bell_pair_collapses_partner():
    outcomes = set()
    for seed in range(40):
        sv = fresh(2)
        apply(sv, GateId.H, (), (0,))
        apply(sv, GateId.CNOT, (), (0, 1))
        sv.reset(0, draw(np.random.default_rng(seed)))
        probs = np.abs(sv.amplitudes) ** 2
        # qubit 0 marginal must be exactly |0>
        assert probs[1] + probs[3] < 1e-12
        partner = 1 if probs[2] > 0.5 else 0
        outcomes.add(partner)
        assert np.isclose(max(probs), 1.0)
    assert outcomes == {0, 1}  # both branches occur across seeds


def test_probabilities_sum_to_one():
    sv = fresh(4)
    rng = np.random.default_rng(11)
    gates_1q = [GateId.H, GateId.T, GateId.SY, GateId.RX]
    for _ in range(50):
        g = gates_1q[rng.integers(len(gates_1q))]
        params = (rng.uniform(-np.pi, np.pi),) if g is GateId.RX else ()
        apply(sv, g, params, (int(rng.integers(4)),))
        assert abs((np.abs(sv.amplitudes) ** 2).sum() - 1.0) < 1e-10


def test_adjoint_cancellation_returns_state():
    pairs = [
        (GateId.X, GateId.X), (GateId.Y, GateId.Y), (GateId.Z, GateId.Z),
        (GateId.H, GateId.H), (GateId.S, GateId.SDG), (GateId.T, GateId.TDG),
    ]
    for a, b in pairs:
        sv = fresh(2)
        apply(sv, GateId.H, (), (0,))
        apply(sv, GateId.RY, (0.7,), (1,))
        before = sv.amplitudes.copy()
        apply(sv, a, (), (1,))
        apply(sv, b, (), (1,))
        assert np.max(np.abs(sv.amplitudes - before)) < 1e-10
    sv = fresh(2)
    apply(sv, GateId.RY, (0.3,), (0,))
    before = sv.amplitudes.copy()
    apply(sv, GateId.SWAP, (), (0, 1))
    apply(sv, GateId.SWAP, (), (0, 1))
    assert np.max(np.abs(sv.amplitudes - before)) < 1e-10


Q1 = "%Qubit* inttoptr (i64 1 to %Qubit*)"

# Calls compile_program turns into faults, each with the validator's message.
BAD_CALLS = {
    "undeclared qubit": ("call void @__quantum__qis__x__body(%Qubit* inttoptr (i64 2 to %Qubit*))",
                         "qubit index 2 out of range (program declares 2 qubits)"),
    "duplicate targets": (f"call void @__quantum__qis__cnot__body({Q1}, {Q1})",
                          "duplicate qubit targets [1, 1]"),
    "undeclared result": ("call void @__quantum__qis__mz__body"
                          "(%Qubit* null, %Result* inttoptr (i64 1 to %Result*))",
                          "result index 1 out of range (program declares 1 results)"),
    "bound gate": ("%1 = call i1 @__quantum__qis__x__body(%Qubit* null)",
                   "@__quantum__qis__x__body return-binding mismatch"),
    "ssa operand": ("call void @__quantum__qis__x__body(i1 %0)",
                    "@__quantum__qis__x__body expects (qubit) but was called with (i1)"),
    "unresolved callee": ("call void @__quantum__qis__nope__body(%Qubit* null)",
                          "call to unresolved function @__quantum__qis__nope__body"),
}


@pytest.mark.parametrize("backend", ["statevector", "trace"])
@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_call_that_cannot_run_faults_on_every_backend(case, backend):
    call, message = BAD_CALLS[case]
    src = make_program(
        "entry:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        f"  {call}\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  ret void",
        attrs='"entry_point" "num_required_qubits"="2" "num_required_results"="1"',
    )
    module = parse_module(src)
    entry = find_entry(module)
    registry = default_registry()
    diagnostics = validate_profile(module, entry, registry)
    assert [(d.severity, d.message) for d in diagnostics] == [("error", message)]
    config = RunConfig(shots=4, backend_choice=backend)
    with pytest.raises(RuntimeFault) as fault:
        run_program(module, entry, registry, config)
    assert str(fault.value) == f"shot 0: {message}"


def test_max_qubits_enforced():
    sv = StatevectorBackend()
    with pytest.raises(RuntimeFault, match="exceeds the maximum"):
        sv.allocate(DEFAULT_MAX_QUBITS + 1)


# --- dense matrix-product oracle -------------------------------------------

ALL_GATES = list(GateId)


def embed_full(matrix, targets, n):
    """Independent embedding of a k-qubit gate into the full 2^n unitary."""
    d = 2 ** n
    k = len(targets)
    full = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    sub = np.zeros(d, dtype=int)
    for j, q in enumerate(targets):  # targets[0] = high bit of the gate index
        sub |= ((cols >> q) & 1) << (k - 1 - j)
    mask = 0
    for q in targets:
        mask |= 1 << q
    base = cols & ~mask
    for row_sub in range(2 ** k):
        rows = base.copy()
        for j, q in enumerate(targets):
            rows |= ((row_sub >> (k - 1 - j)) & 1) << q
        full[rows, cols] += matrix[row_sub, sub]
    return full


def random_gate_sequence(rng, n, count):
    seq = []
    for _ in range(count):
        g = ALL_GATES[rng.integers(len(ALL_GATES))]
        num_params, arity = GATE_SHAPES[g]
        if arity > n:
            continue
        targets = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        params = tuple(float(x) for x in rng.uniform(-2 * np.pi, 2 * np.pi, num_params))
        seq.append((g, params, targets))
    return seq


def test_random_sequences_match_dense_oracle():
    rng = np.random.default_rng(99)
    for trial in range(10):
        n = int(rng.integers(1, 6))
        sv = fresh(n)
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0] = 1.0
        for g, params, targets in random_gate_sequence(rng, n, 200):
            apply(sv, g, params, targets)
            psi = embed_full(full_matrix(g, params), targets, n) @ psi
        assert np.max(np.abs(sv.amplitudes - psi)) < 1e-9


@pytest.mark.parametrize("n", [1, 3, 6])
def test_one_qubit_gates_match_the_allocating_formula_bit_for_bit(n):
    # apply_gate updates the state in place; the bits must equal m0*zero + m1*one
    rng = np.random.default_rng(n)
    for gate, (num_params, num_qubits) in GATE_SHAPES.items():
        if num_qubits != 1:
            continue
        params = tuple(float(x) for x in rng.uniform(-2 * np.pi, 2 * np.pi, num_params))
        m = gate_matrix(gate, params)
        for q in range(n):
            sv = StatevectorBackend()
            sv.allocate(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
            psi = sv.amplitudes.reshape(-1, 2, 1 << q)
            zero, one = psi[:, 0, :], psi[:, 1, :]
            expected = np.stack([m[0, 0] * zero + m[0, 1] * one,
                                 m[1, 0] * zero + m[1, 1] * one], axis=1).reshape(-1)
            apply(sv, gate, params, (q,))
            assert np.array_equal(sv.amplitudes.view(np.uint64), expected.view(np.uint64))


def every_gate_application(rng, n):
    """Each gate of GATE_SHAPES with random angles on every ordered target tuple."""
    for gate, (num_params, num_qubits) in GATE_SHAPES.items():
        for targets in itertools.permutations(range(n), num_qubits):
            params = tuple(float(x) for x in rng.uniform(-2 * np.pi, 2 * np.pi, num_params))
            yield gate, params, targets


@pytest.mark.parametrize("n", range(1, 6))
def test_every_gate_class_matches_the_allocating_formula_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for gate, params, targets in every_gate_application(rng, n):
        sv = StatevectorBackend()
        sv.allocate(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))  # no zeros
        expected = allocating_apply(sv.amplitudes, full_matrix(gate, params), targets, n)
        apply(sv, gate, params, targets)
        assert np.array_equal(sv.amplitudes.view(np.uint64), expected.view(np.uint64)), \
            (gate, targets)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_gate_class_matches_the_allocating_formula_after_a_projection(n):
    # mz writes exact zeros, whose sign alone may differ from the formula's
    rng = np.random.default_rng(200 + n)
    for gate, params, targets in every_gate_application(rng, n):
        sv, choose = StatevectorBackend(), draw(np.random.default_rng(int(rng.integers(1 << 30))))
        state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        sv.allocate(n, state / np.linalg.norm(state))
        sv.measure(int(rng.integers(n)), choose)
        expected = allocating_apply(sv.amplitudes, full_matrix(gate, params), targets, n)
        apply(sv, gate, params, targets)
        assert np.array_equal(sv.amplitudes, expected), (gate, targets)
        parts, expected_parts = sv.amplitudes.view(np.float64), expected.view(np.float64)
        nonzero = expected_parts != 0
        assert np.array_equal(parts[nonzero].view(np.uint64),
                              expected_parts[nonzero].view(np.uint64)), (gate, targets)


@pytest.mark.parametrize("fixed", [{13: 0}, {}], ids=["qubit 13 fixed at 0", "empty map"])
def test_one_qubit_gates_and_cnot_match_the_allocating_formula_bit_for_bit_at_14_qubits(fixed):
    # a half holds 2^12 or 2^13 amplitudes here, so numpy buffers strided
    # ufunc operands and the general form runs on its contiguous scratch rows
    n, rng = 14, np.random.default_rng(14)
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    if fixed:
        state.reshape(2, -1)[1] = 0.0  # qubit 13 is |0>
    gates = [(g, 1) for g, (_, arity) in GATE_SHAPES.items() if arity == 1]
    for (gate, arity), q in itertools.product(gates + [(GateId.CNOT, 2)], range(n)):
        params = tuple(float(x) for x in rng.uniform(-2 * np.pi, 2 * np.pi, GATE_SHAPES[gate][0]))
        targets = (q,) if arity == 1 else ((q + 1) % n, q)
        sv = StatevectorBackend()
        sv.allocate(n, state)
        sv.fixed = dict(fixed)
        expected = allocating_apply(state, full_matrix(gate, params), targets, n)
        apply(sv, gate, params, targets)
        assert np.array_equal(sv.amplitudes, expected), (gate, targets)
        # the pairs the map skips keep +0.0, where the formula may compute -0.0
        parts, expected_parts = sv.amplitudes.view(np.float64), expected.view(np.float64)
        nonzero = expected_parts != 0
        assert nonzero.sum() >= 2 ** n  # at least the half the map keeps
        assert np.array_equal(parts[nonzero].view(np.uint64),
                              expected_parts[nonzero].view(np.uint64)), (gate, targets)


@pytest.mark.parametrize("kernel, gates", [
    (backends._general, [GateId.H, GateId.SY, GateId.RX, GateId.RY]),
    (backends._diagonal, [GateId.Z, GateId.S, GateId.T, GateId.RZ, GateId.CZ]),
    (backends._antidiagonal, [GateId.X, GateId.Y, GateId.CNOT, GateId.CY, GateId.SWAP]),
    (backends._apply_matrix, [GateId.RZZ, GateId.ZZ, GateId.XX]),
])
def test_lower_gate_picks_each_gates_kernel_form(kernel, gates):
    for gate in gates:
        num_params, arity = GATE_SHAPES[gate]
        lowered = lower_gate(gate, (0.3,) * num_params, tuple(range(arity)), 3)
        assert lowered.kernel is kernel, gate
        assert (lowered.gate_id, lowered.params, lowered.targets) == (
            gate, (0.3,) * num_params, tuple(range(arity)))


def test_lower_gate_holds_the_axes_and_the_bits_of_each_half():
    def layout(gate, targets):
        lowered = lower_gate(gate, (), targets, 3)
        return lowered.axes, lowered.zero_bits, lowered.one_bits

    assert layout(GateId.H, (1,)) == ((1,), (0,), (1,))
    assert layout(GateId.CNOT, (0, 2)) == ((2, 0), (1, 0), (1, 1))
    assert layout(GateId.SWAP, (0, 2)) == ((2, 0), (1, 0), (0, 1))
    # both controls are 1 on both halves
    assert layout(GateId.CCNOT, (1, 0, 2)) == ((1, 2, 0), (1, 1, 0), (1, 1, 1))


def test_create_backend_factory():
    assert type(create_backend("statevector")) is StatevectorBackend
    assert type(create_backend("trace")) is TraceBackend


def test_create_backend_unknown_lists_choices():
    from qirvm import UnknownBackend

    with pytest.raises(UnknownBackend, match="statevector, trace"):
        create_backend("xacc")


class TestQpeReference:
    def test_exact_phase_is_a_point_mass(self):
        probs = qpe_reference_distribution(5 / 32, 5)
        assert probs[5] == 1.0
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.delete(probs, 5) < 1e-24)

    def test_one_third_top_two(self):
        probs = qpe_reference_distribution(1 / 3, 5)
        order = np.argsort(probs)[::-1]
        assert list(order[:2]) == [11, 10]
        assert probs[11] == pytest.approx(0.684, abs=5e-4)
        assert probs[10] == pytest.approx(0.171, abs=5e-4)

    @pytest.mark.parametrize("phi,k", [(0.1, 3), (0.77, 7), (1 / 3, 5), (0.5, 1)])
    def test_completeness(self, phi, k):
        assert np.sum(qpe_reference_distribution(phi, k)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_statevector(self):
        # direct simulation of textbook phase estimation, phi = 1/3, k = 3
        phi, k = 1 / 3, 3
        dim = 2 ** k
        state = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
        state *= np.exp(2j * np.pi * phi * np.arange(dim))  # controlled-U^m phases
        fourier = np.exp(-2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
        state = fourier @ state / np.sqrt(dim)  # inverse QFT
        assert np.max(np.abs(np.abs(state) ** 2 - qpe_reference_distribution(phi, k))) < 1e-12
