"""Fixed axes: StatevectorBackend's map of qubits known to be in a basis state.

The oracle, FullLayoutBackend, holds no map: it computes each gate by the
allocating formula and each measurement by a full-layout projection.  A
Twin runs every step on both and compares the amplitudes after it, as
floats and as uint64 on nonzero values, and checks that every amplitude
the map declares zero is exactly zero.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qirvm import (
    GateId,
    RunConfig,
    RuntimeFault,
    StatevectorBackend,
    default_registry,
    find_entry,
    parse_module,
    run_program,
)
from qirvm import interpreter
from qirvm.backends import lower_gate
from qirvm.registry import GATE_SHAPES

from conftest import TELEPORT_LL, allocating_apply, apply, full_matrix
from test_branching import SMALL_CHUNK, call, feed_forward_programs, mz, program, qubit
from test_statevector import draw


class Mismatch(AssertionError):
    """The backend with the map and the oracle without it disagree."""


def prob_one(amplitudes, qubit):
    branch = amplitudes.reshape(-1, 2, 1 << qubit)[:, 1, :]
    return float(np.real(np.einsum("ij,ij->", branch, branch.conj())))


class FullLayoutBackend:
    """The statevector semantics without a map: every step on all 2^n amplitudes."""

    def allocate(self, num_qubits, state=None):
        self.n = num_qubits
        if state is None:
            self.amplitudes = np.zeros(2 ** num_qubits, dtype=complex)
            self.amplitudes[0] = 1.0
        else:
            self.amplitudes = state.copy()

    def apply_gate(self, gate):
        self.amplitudes = allocating_apply(self.amplitudes, full_matrix(gate.gate_id, gate.params),
                                           gate.targets, self.n)

    def measure(self, qubit, choose):
        p1 = prob_one(self.amplitudes, qubit)
        outcome = choose(p1, self.amplitudes)
        self.amplitudes.reshape(-1, 2, 1 << qubit)[:, 1 - outcome, :] = 0.0
        self.amplitudes *= 1.0 / np.sqrt(p1 if outcome else 1.0 - p1)
        return outcome

    def reset(self, qubit, choose):
        if self.measure(qubit, choose) == 1:
            apply(self, GateId.X, (), (qubit,))


def assert_same_state(got, want, step):
    if not np.array_equal(got, want):
        raise Mismatch(f"amplitudes differ after {step}")
    parts, want_parts = got.view(np.float64), want.view(np.float64)
    nonzero = want_parts != 0
    if not np.array_equal(parts[nonzero].view(np.uint64), want_parts[nonzero].view(np.uint64)):
        raise Mismatch(f"nonzero amplitude bits differ after {step}")


class Twin:
    """Runs each backend call on a StatevectorBackend and on the oracle, then compares."""

    def __init__(self):
        self.real, self.oracle = StatevectorBackend(), FullLayoutBackend()

    def allocate(self, num_qubits, state=None):
        self.real.allocate(num_qubits, state)
        self.oracle.allocate(num_qubits, state)
        self.check(("allocate", num_qubits, state is not None))

    def apply_gate(self, gate):
        self.real.apply_gate(gate)
        self.oracle.apply_gate(gate)
        self.check((gate.gate_id.value, gate.params, gate.targets))

    def measure(self, qubit, choose):
        return self._draw("measure", qubit, choose)

    def reset(self, qubit, choose):
        self._draw("reset", qubit, choose)

    def _draw(self, method, qubit, choose):
        """Both backends must ask for one outcome, with the same p1 and state."""
        drawn = []

        def forward(p1, amplitudes):
            drawn.append((p1, amplitudes.copy(), choose(p1, amplitudes)))
            return drawn[-1][2]

        def replay(p1, amplitudes):
            if len(drawn) != 1:
                raise Mismatch(f"{method} of qubit {qubit} drew {len(drawn)} times")
            real_p1, real_amplitudes, outcome = drawn.pop()
            if p1 != real_p1:
                raise Mismatch(f"{method} of qubit {qubit}: p1 {real_p1!r}, oracle {p1!r}")
            assert_same_state(real_amplitudes, amplitudes, f"the draw of {method} {qubit}")
            return outcome

        outcome = getattr(self.real, method)(qubit, forward)
        getattr(self.oracle, method)(qubit, replay)
        if drawn:
            raise Mismatch(f"{method} of qubit {qubit}: the oracle did not draw")
        self.check((method, qubit))
        return outcome

    def check(self, step):
        assert_same_state(self.real.amplitudes, self.oracle.amplitudes, step)
        n = self.real.n
        for qubit, bit in self.real.fixed.items():
            other = self.oracle.amplitudes.reshape(-1, 2, 1 << qubit)[:, 1 - bit, :]
            if np.any(other != 0):
                raise Mismatch(f"after {step}, qubit {qubit} of {n} is not fixed at {bit}")


@st.composite
def step_lists(draw_from):
    """n <= 5 qubits and up to 30 steps of every gate class, mz and reset."""
    n = draw_from(st.integers(1, 5))
    gates = sorted((g for g, (_, arity) in GATE_SHAPES.items() if arity <= n),
                   key=lambda g: g.value)
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    steps = []
    for _ in range(draw_from(st.integers(0, 30))):
        kind = draw_from(st.sampled_from(["gate"] * 4 + ["mz", "reset"]))
        if kind == "gate":
            gate = draw_from(st.sampled_from(gates))
            num_params, arity = GATE_SHAPES[gate]
            targets = tuple(draw_from(st.permutations(range(n)))[:arity])
            steps.append((gate, tuple(draw_from(angles) for _ in range(num_params)), targets))
        else:
            steps.append((kind, draw_from(st.integers(0, n - 1))))
    return n, steps


def run_steps(n, steps, seed):
    twin, choose = Twin(), draw(np.random.default_rng(seed))
    twin.allocate(n)
    for step in steps:
        if step[0] == "mz":
            twin.measure(step[1], choose)
        elif step[0] == "reset":
            twin.reset(step[1], choose)
        else:
            twin.apply_gate(lower_gate(*step, n))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(step_lists(), st.integers(0, 2 ** 32))
@example((2, [(GateId.X, (), (0,)), (GateId.H, (), (1,))]), 0)
def test_fixed_map_matches_the_full_layout_oracle(program, seed):
    run_steps(*program, seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feed_forward_programs(), st.integers(1, 32), st.integers(0, 2 ** 32),
       st.sampled_from([interpreter.MAX_STORED_AMPLITUDES, 32]))
def test_branching_programs_match_the_oracle_at_every_step(source, shots, seed, max_amplitudes):
    # misses resume from stored trie states, which allocate(n, state) loads
    module = parse_module(source)
    with mock.patch.object(interpreter, "create_backend", lambda choice: Twin()), \
            mock.patch.multiple(interpreter, MAX_STORED_AMPLITUDES=max_amplitudes,
                                SHOT_CHUNK=SMALL_CHUNK):
        try:
            run_program(module, find_entry(module), default_registry(),
                        RunConfig(shots=shots, seed=seed))
        except RuntimeFault:  # the program's own fault, which test_branching compares
            pass


def test_subnormal_products_of_sy_match_the_oracle():
    # amplitude 5 holds (5e-311-1.1e-308j) before the sy; its product with
    # sy's 0.5(1+i) is subnormal, and numpy's multiply loop for an output
    # that overlaps an input rounded its imaginary part one ulp away from
    # the allocating formula's (0x8003efdbd26539b5, not ...b6)
    steps = [(GateId.RY, (1e-310,), (2,)), (GateId.RX, (2.2e-308,), (2,)),
             (GateId.RX, (1e-310,), (4,)), (GateId.T, (), (4,)), (GateId.CZ, (), (2, 0)),
             (GateId.Z, (), (0,)), (GateId.RX, (2.2e-308,), (1,)), (GateId.SY, (), (0,))]
    run_steps(5, steps, seed=0)


def sticky_x(real_apply):
    """apply_gate, but an x leaves its target's entry in the map."""
    def apply_gate(backend, gate):
        kept = dict(backend.fixed)
        real_apply(backend, gate)
        if gate.gate_id is GateId.X and gate.targets[0] in kept:
            backend.fixed[gate.targets[0]] = kept[gate.targets[0]]
    return apply_gate


def test_the_oracle_reports_an_x_that_stays_in_the_map():
    with mock.patch.object(StatevectorBackend, "apply_gate",
                           sticky_x(StatevectorBackend.apply_gate)):
        with pytest.raises(Mismatch):
            test_fixed_map_matches_the_full_layout_oracle()
        with pytest.raises(Mismatch, match="not fixed"):
            run_steps(2, [(GateId.X, (), (0,))], seed=0)


# --- draws -------------------------------------------------------------------

def recording(outcome=None):
    """A draw that notes each p1 and returns `outcome`, or 0 for p1 == 0."""
    calls = []

    def choose(p1, amplitudes):
        calls.append(p1)
        return int(p1 > 0) if outcome is None else outcome
    return choose, calls


@pytest.mark.parametrize("method", ["measure", "reset"])
def test_a_qubit_fixed_at_zero_draws_once_with_p1_zero_and_keeps_the_bits(method):
    backend = StatevectorBackend()
    backend.allocate(3)
    apply(backend, GateId.RY, (0.7,), (1,))
    before = backend.amplitudes.copy()
    choose, calls = recording()
    getattr(backend, method)(2, choose)
    assert calls == [0.0] and type(calls[0]) is float
    assert np.array_equal(backend.amplitudes.view(np.uint64), before.view(np.uint64))
    assert backend.fixed == {0: 0, 2: 0}


def test_reset_of_a_qubit_measured_as_one_draws_p1_from_the_state():
    backend = StatevectorBackend()
    backend.allocate(2)
    apply(backend, GateId.RX, (1.1,), (0,))
    apply(backend, GateId.CNOT, (), (0, 1))
    assert backend.measure(0, recording(outcome=1)[0]) == 1
    assert backend.fixed == {0: 1}
    expected = FullLayoutBackend()
    expected.allocate(2, backend.amplitudes)
    p1 = prob_one(expected.amplitudes, 0)
    choose, calls = recording(outcome=1)
    backend.reset(0, choose)
    assert calls == [p1]
    expected.reset(0, lambda *_: 1)
    assert backend.fixed == {0: 0}
    assert_same_state(backend.amplitudes, expected.amplitudes, "reset")


def test_a_loaded_state_starts_with_an_empty_map():
    # qubit 0 is |1>, which a map filled as for allocate(n) would take for |0>
    rng = np.random.default_rng(5)
    state = np.zeros(8, dtype=complex)
    state[1::2] = rng.normal(size=4) + 1j * rng.normal(size=4)
    backend = StatevectorBackend()
    backend.allocate(3, state)
    assert backend.fixed == {}
    apply(backend, GateId.RY, (0.4,), (2,))
    expected = allocating_apply(state, full_matrix(GateId.RY, (0.4,)), (2,), 3)
    assert_same_state(backend.amplitudes, expected, "ry")


def trie_nodes(node):
    """(p1, stored state) of each node under `node`, depth first, outcome 0 first."""
    if node is None or not hasattr(node, "children"):
        return []
    return [(node.p1, node.state)] + [entry for child in node.children
                                      for entry in trie_nodes(child)]


# qubit 1 is fixed at 0 at its first reset, and at 0 or 1 at the others
RESETS = program([call("h", qubit(0)), mz(0, 0), call("reset", qubit(1)), call("h", qubit(1)),
                  mz(1, 1), call("reset", qubit(1)), call("reset", qubit(1)), mz(1, 2)],
                 2, [0, 1, 2], 3)


@pytest.mark.parametrize("source", [TELEPORT_LL, RESETS], ids=["teleport", "resets"])
def test_trie_nodes_store_the_same_amplitudes_without_the_map(source):
    module = parse_module(source)
    tries = {}
    for label, factory in ("map", StatevectorBackend), ("oracle", FullLayoutBackend):
        real_trie = interpreter.OutcomeTrie

        def outcome_trie():
            tries[label] = real_trie()
            return tries[label]

        with mock.patch.object(interpreter, "OutcomeTrie", outcome_trie), \
                mock.patch.object(interpreter, "create_backend", lambda choice: factory()):
            run_program(module, find_entry(module), default_registry(),
                        RunConfig(shots=256, seed=3))
    got, want = (trie_nodes(tries[label].root.children[0]) for label in ("map", "oracle"))
    assert len(got) == len(want) > 1
    # a draw whose p1 fixes its outcome makes no node, so the two lists also
    # differ if the map and the oracle disagree on which draws are fixed
    assert all(0.0 < p1 < 1.0 for p1, _ in got)
    for (p1, state), (want_p1, want_state) in zip(got, want):
        assert p1 == want_p1
        assert (state is None) == (want_state is None)
        if state is not None:
            assert_same_state(state, want_state, "a trie node")
