"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line when its assertions hold, so running
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
summary.  Statistical tolerances are fixed here, not tuned.
"""

import json
import re
import time

import numpy as np
import pytest

from qirvm import (
    GateId,
    RunConfig,
    StatevectorBackend,
    default_registry,
    find_entry,
    gate_matrix,
    parse_module,
    run_program,
)
from qirvm.cli import EX_CONFIG, EX_DATAERR, EX_SOFTWARE, main
from qirvm.ir import Call

from conftest import (
    QPE_LL,
    TELEPORT_CALLS,
    TELEPORT_LL,
    apply,
    full_matrix,
    make_program,
    qpe_reference_distribution,
)
from test_statevector import embed_full, random_gate_sequence


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, (
                    f"runtime {self.elapsed:.2f}s exceeds budget {budget_s}s"
                )
    return _Timer()


def test_criterion_1_teleport_parse_fidelity():
    with timed(0.1) as t:
        module = parse_module(TELEPORT_LL)
        entry = find_entry(module)
    assert len(module.functions) == 1
    assert len(module.functions[0].blocks) == 7
    assert sum(isinstance(ins, Call) for block in module.functions[0].blocks
               for ins in block.instructions) == TELEPORT_CALLS
    assert (entry.function_name, entry.num_qubits, entry.num_results) == ("main", 3, 3)
    _report(1, f"(teleport parse, {t.elapsed * 1000:.0f} ms)")


def test_criterion_2_teleportation_statistics():
    module = parse_module(TELEPORT_LL)
    entry = find_entry(module)
    shots = 4096
    with timed(1.0) as t:
        result = run_program(
            module, entry, default_registry(), RunConfig(shots=shots, seed=0)
        )
    # teleporting |0> forces the third recorded bit to 0; the two
    # Bell-measurement bits are uniform
    expected = {"000": 0.25, "010": 0.25, "100": 0.25, "110": 0.25}
    assert set(result.histogram) <= set(expected)
    assert all(key[2] == "0" for key in result.histogram)
    tv = 0.5 * sum(
        abs(result.histogram.get(key, 0) / shots - p) for key, p in expected.items()
    )
    assert tv < 0.05
    _report(2, f"(TV distance {tv:.4f}, {t.elapsed:.2f} s)")


def test_criterion_3_qpe_statistics():
    module = parse_module(QPE_LL)
    entry = find_entry(module)
    shots = 8192
    with timed(30.0) as t:
        result = run_program(
            module, entry, default_registry(), RunConfig(shots=shots, seed=0)
        )
    reference = qpe_reference_distribution(1 / 3, 5)
    ref_top2 = list(np.argsort(reference)[::-1][:2])
    empirical = {int(k, 2): v / shots for k, v in result.histogram.items()}
    emp_top2 = sorted(empirical, key=empirical.get, reverse=True)[:2]
    assert emp_top2 == ref_top2 == [11, 10]
    assert abs(empirical[11] - reference[11]) < 0.04
    assert reference[11] == pytest.approx(0.684, abs=5e-4)
    _report(3, f"(P(11) = {empirical[11]:.4f} vs {reference[11]:.4f}, {t.elapsed:.1f} s)")


def test_criterion_4_gate_properties():
    rng = np.random.default_rng(2024)
    with timed(1.0) as t:
        for gate_id in GateId:
            params = (0.7,) if gate_id in (GateId.RX, GateId.RY, GateId.RZ, GateId.RZZ) else ()
            u = full_matrix(gate_id, params)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12
        for a, b in [(GateId.S, GateId.SDG), (GateId.T, GateId.TDG)]:
            assert np.max(np.abs(gate_matrix(a) @ gate_matrix(b) - np.eye(2))) < 1e-12
        sy = gate_matrix(GateId.SY)
        assert np.max(np.abs(sy @ sy - gate_matrix(GateId.Y))) < 1e-12
        cnot = full_matrix(GateId.CNOT)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            composed = cnot @ np.kron(np.eye(2), gate_matrix(GateId.RZ, (theta,))) @ cnot
            assert np.max(np.abs(gate_matrix(GateId.RZZ, (theta,)) - composed)) < 1e-12
    _report(4, f"({t.elapsed * 1000:.0f} ms)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(777)
    with timed(30.0) as t:
        for _ in range(100):
            n = int(rng.integers(1, 6))
            backend = StatevectorBackend()
            backend.allocate(n)
            psi = np.zeros(2 ** n, dtype=complex)
            psi[0] = 1.0
            for g, params, targets in random_gate_sequence(rng, n, 200):
                apply(backend, g, params, targets)
                psi = embed_full(full_matrix(g, params), targets, n) @ psi
                assert abs(np.sum(np.abs(backend.amplitudes) ** 2) - 1.0) < 1e-10
            assert np.max(np.abs(backend.amplitudes - psi)) < 1e-9
    _report(5, f"(100 random programs, {t.elapsed:.1f} s)")


_FF_DECLS = """\
declare void @__quantum__qis__x__body(%Qubit*)
declare void @__quantum__qis__h__body(%Qubit*)
declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)
declare i1 @__quantum__qis__read_result__body(%Result*)
declare void @__quantum__rt__result_record_output(%Result*, i8*)"""


def _branch_program(prep):
    return make_program(
        "entry:\n"
        f"  call void @__quantum__qis__{prep}__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %then, label %else\n"
        "then:\n  br label %done\n"
        "else:\n  br label %done\n"
        "done:\n"
        "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
        "  ret void",
        declarations=_FF_DECLS,
        attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
    )


def test_criterion_6_feed_forward_branches():
    registry = default_registry()
    with timed(5.0) as t:
        module = parse_module(_branch_program("x"))
        result = run_program(
            module, find_entry(module), registry, RunConfig(shots=1000, seed=0)
        )
        assert result.histogram == {"1": 1000}

        module = parse_module(_branch_program("h"))
        result = run_program(
            module, find_entry(module), registry, RunConfig(shots=1000, seed=0)
        )
        frequency = result.histogram.get("1", 0) / 1000
        assert 0.47 <= frequency <= 0.53
    _report(6, f"(deterministic 100%, fair branch at {frequency:.3f}, {t.elapsed:.2f} s)")


def test_criterion_7_determinism(tmp_path):
    teleport = tmp_path / "teleport.ll"
    teleport.write_text(TELEPORT_LL)
    out_a, out_b, out_c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    with timed(5.0) as t:
        base = ["run", str(teleport), "--shots", "512", "--per-shot"]
        assert main(base + ["--seed", "3", "--output", str(out_a)]) == 0
        assert main(base + ["--seed", "3", "--output", str(out_b)]) == 0
        assert main(base + ["--seed", "4", "--output", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc_a, doc_c = json.loads(out_a.read_text()), json.loads(out_c.read_text())
    assert doc_a["per_shot"] != doc_c["per_shot"]
    assert sum(doc_a["histogram"].values()) == sum(doc_c["histogram"].values()) == 512
    _report(7, f"({t.elapsed:.2f} s)")


def test_criterion_8_error_paths(tmp_path, capsys):
    with timed(1.0) as t:
        unmeasured = make_program(
            "entry:\n"
            "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
            "  br i1 %0, label %a, label %a\n"
            "a:\n  ret void",
            declarations="declare i1 @__quantum__qis__read_result__body(%Result*)",
            attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
        )
        path = tmp_path / "unmeasured.ll"
        path.write_text(unmeasured)
        assert main(["run", str(path)]) == EX_SOFTWARE

        unknown = make_program(
            "entry:\n  call void @__quantum__qis__foo__body(%Qubit* null)\n  ret void",
            declarations="declare void @__quantum__qis__foo__body(%Qubit*)",
        )
        path = tmp_path / "unknown.ll"
        path.write_text(unknown)
        assert main(["run", str(path)]) == EX_CONFIG
        assert "foo" in capsys.readouterr().err

        phi = make_program("entry:\n  %0 = phi i1 [ true, %entry ]\n  ret void")
        path = tmp_path / "phi.ll"
        path.write_text(phi)
        assert main(["run", str(path)]) == EX_DATAERR
        assert re.search(r"line \d+", capsys.readouterr().err)
    _report(8, f"({t.elapsed:.2f} s)")


def test_million_shot_teleport_run(tmp_path):
    # aim 1 names shot counts up to 10**6; bulk routing keeps each run short
    teleport = tmp_path / "teleport.ll"
    teleport.write_text(TELEPORT_LL)
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        with timed(10.0) as t:
            args = ["run", str(teleport), "--shots", "1000000", "--output", str(out)]
            assert main(args) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    doc = json.loads(outputs[0].read_text())
    assert doc["shots"] == sum(doc["histogram"].values()) == 10 ** 6
    _report("million shots", f"({t.elapsed:.2f} s per run)")


# run_program's histograms at 10**6 shots, over 245 chunks; a change to how
# chunks step their streams must leave them as they are
MILLION_SHOT_HISTOGRAMS = {
    0: {"000": 249976, "010": 249236, "100": 250388, "110": 250400},
    2 ** 32 + 1: {"000": 250950, "010": 249449, "100": 249782, "110": 249819},
}


@pytest.mark.parametrize("seed", sorted(MILLION_SHOT_HISTOGRAMS))
def test_million_shot_teleport_histogram(teleport_module, teleport_entry, registry, seed):
    result = run_program(teleport_module, teleport_entry, registry,
                         RunConfig(shots=10 ** 6, seed=seed))
    assert result.histogram == MILLION_SHOT_HISTOGRAMS[seed]
