from qirvm import (
    TraceBackend,
    compile_program,
    default_registry,
    execute_shot,
    find_entry,
    parse_module,
    shot_rng,
)

from conftest import make_program


def run_traced(module, measure_bits):
    entry = find_entry(module)
    backend = TraceBackend(measure_bits=measure_bits)
    backend.allocate(entry.num_qubits)
    execute_shot(compile_program(module, entry, default_registry()), backend, shot_rng(0, 0))
    return backend.log


def test_teleport_both_corrections_skipped(teleport_module):
    log = run_traced(teleport_module, measure_bits=[0, 0])
    assert log == [
        ("h", (), (1,)),
        ("cnot", (), (1, 2)),
        ("cnot", (), (0, 1)),
        ("h", (), (0,)),
        ("mz", (), (0,)),
        ("reset", (), (0,)),
        ("mz", (), (1,)),
        ("reset", (), (1,)),
        ("mz", (), (2,)),
    ]


def test_teleport_both_corrections_fire_once(teleport_module):
    log = run_traced(teleport_module, measure_bits=[1, 1])
    assert log.count(("z", (), (2,))) == 1
    assert log.count(("x", (), (2,))) == 1
    # z correction (from the first measurement) precedes the x correction
    assert log.index(("z", (), (2,))) < log.index(("x", (), (2,)))


def test_teleport_single_correction_paths(teleport_module):
    z_only = run_traced(teleport_module, measure_bits=[1, 0])
    x_only = run_traced(teleport_module, measure_bits=[0, 1])
    assert ("z", (), (2,)) in z_only and ("x", (), (2,)) not in z_only
    assert ("x", (), (2,)) in x_only and ("z", (), (2,)) not in x_only


def test_trace_log_lengths_over_branch_paths(teleport_module):
    # 9 backend ops on the no-correction path, +1 per taken correction
    lengths = {
        bits: len(run_traced(teleport_module, measure_bits=list(bits)))
        for bits in [(0, 0), (1, 0), (0, 1), (1, 1)]
    }
    assert lengths == {(0, 0): 9, (1, 0): 10, (0, 1): 10, (1, 1): 11}


def test_empty_main_empty_log():
    module = parse_module(make_program("entry:\n  ret void"))
    assert run_traced(module, measure_bits=None) == []


def choose(p1, amplitudes):
    """The interpreter's draw for a forced bit: p1 is 0 or 1."""
    assert amplitudes is None
    return int(p1)


def test_measure_bits_cycle():
    backend = TraceBackend(measure_bits=[1, 0])
    backend.allocate(1)
    assert [backend.measure(0, choose) for _ in range(4)] == [1, 0, 1, 0]


def test_default_measure_is_zero():
    backend = TraceBackend()
    backend.allocate(1)
    assert backend.measure(0, choose) == 0
