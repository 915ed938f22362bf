#!/usr/bin/env python3
"""Count the gate work of one benchmark-workload run.

Runs one `run_program` of a perfbench workload in this process, the way
scripts/check_result_sha256.py does, with StatevectorBackend.apply_gate
and OutcomeTrie wrapped from outside, and prints one line: the
apply_gate calls, the trie's nodes and the states it holds at the end,
the run's seconds and the result's sha256.  `--layered-qubits` sets
workloads.LAYERED_QUBITS in this process only; no file changes.

    python3 scripts/count_gate_calls.py ffloop-n14 --seed 1
    python3 scripts/count_gate_calls.py layered-n8 --layered-qubits 12 --shots 10000
"""

import argparse
import hashlib
import os
import sys
import time

# The benchmark runs every sample on one BLAS thread; so does this count.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from qirvm import (  # noqa: E402
    RunConfig,
    StatevectorBackend,
    default_registry,
    emit_json,
    find_entry,
    interpreter,
    parse_module,
    run_program,
    validate_profile,
)


def count(workload, seed, shots):
    """(apply_gate calls, trie nodes, stored states, seconds, result sha256) of one run."""
    module = parse_module(workload.program(seed))
    registry = default_registry()
    entry = find_entry(module)
    errors = [d for d in validate_profile(module, entry, registry) if d.severity == "error"]
    if errors:
        raise SystemExit(f"validation failed: {errors[0]}")
    calls, tries = [0], []
    real_apply, real_trie = StatevectorBackend.apply_gate, interpreter.OutcomeTrie

    def apply_gate(backend, gate):
        calls[0] += 1
        real_apply(backend, gate)

    def outcome_trie():
        tries.append(real_trie())
        return tries[-1]

    StatevectorBackend.apply_gate, interpreter.OutcomeTrie = apply_gate, outcome_trie
    try:
        start = time.perf_counter()
        result = run_program(module, entry, registry.freeze(), RunConfig(shots=shots, seed=seed))
        seconds = time.perf_counter() - start
    finally:
        StatevectorBackend.apply_gate, interpreter.OutcomeTrie = real_apply, real_trie
    [trie] = tries
    digest = hashlib.sha256(emit_json(result).encode("utf-8")).hexdigest()
    return calls[0], trie.nodes, len(trie.stored), seconds, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shots", type=int, help="default: the workload's own")
    parser.add_argument("--layered-qubits", type=int,
                        help=f"layered-n8's qubit count (default {workloads.LAYERED_QUBITS})")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.layered_qubits is not None:
        if workload.program is not workloads.layered_program:
            parser.error("--layered-qubits applies to layered-n8 only")
        workloads.LAYERED_QUBITS = args.layered_qubits
    os.chdir(ROOT)  # workloads read tests/fixtures relative to the root
    calls, nodes, stored, seconds, digest = count(workload, args.seed, args.shots or workload.shots)
    print(f"{calls} apply_gate calls, {nodes} trie nodes, {stored} stored states, "
          f"{seconds:.3f} s, sha256 {digest}")


if __name__ == "__main__":
    main()
