#!/usr/bin/env python3
"""Check that `qirvm run` still writes the recorded result bytes.

Recomputes seeds 0-31 of the four recorded benchmark workloads
(`teleport`, `qpe-k5`, `layered-n8`, `ffloop-n14`) in this process, the
way perfbench/child.py runs them (parse_module -> find_entry ->
validate_profile -> run_program -> emit_json), and compares each
result's sha256 with perfbench/result_sha256.json, which it only reads.
Exits 1 on any mismatch.  It takes no options:

    python3 scripts/check_result_sha256.py
"""

import hashlib
import json
import os
import sys

# The benchmark runs every sample on one BLAS thread; so does this check.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from qirvm import (  # noqa: E402
    RunConfig,
    default_registry,
    emit_json,
    find_entry,
    parse_module,
    run_program,
    validate_profile,
)
from workloads import WORKLOADS  # noqa: E402

CHECKED = ("teleport", "qpe-k5", "layered-n8", "ffloop-n14")
SEEDS = range(32)


def result_sha256(workload, seed):
    module = parse_module(workload.program(seed))
    registry = default_registry()
    entry = find_entry(module)
    errors = [d for d in validate_profile(module, entry, registry) if d.severity == "error"]
    if errors:
        return f"validation failed: {errors[0]}"
    config = RunConfig(shots=workload.shots, seed=seed)
    result = run_program(module, entry, registry.freeze(), config)
    return hashlib.sha256(emit_json(result).encode("utf-8")).hexdigest()


def main():
    os.chdir(ROOT)  # workloads read tests/fixtures relative to the root
    with open(os.path.join("perfbench", "result_sha256.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)
    mismatches = 0
    for name in CHECKED:
        for seed in SEEDS:
            got = result_sha256(WORKLOADS[name], seed)
            want = recorded[name][str(seed)]
            if got != want:
                mismatches += 1
                print(f"{name} seed {seed}: {got} != recorded {want}", file=sys.stderr)
    checked = len(CHECKED) * len(SEEDS)
    print(f"{checked - mismatches} of {checked} results match perfbench/result_sha256.json")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
