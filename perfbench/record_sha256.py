#!/usr/bin/env python3
"""Record the result-JSON sha256 of seeds 0-31 of each workload in result_sha256.json.

Run from the repository root after a deliberate change of the output
(for example a new `rng` id), never to make a failing benchmark pass:

    python3 perfbench/record_sha256.py

A seed's sha256 is recorded only if its histogram passes the reference
check, and only if two fresh processes produce the same bytes.
"""

import json
import os
import sys

from run import SHA_FILE, Runner
from workloads import WORKLOADS

SEEDS = 32


def record(root, workload, seed):
    runner = Runner(root, workload, seed)
    runner.expected_sha = None
    try:
        first, second = runner.spawn(traced=False), runner.spawn(traced=False)
    finally:
        runner.close()
    error = first.error or second.error
    if error:
        raise SystemExit(f"{workload.name} seed {seed}: {error}")
    return first.sha256


def main():
    root = os.getcwd()
    shas = {name: {str(seed): record(root, workload, seed) for seed in range(SEEDS)}
            for name, workload in WORKLOADS.items()}
    with open(SHA_FILE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(shas, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(WORKLOADS) * SEEDS} sha256 values in {SHA_FILE}")


if __name__ == "__main__":
    sys.exit(main())
