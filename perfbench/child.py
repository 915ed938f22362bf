#!/usr/bin/env python3
"""One `qirvm run` in a fresh process, with timestamps for the benchmark.

Follows the CLI's path through the public API -- parse_module, find_entry,
validate_profile, run_program, emit_json -- and writes the result JSON
the way `qirvm run --output` does.  It also writes a stamps file with
CLOCK_MONOTONIC times, which the parent compares with its spawn time.
With --trace it wraps the layers first (see tracing.py).  With
--setup-only it stops after validation, which fills the bytecode caches.

    python3 perfbench/child.py PROGRAM RESULT STAMPS --shots N --seed S [--trace]
"""

import argparse
import json
import signal
import sys
from time import monotonic, perf_counter

from qirvm import (
    RunConfig,
    default_registry,
    emit_json,
    find_entry,
    parse_module,
    run_program,
    validate_profile,
)
from qirvm.ir import Call

CHILD_TIMEOUT_S = 60


def peak_rss_kib():
    """High-water RSS of this process image.

    Unlike wait4's ru_maxrss, VmHWM does not inherit the parent's RSS
    across the exec that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    signal.alarm(CHILD_TIMEOUT_S)  # default action ends a hung run
    parser = argparse.ArgumentParser()
    parser.add_argument("program")
    parser.add_argument("result")
    parser.add_argument("stamps")
    parser.add_argument("--shots", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.trace:
        from tracing import Tracer

    layers = {}
    with open(args.program, encoding="utf-8") as handle:
        source = handle.read()
    t = perf_counter()
    module = parse_module(source)
    layers["parser.parse_s"] = perf_counter() - t
    registry = default_registry()
    t = perf_counter()
    entry = find_entry(module)
    layers["analyze.find_entry_s"] = perf_counter() - t
    t = perf_counter()
    diagnostics = validate_profile(module, entry, registry)
    layers["analyze.validate_s"] = perf_counter() - t
    setup_end = monotonic()
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return 78
    if args.setup_only:
        return 0

    if args.trace:
        tracer = Tracer()
        tracer.install(registry)
    config = RunConfig(shots=args.shots, seed=args.seed)
    run_start = monotonic()
    result = run_program(module, entry, registry.freeze(), config)
    run_end = monotonic()
    t = perf_counter()
    text = emit_json(result)
    layers["recorder.emit_s"] = perf_counter() - t
    with open(args.result, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

    stamps = {"setup_end": setup_end, "run_start": run_start, "run_end": run_end,
              "shots": result.shots, "peak_rss_kib": peak_rss_kib()}
    if args.trace:
        layers.update(tracer.layers(run_end - run_start))
        layers["parser.ir_calls"] = sum(
            isinstance(ins, Call)
            for fn in module.functions for block in fn.blocks for ins in block.instructions
        )
        layers["recorder.histogram_keys"] = len(result.histogram)
        stamps["layers"] = layers
    with open(args.stamps, "w", encoding="utf-8") as handle:
        json.dump(stamps, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
