#!/usr/bin/env python3
"""Alternating benchmark pairs of two qirvm checkouts.

Runs perfbench/run.py in the PARENT and the CHANGE checkout, one after the
other, N times, and swaps which runs first on each pair, so that a drift in
the machine's speed falls on both sides alike.  Prints each pair's medians,
then, for each end-to-end metric of the parent's BENCHMARK.json, each
side's median and quartiles over the pairs and how many pairs the change
won.  run.py's own report of each run goes to stderr.  It needs nothing
beyond the standard library:

    python3 scripts/alternate_pairs.py ../parent . --workload ffloop-n14 --pairs 10 --seconds 60
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def bench(checkout, args):
    """{metric: median} of one perfbench/run.py in `checkout`; a failed sample is reported."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds)],
                         cwd=checkout, stdout=subprocess.PIPE, text=True)
    report = json.loads(run.stdout.splitlines()[-1])
    if not report["correct"]:
        print(f"{checkout}: {report['failed']} of {report['attempted']} samples failed",
              file=sys.stderr)
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench(getattr(args, side), args))
        print(f"pair {pair + 1}, {order[0]} first: " + ", ".join(
            f"{name} {runs['parent'][-1].get(name, float('nan')):.4g} -> "
            f"{runs['change'][-1].get(name, float('nan')):.4g}" for name in better), flush=True)
    for name, direction in better.items():
        values = {side: [run.get(name, float("nan")) for run in runs[side]] for side in runs}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"]))
        print(f"{name}: " + "; ".join(
            f"{side} median {statistics.median(v):.4g}, quartiles "
            f"{quartiles(v)[0]:.4g}-{quartiles(v)[2]:.4g}" for side, v in values.items())
            + f"; the change won {won} of {args.pairs} pairs ({direction} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
