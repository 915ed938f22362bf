#!/usr/bin/env python3
"""Outside-in benchmark of `qirvm run` on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload teleport --seed 0 --seconds 60 --trace 0

Each sample is one run of the program in a fresh process (perfbench/child.py),
one at a time: a closed loop with one client.  A fresh process is what a
CLI user pays for, and it keeps the backend's process-global matrix caches
from carrying over between samples.  Samples repeat until --seconds have
passed; every metric is the median over the samples of the run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced samples and reports the per-layer metrics of the traced ones,
plus trace.overhead, the ratio of their median wall times.

Every sample's result JSON must match the sha256 recorded for the
(workload, seed) in result_sha256.json, when there is one, and the other
samples of the run; its histogram must pass a goodness-of-fit test against
a reference computed in workloads.py.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the exit code
is 1 if any sample failed.
"""

import os

# One BLAS thread, in this process and in every sample.  Under default
# OpenBLAS threading qpe-k5 ran at 1.97-1.99 CPU seconds per wall second on
# 2 cores and five runs spread over 2.36-3.07 s; pinned, the ratio was 0.99
# and the spread 2.81-3.01 s.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from workloads import SIGNIFICANCE, WORKLOADS, goodness_of_fit  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SHA_FILE = os.path.join(HERE, "result_sha256.json")
WORK_DIR = ".perfbench_work"
MIN_SAMPLES = 3
LAYOUT_PAD = "PERFBENCH_LAYOUT_PAD"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "shots_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Sample:
    traced: bool
    error: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    shots_per_s: float = 0.0
    sha256: str = ""
    layers: dict = field(default_factory=dict)


class Runner:
    """Spawns the samples of one (workload, seed) and checks their output."""

    def __init__(self, root, workload, seed):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(root, WORK_DIR, f"{os.getpid()}-{workload.name}-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.program = os.path.join(self.dir, "program.ll")
        with open(self.program, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(workload.program(seed))
        self.reference = workload.reference(seed)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.expected_sha = load_shas().get(workload.name, {}).get(str(seed))
        self.verdicts = {}  # sha256 -> error text ("" if the output passed)
        # Where the C heap puts the program's numpy temporaries depends on
        # everything allocated before them, down to the length of argv and
        # the environment.  On ffloop-n14 one layout in three to eight makes
        # the heap shrink and regrow around the gate kernels: 944 000 instead
        # of 230 000 minor page faults, and 30-50 % more wall time.  With a
        # fixed layout, whole runs landed in one mode or the other by seed
        # (or by checkout path).  A padding variable of random length gives
        # each sample its own layout, so a run's median stays in the common
        # mode, and a program change that shifts the odds still shows.
        self.layouts = random.Random(seed)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, traced, setup_only=False):
        result = os.path.join(self.dir, "result.json")
        stamps = os.path.join(self.dir, "stamps.json")
        log = os.path.join(self.dir, "child.log")
        for path in (result, stamps):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, CHILD, self.program, result, stamps,
                "--shots", str(self.workload.shots), "--seed", str(self.seed)]
        argv += ["--trace"] * traced + ["--setup-only"] * setup_only
        redirect = [(os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                    (os.POSIX_SPAWN_DUP2, 1, 2)]
        start = time.monotonic()
        env = {**self.env, LAYOUT_PAD: "x" * self.layouts.randrange(4096)}
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=redirect)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        end = time.monotonic()

        sample = Sample(traced, wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            sample.error = f"exit code {code}\n{tail}"
            return sample
        if setup_only:
            return sample
        with open(stamps, encoding="utf-8") as handle:
            stamp = json.load(handle)
        with open(result, "rb") as handle:
            text = handle.read()
        sample.setup_s = stamp["setup_end"] - start
        sample.peak_rss_mb = stamp["peak_rss_kib"] / 1024
        sample.shots_per_s = stamp["shots"] / (stamp["run_end"] - stamp["run_start"])
        sample.layers = stamp.get("layers", {})
        sample.sha256 = hashlib.sha256(text).hexdigest()
        sample.error = self.check(sample.sha256, text)
        return sample

    def check(self, sha, text):
        """Error text for a result JSON, or "" if it passes."""
        if self.expected_sha is not None and sha != self.expected_sha:
            return f"result sha256 {sha} != recorded {self.expected_sha}"
        if self.verdicts and sha not in self.verdicts:
            return f"result sha256 {sha} differs from an earlier sample of this run"
        if sha not in self.verdicts:
            histogram = json.loads(text)["histogram"]
            p = goodness_of_fit(histogram, self.reference)
            self.verdicts[sha] = "" if p >= SIGNIFICANCE else (
                f"histogram fails its reference ({self.reference.note}): "
                f"p = {p:.3g} < {SIGNIFICANCE}")
        return self.verdicts[sha]


def load_shas():
    try:
        with open(SHA_FILE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def collect(runner, seconds, trace):
    """Samples for `seconds`: untraced, or alternating untraced and traced."""
    samples = []
    warm = runner.spawn(traced=trace, setup_only=True)  # fills the bytecode caches
    if warm.error:
        return [warm]
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    while len(samples) < MIN_SAMPLES * len(kinds) or time.monotonic() - start < seconds:
        samples.append(runner.spawn(traced=kinds[len(samples) % len(kinds)]))
    return samples


def end_to_end(samples):
    ok = [s for s in samples if not s.error]
    if not ok:
        return {"success_rate": {"value": 0.0, "unit": "ratio"}}
    values = {
        "wall_s": [s.wall_s for s in ok],
        "setup_s": [s.setup_s for s in ok],
        "shots_per_s": [s.shots_per_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
    }
    metrics = {name: {"value": statistics.median(v), "unit": END_TO_END_UNITS[name]}
               for name, v in values.items()}
    metrics["success_rate"] = {"value": len(ok) / len(samples), "unit": "ratio"}
    return metrics


def per_layer(samples):
    ok = [s for s in samples if not s.error]
    traced = [s for s in ok if s.traced]
    untraced = [s for s in ok if not s.traced]
    if not traced or not untraced:
        return {}
    metrics = {}
    for name in traced[0].layers:
        metrics[name] = {"value": statistics.median(s.layers[name] for s in traced),
                         "unit": layer_unit(name)}
    metrics["trace.overhead"] = {
        "value": statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in untraced),
        "unit": "ratio",
    }
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


def bench(root, workload, seed, seconds, trace):
    runner = Runner(root, workload, seed)
    try:
        samples = collect(runner, seconds, trace)
    finally:
        runner.close()
    failed = [s for s in samples if s.error]
    for s in failed:
        print(f"{workload.name} seed {seed}: FAILED: {s.error}", file=sys.stderr)
    metrics = per_layer(samples) if trace else end_to_end(samples)
    sha = "no recorded sha256 for this seed" if runner.expected_sha is None \
        else "checked against the recorded sha256"
    print(f"{workload.name} seed {seed}: {len(samples)} samples, {len(failed)} failed, "
          f"error_rate {len(failed) / len(samples):.3g}, {sha}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(samples), "failed": len(failed),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qirvm", "__init__.py")):
        print("error: run from the root of a qirvm checkout (no src/qirvm here)",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds through spawn(), which then kills and reaps the
    # running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        report = bench(root, WORKLOADS[name], args.seed, args.seconds, args.trace)
        print(json.dumps(report))
        correct = correct and report["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
