"""The benchmark's contract with the library.

`perfbench/child.py` drives one run through the public API, and with
--trace it walks the parsed module's functions, blocks and instructions
and wraps `qirvm.interpreter` and `qirvm.backends` names.  Running it here
catches a change in `src/` that would break the benchmark.
"""

import json
import os
import pathlib
import subprocess
import sys

from qirvm.cli import main

from conftest import FIXTURES, TELEPORT_CALLS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_child_writes_the_cli_result_and_counts_the_calls(tmp_path):
    program = FIXTURES / "teleport.ll"
    result, stamps = tmp_path / "result.json", tmp_path / "stamps.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(program), str(result),
         str(stamps), "--shots", "256", "--seed", "0", "--trace"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

    expected = tmp_path / "cli.json"
    assert main(["run", str(program), "--shots", "256", "--seed", "0",
                 "--output", str(expected)]) == 0
    assert result.read_bytes() == expected.read_bytes()
    layers = json.loads(stamps.read_text())["layers"]
    assert layers["parser.ir_calls"] == TELEPORT_CALLS


def test_gate_count_script_runs_a_workload_as_the_benchmark_records_it():
    # teleport's two doubtful draws part its 16,384 shots into 4 histories,
    # and the result is the one perfbench/result_sha256.json holds for seed 0
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_gate_calls.py"), "teleport"],
        capture_output=True, text=True, timeout=120, check=True)
    calls, nodes, stored, _, digest = done.stdout.split(", ")
    recorded = json.loads((ROOT / "perfbench" / "result_sha256.json").read_text())
    assert (calls, nodes, stored) == ("10 apply_gate calls", "3 trie nodes", "3 stored states")
    assert digest == f"sha256 {recorded['teleport']['0']}\n"
