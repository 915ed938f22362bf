"""Output recording: per-shot bitstrings, histogram aggregation, JSON."""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

import numpy as np

from .errors import RuntimeFault

JSON_SCHEMA_ID = "qirvm-result/1"


class ShotOutput(NamedTuple):
    bitstring: str
    labels: tuple = ()


class ShotRecorder:
    """Collects the record_* runtime calls of one shot."""

    def __init__(self):
        self.declared_len: Optional[int] = None
        self.entries = []  # (bit, label-or-None)

    def record_array(self, length: int, label: Optional[str] = None):
        if self.declared_len is not None:
            raise RuntimeFault("second array_record_output header in one shot")
        self.declared_len = length

    def record_result(self, bit: int, label: Optional[str] = None):
        self.entries.append((int(bit), label))

    def finalize(self) -> ShotOutput:
        if self.declared_len is not None and len(self.entries) != self.declared_len:
            raise RuntimeFault(
                f"array header declared {self.declared_len} results "
                f"but {len(self.entries)} were recorded"
            )
        bitstring = "".join(str(bit) for bit, _ in self.entries)
        return ShotOutput(bitstring, tuple(label for _, label in self.entries))


class RunResult(NamedTuple):
    program_name: str
    backend_name: str
    shots: int
    seed: int
    rng_id: str
    num_qubits: int
    num_results: int
    histogram: dict
    labels: Optional[tuple] = None
    per_shot: Optional[tuple] = None


class Histogram:
    """Streams shot outputs into counts; keeps per-shot bitstrings on request."""

    def __init__(self, keep_per_shot: bool = False):
        self.counts = {}
        self.labels = None
        self.per_shot = [] if keep_per_shot else None

    def add_groups(self, groups: list, count: int):
        """Add shots 0..count-1 as (rows, output) groups, in order of lowest row."""
        for rows, shot in groups:
            self.counts[shot.bitstring] = self.counts.get(shot.bitstring, 0) + len(rows)
            if self.labels is None and any(lbl is not None for lbl in shot.labels):
                self.labels = shot.labels
        if self.per_shot is not None:
            bitstrings = np.empty(count, dtype=object)
            for rows, shot in groups:
                bitstrings[rows] = shot.bitstring
            self.per_shot += bitstrings.tolist()

    def result(self, **meta) -> RunResult:
        """The RunResult for the shots added; all must record the same length."""
        lengths = sorted({len(bitstring) for bitstring in self.counts})
        if len(lengths) > 1:
            raise RuntimeFault(f"shots recorded different result counts: {lengths}")
        return RunResult(
            shots=sum(self.counts.values()),
            histogram=self.counts,
            labels=self.labels,
            per_shot=tuple(self.per_shot) if self.per_shot is not None else None,
            **meta,
        )


def aggregate(shot_outputs, *, keep_per_shot: bool = False, **meta) -> RunResult:
    """Histogram shot bitstrings; all shots must record the same length.

    `meta` gives the RunResult fields that do not come from the shots:
    program_name, backend_name, seed, rng_id, num_qubits and num_results.
    """
    groups = [([row], shot) for row, shot in enumerate(shot_outputs)]
    histogram = Histogram(keep_per_shot)
    histogram.add_groups(groups, len(groups))
    return histogram.result(**meta)


def emit_json(result: RunResult) -> str:
    """Serialize with fixed key order and sorted histogram keys.

    No timestamps or host metadata: equal inputs give byte-identical text.
    """
    doc = {
        "schema": JSON_SCHEMA_ID,
        "program": result.program_name,
        "backend": result.backend_name,
        "shots": result.shots,
        "seed": result.seed,
        "rng": result.rng_id,
        "num_qubits": result.num_qubits,
        "num_results": result.num_results,
        "labels": list(result.labels) if result.labels is not None else None,
        "histogram": {k: result.histogram[k] for k in sorted(result.histogram)},
        "per_shot": list(result.per_shot) if result.per_shot is not None else None,
    }
    return json.dumps(doc, indent=2) + "\n"
