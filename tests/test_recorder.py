import pytest

from qirvm import RuntimeFault, ShotRecorder, aggregate, emit_json
from qirvm.recorder import RunResult, ShotOutput

from conftest import parse_json

META = dict(
    program_name="t",
    backend_name="statevector",
    seed=0,
    rng_id="numpy-pcg64/seedseq[seed,shot]",
    num_qubits=1,
    num_results=1,
)


def shot(bits, labels=None):
    rec = ShotRecorder()
    for i, b in enumerate(bits):
        rec.record_result(b, labels[i] if labels else None)
    return rec.finalize()


class TestShotRecorder:
    def test_array_header_then_matching_results(self):
        rec = ShotRecorder()
        rec.record_array(3)
        for b in (1, 0, 1):
            rec.record_result(b)
        assert rec.finalize().bitstring == "101"

    def test_array_header_mismatch_faults(self):
        rec = ShotRecorder()
        rec.record_array(3)
        rec.record_result(0)
        rec.record_result(1)
        with pytest.raises(RuntimeFault, match="declared 3"):
            rec.finalize()

    def test_header_is_optional(self):
        rec = ShotRecorder()
        rec.record_result(0)
        rec.record_result(1)
        assert rec.finalize().bitstring == "01"

    def test_second_header_faults(self):
        rec = ShotRecorder()
        rec.record_array(1)
        with pytest.raises(RuntimeFault, match="second"):
            rec.record_array(1)

    def test_zero_records_gives_empty_bitstring(self):
        assert ShotRecorder().finalize().bitstring == ""

    def test_record_order_defines_bitstring_order(self):
        assert shot([1, 0, 1]).bitstring == "101"

    def test_labels_kept_per_position(self):
        out = shot([1, 0], labels=["a", "b"])
        assert out.labels == ("a", "b")


class TestAggregate:
    def test_histogram(self):
        result = aggregate([shot([0, 0]), shot([1, 1]), shot([0, 0])], **META)
        assert result.histogram == {"00": 2, "11": 1}
        assert result.shots == 3

    def test_all_empty(self):
        result = aggregate([shot([]) for _ in range(1024)], **META)
        assert result.histogram == {"": 1024}

    def test_count_conservation(self):
        shots = [shot([i % 2]) for i in range(37)]
        result = aggregate(shots, **META)
        assert sum(result.histogram.values()) == 37

    def test_mixed_lengths_fault(self):
        with pytest.raises(RuntimeFault, match="different result counts"):
            aggregate([shot([0]), shot([0, 1])], **META)

    def test_per_shot_retention(self):
        outs = [shot([1]), shot([0])]
        assert aggregate(outs, **META).per_shot is None
        kept = aggregate(outs, keep_per_shot=True, **META)
        assert kept.per_shot == ("1", "0")

    def test_labels_surface_when_present(self):
        outs = [shot([1], labels=["q0"])]
        assert aggregate(outs, **META).labels == ("q0",)


GOLDEN_MINIMAL = """\
{
  "schema": "qirvm-result/1",
  "program": "t",
  "backend": "statevector",
  "shots": 1,
  "seed": 0,
  "rng": "numpy-pcg64/seedseq[seed,shot]",
  "num_qubits": 1,
  "num_results": 1,
  "labels": null,
  "histogram": {
    "": 1
  },
  "per_shot": null
}
"""


class TestJson:
    def test_minimal_golden(self):
        result = aggregate([shot([])], **META)
        assert emit_json(result) == GOLDEN_MINIMAL

    def test_round_trip(self):
        result = aggregate(
            [shot([1, 0]), shot([0, 0]), shot([1, 0])], keep_per_shot=True, **META
        )
        assert parse_json(emit_json(result)) == result

    def test_histogram_keys_sorted(self):
        result = RunResult(
            program_name="t", backend_name="b", shots=3, seed=0, rng_id="r",
            num_qubits=2, num_results=2,
            histogram={"11": 1, "00": 1, "10": 1},
        )
        text = emit_json(result)
        assert text.index('"00"') < text.index('"10"') < text.index('"11"')

    def test_top_level_key_order(self):
        text = emit_json(aggregate([shot([])], **META))
        keys = ["schema", "program", "backend", "shots", "seed", "rng",
                "num_qubits", "num_results", "labels", "histogram", "per_shot"]
        positions = [text.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            parse_json('{"schema": "other/1"}')
