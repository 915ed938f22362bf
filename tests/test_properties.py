"""Property-based checks over parsing, aggregation, sampling and the CLI."""

import ast
import os
import re
import struct
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qirvm import ParseError, ShotRecorder, aggregate, emit_json, parse_module
from qirvm.cli import main
from qirvm.parser import parse_double_literal

from conftest import TELEPORT_LL, parse_json, qpe_reference_distribution
from irprint import render_module, same_records
from test_branching import feed_forward_programs

META = dict(
    program_name="p",
    backend_name="statevector",
    seed=0,
    rng_id="rng",
    num_qubits=2,
    num_results=2,
)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_hex_double_literal_matches_bit_pattern(bits):
    parsed = parse_double_literal("0x%016X" % bits)
    if parsed == parsed:  # NaN payloads need not survive repacking
        assert struct.unpack(">Q", struct.pack(">d", parsed))[0] == bits


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_decimal_double_literal_round_trips(value):
    from decimal import Decimal

    text = format(Decimal(value), "f")  # exact, exponent-free spelling
    assert parse_double_literal(text) == value


def _shot(bits):
    rec = ShotRecorder()
    for b in bits:
        rec.record_result(b)
    return rec.finalize()


bitstrings = st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=2)


@given(st.lists(bitstrings, min_size=1, max_size=50))
def test_aggregate_conserves_counts(shots):
    result = aggregate([_shot(b) for b in shots], **META)
    assert sum(result.histogram.values()) == len(shots)


@given(st.lists(bitstrings, min_size=1, max_size=50), st.randoms())
def test_aggregate_is_order_independent(shots, rnd):
    shuffled = list(shots)
    rnd.shuffle(shuffled)
    a = aggregate([_shot(b) for b in shots], **META)
    b = aggregate([_shot(b) for b in shuffled], **META)
    assert a.histogram == b.histogram


@given(st.lists(bitstrings, min_size=1, max_size=30), st.booleans())
def test_json_round_trip(shots, keep):
    result = aggregate([_shot(b) for b in shots], keep_per_shot=keep, **META)
    assert parse_json(emit_json(result)) == result


@settings(max_examples=30)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=1, max_value=10),
)
def test_qpe_reference_distribution_is_normalized(phi, k):
    probs = qpe_reference_distribution(phi, k)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feed_forward_programs())
def test_generated_programs_round_trip_in_both_spellings(source):
    module = parse_module(source)
    assert same_records(parse_module(render_module(module)), module)
    assert same_records(parse_module(re.sub(r"%(Qubit|Result)\*", "ptr", source)), module)


# Teleport without comments, and with result 0 labelled by a global string.
FUZZ_BASE = re.sub(r";[^\n]*", "", TELEPORT_LL).replace(
    "%Result = type opaque\n",
    '%Result = type opaque\n\n@0 = internal constant [3 x i8] c"r0\\00"\n',
).replace(
    "(%Result* null, i8* null)",
    "(%Result* null, i8* getelementptr inbounds ([3 x i8], [3 x i8]* @0, i32 0, i32 0))",
)
# Whitespace, strings, words with their sigil, or single characters: joined
# back together they give the source unchanged.
PIECE_RE = re.compile(r'\s+|c?"[^"\n]*"|[%@!#]?[\w.$\-]+|\S')
INSERTS = [
    "ptr", "null", "i64", "i32", "i1", "i8*", "double", "void", "0", "1", "2", "7", "-1", "0.5",
    "true", "false", "0x3FF0000000000000", "inttoptr", "to", "(", ")", ",", "*", "%0", "%Qubit*",
    "%Result*", "#7", "!9", "@0", "@__quantum__rt__initialize", "@__quantum__qis__mz__body",
    "@__quantum__qis__cnot__body", "@__quantum__qis__read_result__body", "@__quantum__qis__nop__body",
    '"', ":", 'c"a\nb"', "then:", "9" * 5000,
]
EXIT_CODES = {0, 64, 65, 66, 70, 73, 78}
# A parse error that quotes the token it stopped at, e.g. "found 'X'"
QUOTED_TOKEN_RE = re.compile(
    r"(?:found|character|instruction|construct|metadata|token|type|literal) "
    r"('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")")


@st.composite
def mutated_sources(draw):
    """Delete, replace or insert tokens, change numbers, or rewrite the string's bytes."""
    pieces = PIECE_RE.findall(FUZZ_BASE)
    tokens = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    numbers = [i for i in tokens if pieces[i].isdigit()]
    string = pieces.index('c"r0\\00"')
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["delete", "replace", "insert", "number", "string"]))
        if action == "number":
            pieces[draw(st.sampled_from(numbers))] = draw(st.sampled_from("012347"))
        elif action == "string":
            pieces[string] = 'c"' + draw(st.text("r0F4z\\\xe9\u20ac", max_size=6)) + '"'
        else:
            i = draw(st.sampled_from(tokens))
            insert = draw(st.sampled_from(INSERTS))
            pieces[i] = {"delete": "", "replace": insert, "insert": f"{pieces[i]} {insert}"}[action]
    return "".join(pieces)


def test_fuzz_pieces_rebuild_the_source():
    assert "".join(PIECE_RE.findall(FUZZ_BASE)) == FUZZ_BASE != TELEPORT_LL


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_sources())
def test_cli_ends_every_mutated_program_in_an_exit_code(source):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "prog.ll"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        assert main(["run", path, "--shots", "4", "--output", out]) in EXIT_CODES
    # a quoted token is the one at the error's line:column
    try:
        parse_module(source)
    except ParseError as exc:
        quoted = QUOTED_TOKEN_RE.search(str(exc))
        if quoted:
            lines = source.split("\n")
            assert exc.column <= len(lines[exc.line - 1]) + 1, str(exc)
            offset = sum(len(line) + 1 for line in lines[:exc.line - 1]) + exc.column - 1
            assert source.startswith(ast.literal_eval(quoted[1]), offset), str(exc)
