import re
import struct

import pytest

from qirvm import ParseError, parse_module
from qirvm.ir import (
    Branch,
    Call,
    CondBranch,
    Const,
)
from qirvm.parser import parse_double_literal

from conftest import QPE_LL, TELEPORT_LL, make_program
from irprint import render_module
from test_properties import FUZZ_BASE

# FUZZ_BASE with its label payload holding a quote, a backslash and a newline
ESCAPED_LABEL = FUZZ_BASE.replace("[3 x i8]", "[6 x i8]").replace(
    'c"r0\\00"', 'c"\\22\\5C\\0Ar0\\00"')


class TestTeleportProgram:
    def test_structure_counts(self):
        module = parse_module(TELEPORT_LL)
        assert len(module.functions) == 1
        assert module.functions[0].name == "main"
        assert len(module.functions[0].blocks) == 7
        assert len(module.declarations) == 9
        assert len(module.attribute_groups) == 2
        assert len(module.module_flags) == 4

    def test_block_labels(self):
        module = parse_module(TELEPORT_LL)
        labels = [b.label for b in module.functions[0].blocks]
        assert labels == ["entry", "then", "else", "continue", "then1", "else2", "continue3"]

    def test_null_maps_to_index_zero(self):
        module = parse_module(TELEPORT_LL)
        first_call = module.functions[0].blocks[0].instructions[0]
        assert first_call.callee == "__quantum__qis__h__body"
        assert first_call.args == (Const("qubit", 1),)
        # third call addresses qubit 0 via `null`
        third = module.functions[0].blocks[0].instructions[2]
        assert third.args == (Const("qubit", 0), Const("qubit", 1))

    def test_module_flags(self):
        module = parse_module(TELEPORT_LL)
        flags = {f.key: f.value for f in module.module_flags}
        assert flags["qir_major_version"] == 1
        assert flags["dynamic_qubit_management"] is False


def test_minimal_program():
    module = parse_module(make_program("entry:\n  ret void"))
    assert len(module.functions) == 1
    fn = module.functions[0]
    assert len(fn.blocks) == 1
    assert sum(isinstance(i, Call) for b in fn.blocks for i in b.instructions) == 0


def test_unlabeled_first_block_gets_entry():
    module = parse_module(make_program("  ret void"))
    assert module.functions[0].blocks[0].label == "entry"


def test_qpe_fixture_gate_count_matches_text_oracle():
    module = parse_module(QPE_LL)
    parsed = sum(
        1
        for b in module.functions[0].blocks
        for i in b.instructions
        if isinstance(i, Call)
        and i.callee.startswith("__quantum__qis__")
        and "__mz__" not in i.callee
    )
    # independent oracle: count gate-call lines in the raw text
    grepped = len(
        re.findall(r"^\s*call void @__quantum__qis__(?!mz)", QPE_LL, re.MULTILINE)
    )
    assert parsed == grepped > 0


def test_opaque_pointer_spelling():
    src = make_program(
        "entry:\n"
        "  call void @__quantum__qis__h__body(ptr null)\n"
        "  call void @__quantum__qis__mz__body(ptr null, ptr inttoptr (i64 1 to ptr))\n"
        "  ret void",
        declarations=(
            "declare void @__quantum__qis__h__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)"
        ),
    )
    module = parse_module(src)
    calls = [i for i in module.functions[0].blocks[0].instructions if isinstance(i, Call)]
    assert calls[0].args == (Const("qubit", 0),)
    assert calls[1].args == (Const("qubit", 0), Const("result", 1))


def test_operands_of_different_kinds_differ():
    assert Const("qubit", 0) != Const("result", 0)
    src = make_program(
        "entry:\n  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n  ret void",
        declarations="declare void @__quantum__qis__mz__body(%Qubit*, %Result*)",
    )
    qubit, result = parse_module(src).functions[0].blocks[0].instructions[0].args
    assert qubit != result


def test_global_string_label_resolution():
    src = """\
source_filename = "labeled"

%Result = type opaque

@0 = internal constant [3 x i8] c"r0\\00"

define void @main() #0 {
entry:
  call void @__quantum__rt__result_record_output(%Result* null, i8* getelementptr inbounds ([3 x i8], [3 x i8]* @0, i32 0, i32 0))
  ret void
}

declare void @__quantum__rt__result_record_output(%Result*, i8*)

attributes #0 = { "entry_point" }
"""
    module = parse_module(src)
    call = module.functions[0].blocks[0].instructions[0]
    assert call.args == (Const("result", 0), Const("label", "r0"))
    # the other spellings LLVM prints for the same label
    typed = "i8* getelementptr inbounds ([3 x i8], [3 x i8]* @0, i32 0, i32 0)"
    for label in ["i8* getelementptr inbounds ([3 x i8], [3 x i8]* @0, i64 0, i64 0)",
                  "ptr getelementptr inbounds ([3 x i8], ptr @0, i64 0, i64 0)",
                  "ptr getelementptr inbounds ([3 x i8], ptr @0, i32 0, i32 0)"]:
        assert parse_module(src.replace(typed, label)) == module


def test_comments_anywhere():
    src = make_program(
        "entry: ; block comment\n  ret void ; trailing\n; full line"
    )
    parse_module(src)


def test_branch_instructions():
    src = make_program(
        "entry:\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %a, label %b\n"
        "a:\n  br label %b\n"
        "b:\n  ret void",
        declarations="declare i1 @__quantum__qis__read_result__body(%Result*)",
    )
    fn = parse_module(src).functions[0]
    assert isinstance(fn.blocks[0].terminator, CondBranch)
    assert fn.blocks[0].terminator.then_label == "a"
    assert isinstance(fn.blocks[1].terminator, Branch)


class TestParseErrors:
    @pytest.mark.parametrize(
        "instr",
        [
            "  %0 = phi i1 [ true, %entry ]",
            "  switch i32 0, label %entry []",
            "  %0 = alloca i64",
            "  %0 = add i64 1, 2",
            "  store i64 0, i64* %p",
        ],
    )
    def test_unsupported_instruction(self, instr):
        src = make_program(f"entry:\n{instr}\n  ret void")
        with pytest.raises(ParseError):
            parse_module(src)

    def test_error_carries_line_number(self):
        src = make_program("entry:\n  %0 = phi i1 [ true, %entry ]\n  ret void")
        with pytest.raises(ParseError) as exc:
            parse_module(src)
        assert exc.value.line == 8
        assert exc.value.line <= src.count("\n") + 1
        assert "phi" in str(exc.value)

    def test_duplicate_block_label(self):
        src = make_program("entry:\n  br label %entry2\nentry2:\n  br label %entry2\nentry2:\n  ret void")
        with pytest.raises(ParseError):
            parse_module(src)

    def test_branch_to_unknown_label(self):
        src = make_program("entry:\n  br label %nowhere")
        with pytest.raises(ParseError, match="nowhere"):
            parse_module(src)

    def test_duplicate_function_names(self):
        src = make_program("entry:\n  ret void") + "\ndefine void @main() #0 {\nentry:\n  ret void\n}\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_module(src)

    def test_unknown_attribute_group_reference(self):
        src = make_program("entry:\n  ret void").replace("#0 {", "#9 {")
        with pytest.raises(ParseError):
            parse_module(src)

    def test_module_assembly_errors_point_at_the_offending_token(self):
        src = make_program("entry:\n  ret void")  # 15 lines, `define ... #0 {` on line 6
        flags = '\n!llvm.module.flags = !{!0, !3}\n!0 = !{i32 1, !"qir_major_version", i32 1}\n'
        bad_flag = '\n!llvm.module.flags = !{!0}\n!0 = !{i32 1, !"dynamic_qubit_management", i1 banana}\n'
        two_globals = '@0 = internal constant [3 x i8] c"r0\\00"\n@0 = internal constant [3 x i8] c"zz\\00"\n'
        cases = [
            (src.replace("#0 {", "#7 {"), 6, 21, "#7"),
            (src + flags, 16, 28, "!3"),
            (src + "\ndefine void @main() {\nentry:\n  ret void\n}\n", 16, 13, "@main"),
            (src.replace("\n\ndefine", "\n" + two_globals + "\ndefine"), 6, 1,
             "duplicate global @0"),
            (src + bad_flag, 17, 47, "banana"),
        ]
        for text, line, column, what in cases:
            with pytest.raises(ParseError, match=what) as exc:
                parse_module(text)
            assert (exc.value.line, exc.value.column) == (line, column)

    def test_block_missing_terminator(self):
        src = make_program(
            "entry:\n  call void @__quantum__qis__h__body(%Qubit* null)",
            declarations="declare void @__quantum__qis__h__body(%Qubit*)",
        )
        with pytest.raises(ParseError, match="terminator"):
            parse_module(src)


class TestDoubleLiteral:
    def test_pi_bit_pattern(self):
        assert parse_double_literal("0x400921FB54442D18") == 3.141592653589793

    def test_decimal(self):
        assert parse_double_literal("0.0") == 0.0
        assert parse_double_literal("-1.5") == -1.5
        assert parse_double_literal("2.5e3") == 2500.0

    def test_hex_matches_bit_reinterpretation_oracle(self):
        token = "0x3FE5555555555555"
        expected = struct.unpack(">d", bytes.fromhex(token[2:]))[0]
        assert parse_double_literal(token) == expected
        assert abs(expected - 2 / 3) < 1e-15

    @pytest.mark.parametrize("bad", ["0x12345", "0xZZZZZZZZZZZZZZZZ", "1.2.3", "abc"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_double_literal(bad)

    def test_double_argument_in_call(self):
        src = make_program(
            "entry:\n"
            "  call void @__quantum__qis__rz__body(double 0x400921FB54442D18, %Qubit* null)\n"
            "  call void @__quantum__qis__rz__body(double 1.5, %Qubit* null)\n"
            "  ret void",
            declarations="declare void @__quantum__qis__rz__body(double, %Qubit*)",
        )
        calls = parse_module(src).functions[0].blocks[0].instructions[:2]
        assert calls[0].args[0] == Const("double", 3.141592653589793)
        assert calls[1].args[0] == Const("double", 1.5)


class TestRoundTrip:
    @pytest.mark.parametrize("source", [TELEPORT_LL, QPE_LL, FUZZ_BASE, ESCAPED_LABEL],
                             ids=["teleport", "qpe", "teleport-labelled", "escaped-label"])
    def test_parse_print_parse_fixpoint(self, source):
        module = parse_module(source)
        assert parse_module(render_module(module)) == module

    def test_fixpoint_with_labels_and_ints(self):
        src = make_program(
            "entry:\n"
            "  call void @__quantum__rt__array_record_output(i64 1, i8* null)\n"
            "  call void @__quantum__rt__result_record_output(%Result* null, i8* null)\n"
            "  call void @flag(i1 true, i32 -2)\n"
            "  br i1 false, label %entry, label %done\n"
            "done:\n"
            "  ret void",
            declarations=(
                "declare void @__quantum__rt__array_record_output(i64, i8*)\n"
                "declare void @__quantum__rt__result_record_output(%Result*, i8*)\n"
                "declare void @flag(i1, i32)"
            ),
        )
        module = parse_module(src)
        calls = module.functions[0].blocks[0].instructions
        assert calls[0].args[0] == Const("i64", 1)
        assert calls[2].args == (Const("i1", 1), Const("i32", -2))
        assert parse_module(render_module(module)) == module
