import re
import struct

import pytest

from qirvm import ParseError, parse_module
from qirvm.cli import EX_DATAERR, main
from qirvm.ir import (
    Branch,
    Call,
    CondBranch,
    Const,
    ReturnVoid,
)
from qirvm.parser import parse_double_literal

from conftest import (
    BAD_CHARACTER_ERROR,
    BAD_CHARACTER_LL,
    QPE_LL,
    TELEPORT_CALLS,
    TELEPORT_LL,
    make_program,
)
from irprint import render_module, same_records
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
        assert sum(isinstance(ins, Call) for block in module.functions[0].blocks
                   for ins in block.instructions) == TELEPORT_CALLS

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

    def test_module_flags(self, tmp_path, capsys):
        # the fixture's four flags parse; a reference to an unknown node is a data error
        assert re.findall(r"^!(\d+) = ", TELEPORT_LL, re.MULTILINE) == ["0", "1", "2", "3"]
        parse_module(TELEPORT_LL)
        path = tmp_path / "unknown_flag.ll"
        path.write_text(TELEPORT_LL.replace("!{!0, !1, !2, !3}", "!{!0, !1, !2, !9}"))
        assert main(["run", str(path)]) == EX_DATAERR
        assert "unknown metadata !9" in capsys.readouterr().err


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
        assert same_records(parse_module(src.replace(typed, label)), module)


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
    assert isinstance(fn.blocks[0].instructions[-1], CondBranch)
    assert fn.blocks[0].instructions[-1].then_label == "a"
    assert isinstance(fn.blocks[1].instructions[-1], Branch)


R0 = '@0 = internal constant [3 x i8] c"r0\\00"'
GEP = "getelementptr inbounds ([3 x i8], [3 x i8]* @0, {0} 0, {0} 0)"
RECORD_R0 = Call("__quantum__rt__result_record_output",
                 (Const("result", 0), Const("label", "r0")), None)
FLAG = '\n!llvm.module.flags = !{!0}\n!0 = !{i32 1, !"qir_major_version", %s}\n'


def one_call(text, before=""):
    """A main that runs `text` (line 9) and returns, with `before` on line 5."""
    return make_program(f"entry:\n  {text}\n  ret void").replace(
        "\n\ndefine", f"\n{before}\n\ndefine")


def record(label, before=R0):
    """A main that records result 0 with `label`, after the global `before`."""
    return one_call(f"call void @__quantum__rt__result_record_output(%Result* null, i8* {label})",
                    before)


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

    def test_a_character_no_token_starts_with_is_named(self):
        # no rule accepts it, so the error names it rather than what the rule expected
        with pytest.raises(ParseError) as exc:
            parse_module(BAD_CHARACTER_LL)
        assert str(exc.value) == BAD_CHARACTER_ERROR

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

        def cast(target):
            call = f"  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 1 to {target}))"
            return make_program(f"entry:\n{call}\n  ret void")

        cases = [
            (src.replace("#0 {", "#7 {"), 6, 21, "#7"),
            (src + flags, 16, 28, "!3"),
            (src + "\ndefine void @main() {\nentry:\n  ret void\n}\n", 16, 13, "@main"),
            (src.replace("\n\ndefine", "\n" + two_globals + "\ndefine"), 6, 1,
             "duplicate global @0"),
            (src + bad_flag, 17, 47, "banana"),
            # a raw newline inside a string constant starts a new line
            (src.replace("\n\ndefine", '\n@0 = internal constant [4 x i8] c"a\nb\\00" oops\n'
                         '\ndefine'), 6, 7, "unsupported top-level construct 'oops'"),
            # a block ends at its terminator
            (make_program("entry:\n  call void @__quantum__qis__h__body(%Qubit* null)"), 9, 1,
             "block %entry does not end in a terminator"),
            (make_program("entry:\n  br label %a\na:\nb:\n  ret void"), 10, 1,
             "block %a is empty"),
            (make_program(""), 8, 1, "block %entry is empty"),
            (make_program("entry:\n  ret void\n  ret void"), 9, 3,
             "expected a label or '}' after the terminator of block %entry, found 'ret'"),
            (make_program("entry:\n  br label %a\na:\n  ret void\na:\n  ret void"), 11, 1,
             "duplicate block label %a"),
            (make_program("entry:\n  br label %nowhere"), 8, 12,
             "branch to unknown label %nowhere"),
            # `name:` is one token, as in LLVM
            (make_program("entry :\n  ret void"), 7, 1, "unsupported instruction 'entry'"),
            # an inttoptr cast targets its operand's own type
            (cast("%Result*"), 8, 65, "inttoptr target type differs from the operand type"),
            (cast("ptr"), 8, 65, "inttoptr target type differs from the operand type"),
            (cast("%Foo*"), 8, 65, "unknown pointer type %Foo*"),
            # a stray quote starts a string that runs to the next quote, lines on;
            # an error quotes only the token's first line
            (make_program('entry:\n  call void @__quantum__qis__h__body(" %Qubit* null)\n'
                          '  ret void'), 8, 38, """expected a type, found '" %Qubit* null)'"""),
        ]
        for text, line, column, what in cases:
            with pytest.raises(ParseError, match=re.escape(what)) as exc:
                parse_module(text)
            assert (exc.value.line, exc.value.column) == (line, column)
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("source, expected", [
        # valid: (the entry block's first instruction, the entry's bare attribute keys)
        (record(GEP.format("i64"), R0 + ", align 1"), (RECORD_R0, {"entry_point"})),
        (record("@0"), (RECORD_R0, {"entry_point"})),  # a label as a bare global
        (make_program("entry:\n  ret void", attrs='"entry_point" irreversible'),
         (ReturnVoid(), {"entry_point", "irreversible"})),
        # invalid: the message at line:column
        (make_program("entry:\n  ret void", declarations="declare i64 @f()"),
         "line 11:9: a declaration must return void or i1"),
        (make_program("entry:\n  ret void", attrs='"entry_point" 5'),
         "line 13:33: unexpected token '5' in attribute group"),
        (make_program("entry:\n  ret void") + FLAG % "double 1.0",
         "line 17:37: unsupported module-flag value type 'double'"),
        (make_program("entry:\n  ret void") + "!llvm.ident = !{}\n",
         "line 15:2: unsupported metadata 'llvm.ident'"),
        (make_program("entry:\n  ret void").replace("define void", "define i1"),
         "line 6:8: entry functions must return void"),
        (make_program("entry:\n  %0 = call void @__quantum__qis__h__body(%Qubit* null)\n"
                      "  ret void"), "line 8:13: only i1-returning calls may bind a result"),
        (one_call("call i1 @__quantum__qis__read_result__body(%Result* null)"),
         "line 9:8: non-void call result must be bound"),
        (record("5"), "line 9:69: expected a label constant, found '5'"),
        (one_call("call void @__quantum__qis__rx__body(double 0x12345, %Qubit* null)"),
         "line 9:46: malformed hex double literal '0x12345'"),
        (one_call("call void @__quantum__qis__rx__body(double , %Qubit* null)"),
         "line 9:46: expected a double literal, found ','"),
        (one_call("call void @__quantum__qis__h__body(void null)"),
         "line 9:38: unsupported argument type 'void'"),
        (one_call("call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 -1 to %Qubit*))"),
         "line 9:60: negative qubit/result index"),
        (record(GEP.format("i16")), "line 9:117: expected 'i32' or 'i64', found 'i16'"),
        (record("@nope"), "line 9:69: reference to unknown global @nope"),
    ], ids=["align", "label-global", "attribute-word", "declare-i64", "attribute-token",
            "flag-double", "metadata", "define-i1", "void-bound", "i1-unbound", "label-number",
            "double-malformed", "double-missing", "argument-void", "inttoptr-negative",
            "gep-i16", "global-unknown"])
    def test_each_check_of_a_construct(self, source, expected):
        if isinstance(expected, str):
            with pytest.raises(ParseError) as exc:
                parse_module(source)
            assert str(exc.value) == expected
            return
        fn = parse_module(source).functions[0]
        assert (fn.blocks[0].instructions[0], fn.attrs.bare_keys) == expected

    @pytest.mark.parametrize("indices, bad", [("i64 0, i64 1", "1"), ("i64 7, i64 0.5", "7"),
                                              ("i32 0, i32 0.5", "0.5")])
    def test_getelementptr_indices_are_zero(self, indices, bad):
        # `i64 0, i64 1` would point at the `0` of "r0", not at the string
        src = FUZZ_BASE.replace("i32 0, i32 0", indices)
        with pytest.raises(ParseError, match=re.escape(bad)) as exc:
            parse_module(src)
        line = src.splitlines()[exc.value.line - 1]
        assert line.index(indices) + indices.index(bad) + 1 == exc.value.column

    def test_a_second_attribute_group_with_one_id_is_an_error(self):
        # it was ignored: the second #0 below carried the entry point, so the run found none
        src = make_program("entry:\n  ret void", attrs='"other"',
                           extra='attributes #0 = { "entry_point" }\n')
        with pytest.raises(ParseError, match="duplicate attribute group #0") as exc:
            parse_module(src)
        assert (exc.value.line, exc.value.column) == (14, 12)

    def test_a_second_metadata_node_with_one_id_is_an_error(self):
        # it silently replaced the first
        src = make_program("entry:\n  ret void") + (
            '\n!llvm.module.flags = !{!0}\n!0 = !{i32 1, !"qir_major_version", i32 1}\n'
            '!0 = !{i32 1, !"qir_major_version", i32 2}\n')
        with pytest.raises(ParseError, match="duplicate metadata !0") as exc:
            parse_module(src)
        assert (exc.value.line, exc.value.column) == (18, 1)

    def test_a_local_value_is_defined_once_per_function(self):
        read = "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        decls = "declare i1 @__quantum__qis__read_result__body(%Result*)"
        with pytest.raises(ParseError, match="multiple definition of local value %0") as exc:
            parse_module(make_program(f"entry:\n{read}{read}  ret void", declarations=decls))
        assert (exc.value.line, exc.value.column) == (9, 3)
        # each function has its own locals
        src = make_program(f"entry:\n{read}  ret void", declarations=decls)
        other = f"\ndefine void @other() {{\nentry:\n{read}  ret void\n}}\n"
        assert len(parse_module(src + other).functions) == 2

    @pytest.mark.parametrize("text, bad", [
        ("  call void @__quantum__rt__array_record_output(i64 -9223372036854775808, i8* null)",
         None),
        ("  call void @__quantum__rt__array_record_output(i64 9223372036854775808, i8* null)",
         "i64 literal 9223372036854775808"),
        ("  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 18446744073709551615 to "
         "%Qubit*))", "i64 literal 18446744073709551615"),
    ])
    def test_integer_literals_fit_their_type(self, text, bad):
        decls = ("declare void @__quantum__rt__array_record_output(i64, i8*)\n"
                 "declare void @__quantum__qis__h__body(%Qubit*)")
        src = make_program(f"entry:\n{text}\n  ret void", declarations=decls)
        if bad is None:
            parse_module(src)
            return
        with pytest.raises(ParseError, match=f"{bad} out of range") as exc:
            parse_module(src)
        assert (exc.value.line, exc.value.column) == (8, text.index(bad.split()[-1]) + 1)

    def test_a_module_flag_integer_fits_its_type(self):
        src = make_program("entry:\n  ret void")
        flags = '\n!llvm.module.flags = !{!0}\n!0 = !{i32 1, !"qir_major_version", i32 %s}\n'
        parse_module(src + flags % "2147483647")
        with pytest.raises(ParseError, match="i32 literal 2147483648 out of range") as exc:
            parse_module(src + flags % "2147483648")
        assert (exc.value.line, exc.value.column) == (17, 41)

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
        assert same_records(parse_module(render_module(module)), module)

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
        assert same_records(parse_module(render_module(module)), module)
