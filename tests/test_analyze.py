import pytest

from qirvm import (
    AmbiguousEntry,
    GateId,
    NoEntry,
    OpKind,
    OpSpec,
    default_registry,
    find_entry,
    parse_module,
    validate_profile,
)

from conftest import QPE_LL, TELEPORT_LL, make_program


class TestFindEntry:
    def test_teleport_entry(self, teleport_module):
        entry = find_entry(teleport_module)
        assert entry.function_name == "main"
        assert entry.num_qubits == 3
        assert entry.num_results == 3

    def test_no_entry(self):
        src = make_program("entry:\n  ret void", attrs='"other"')
        with pytest.raises(NoEntry):
            find_entry(parse_module(src))

    def test_ambiguous_entry(self):
        src = make_program("entry:\n  ret void") + (
            "\ndefine void @other() #0 {\nentry:\n  ret void\n}\n"
        )
        with pytest.raises(AmbiguousEntry):
            find_entry(parse_module(src))

    def test_legacy_count_spellings(self):
        src = make_program(
            "entry:\n  ret void",
            attrs='"entry_point" "requiredQubits"="4" "requiredResults"="2"',
        )
        entry = find_entry(parse_module(src))
        assert (entry.num_qubits, entry.num_results) == (4, 2)

    def test_base_profile_count_spelling(self):
        # the QIR Base Profile's own names; they win over the others
        src = TELEPORT_LL.replace(
            '"num_required_qubits"="3" "num_required_results"="3"',
            '"required_num_qubits"="5" "required_num_results"="4" "num_required_qubits"="3"')
        entry = find_entry(parse_module(src))
        assert (entry.num_qubits, entry.num_results) == (5, 4)

    def test_a_function_with_no_attribute_group_is_not_an_entry(self):
        src = make_program("entry:\n  ret void") + "\ndefine void @helper() {\nentry:\n  ret void\n}\n"
        module = parse_module(src)
        assert module.functions[1].attrs is None
        assert find_entry(module).function_name == "main"

    def test_entrypoint_kv_spelling(self):
        src = make_program("entry:\n  ret void", attrs='"EntryPoint"="main"')
        assert find_entry(parse_module(src)).function_name == "main"

    def test_override_with_inferred_counts(self):
        src = """\
source_filename = "bare"

%Qubit = type opaque

define void @main() {
entry:
  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 1 to %Qubit*))
  call void @__quantum__qis__h__body(%Qubit* null)
  ret void
}

declare void @__quantum__qis__h__body(%Qubit*)
"""
        entry = find_entry(parse_module(src), override="main")
        assert entry.num_qubits == 2
        assert entry.num_results == 0

    def test_override_unknown_function(self, teleport_module):
        with pytest.raises(NoEntry):
            find_entry(teleport_module, override="nope")


class TestValidateProfile:
    def test_teleport_is_clean(self, teleport_module, teleport_entry, registry):
        assert validate_profile(teleport_module, teleport_entry, registry) == []

    def test_qpe_is_clean(self, qpe_module, registry):
        assert validate_profile(qpe_module, find_entry(qpe_module), registry) == []

    def test_each_block_on_a_reachable_cycle_warns_once(self, registry):
        # entry -> a -> b -> (c | d -> (c | exit)), c -> a: a, b, c and d lie on
        # cycles; exit's constant branch compiles to a jump to done, so the
        # self-loop of dead is never reached
        src = make_program(
            "entry:\n  br label %a\n"
            "a:\n  br label %b\n"
            "b:\n"
            "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
            "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
            "  br i1 %0, label %c, label %d\n"
            "d:\n  br i1 %0, label %c, label %exit\n"
            "c:\n  br label %a\n"
            "exit:\n  br i1 false, label %dead, label %done\n"
            "done:\n  ret void\n"
            "dead:\n  br label %dead",
            declarations="declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)\n"
                         "declare i1 @__quantum__qis__read_result__body(%Result*)",
            attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
        )
        module = parse_module(src)
        diags = validate_profile(module, find_entry(module), registry)
        assert [(d.severity, d.location) for d in diags] == [
            ("warning", f"main:{label}") for label in ("a", "b", "d", "c")]
        assert all("cycle" in d.message for d in diags)

    def test_a_long_chain_of_blocks_is_searched_without_recursion(self, registry):
        blocks = 5000
        body = "".join(f"b{i}:\n  br label %b{i + 1}\n" for i in range(blocks))
        for last, expected in ("ret void", 0), ("br label %b0", blocks + 1):
            module = parse_module(make_program(f"{body}b{blocks}:\n  {last}"))
            assert len(validate_profile(module, find_entry(module), registry)) == expected

    def test_qubit_index_out_of_range(self, registry):
        src = TELEPORT_LL.replace('"num_required_qubits"="3"', '"num_required_qubits"="2"')
        module = parse_module(src)
        entry = find_entry(module)
        diags = validate_profile(module, entry, registry)
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) >= 1
        assert any("qubit index 2 out of range" in d.message for d in errors)

    def test_result_index_out_of_range(self, registry):
        src = TELEPORT_LL.replace('"num_required_results"="3"', '"num_required_results"="1"')
        module = parse_module(src)
        diags = validate_profile(module, find_entry(module), registry)
        assert any("result index" in d.message and d.severity == "error" for d in diags)

    def test_unresolved_qis_function(self, registry):
        src = make_program(
            "entry:\n  call void @__quantum__qis__foo__body(%Qubit* null)\n  ret void",
            declarations="declare void @__quantum__qis__foo__body(%Qubit*)",
        )
        module = parse_module(src)
        diags = validate_profile(module, find_entry(module), registry)
        assert [d.severity for d in diags] == ["error"]
        assert "__quantum__qis__foo__body" in diags[0].message

    def test_registering_custom_gate_fixes_validation(self, registry):
        src = make_program(
            "entry:\n  call void @__quantum__qis__mygate__body(double 0.5, %Qubit* null)\n  ret void",
            declarations="declare void @__quantum__qis__mygate__body(double, %Qubit*)",
        )
        module = parse_module(src)
        entry = find_entry(module)
        assert validate_profile(module, entry, registry) != []
        registry.register("__quantum__qis__mygate__body", OpSpec(OpKind.GATE, GateId.RX))
        assert validate_profile(module, entry, registry) == []

    def test_arity_mismatch(self, registry):
        src = make_program(
            "entry:\n  call void @__quantum__qis__h__body(%Qubit* null, %Qubit* inttoptr (i64 1 to %Qubit*))\n  ret void",
            declarations="declare void @__quantum__qis__h__body(%Qubit*, %Qubit*)",
        )
        module = parse_module(src)
        diags = validate_profile(module, find_entry(module), registry)
        assert any("expects" in d.message and d.severity == "error" for d in diags)

    def test_read_without_any_measure_warns(self, registry):
        src = make_program(
            "entry:\n"
            "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
            "  br i1 %0, label %a, label %a\n"
            "a:\n  ret void",
            declarations="declare i1 @__quantum__qis__read_result__body(%Result*)",
            attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
        )
        module = parse_module(src)
        diags = validate_profile(module, find_entry(module), registry)
        assert [d.severity for d in diags] == ["warning"]
        assert "never measured" in diags[0].message
