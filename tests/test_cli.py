import json
import os
import pathlib
import subprocess
import sys

import pytest

from qirvm import RunConfig, RuntimeFault, default_registry, find_entry, parse_module, run_program
from qirvm.cli import (
    EX_CANTCREAT,
    EX_CONFIG,
    EX_DATAERR,
    EX_IOERR,
    EX_NOINPUT,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    main,
)

from conftest import TELEPORT_LL, make_program


@pytest.fixture
def teleport_file(tmp_path):
    path = tmp_path / "teleport.ll"
    path.write_text(TELEPORT_LL)
    return str(path)


def write(tmp_path, source, name="prog.ll"):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def test_run_defaults(teleport_file, capsys):
    assert main(["run", teleport_file, "--shots", "32"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qirvm-result/1"
    assert doc["shots"] == 32
    assert doc["seed"] == 0
    assert doc["backend"] == "statevector"
    assert all(len(k) == 3 for k in doc["histogram"])


def test_default_shots_is_1024(teleport_file, capsys):
    assert main(["run", teleport_file]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["shots"] == 1024
    assert sum(doc["histogram"].values()) == 1024


def test_output_file(teleport_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["run", teleport_file, "--shots", "8", "--output", str(out)]) == EX_OK
    assert capsys.readouterr().out == ""  # nothing but JSON goes to the target
    assert json.loads(out.read_text())["shots"] == 8


def test_json_determinism_across_invocations(teleport_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", teleport_file, "--shots", "64", "--seed", "5", "--output", str(a)])
    main(["run", teleport_file, "--shots", "64", "--seed", "5", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validate_only(teleport_file, capsys):
    assert main(["run", teleport_file, "--validate-only"]) == EX_OK
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ""


def test_usage_errors(teleport_file):
    assert main(["run"]) == EX_USAGE
    assert main(["run", teleport_file, "--wat"]) == EX_USAGE
    assert main(["run", teleport_file, "--shots", "0"]) == EX_USAGE
    assert main([]) == EX_USAGE


def test_missing_file():
    assert main(["run", "/nonexistent/prog.ll"]) == EX_NOINPUT


def test_non_utf8_input_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.ll"
    path.write_bytes(TELEPORT_LL.encode() + b"; caf\xe9\n")
    assert main(["run", str(path)]) == EX_DATAERR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err


def test_parse_error_names_construct_and_line(tmp_path, capsys):
    src = make_program("entry:\n  %0 = phi i1 [ true, %entry ]\n  ret void")
    path = write(tmp_path, src)
    assert main(["run", path]) == EX_DATAERR
    err = capsys.readouterr().err
    assert "phi" in err
    assert "line 8" in err


def test_validation_error_exit_code(tmp_path, capsys):
    src = make_program(
        "entry:\n  call void @__quantum__qis__foo__body(%Qubit* null)\n  ret void",
        declarations="declare void @__quantum__qis__foo__body(%Qubit*)",
    )
    path = write(tmp_path, src)
    assert main(["run", path]) == EX_CONFIG
    assert "foo" in capsys.readouterr().err
    src = make_program(
        "entry:\n  call void @__quantum__qis__cnot__body(%Qubit* null, %Qubit* null)\n  ret void")
    assert main(["run", write(tmp_path, src, "dup.ll")]) == EX_CONFIG
    assert "duplicate qubit targets [0, 0]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0x7FF0000000000000", "0xFFF0000000000000",
                                   "0x7FF8000000000000"], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("gate", ["rx", "ry", "rz", "rzz"])
def test_non_finite_angle_is_a_validation_error(tmp_path, capsys, gate, value):
    types, qubits = ("%Qubit*, %Qubit*", "%Qubit* null, %Qubit* inttoptr (i64 1 to %Qubit*)") \
        if gate == "rzz" else ("%Qubit*", "%Qubit* null")
    src = make_program(
        f"entry:\n  call void @__quantum__qis__{gate}__body(double {value}, {qubits})\n"
        "  ret void",
        declarations=f"declare void @__quantum__qis__{gate}__body(double, {types})",
        attrs='"entry_point" "num_required_qubits"="2" "num_required_results"="0"',
    )
    angle = {"0x7FF0000000000000": "inf", "0xFFF0000000000000": "-inf"}.get(value, "nan")
    message = f"@__quantum__qis__{gate}__body takes a non-finite double operand ({angle})"
    assert main(["run", write(tmp_path, src), "--shots", "8"]) == EX_CONFIG
    out = capsys.readouterr()
    assert out.out == "" and f"error: main:entry:0: {message}" in out.err
    module = parse_module(src)
    with pytest.raises(RuntimeFault) as fault:
        run_program(module, find_entry(module), default_registry(), RunConfig(shots=8))
    assert str(fault.value) == f"shot 0: {message}"


def test_runtime_fault_exit_code(tmp_path):
    src = make_program(
        "entry:\n"
        "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
        "  br i1 %0, label %a, label %a\n"
        "a:\n  ret void",
        declarations="declare i1 @__quantum__qis__read_result__body(%Result*)",
        attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
    )
    assert main(["run", write(tmp_path, src)]) == EX_SOFTWARE


def test_a_program_that_never_ends_faults_at_its_first_jump_back(tmp_path, capsys):
    src = make_program(
        "entry:\n  br label %loop\n"
        "loop:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        "  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)\n"
        "  br label %loop",
        declarations="declare void @__quantum__qis__h__body(%Qubit*)\n"
                     "declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)",
        attrs='"entry_point" "num_required_qubits"="1" "num_required_results"="1"',
    )
    assert main(["run", write(tmp_path, src), "--shots", "3"]) == EX_SOFTWARE
    assert capsys.readouterr().err == "runtime fault: shot 0: entered block 1 twice\n"


# checked before the input is read, so a missing file is exit 64 too
@pytest.mark.parametrize("args", [["{teleport}"], ["{teleport}", "--validate-only"],
                                  ["/nonexistent/prog.ll"]])
def test_unknown_backend(teleport_file, capsys, args):
    args = [arg.format(teleport=teleport_file) for arg in args]
    assert main(["run", *args, "--backend", "xacc"]) == EX_USAGE
    assert capsys.readouterr().err == (
        "error: --backend must be one of statevector, trace, not 'xacc'\n")


def test_a_local_value_defined_twice_is_a_parse_error(tmp_path, capsys):
    read = "  %0 = call i1 @__quantum__qis__read_result__body(%Result* null)\n"
    src = make_program(
        f"entry:\n{read}  br label %next\nnext:\n{read}  ret void",
        declarations="declare i1 @__quantum__qis__read_result__body(%Result*)",
    )
    assert main(["run", write(tmp_path, src)]) == EX_DATAERR
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'prog.ll'}: line 11:3: multiple definition of local value %0\n")


RECORD_ARRAY = """\
  call void @__quantum__rt__array_record_output(i64 {length}, i8* null)
  ret void"""


@pytest.mark.parametrize("length", ["99999999999999999999999", "-9223372036854775809",
                                    pytest.param("9" * 5000, id="5000-digits")])
def test_an_integer_literal_outside_its_type_is_a_parse_error(tmp_path, capsys, length):
    src = make_program(
        "entry:\n" + RECORD_ARRAY.format(length=length),
        declarations="declare void @__quantum__rt__array_record_output(i64, i8*)",
    )
    assert main(["run", write(tmp_path, src)]) == EX_DATAERR
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'prog.ll'}: line 8:53: i64 literal {length[:80]} out of range\n")


def test_a_negative_array_length_is_a_validation_error(tmp_path, capsys):
    src = make_program(
        "entry:\n" + RECORD_ARRAY.format(length=-1),
        declarations="declare void @__quantum__rt__array_record_output(i64, i8*)",
    )
    assert main(["run", write(tmp_path, src), "--validate-only"]) == EX_CONFIG
    assert capsys.readouterr().err == (
        "error: main:entry:0: @__quantum__rt__array_record_output declares a negative length (-1)\n")


def test_unwritable_output(teleport_file):
    code = main(["run", teleport_file, "--shots", "1",
                 "--output", "/nonexistent-dir/out.json"])
    assert code == EX_CANTCREAT


def cli_process(args, unbuffered="", **kwargs):
    """`python -m qirvm.cli` on `args` in a fresh process; "" leaves stdout buffered."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    return subprocess.Popen([sys.executable, "-m", "qirvm.cli", *args], env=env, **kwargs)


# Under -u (PYTHONUNBUFFERED) the write to a closed pipe is a short one
# first, which the text layer would drop without an error.
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_stdout_closed_early_exits_74_without_a_traceback(teleport_file, unbuffered):
    # 200,000 per-shot lines are about 2.2 MB, far more than a pipe holds
    with cli_process(["run", teleport_file, "--shots", "200000", "--per-shot"], unbuffered,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
        assert process.stdout.read(10) == '{\n  "schem'
        process.stdout.close()
        err = process.stderr.read()
    assert process.returncode == EX_IOERR
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_python_dash_m_runs_the_cli(teleport_file, capsys):
    args = ["run", teleport_file, "--shots", "8", "--seed", "3"]
    assert main(args) == EX_OK
    out, err = cli_process(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True).communicate(timeout=120)
    assert (out, err) == (capsys.readouterr().out, "")
    assert json.loads(out)["shots"] == 8


def test_entry_override(tmp_path, capsys):
    src = make_program("entry:\n  ret void", attrs='"other"')
    path = write(tmp_path, src)
    assert main(["run", path]) == EX_CONFIG  # no entry attribute
    capsys.readouterr()
    assert main(["run", path, "--entry", "main", "--shots", "2"]) == EX_OK


def test_per_shot_flag(teleport_file, capsys):
    assert main(["run", teleport_file, "--shots", "4", "--per-shot"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["per_shot"]) == 4


def test_trace_backend_selectable(tmp_path, capsys):
    src = make_program("entry:\n  ret void")
    assert main(["run", write(tmp_path, src), "--shots", "2", "--backend", "trace"]) == EX_OK
    assert json.loads(capsys.readouterr().out)["backend"] == "trace"


def test_negative_seed_is_usage_error(teleport_file, capsys):
    assert main(["run", teleport_file, "--seed", "-1"]) == EX_USAGE
    assert "--seed" in capsys.readouterr().err


def test_non_integer_qubit_count_is_entry_error(tmp_path, capsys):
    for count in "three", "9" * 5000:
        src = make_program("entry:\n  ret void",
                           attrs=f'"entry_point" "num_required_qubits"="{count}"')
        assert main(["run", write(tmp_path, src)]) == EX_CONFIG
        assert "num_required_qubits" in capsys.readouterr().err


def test_too_many_qubits_is_validation_error(tmp_path, capsys):
    from qirvm.backends import DEFAULT_MAX_QUBITS

    count = DEFAULT_MAX_QUBITS + 1
    src = make_program("entry:\n  ret void",
                       attrs=f'"entry_point" "num_required_qubits"="{count}"')
    assert main(["run", write(tmp_path, src), "--validate-only"]) == EX_CONFIG
    assert f"{count} qubits exceeds the maximum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "constant", [r'[3 x i8] c"\zz"', r'[3 x i8] c"\4"', r'[3 x i8] c"\FF\00"', r'[0.5 x i8] c"r\00"',
                 r'[9 x i8] c"r0\00"', r'[2 x i8] c"r0\00"'])
def test_bad_global_constant_is_a_parse_error(tmp_path, capsys, constant):
    src = make_program("entry:\n  ret void").replace(
        "define", f"@0 = internal constant {constant}\n\ndefine", 1)
    assert main(["run", write(tmp_path, src)]) == EX_DATAERR
    assert "line 6:" in capsys.readouterr().err


@pytest.mark.parametrize("array_types", ["[7 x i8], [7 x i8]*", "[3 x i8], [7 x i8]*", "[7 x i8], ptr"])
def test_gep_array_length_must_match_global(tmp_path, capsys, array_types):
    call = ("  call void @__quantum__rt__result_record_output(%Result* null, "
            f"i8* getelementptr inbounds ({array_types} @0, i32 0, i32 0))")
    src = make_program(
        f"entry:\n{call}\n  ret void",
        declarations="declare void @__quantum__rt__result_record_output(%Result*, i8*)",
    ).replace("define", '@0 = internal constant [3 x i8] c"r0\\00"\n\ndefine', 1)
    assert main(["run", write(tmp_path, src)]) == EX_DATAERR
    where = f"line 10:{call.index('[7') + 1}"
    assert f"{where}: [7 x i8] does not match the 3-byte string" in capsys.readouterr().err


RESULT_COUNT_DECLS = """\
declare void @__quantum__qis__h__body(%Qubit*)
declare void @__quantum__qis__mz__body(%Qubit*, %Result* writeonly)
declare void @__quantum__rt__array_record_output(i64, i8*)
declare void @__quantum__rt__result_record_output(%Result*, i8*)"""


# A shot holds only the results it wrote, so no result count sizes a
# per-shot allocation.  A count inferred from index 10**12 is 10**12 + 1.
@pytest.mark.parametrize("operand, count_attr, num_results", [
    ("%Result* null", ' "num_required_results"="1000000000000"', 10 ** 12),
    ("%Result* inttoptr (i64 1000000000000 to %Result*)", "", 10 ** 12 + 1),
], ids=["declared", "indexed"])
def test_huge_result_count_runs_in_bounded_memory(operand, count_attr, num_results, tmp_path,
                                                  capsys):
    source = make_program(
        "entry:\n"
        "  call void @__quantum__qis__h__body(%Qubit* null)\n"
        f"  call void @__quantum__qis__mz__body(%Qubit* null, {operand})\n"
        "  call void @__quantum__rt__array_record_output(i64 1, i8* null)\n"
        f"  call void @__quantum__rt__result_record_output({operand}, i8* null)\n"
        "  ret void",
        declarations=RESULT_COUNT_DECLS,
        attrs='"entry_point" "num_required_qubits"="1"' + count_attr,
    )
    module = parse_module(source)
    entry = find_entry(module)
    result = run_program(module, entry, default_registry(), RunConfig(shots=64, seed=3))
    assert result.num_results == num_results
    assert set(result.histogram) == {"0", "1"}
    assert main(["run", write(tmp_path, source), "--shots", "64", "--seed", "3"]) == EX_OK
    out = capsys.readouterr().out
    assert f'"num_results": {num_results},' in out
    assert json.loads(out)["histogram"] == result.histogram
