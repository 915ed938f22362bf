"""Canonical textual-IR printer, a test oracle for the parser.

`render_module` spells a parsed module back in the typed-pointer form;
reparsing the text yields an equal module, which the round-trip tests in
test_parser.py, test_properties.py and test_interpreter.py check.
"""

import struct

from qirvm.ir import (
    BoolVar,
    Branch,
    Call,
    CondBranch,
    Instruction,
    Operand,
    ProgramModule,
    ReturnVoid,
)


def _double_text(value: float) -> str:
    # Hex spelling is bit-exact, so render/reparse preserves the value.
    return "0x%016X" % struct.unpack(">Q", struct.pack(">d", value))[0]


def _escape_payload(payload: str) -> str:
    out = []
    for ch in payload.encode() + b"\x00":
        if 0x20 <= ch < 0x7F and ch not in (0x22, 0x5C):
            out.append(chr(ch))
        else:
            out.append("\\%02X" % ch)
    return "".join(out)


def _render_operand(op: Operand, globals_: dict) -> str:
    """`globals_` maps each label text to its global's name, adding new ones."""
    if isinstance(op, BoolVar):
        return f"i1 {op.name}"
    kind, value = op
    if kind in ("qubit", "result"):
        pointer = _KIND_TEXT[kind]
        if value == 0:
            return f"{pointer} null"
        return f"{pointer} inttoptr (i64 {value} to {pointer})"
    if kind == "double":
        return f"double {_double_text(value)}"
    if kind == "label":
        if value is None:
            return "i8* null"
        gname = globals_.setdefault(value, str(len(globals_)))
        n = len(value.encode()) + 1
        return (
            f"i8* getelementptr inbounds ([{n} x i8], [{n} x i8]* @{gname}, i32 0, i32 0)"
        )
    if kind == "i1":
        return f"i1 {'true' if value else 'false'}"
    return f"{kind} {value}"  # i64 or i32


def _render_instruction(ins: Instruction, globals_: dict) -> str:
    if isinstance(ins, Call):
        args = ", ".join(_render_operand(a, globals_) for a in ins.args)
        if ins.result_var is not None:
            return f"  {ins.result_var} = call i1 @{ins.callee}({args})"
        return f"  call void @{ins.callee}({args})"
    if isinstance(ins, CondBranch):
        cond = _render_operand(ins.cond, globals_)
        return f"  br {cond}, label %{ins.then_label}, label %{ins.else_label}"
    if isinstance(ins, Branch):
        return f"  br label %{ins.target_label}"
    if isinstance(ins, ReturnVoid):
        return "  ret void"
    raise TypeError(f"not an instruction: {ins!r}")


_KIND_TEXT = {
    "qubit": "%Qubit*",
    "result": "%Result*",
    "label": "i8*",
    "i64": "i64",
    "i32": "i32",
    "i1": "i1",
    "double": "double",
    "ptr": "ptr",
}


def render_module(module: ProgramModule) -> str:
    """Render a module back to textual IR; reparsing yields an equal module."""
    globals_ = {}  # label text -> global name
    body = []
    for fn in module.functions:
        suffix = f" #{fn.attr_group}" if fn.attr_group is not None else ""
        body.append(f"define void @{fn.name}(){suffix} {{")
        for i, block in enumerate(fn.blocks):
            if i > 0:
                body.append("")
            body.append(f"{block.label}:")
            for ins in block.instructions:
                body.append(_render_instruction(ins, globals_))
        body.append("}")
        body.append("")

    lines = [f'source_filename = "{module.source_name}"', "",
             "%Qubit = type opaque", "%Result = type opaque", ""]
    for payload, gname in globals_.items():
        n = len(payload.encode()) + 1
        lines.append(f'@{gname} = internal constant [{n} x i8] c"{_escape_payload(payload)}"')
    if globals_:
        lines.append("")
    lines.extend(body)

    for decl in module.declarations:
        params = ", ".join(_KIND_TEXT[k] for k in decl.param_kinds)
        suffix = f" #{decl.attr_group}" if decl.attr_group is not None else ""
        ret = "i1" if decl.return_kind == "i1" else "void"
        lines.append(f"declare {ret} @{decl.name}({params}){suffix}")
    lines.append("")

    for gid, grp in module.attribute_groups:
        parts = [f'"{k}"' for k in sorted(grp.bare_keys)]
        parts += [f'"{k}"="{v}"' for k, v in grp.kv]
        lines.append(f"attributes #{gid} = {{ {' '.join(parts)} }}")
    lines.append("")

    if module.module_flags:
        refs = ", ".join(f"!{i}" for i in range(len(module.module_flags)))
        lines.append(f"!llvm.module.flags = !{{{refs}}}")
        lines.append("")
        for i, flag in enumerate(module.module_flags):
            if isinstance(flag.value, bool):
                value = f"i1 {'true' if flag.value else 'false'}"
            else:
                value = f"i32 {flag.value}"
            lines.append(f'!{i} = !{{i32 {flag.behavior}, !"{flag.key}", {value}}}')

    return "\n".join(lines) + "\n"
