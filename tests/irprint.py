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
    DoubleConst,
    Instruction,
    IntConst,
    LabelConst,
    Operand,
    ProgramModule,
    QubitRef,
    ReturnVoid,
    ResultRef,
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


class _GlobalNamer:
    """Maps label payloads back to global names when rendering."""

    def __init__(self, module: ProgramModule):
        self.by_text = {payload: name for name, payload in module.globals}
        self.extra = []

    def name_for(self, text: str) -> str:
        if text not in self.by_text:
            name = "label.%d" % len(self.extra)
            self.by_text[text] = name
            self.extra.append((name, text))
        return self.by_text[text]


def _render_operand(op: Operand, namer: _GlobalNamer) -> str:
    if isinstance(op, QubitRef):
        if op.index == 0:
            return "%Qubit* null"
        return f"%Qubit* inttoptr (i64 {op.index} to %Qubit*)"
    if isinstance(op, ResultRef):
        if op.index == 0:
            return "%Result* null"
        return f"%Result* inttoptr (i64 {op.index} to %Result*)"
    if isinstance(op, IntConst):
        return f"i{op.width} {op.value}"
    if isinstance(op, DoubleConst):
        return f"double {_double_text(op.value)}"
    if isinstance(op, BoolVar):
        return f"i1 {op.name}"
    if isinstance(op, LabelConst):
        if op.text is None:
            return "i8* null"
        gname = namer.name_for(op.text)
        n = len(op.text.encode()) + 1
        return (
            f"i8* getelementptr inbounds ([{n} x i8], [{n} x i8]* @{gname}, i32 0, i32 0)"
        )
    raise TypeError(f"not an operand: {op!r}")


def _render_instruction(ins: Instruction, namer: _GlobalNamer) -> str:
    if isinstance(ins, Call):
        args = ", ".join(_render_operand(a, namer) for a in ins.args)
        if ins.result_var is not None:
            return f"  {ins.result_var} = call i1 @{ins.callee}({args})"
        return f"  call void @{ins.callee}({args})"
    if isinstance(ins, CondBranch):
        if isinstance(ins.cond, IntConst):
            cond = "true" if ins.cond.value else "false"
        else:
            cond = ins.cond.name
        return f"  br i1 {cond}, label %{ins.then_label}, label %{ins.else_label}"
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
    namer = _GlobalNamer(module)
    body = []
    for fn in module.functions:
        suffix = f" #{fn.attr_group}" if fn.attr_group is not None else ""
        body.append(f"define void @{fn.name}(){suffix} {{")
        for i, block in enumerate(fn.blocks):
            if i > 0:
                body.append("")
            body.append(f"{block.label}:")
            for ins in block.instructions:
                body.append(_render_instruction(ins, namer))
        body.append("}")
        body.append("")

    lines = [f'source_filename = "{module.source_name}"', ""]
    for name in sorted(module.opaque_types):
        lines.append(f"%{name} = type opaque")
    if module.opaque_types:
        lines.append("")
    for gname, payload in list(module.globals) + namer.extra:
        n = len(payload.encode()) + 1
        lines.append(f'@{gname} = internal constant [{n} x i8] c"{_escape_payload(payload)}"')
    if module.globals or namer.extra:
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
