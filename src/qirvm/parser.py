"""Recursive-descent parser for the QIR textual-assembly subset.

Covers exactly the constructs a base-profile program needs: opaque type
declarations, global constant strings, one or more function definitions
built from call/br/ret instructions, external declarations, attribute
groups, and module flags.  Each is checked, but the module keeps only
the function definitions, each with its attribute group (see ir.py).
Anything else (phi, switch, alloca, arithmetic, ...) is a hard
ParseError rather than a silent skip.

Tokens are read one at a time from a single regex pass; each carries
only its source offset, which `_Parser.error` turns into line:column.
As in LLVM, `name:` is one label token, and a block is a label (or the
implicit `entry`) followed by instructions up to its terminator.  Each
error names the first offending token in source order.

Both typed-pointer (``%Qubit*``) and opaque-pointer (``ptr``) spellings
are accepted and normalized to the same `Const` operands: a ``ptr``
operand takes its kind from the callee's operand signature in the
registry.  A label operand is resolved to its global's text here.
"""

from __future__ import annotations

import re
import struct
from typing import NamedTuple, Optional

from .errors import ParseError
from .ir import (
    AttrGroup,
    BasicBlock,
    BoolVar,
    Branch,
    Call,
    CondBranch,
    Const,
    FunctionDef,
    ProgramModule,
    ReturnVoid,
    TERMINATORS,
)
from .registry import Registry, default_registry

# ---------------------------------------------------------------------------
# Tokens

# One token per match, after any whitespace and comments.  `name:` is one
# LABEL token, as in LLVM.  BAD catches a character no token starts with;
# the parser reports it as unexpected when it reaches it.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|;[^\n]*)*
    (?:
      (?P<CSTRING>c"(?:[^"\\]|\\.)*")
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<LABEL>[A-Za-z0-9._$\-]+:)
    | (?P<LOCAL>%[A-Za-z0-9._$\-]+)
    | (?P<GLOBAL>@[A-Za-z0-9._$\-]+)
    | (?P<ATTRID>\#[0-9]+)
    | (?P<HEXNUM>0x[0-9A-Fa-f]+)
    | (?P<NUMBER>-?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)
    | (?P<IDENT>[A-Za-z_$.][A-Za-z0-9_$.]*)
    | (?P<PUNCT>[()\[\]{},=*!])
    | (?P<EOF>\Z)
    | (?P<BAD>.)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int  # into the source; _Parser.error turns it into line:column

    @property
    def quoted(self) -> str:
        """The text as an error quotes it: its first line, at most 80 characters."""
        return repr(self.text.partition("\n")[0][:80])


# ---------------------------------------------------------------------------
# Literal helpers


def parse_double_literal(token: str) -> float:
    """Parse a decimal float or LLVM 16-hex-digit bit pattern into a double."""
    if token.startswith("0x") or token.startswith("0X"):
        digits = token[2:]
        if len(digits) != 16 or not re.fullmatch(r"[0-9A-Fa-f]{16}", digits):
            raise ParseError(f"malformed hex double literal {token!r}")
        return struct.unpack(">d", bytes.fromhex(digits))[0]
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]+([eE][+-]?[0-9]+)?)?", token):
        raise ParseError(f"malformed double literal {token!r}")
    return float(token)


# ---------------------------------------------------------------------------
# Parser

_HEX_PAIR_RE = re.compile(r"[0-9A-Fa-f]{2}")
_POINTER_KINDS = {"Qubit": "qubit", "Result": "result"}
_PTR_OPERAND_KINDS = ("qubit", "result", "label")


class _Parser:
    def __init__(self, source: str, registry: Registry):
        self.source = source
        self.matches = _TOKEN_RE.finditer(source)
        self.tok = self._read()  # the next token, read one at a time
        self.registry = registry
        self.source_name = ""
        self.globals = {}  # name -> (text, byte count)
        self.functions = []  # (FunctionDef, its group id N or None); _finish adds attrs
        self.attr_groups = {}  # group id -> AttrGroup
        self.metadata_ids = set()  # the defined !N nodes
        self.module_flag_refs = []  # (node id, token)
        self.attr_refs = []  # (function name, N, #N token)

    # -- token plumbing

    def _read(self) -> Token:
        m = next(self.matches)
        kind = m.lastgroup
        return Token(kind, m[kind], m.start(kind))

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "EOF":
            self.tok = self._read()
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.tok
        if tok.kind == "BAD":  # no rule accepts one, whatever the rule expected
            message = f"unexpected character {tok.quoted}"
        line_start = self.source.rfind("\n", 0, tok.offset) + 1
        raise ParseError(message, self.source.count("\n", 0, tok.offset) + 1,
                         tok.offset - line_start + 1)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.quoted}", tok)
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def integer(self, tok: Token, kind: Optional[str] = None) -> int:
        """An integer literal that fits its type `kind` (i32 or i64) or, untyped,
        64 bits.  None of those has more than 20 digits, so a longer literal
        is out of range before int() reads it, which may refuse 4,300 digits.
        """
        if "." in tok.text:
            self.error(f"expected an integer, found {tok.quoted}", tok)
        bound = 1 << int(kind[1:]) - 1 if kind else 1 << 64
        if len(tok.text.lstrip("-")) > 20 or not -bound <= int(tok.text) < bound:
            self.error(f"{kind or 'integer'} literal {tok.text[:80]} out of range", tok)
        return int(tok.text)

    def expect_int(self, kind: Optional[str] = None) -> int:
        return self.integer(self.expect("NUMBER"), kind)

    def attr_id(self, tok: Token) -> int:
        """The N of a `#N` token."""
        return self.integer(tok._replace(text=tok.text[1:]))

    # -- top level

    def parse(self) -> ProgramModule:
        while self.tok.kind != "EOF":
            tok = self.tok
            if tok.kind == "IDENT" and tok.text == "source_filename":
                self.next()
                self.expect("PUNCT", "=")
                self.source_name = self.expect("STRING").text[1:-1]
            elif tok.kind == "LOCAL":
                self._parse_type_def()
            elif tok.kind == "GLOBAL":
                self._parse_global()
            elif tok.kind == "IDENT" and tok.text == "define":
                self.functions.append(self._parse_define())
            elif tok.kind == "IDENT" and tok.text == "declare":
                self._parse_declare()
            elif tok.kind == "IDENT" and tok.text == "attributes":
                self._parse_attr_group()
            elif tok.kind == "PUNCT" and tok.text == "!":
                self._parse_metadata()
            else:
                self.error(f"unsupported top-level construct {tok.quoted}", tok)
        return self._finish()

    def _parse_type_def(self):
        self.expect("LOCAL")
        self.expect("PUNCT", "=")
        self.expect("IDENT", "type")
        self.expect("IDENT", "opaque")

    def _parse_global(self):
        name_tok = self.expect("GLOBAL")
        name = name_tok.text[1:]
        if name in self.globals:
            self.error(f"duplicate global @{name}", name_tok)
        self.expect("PUNCT", "=")
        while self.tok.kind == "IDENT" and self.tok.text != "constant":
            self.next()  # linkage / unnamed_addr qualifiers
        self.expect("IDENT", "constant")
        array_type = self._parse_array_type()
        payload, size = self._decode_cstring(self.expect("CSTRING"))
        self._check_array_size(array_type, size)
        if self.accept("PUNCT", ","):
            self.expect("IDENT", "align")
            self.expect("NUMBER")
        self.globals[name] = payload, size

    def _decode_cstring(self, tok: Token) -> tuple:
        """(text, byte count) of a c"..." token; the text drops one NUL terminator."""
        first, *escaped = tok.text[2:-1].split("\\")
        out = bytearray(first.encode())
        for part in escaped:
            if not _HEX_PAIR_RE.match(part):
                self.error(f"malformed escape \\{part[:2]} in string constant", tok)
            out.append(int(part[:2], 16))
            out += part[2:].encode()
        size = len(out)
        if out and out[-1] == 0:
            out = out[:-1]
        try:
            return out.decode(), size
        except UnicodeDecodeError:
            self.error("string constant is not valid UTF-8", tok)

    def _parse_array_type(self) -> tuple:
        """An `[N x i8]` type as (its `[` token, N)."""
        tok = self.expect("PUNCT", "[")
        n = self.expect_int()
        self.expect("IDENT", "x")
        self.expect("IDENT", "i8")
        self.expect("PUNCT", "]")
        return tok, n

    def _check_array_size(self, array_type: tuple, size: int):
        tok, n = array_type
        if n != size:
            self.error(f"[{n} x i8] does not match the {size}-byte string", tok)

    # -- types

    def _parse_type(self) -> str:
        """Returns a kind: qubit/result/label/i64/i32/i1/double/void/ptr."""
        tok = self.tok
        if tok.kind == "LOCAL":
            self.next()
            name = tok.text[1:]
            self.expect("PUNCT", "*")
            kind = _POINTER_KINDS.get(name)
            if kind is None:
                self.error(f"unknown pointer type %{name}*", tok)
            return kind
        if tok.kind == "IDENT":
            if tok.text in ("i64", "i32", "i1", "double", "void", "ptr"):
                self.next()
                return tok.text
            if tok.text == "i8":
                self.next()
                self.expect("PUNCT", "*")
                return "label"
        self.error(f"expected a type, found {tok.quoted}", tok)

    # -- declarations and attribute groups

    _PARAM_ATTRS = {"writeonly", "readonly", "readnone", "nocapture", "immarg"}

    def _parse_declare(self):
        self.expect("IDENT", "declare")
        tok = self.tok
        if self._parse_type() not in ("void", "i1"):
            self.error("a declaration must return void or i1", tok)
        name = self.expect("GLOBAL").text[1:]
        self.expect("PUNCT", "(")
        if not self.accept("PUNCT", ")"):
            while True:
                self._parse_type()
                while self.tok.kind == "IDENT" and self.tok.text in self._PARAM_ATTRS:
                    self.next()
                if self.accept("PUNCT", ")"):
                    break
                self.expect("PUNCT", ",")
        self._parse_attr_ref(name)

    def _parse_attr_ref(self, name: str) -> Optional[int]:
        """An optional `#N` after a signature, as N; _finish resolves group N."""
        tok = self.accept("ATTRID")
        if tok is None:
            return None
        gid = self.attr_id(tok)
        self.attr_refs.append((name, gid, tok))
        return gid

    def _parse_attr_group(self):
        self.expect("IDENT", "attributes")
        gid_tok = self.expect("ATTRID")
        gid = self.attr_id(gid_tok)
        if gid in self.attr_groups:
            self.error(f"duplicate attribute group {gid_tok.text}", gid_tok)
        self.expect("PUNCT", "=")
        self.expect("PUNCT", "{")
        bare, kv = set(), []
        while not self.accept("PUNCT", "}"):
            tok = self.tok
            if tok.kind == "STRING":
                key = self.next().text[1:-1]
                if self.accept("PUNCT", "="):
                    kv.append((key, self.expect("STRING").text[1:-1]))
                else:
                    bare.add(key)
            elif tok.kind == "IDENT":
                bare.add(self.next().text)  # e.g. "irreversible" spelled bare
            else:
                self.error(f"unexpected token {tok.quoted} in attribute group", tok)
        self.attr_groups[gid] = AttrGroup(frozenset(bare), tuple(kv))

    # -- metadata / module flags

    def _parse_metadata(self):
        bang = self.expect("PUNCT", "!")
        tok = self.next()
        if tok.kind == "IDENT" and tok.text == "llvm.module.flags":
            self.expect("PUNCT", "=")
            self.expect("PUNCT", "!")
            self.expect("PUNCT", "{")
            while not self.accept("PUNCT", "}"):
                ref = self.expect("PUNCT", "!")
                self.module_flag_refs.append((self.expect_int(), ref))
                self.accept("PUNCT", ",")
        elif tok.kind == "NUMBER":
            node_id = self.integer(tok)
            if node_id in self.metadata_ids:
                self.error(f"duplicate metadata !{node_id}", bang)
            self.metadata_ids.add(node_id)
            self.expect("PUNCT", "=")
            self.expect("PUNCT", "!")
            self.expect("PUNCT", "{")
            self.expect("IDENT", "i32")
            self.expect_int("i32")  # behavior
            self.expect("PUNCT", ",")
            self.expect("PUNCT", "!")
            self.expect("STRING")  # key
            self.expect("PUNCT", ",")
            ty = self.expect("IDENT")
            if ty.text == "i1":
                self._parse_bool()
            elif ty.text in ("i32", "i64"):
                self.expect_int(ty.text)
            else:
                self.error(f"unsupported module-flag value type {ty.quoted}", ty)
            self.expect("PUNCT", "}")
        else:
            self.error(f"unsupported metadata {tok.quoted}", tok)

    # -- function bodies

    def _parse_define(self) -> tuple:
        self.expect("IDENT", "define")
        tok = self.tok
        if self._parse_type() != "void":
            self.error("entry functions must return void", tok)
        name_tok = self.expect("GLOBAL")
        name = name_tok.text[1:]
        if any(f.name == name for f, _ in self.functions):
            self.error(f"duplicate function name @{name}", name_tok)
        self.expect("PUNCT", "(")
        self.expect("PUNCT", ")")
        attr_ref = self._parse_attr_ref(name)
        self.expect("PUNCT", "{")

        self.defined = set()  # local values: LLVM defines each once per function
        self.targets = []  # branch-target tokens, checked once every label is known
        blocks, labels = [], set()
        while True:
            tok = self.accept("LABEL")
            if tok is not None:
                label = tok.text[:-1]
                if label in labels:
                    self.error(f"duplicate block label %{label}", tok)
            elif not blocks:
                label = "entry"  # unlabeled first block gets LLVM's implicit name
            elif self.accept("PUNCT", "}"):
                break
            else:
                self.error(f"expected a label or '}}' after the terminator of block "
                           f"%{label}, found {self.tok.quoted}")
            labels.add(label)
            blocks.append(self._parse_block(label))
        for tok in self.targets:
            if tok.text[1:] not in labels:
                self.error(f"branch to unknown label {tok.text}", tok)
        return FunctionDef(name, tuple(blocks)), attr_ref

    def _parse_block(self, label: str) -> BasicBlock:
        """The instructions after a block's label, up to its terminator."""
        instructions = []
        while not instructions or not isinstance(instructions[-1], TERMINATORS):
            tok = self.tok
            if tok.kind in ("LABEL", "EOF") or tok.text == "}":
                problem = "does not end in a terminator" if instructions else "is empty"
                self.error(f"block %{label} {problem}", tok)
            instructions.append(self._parse_instruction())
        return BasicBlock(label, tuple(instructions))

    def _parse_instruction(self):
        tok = self.tok
        if tok.kind == "LOCAL":
            var = self.next().text
            if var in self.defined:
                self.error(f"multiple definition of local value {var}", tok)
            self.defined.add(var)
            self.expect("PUNCT", "=")
            op = self.tok
            if op.kind != "IDENT" or op.text != "call":
                self.error(f"unsupported instruction {op.quoted}", op)
            return self._parse_call(result_var=var)
        if tok.kind != "IDENT":
            self.error(f"expected an instruction, found {tok.quoted}", tok)
        if tok.text == "call" or tok.text == "tail":
            return self._parse_call(result_var=None)
        if tok.text == "br":
            return self._parse_branch()
        if tok.text == "ret":
            self.next()
            self.expect("IDENT", "void")
            return ReturnVoid()
        self.error(f"unsupported instruction {tok.quoted}", tok)

    def _parse_call(self, result_var) -> Call:
        self.accept("IDENT", "tail")
        self.expect("IDENT", "call")
        tok = self.tok
        ret = self._parse_type()
        if result_var is not None and ret != "i1":
            self.error("only i1-returning calls may bind a result", tok)
        if result_var is None and ret != "void":
            self.error("non-void call result must be bound", tok)
        callee = self.expect("GLOBAL").text[1:]
        self.expect("PUNCT", "(")
        args = []
        if not self.accept("PUNCT", ")"):
            while True:
                args.append(self._parse_operand(callee, len(args)))
                if self.accept("PUNCT", ")"):
                    break
                self.expect("PUNCT", ",")
        return Call(callee, tuple(args), result_var)

    def _parse_branch(self):
        self.expect("IDENT", "br")
        if self.tok.text == "label":
            return Branch(self._parse_target())
        self.expect("IDENT", "i1")
        cond = self._parse_i1()
        self.expect("PUNCT", ",")
        then_label = self._parse_target()
        self.expect("PUNCT", ",")
        return CondBranch(cond, then_label, self._parse_target())

    def _parse_target(self) -> str:
        """`label %name`; _parse_define checks that the function defines it."""
        self.expect("IDENT", "label")
        tok = self.expect("LOCAL")
        self.targets.append(tok)
        return tok.text[1:]

    # -- operands

    def _ptr_kind(self, callee: str, index: int) -> Optional[str]:
        """The kind the callee's registered signature gives a `ptr` at `index`.

        None when the callee is unregistered, the index is past its
        signature, or the signature wants a non-pointer there.
        """
        spec = self.registry.resolve(callee)
        if spec is None or index >= len(spec.operands):
            return None
        kind = spec.operands[index]
        return kind if kind in _PTR_OPERAND_KINDS else None

    def _parse_operand(self, callee: str, index: int):
        type_tok = self.tok
        kind = spelled = self._parse_type()
        if kind == "ptr":
            # an untyped pointer stays a qubit, which validation then reports
            kind = self._ptr_kind(callee, index) or "qubit"
        tok = self.tok

        if kind in ("qubit", "result"):
            if self.accept("IDENT", "null"):
                return Const(kind, 0)
            if self.accept("IDENT", "inttoptr"):
                return Const(kind, self._parse_inttoptr(spelled))
            self.error(f"expected null or inttoptr, found {tok.quoted}", tok)

        if kind == "label":
            if self.accept("IDENT", "null"):
                return Const(kind, None)
            if self.accept("IDENT", "getelementptr"):
                return Const(kind, self._parse_gep())
            if tok.kind == "GLOBAL":
                return Const(kind, self._lookup_global(self.next())[0])
            self.error(f"expected a label constant, found {tok.quoted}", tok)

        if kind in ("i64", "i32"):
            return Const(kind, self.expect_int(kind))

        if kind == "i1":
            return self._parse_i1()

        if kind == "double":
            if tok.kind in ("NUMBER", "HEXNUM"):
                self.next()
                try:
                    return Const(kind, parse_double_literal(tok.text))
                except ParseError as exc:
                    self.error(str(exc), tok)
            self.error(f"expected a double literal, found {tok.quoted}", tok)

        self.error(f"unsupported argument type {type_tok.quoted}", type_tok)

    def _parse_bool(self) -> bool:
        tok = self.tok
        if tok.kind != "IDENT" or tok.text not in ("true", "false"):
            self.error(f"expected 'true' or 'false', found {tok.quoted}", tok)
        return self.next().text == "true"

    def _parse_i1(self):
        """An i1 operand: an SSA name or a `true`/`false` constant."""
        if self.tok.kind == "LOCAL":
            return BoolVar(self.next().text)
        return Const("i1", int(self._parse_bool()))

    def _parse_inttoptr(self, spelled: str) -> int:
        """`(i64 N to T)`, where T is spelled as the operand's type is."""
        self.expect("PUNCT", "(")
        self.expect("IDENT", "i64")
        tok = self.tok
        value = self.expect_int("i64")
        if value < 0:
            self.error("negative qubit/result index", tok)
        self.expect("IDENT", "to")
        tok = self.tok
        if self._parse_type() != spelled:
            self.error("inttoptr target type differs from the operand type", tok)
        self.expect("PUNCT", ")")
        return value

    def _parse_gep(self) -> str:
        """`([N x i8], [N x i8]* @g, i32 0, i32 0)`; the base may be `ptr @g`
        and the indices i64."""
        self.accept("IDENT", "inbounds")
        self.expect("PUNCT", "(")
        array_types = [self._parse_array_type()]
        self.expect("PUNCT", ",")
        if not self.accept("IDENT", "ptr"):
            array_types.append(self._parse_array_type())
            self.expect("PUNCT", "*")
        text, size = self._lookup_global(self.expect("GLOBAL"))
        for array_type in array_types:
            self._check_array_size(array_type, size)
        for _ in range(2):
            self.expect("PUNCT", ",")
            index_type = self.expect("IDENT")
            if index_type.text not in ("i32", "i64"):
                self.error(f"expected 'i32' or 'i64', found {index_type.quoted}", index_type)
            index = self.expect("NUMBER")
            if self.integer(index) != 0:
                self.error(f"getelementptr index must be 0, found {index.text}", index)
        self.expect("PUNCT", ")")
        return text

    def _lookup_global(self, tok) -> tuple:
        """The (text, byte count) of the global `tok` names."""
        name = tok.text[1:]
        if name not in self.globals:
            self.error(f"reference to unknown global @{name}", tok)
        return self.globals[name]

    # -- module assembly

    def _finish(self) -> ProgramModule:
        for name, gid, tok in self.attr_refs:
            if gid not in self.attr_groups:
                self.error(f"@{name} references unknown attribute group {tok.text}", tok)
        for ref, tok in self.module_flag_refs:
            if ref not in self.metadata_ids:
                self.error(f"module flag references unknown metadata !{ref}", tok)
        functions = tuple(
            fn._replace(attrs=self.attr_groups[gid]) if gid is not None else fn
            for fn, gid in self.functions
        )
        return ProgramModule(self.source_name, functions)


def parse_module(source: str, registry: Optional[Registry] = None) -> ProgramModule:
    """Parse textual IR into a validated ProgramModule.

    `registry` (default: default_registry()) types opaque `ptr` operands.
    """
    if registry is None:
        registry = default_registry()
    return _Parser(source, registry).parse()
