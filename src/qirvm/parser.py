"""Recursive-descent parser for the QIR textual-assembly subset.

Covers exactly the constructs a base-profile program needs: opaque type
declarations, global constant strings, one or more function definitions
built from call/br/ret instructions, external declarations, attribute
groups, and module flags.  Anything else (phi, switch, alloca,
arithmetic, ...) is a hard ParseError rather than a silent skip.

Both typed-pointer (``%Qubit*``) and opaque-pointer (``ptr``) spellings
are accepted and normalized to the same `Const` operands: a ``ptr``
operand takes its kind from the callee's operand signature in the
registry.  A label operand is resolved to its global's text here.
"""

from __future__ import annotations

import re
import struct
from typing import Optional

from .errors import ParseError
from .ir import (
    AttrGroup,
    BasicBlock,
    BoolVar,
    Branch,
    Call,
    CondBranch,
    Const,
    FunctionDecl,
    FunctionDef,
    ModuleFlag,
    ProgramModule,
    ReturnVoid,
    TERMINATORS,
)
from .registry import Registry, default_registry

# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>;[^\n]*)
  | (?P<NL>\n)
  | (?P<CSTRING>c"(?:[^"\\]|\\.)*")
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<LOCAL>%[A-Za-z0-9._$\-]+)
  | (?P<GLOBAL>@[A-Za-z0-9._$\-]+)
  | (?P<ATTRID>\#[0-9]+)
  | (?P<HEXNUM>0x[0-9A-Fa-f]+)
  | (?P<NUMBER>-?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)
  | (?P<IDENT>[A-Za-z_$.][A-Za-z0-9_$.]*)
  | (?P<PUNCT>[()\[\]{},=*:!])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def _tokenize(source: str) -> list:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("EOF", "", line, 1))
    return tokens


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


_HEX_PAIR_RE = re.compile(r"[0-9A-Fa-f]{2}")


def _decode_cstring(tok: Token) -> tuple:
    """(text, byte count) of a c"..." token; the text drops one NUL terminator."""
    first, *escaped = tok.text[2:-1].split("\\")
    out = bytearray(first.encode())
    for part in escaped:
        if not _HEX_PAIR_RE.match(part):
            raise ParseError(f"malformed escape \\{part[:2]} in string constant",
                             tok.line, tok.column)
        out.append(int(part[:2], 16))
        out += part[2:].encode()
    size = len(out)
    if out and out[-1] == 0:
        out = out[:-1]
    try:
        return out.decode(), size
    except UnicodeDecodeError:
        raise ParseError("string constant is not valid UTF-8", tok.line, tok.column) from None


# ---------------------------------------------------------------------------
# Parser

_POINTER_KINDS = {"Qubit": "qubit", "Result": "result"}
_PTR_OPERAND_KINDS = ("qubit", "result", "label")


class _Parser:
    def __init__(self, source: str, registry: Registry):
        self.tokens = _tokenize(source)
        self.registry = registry
        self.pos = 0
        self.source_name = ""
        self.globals = {}  # name -> (text, byte count)
        self.functions = []
        self.declarations = []
        self.attribute_groups = []
        self.metadata_nodes = {}
        self.module_flag_refs = []  # (node id, token)
        self.attr_refs = []  # (function name, #N token)

    # -- token plumbing

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.text!r}", tok)
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def integer(self, tok: Token) -> int:
        if "." in tok.text:
            self.error(f"expected an integer, found {tok.text!r}", tok)
        return int(tok.text)

    def expect_int(self) -> int:
        return self.integer(self.expect("NUMBER"))

    # -- top level

    def parse(self) -> ProgramModule:
        while self.peek().kind != "EOF":
            tok = self.peek()
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
                self.declarations.append(self._parse_declare())
            elif tok.kind == "IDENT" and tok.text == "attributes":
                self._parse_attr_group()
            elif tok.kind == "PUNCT" and tok.text == "!":
                self._parse_metadata()
            else:
                self.error(f"unsupported top-level construct {tok.text!r}", tok)
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
        while self.peek().kind == "IDENT" and self.peek().text != "constant":
            self.next()  # linkage / unnamed_addr qualifiers
        self.expect("IDENT", "constant")
        array_type = self._parse_array_type()
        payload, size = _decode_cstring(self.expect("CSTRING"))
        self._check_array_size(array_type, size)
        if self.accept("PUNCT", ","):
            self.expect("IDENT", "align")
            self.expect("NUMBER")
        self.globals[name] = payload, size

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
        tok = self.peek()
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
        self.error(f"expected a type, found {tok.text!r}", tok)

    # -- declarations and attribute groups

    _PARAM_ATTRS = {"writeonly", "readonly", "readnone", "nocapture", "immarg"}

    def _parse_declare(self) -> FunctionDecl:
        self.expect("IDENT", "declare")
        ret = self._parse_type()
        if ret not in ("void", "i1"):
            self.error(f"unsupported declaration return type {ret!r}")
        name = self.expect("GLOBAL").text[1:]
        self.expect("PUNCT", "(")
        params = []
        if not self.accept("PUNCT", ")"):
            while True:
                kind = self._parse_type()
                if kind == "ptr":
                    kind = self._ptr_kind(name, len(params)) or "ptr"
                params.append(kind)
                while self.peek().kind == "IDENT" and self.peek().text in self._PARAM_ATTRS:
                    self.next()
                if self.accept("PUNCT", ")"):
                    break
                self.expect("PUNCT", ",")
        return FunctionDecl(name, tuple(params), ret, self._parse_attr_ref(name))

    def _parse_attr_ref(self, name: str) -> Optional[int]:
        """An optional `#N` after a signature; _finish checks group N exists."""
        tok = self.accept("ATTRID")
        if tok is None:
            return None
        self.attr_refs.append((name, tok))
        return int(tok.text[1:])

    def _parse_attr_group(self):
        self.expect("IDENT", "attributes")
        gid = int(self.expect("ATTRID").text[1:])
        self.expect("PUNCT", "=")
        self.expect("PUNCT", "{")
        bare, kv = set(), []
        while not self.accept("PUNCT", "}"):
            tok = self.peek()
            if tok.kind == "STRING":
                key = self.next().text[1:-1]
                if self.accept("PUNCT", "="):
                    kv.append((key, self.expect("STRING").text[1:-1]))
                else:
                    bare.add(key)
            elif tok.kind == "IDENT":
                bare.add(self.next().text)  # e.g. "irreversible" spelled bare
            else:
                self.error(f"unexpected token {tok.text!r} in attribute group", tok)
        self.attribute_groups.append((gid, AttrGroup(frozenset(bare), tuple(kv))))

    # -- metadata / module flags

    def _parse_metadata(self):
        self.expect("PUNCT", "!")
        tok = self.next()
        if tok.kind == "IDENT" and tok.text == "llvm.module.flags":
            self.expect("PUNCT", "=")
            self.expect("PUNCT", "!")
            self.expect("PUNCT", "{")
            while not self.accept("PUNCT", "}"):
                bang = self.expect("PUNCT", "!")
                self.module_flag_refs.append((self.expect_int(), bang))
                self.accept("PUNCT", ",")
        elif tok.kind == "NUMBER":
            node_id = self.integer(tok)
            self.expect("PUNCT", "=")
            self.expect("PUNCT", "!")
            self.expect("PUNCT", "{")
            self.expect("IDENT", "i32")
            behavior = self.expect_int()
            self.expect("PUNCT", ",")
            self.expect("PUNCT", "!")
            key = self.expect("STRING").text[1:-1]
            self.expect("PUNCT", ",")
            ty = self.expect("IDENT").text
            if ty == "i1":
                value = self._parse_bool()
            elif ty in ("i32", "i64"):
                value = self.expect_int()
            else:
                self.error(f"unsupported module-flag value type {ty!r}")
            self.expect("PUNCT", "}")
            self.metadata_nodes[node_id] = ModuleFlag(behavior, key, value)
        else:
            self.error(f"unsupported metadata {tok.text!r}", tok)

    # -- function bodies

    def _parse_define(self) -> FunctionDef:
        self.expect("IDENT", "define")
        ret = self._parse_type()
        if ret != "void":
            self.error("entry functions must return void")
        name_tok = self.expect("GLOBAL")
        name = name_tok.text[1:]
        if any(f.name == name for f in self.functions):
            self.error(f"duplicate function name @{name}", name_tok)
        self.expect("PUNCT", "(")
        self.expect("PUNCT", ")")
        attr = self._parse_attr_ref(name)
        self.expect("PUNCT", "{")

        blocks = []
        label, instructions = None, []
        first = True
        while not self.accept("PUNCT", "}"):
            tok = self.peek()
            if tok.kind == "EOF":
                self.error("unexpected end of input inside function body", tok)
            if (tok.kind in ("IDENT", "NUMBER")) and self.peek(1).text == ":" and self.peek(1).kind == "PUNCT":
                if not first:
                    blocks.append(self._close_block(label, instructions, name_tok))
                label, instructions = tok.text, []
                first = False
                self.next()
                self.next()
                continue
            if first:
                # unlabeled first block gets LLVM's implicit name
                label, first = "entry", False
            instructions.append(self._parse_instruction())
        blocks.append(self._close_block(label, instructions, name_tok))

        labels = [b.label for b in blocks]
        if len(set(labels)) != len(labels):
            self.error(f"duplicate block label in @{name}", name_tok)
        for b in blocks:
            term = b.terminator
            targets = []
            if isinstance(term, Branch):
                targets = [term.target_label]
            elif isinstance(term, CondBranch):
                targets = [term.then_label, term.else_label]
            for t in targets:
                if t not in labels:
                    self.error(f"branch to unknown label %{t} in @{name}", name_tok)
        return FunctionDef(name, tuple(blocks), attr)

    def _close_block(self, label, instructions, where) -> BasicBlock:
        if label is None or not instructions:
            self.error("empty basic block", where)
        for ins in instructions[:-1]:
            if isinstance(ins, TERMINATORS):
                self.error(f"terminator before end of block %{label}", where)
        if not isinstance(instructions[-1], TERMINATORS):
            self.error(f"block %{label} does not end in a terminator", where)
        return BasicBlock(label, tuple(instructions))

    def _parse_instruction(self):
        tok = self.peek()
        if tok.kind == "LOCAL":
            var = self.next().text
            self.expect("PUNCT", "=")
            op = self.peek()
            if op.kind != "IDENT" or op.text != "call":
                self.error(f"unsupported instruction {op.text!r}", op)
            return self._parse_call(result_var=var)
        if tok.kind != "IDENT":
            self.error(f"expected an instruction, found {tok.text!r}", tok)
        if tok.text == "call" or tok.text == "tail":
            return self._parse_call(result_var=None)
        if tok.text == "br":
            return self._parse_branch()
        if tok.text == "ret":
            self.next()
            self.expect("IDENT", "void")
            return ReturnVoid()
        self.error(f"unsupported instruction {tok.text!r}", tok)

    def _parse_call(self, result_var) -> Call:
        self.accept("IDENT", "tail")
        self.expect("IDENT", "call")
        ret = self._parse_type()
        if result_var is not None and ret != "i1":
            self.error("only i1-returning calls may bind a result")
        if result_var is None and ret != "void":
            self.error("non-void call result must be bound")
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
        if self.accept("IDENT", "label"):
            return Branch(self.expect("LOCAL").text[1:])
        self.expect("IDENT", "i1")
        cond = self._parse_i1()
        self.expect("PUNCT", ",")
        self.expect("IDENT", "label")
        then_label = self.expect("LOCAL").text[1:]
        self.expect("PUNCT", ",")
        self.expect("IDENT", "label")
        else_label = self.expect("LOCAL").text[1:]
        return CondBranch(cond, then_label, else_label)

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
        kind = self._parse_type()
        if kind == "ptr":
            # an untyped pointer stays a qubit, which validation then reports
            kind = self._ptr_kind(callee, index) or "qubit"
        tok = self.peek()

        if kind in ("qubit", "result"):
            if self.accept("IDENT", "null"):
                return Const(kind, 0)
            if self.accept("IDENT", "inttoptr"):
                return Const(kind, self._parse_inttoptr(tok))
            self.error(f"expected null or inttoptr, found {tok.text!r}", tok)

        if kind == "label":
            if self.accept("IDENT", "null"):
                return Const(kind, None)
            if self.accept("IDENT", "getelementptr"):
                return Const(kind, self._parse_gep(tok))
            if tok.kind == "GLOBAL":
                return Const(kind, self._lookup_global(self.next())[0])
            self.error(f"expected a label constant, found {tok.text!r}", tok)

        if kind in ("i64", "i32"):
            return Const(kind, self.expect_int())

        if kind == "i1":
            return self._parse_i1()

        if kind == "double":
            if tok.kind in ("NUMBER", "HEXNUM"):
                self.next()
                try:
                    return Const(kind, parse_double_literal(tok.text))
                except ParseError as exc:
                    self.error(str(exc), tok)
            self.error(f"expected a double literal, found {tok.text!r}", tok)

        self.error(f"unsupported argument type {kind!r}", tok)

    def _parse_bool(self) -> bool:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in ("true", "false"):
            self.error(f"expected 'true' or 'false', found {tok.text!r}", tok)
        return self.next().text == "true"

    def _parse_i1(self):
        """An i1 operand: an SSA name or a `true`/`false` constant."""
        if self.peek().kind == "LOCAL":
            return BoolVar(self.next().text)
        return Const("i1", int(self._parse_bool()))

    def _parse_inttoptr(self, tok) -> int:
        self.expect("PUNCT", "(")
        self.expect("IDENT", "i64")
        value = self.expect_int()
        if value < 0:
            self.error("negative qubit/result index", tok)
        self.expect("IDENT", "to")
        # target type: %Qubit* / %Result* / ptr
        if self.peek().kind == "LOCAL":
            self.next()
            self.expect("PUNCT", "*")
        else:
            self.expect("IDENT", "ptr")
        self.expect("PUNCT", ")")
        return value

    def _parse_gep(self, tok) -> str:
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
                self.error(f"expected 'i32' or 'i64', found {index_type.text!r}", index_type)
            self.expect("NUMBER")
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
        group_ids = {gid for gid, _ in self.attribute_groups}
        for name, tok in self.attr_refs:
            if int(tok.text[1:]) not in group_ids:
                self.error(f"@{name} references unknown attribute group {tok.text}", tok)
        flags = []
        for ref, tok in self.module_flag_refs:
            if ref not in self.metadata_nodes:
                self.error(f"module flag references unknown metadata !{ref}", tok)
            flags.append(self.metadata_nodes[ref])
        return ProgramModule(
            source_name=self.source_name,
            functions=tuple(self.functions),
            declarations=tuple(self.declarations),
            attribute_groups=tuple(self.attribute_groups),
            module_flags=tuple(flags),
        )


def parse_module(source: str, registry: Optional[Registry] = None) -> ProgramModule:
    """Parse textual IR into a validated ProgramModule.

    `registry` (default: default_registry()) types opaque `ptr` operands.
    """
    if registry is None:
        registry = default_registry()
    return _Parser(source, registry).parse()
