"""Command-line entry point: parse -> validate -> run -> JSON.

Exit codes: 0 ok, 64 usage, 65 parse error, 66 unreadable input,
70 runtime fault, 73 unwritable output, 78 validation errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .analyze import find_entry, validate_profile
from .errors import EntryPointError, ParseError, RuntimeFault
from .interpreter import DEFAULT_SHOTS, RunConfig, run_program
from .parser import parse_module
from .recorder import emit_json
from .registry import default_registry

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70
EX_CANTCREAT = 73
EX_CONFIG = 78


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EX_USAGE)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qirvm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qirvm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a textual QIR program")
    run.add_argument("input", help="path to the .ll program")
    run.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--backend", default="statevector")
    run.add_argument("--entry", default=None, help="entry function name override")
    run.add_argument("--output", default=None, help="write JSON here instead of stdout")
    run.add_argument("--per-shot", action="store_true", help="include per-shot bitstrings")
    run.add_argument("--validate-only", action="store_true",
                     help="stop after static validation; no execution")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 64 via our error() override
        return EX_OK if exc.code in (0, None) else EX_USAGE

    try:
        config = RunConfig(args.shots, args.seed, args.backend, args.per_shot)
    except ValueError as exc:  # RunConfig's message begins with the option's name
        print(f"error: --{exc}", file=sys.stderr)
        return EX_USAGE

    try:
        with open(args.input, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except UnicodeDecodeError as exc:
        print(f"error: {args.input}: not UTF-8 text: {exc}", file=sys.stderr)
        return EX_DATAERR

    registry = default_registry()
    try:
        module = parse_module(source, registry)
    except ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EX_DATAERR

    try:
        entry = find_entry(module, override=args.entry)
    except EntryPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_CONFIG

    diagnostics = validate_profile(module, entry, registry)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return EX_CONFIG
    if args.validate_only:
        return EX_OK

    try:
        result = run_program(module, entry, registry.freeze(), config)
    except RuntimeFault as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EX_SOFTWARE

    text = emit_json(result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EX_CANTCREAT
    else:
        sys.stdout.write(text)
    return EX_OK


def entry() -> None:
    raise SystemExit(main())
