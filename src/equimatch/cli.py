"""Command-line front end and deterministic JSON reporting.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or input
error, 3 every requested check was skipped (budget exceeded), 4 internal
error (a fault in equimatch; the traceback goes to stderr), 120 stdout could
not be written.

JSON reports are byte-identical across runs for fixed inputs: ordering is
canonical everywhere and wall-clock timings are printed to the terminal
only, never serialized.

This module parses and checks every argument and runs no command: the
table `COMMANDS` names the module that holds each one, and `run` imports
that module only for its command.  `verify` and `batch` live in
`graphcli`, `gen`, `count`, `aut` and `transfer` in `graphtools`, and
`boolean` in `boollattice`, so each command compiles only the code it
runs: `--version` compiles this module alone, `boolean` adds only
`boollattice`, `brackets` and `gram` (and `exactalg` for a level whose
identity fails), and `verify` and `batch` never compile the Boolean suite,
the other commands or the parser used for help.

The command line is described once, by `COMMANDS`.  `run` reads argv with
`_fast_parse`, which accepts only the plain shape of a command (its own
options spelled in full, each once, each value in its own token) and
builds the namespace argparse would build.  Anything else (`--help`,
`--opt=value`, an abbreviation, an unknown or repeated token, a missing
or bad value) goes to `usage.build_parser`, the argparse parser built
from the same table, which prints the help or the usage error and its
exit code.  So a command that runs never loads `argparse`, `gettext` or
`locale`, whose import and parser construction cost as much as the rest
of the front end; only help and usage errors pay for them.

A process started by `main` (`python -m equimatch` or the console script)
does no cyclic garbage collection and no interpreter teardown: `main`
turns the collector off before `run`, then flushes stdout and stderr and
ends the process by `os._exit`, so neither the run nor the exit scans or
frees the millions of small acyclic tuples a `verify` allocates, and no
`atexit` handler runs (the program registers none).  Nothing is lost by
that: the library builds no reference cycles, so the collector would find
no garbage (a test runs one report of every check with the collector off
and finds that `gc.collect()` returns 0), and every file the program
writes is closed before `run` returns.  The one cycle left is argparse's
parser, about 300 objects, built only for help and usage errors.  A write
to stdout that fails (a closed pipe), in `write_stdout` or in `main`'s
flush, ends the process with 120, the status the interpreter's own exit
gives.  `run` itself leaves the collector as it was, for tests and library
callers that call it in-process.

Every report is built by `make_report`, the one code that knows its
format, from what was checked and its (check, ell, k, status, details)
records.  It is written by `report_text`, which gives the bytes of
`json.dumps(report, indent=2, sort_keys=True)` without importing `json`.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from . import __version__

SCHEMA_VERSION = 1
RECORD_KEYS = ("check", "ell", "k", "status", "details")
DEFAULT_BUDGET = 10**6
# the names of `graphcli.CHECKS`, here so that parsing loads no graph module
ALL_CHECKS = ("diagram", "equivariant", "f-equivariance", "injective", "nonneg", "parts")


def _type_error(message: str) -> Exception:
    """argparse's `ArgumentTypeError`, which argparse prints as "argument --opt: message"."""
    from argparse import ArgumentTypeError  # here, so that a good value never loads argparse

    return ArgumentTypeError(message)


def _check_list(text: str) -> list[str]:
    """The sorted distinct names of a comma-separated check list; each must be a check."""
    names = set(text.split(","))
    if "" in names:
        raise _type_error(f"empty check name in {text!r}")
    unknown = sorted(names.difference(ALL_CHECKS))
    if unknown:
        raise _type_error(f"unknown checks: {', '.join(unknown)}")
    return sorted(names)


def _budget(text: str) -> int:
    """A positive per-slot budget on each check's work, tested before any runs (`graphcli.CHECKS`)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise _type_error(f"must be a positive integer, got {text!r}")
    return value


class Option(
    namedtuple(
        "Option",
        "flag short type default store_true required help",
        defaults=(None, None, None, False, False, None),
    )
):
    """One argument of a command, as `add_argument` takes it; a positional's flag has no dash."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-")


class Command(namedtuple("Command", "help options module source", defaults=(False,))):
    """A command's help, its `Option`s, and `module`, the module that holds
    `cmd_<name>`, imported only when the command runs; `source` is the
    required choice of --gen or --file, listed before the options."""

    __slots__ = ()

    @property
    def arguments(self) -> tuple[Option, ...]:
        return (*SOURCE, *self.options) if self.source else self.options


SOURCE = (
    Option("--gen", help="generator spec, e.g. cycle:6"),
    Option("--file", help="edge-list file"),
)
BUDGET = Option("--budget", type=_budget, default=DEFAULT_BUDGET)

# the whole command line, in the order `--help` lists it
COMMANDS = {
    "gen": Command(
        "emit an edge-list file for a generator spec",
        (Option("spec"), Option("--output", short="-o")),
        module="graphtools",
    ),
    "count": Command(
        "matching numbers and numeric log-concavity", (), module="graphtools", source=True
    ),
    "aut": Command("automorphism group order and elements", (), module="graphtools", source=True),
    "verify": Command(
        "run the verification suite",
        (
            Option("--ell", type=int),
            Option("--k", type=int),
            Option("--all", default=False, store_true=True, help="all (ell, k) slots (default)"),
            Option(
                "--check",
                type=_check_list,
                default=list(ALL_CHECKS),
                help="comma-separated subset of: " + ",".join(ALL_CHECKS),
            ),
            BUDGET,
            Option("--json", help="write the JSON report here instead of stdout"),
        ),
        module="graphcli",
        source=True,
    ),
    "boolean": Command(
        "Boolean-lattice rank and chain suite",
        (Option("--n", type=int, required=True), Option("--json")),
        module="boollattice",
    ),
    "transfer": Command(
        "decompose a matching pair and list neighbors",
        (
            Option("--blue", required=True, help="comma-separated u-v edge tokens"),
            Option("--pink", required=True, help="comma-separated u-v edge tokens"),
            Option("--kratt", default=False, store_true=True, help="also apply the single-output map"),
        ),
        module="graphtools",
        source=True,
    ),
    "batch": Command(
        "one verify report per spec line",
        (
            Option("--specs", required=True),
            Option("--json", required=True, help="output directory"),
            BUDGET,
        ),
        module="graphcli",
    ),
}


def report_text(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True) + "\\n"`, byte for byte, without the `json` package.

    A report holds dicts with str keys, lists, tuples, str, bool, int and
    None; any other value, a float included, raises TypeError.  Importing
    `json` compiles its decoder's regexes, and its indenting encoder is
    pure Python anyway, so a report process pays only for this writer.
    """
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter built without the `_json` accelerator
        from json.encoder import encode_basestring_ascii as quote
    out: list[str] = []
    _write(report, "\n", out.append, quote)
    out.append("\n")
    return "".join(out)


def _write(v, newline: str, write, quote) -> None:
    """Write `v` as JSON, its nested lines starting with `newline` plus two spaces per level."""
    if isinstance(v, str):
        write(quote(v))
    elif v is None:
        write("null")
    elif v is True:
        write("true")
    elif v is False:
        write("false")
    elif isinstance(v, int):
        write(int.__repr__(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in v:
            write(sep)
            _write(item, inner, write, quote)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(v, dict):
        if not v:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(v):
            write(sep)
            write(quote(key))  # a key that is no str raises TypeError here
            write(": ")
            _write(v[key], inner, write, quote)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"a report holds no {type(v).__name__}")


class StdoutError(Exception):
    """A write to stdout failed; `run` returns 120 for it, as for `main`'s failed flush."""


def write_stdout(text: str) -> None:
    """Every command's output to stdout; an `OSError` there is no input error but a `StdoutError`."""
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise StdoutError(exc) from exc


def emit(report: dict, json_path: str | None) -> str:
    """Write the report to the file `json_path`, or else to stdout; return its overall status."""
    text = report_text(report)
    if json_path:
        Path(json_path).write_text(text)
    else:
        write_stdout(text)
    return report["overall"]


def overall(statuses) -> str:
    """fail if any status is "fail", skipped if every one is "skipped" (and there is one), else pass."""
    statuses = set(statuses)
    return "fail" if "fail" in statuses else ("skipped" if statuses == {"skipped"} else "pass")


def make_report(subject: dict, records) -> dict:
    """The report of `subject`, the keys that name what was checked, and of
    its (check, ell, k, status, details) records, sorted by (check, ell, k)."""
    records = sorted(records, key=lambda r: r[:3])
    return {
        "schema": SCHEMA_VERSION,
        "tool": "equimatch",
        "version": __version__,
        **subject,
        "checks": [dict(zip(RECORD_KEYS, r)) for r in records],
        "overall": overall(r[3] for r in records),
    }


def report_exit(status: str) -> int:
    """The exit code of an overall status."""
    return {"pass": 0, "fail": 1, "skipped": 3}[status]


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build from a plain argv, or None to leave argv to argparse.

    Plain means: a command, then only its own options spelled in full, each
    at most once, each value in the next token and not starting with "-",
    its positional, every required argument, exactly one of --gen and
    --file, and values its converters accept.  Whatever is not plain, help
    included, argparse parses, or refuses with its own message.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    arguments = command.arguments
    by_flag = {flag: opt for opt in arguments for flag in (opt.flag, opt.short) if flag}
    positionals = [opt for opt in arguments if not opt.flag.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            opt, value = positionals.pop(0), token
        else:
            opt = by_flag.get(token)
            if opt is None or opt.dest in given:
                return None
            if opt.store_true:
                given[opt.dest] = True
                continue
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        if opt.type is not None:
            try:
                value = opt.type(value)
            except Exception:  # argparse calls the converter again and reports the error
                return None
        given[opt.dest] = value
    if positionals or any(opt.required and opt.dest not in given for opt in arguments):
        return None
    if command.source and sum(opt.dest in given for opt in SOURCE) != 1:
        return None
    return SimpleNamespace(
        command=argv[0], **{opt.dest: given.get(opt.dest, opt.default) for opt in arguments}
    )


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv == ["--version"]:
            write_stdout(f"{__version__}\n")  # the line argparse's version action prints
            return 0
        args = _fast_parse(argv)
        if args is None:
            from .usage import build_parser  # help and usage errors only

            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return exc.code if exc.code in (0, 2) else 2
        # a slot's own arguments are refused before the matchings are enumerated
        if args.command == "verify" and (args.ell, args.k) != (None, None):
            if None in (args.ell, args.k):
                print("--ell and --k must be given together", file=sys.stderr)
                return 2
            if args.all:
                print("--all runs every slot; it cannot be given with --ell and --k", file=sys.stderr)
                return 2
        name = f"{__package__}.{COMMANDS[args.command].module}"
        __import__(name)  # not `importlib.import_module`, whose imports `-X importtime` omits
        return getattr(sys.modules[name], f"cmd_{args.command}")(args)
    except StdoutError:
        return 120
    except (ValueError, OSError) as exc:
        # bad input: every input error of the library is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # an InternalError or any other fault of the program itself: its own
        # exit code, so it is never read as a failed check (1) or bad input (2)
        import traceback

        traceback.print_exc()
        print("internal error: this is a bug in equimatch", file=sys.stderr)
        return 4


def main() -> None:
    """The process entry: `run` with the cyclic collector off, then end the process with its code.

    Reference counting frees everything the library drops, so the collector
    would only rescan the live heap.  The process ends by `os._exit` once
    stdout and stderr are flushed, so interpreter teardown, which frees
    every object one by one, never runs.
    """
    gc.disable()
    code = run()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            try:
                stream.flush()
            except OSError:  # a closed pipe: the status the interpreter's own exit gives
                code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
