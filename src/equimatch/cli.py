"""Command-line front end and deterministic JSON reporting.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or input
error, 3 every requested check was skipped (budget exceeded), 4 internal
error (a fault in equimatch; the traceback goes to stderr).

JSON reports are byte-identical across runs for fixed inputs: ordering is
canonical everywhere and wall-clock timings are printed to the terminal
only, never serialized.

This module parses and checks every argument, and runs `boolean`.  The
commands that read a graph, and the `verify` check table, live in
`graphcli`, which `run` imports only for them: `--version` compiles this
module alone, and `boolean` adds only `boollattice` and `gram` (and
`exactalg` for a level whose identity fails).

A process started by `main` (`python -m equimatch` or the console script)
does no cyclic garbage collection: `main` turns the collector off before
`run` and freezes the heap after it, so neither the run nor interpreter
teardown scans the millions of small acyclic tuples a `verify` allocates.
Nothing is lost by that: the library builds no reference cycles, so the
collector would find no garbage (a test runs one report of every check
with the collector off and finds that `gc.collect()` returns 0).  The one
cycle left is argparse's parser, about 300 objects once per process.
`run` itself leaves the collector as it was, for tests and library callers
that call it in-process.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 10**6
# the names of `graphcli.CHECKS`, here so that parsing loads no graph module
ALL_CHECKS = ("diagram", "equivariant", "f-equivariance", "injective", "nonneg", "parts")


def _check_list(text: str) -> list[str]:
    """The sorted distinct names of a comma-separated check list; each must be a check."""
    names = set(text.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty check name in {text!r}")
    unknown = sorted(names.difference(ALL_CHECKS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown checks: {', '.join(unknown)}")
    return sorted(names)


def _budget(text: str) -> int:
    """A positive budget: the most Φ nonzeros, or f-equivariance pairs times |Aut|, per slot."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_source(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="generator spec, e.g. cycle:6")
    src.add_argument("--file", help="edge-list file")


def emit(report: dict, json_path: str | None) -> None:
    import json  # not at the top: `--version` and `gen` write no report

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if json_path:
        Path(json_path).write_text(text)
    else:
        sys.stdout.write(text)


def report_exit(report: dict) -> int:
    return {"pass": 0, "fail": 1, "skipped": 3}[report["overall"]]


def cmd_boolean(args) -> int:
    # imported here, so `--version` never compiles it
    from . import boollattice

    n = args.n
    started = time.monotonic()
    rep = boollattice.verify_lemma(n)
    records = []
    for lv in rep.levels:
        records.append(
            {
                "check": "lemma-rank",
                "ell": lv.i,
                "k": lv.i + 1,
                "status": "pass" if lv.passed else "fail",
                "details": {
                    "dim_src": lv.dim_src,
                    "dim_dst": lv.dim_dst,
                    "rank": lv.rank,
                    "injective": lv.injective,
                    "injectivity_expected": lv.injectivity_expected,
                },
            }
        )
    for i in range(n // 2 + 1):
        fam = boollattice.symmetric_chains(n, i)
        ok = boollattice.chains_are_valid(fam)
        records.append(
            {
                "check": "chains",
                "ell": i,
                "k": n - i,
                "status": "pass" if ok else "fail",
                "details": {"count": len(fam.chains)},
            }
        )
    records.sort(key=lambda r: (r["check"], r["ell"], r["k"]))
    overall = "fail" if any(r["status"] == "fail" for r in records) else "pass"
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "equimatch",
        "version": __version__,
        "boolean_lattice": {"n": n},
        "checks": records,
        "overall": overall,
    }
    emit(report, args.json)
    paths = [lv.path for lv in rep.levels]
    counts = " / ".join(f"{p} {paths.count(p)}" for p in ("identity", "mod-p", "bareiss"))
    print(
        f"boolean n={n}: {len(paths)} levels, {counts}, {time.monotonic() - started:.2f}s",
        file=sys.stderr,
    )
    return report_exit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equimatch",
        description="Exact verification of matching-space injections on small graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit an edge-list file for a generator spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output")

    p = sub.add_parser("count", help="matching numbers and numeric log-concavity")
    _add_source(p)

    p = sub.add_parser("aut", help="automorphism group order and elements")
    _add_source(p)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_source(p)
    p.add_argument("--ell", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true", help="all (ell, k) slots (default)")
    p.add_argument(
        "--check",
        type=_check_list,
        default=list(ALL_CHECKS),
        help="comma-separated subset of: " + ",".join(ALL_CHECKS),
    )
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--json", help="write the JSON report here instead of stdout")

    p = sub.add_parser("boolean", help="Boolean-lattice rank and chain suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json")

    p = sub.add_parser("transfer", help="decompose a matching pair and list neighbors")
    _add_source(p)
    p.add_argument("--blue", required=True, help="comma-separated u-v edge tokens")
    p.add_argument("--pink", required=True, help="comma-separated u-v edge tokens")
    p.add_argument("--kratt", action="store_true", help="also apply the single-output map")

    p = sub.add_parser("batch", help="one verify report per spec line")
    p.add_argument("--specs", required=True)
    p.add_argument("--json", required=True, help="output directory")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    try:
        if args.command == "boolean":
            return cmd_boolean(args)
        # every other command runs on a graph; only they compile that side
        from . import graphcli

        return getattr(graphcli, f"cmd_{args.command}")(args)
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
    """The process entry: `run` with the cyclic collector off, then exit with its code.

    Reference counting frees everything the library drops; the collector
    would only rescan the live heap, during the run and once more at exit.
    """
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
