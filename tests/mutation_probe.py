"""Apply one small mutant at a time to a module and print those the tests do not catch.

    python3 tests/mutation_probe.py src/equimatch/graphcli.py tests/test_cli.py tests/test_relations.py

The first argument is the module, relative to the repository root; the rest
go to pytest.  Each mutant changes one node of the module's `ast`: a
comparison negated (`<` and `>=`, `<=` and `>`, `==` and `!=`, `in` and
`not in`, `is` and `is not`) or moved across its boundary (`<` and `<=`,
`>` and `>=`), `and` and `or` swapped, a binary or augmented `+` and `-`
swapped, or an integer constant plus one.  The mutant is written back with
`ast.unparse` into a scratch copy of the repository, and pytest runs there
with `-x` and the given arguments.  A run that passes leaves a survivor:
the probe prints its line and what changed, and exits 1 if there is any.

The unmutated module goes through `ast.unparse` too and is run first; if
that fails (a test reading the module's text), the probe stops before any
mutant.  Hypothesis examples are not carried from one mutant to the next
(the copy's `.hypothesis` directory is removed before each run), but a
hypothesis test draws new examples on every run: pass `--hypothesis-seed`
among the pytest arguments for a repeatable probe.  Standard library only.
pytest does not collect this file (its name does not start with `test_`),
and neither tier-1 nor CI runs it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# (negation, boundary shift) of each comparison operator
COMPARE_MUTANTS = {
    ast.Lt: (ast.GtE, ast.LtE),
    ast.LtE: (ast.Gt, ast.Lt),
    ast.Gt: (ast.LtE, ast.GtE),
    ast.GtE: (ast.Lt, ast.Gt),
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}


def mutants(tree: ast.AST):
    """Every mutant of `tree` as (line, description, apply), in `ast.walk` order.

    `apply()` mutates `tree` in place; a caller applies one mutant to a
    fresh parse, so the order is the same on every parse.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for new in COMPARE_MUTANTS[type(op)]:
                    def apply(node=node, i=i, new=new):
                        node.ops = [*node.ops[:i], new(), *node.ops[i + 1:]]
                    yield node.lineno, f"`{SYMBOLS[type(op)]}` -> `{SYMBOLS[new]}`", apply
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]

            def apply(node=node, new=new):
                node.op = new()
            yield node.lineno, f"`{SYMBOLS[type(node.op)]}` -> `{SYMBOLS[new]}`", apply
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            def apply(node=node):
                node.value += 1
            yield node.lineno, f"`{node.value}` -> `{node.value + 1}`", apply


def run_tests(copy: Path, pytest_args: list[str], timeout: float | None) -> tuple[int | None, float]:
    """pytest's exit code in the copy (None on a timeout) and its wall time."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(args, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module, pytest_args = Path(argv[0]), argv[1:]
    source = (REPO / module).read_text()
    lines = source.splitlines()
    count = sum(1 for _ in mutants(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        code, baseline = run_tests(copy, pytest_args, None)
        if code != 0:
            print(f"the unmutated module fails (pytest exit {code}); no mutant run", file=sys.stderr)
            return 2
        print(f"{module}: {count} mutants, baseline {baseline:.1f}s", file=sys.stderr)
        survivors = []
        for index in range(count):
            tree = ast.parse(source)
            line, what, apply = next(m for i, m in enumerate(mutants(tree)) if i == index)
            apply()
            target.write_text(ast.unparse(tree) + "\n")
            code, elapsed = run_tests(copy, pytest_args, 10 * baseline + 60)
            verdict = "survived" if code == 0 else "timeout" if code is None else "killed"
            print(f"[{index + 1}/{count}] line {line}: {what}: {verdict} ({elapsed:.1f}s)", file=sys.stderr)
            if code == 0:
                survivors.append(f"{module}:{line}: {what}    {lines[line - 1].strip()}")
    print(f"{len(survivors)} of {count} mutants survived")
    for survivor in survivors:
        print(survivor)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
