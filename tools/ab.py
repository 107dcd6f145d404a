"""Whole-process A/B timing of `python -m equimatch` on two source trees.

    python3 tools/ab.py BASE HEAD --pairs 5 --out BENCH_x.json -- "verify --gen complete:9" ...

Each argv line runs as `python -m equimatch ARGV` in a fresh process, with
PYTHONPATH set to the tree's `src` and PYTHONHASHSEED=0, stdout to a file
and stderr discarded.  Both trees' `src` is byte-compiled first
(`python -m compileall -q`, which writes bytecode even under
PYTHONDONTWRITEBYTECODE): a tree whose bytecode is stale would otherwise
recompile its changed modules in every run and read slower than it is.
Runs go pair by pair, and which tree goes first
alternates from pair to pair.  A `{out}` in an argv line becomes a fresh
path per run, so `--json {out}` reports can be compared too.  The `--`
keeps argparse from reading an argv line such as "--version" as an option.

Per run it records the wall time from spawn to reaping, the child's user +
system CPU and its `ru_maxrss`, both from `os.wait4`.  On Linux a child's
`ru_maxrss` never reads below what its parent held when it forked, since
the high-water mark survives `exec`; so this script imports only small
standard modules, and it records its own peak as `harness_peak_rss_mb`, the
floor under every RSS figure it writes.

It checks that every run of both trees wrote the same bytes: stdout, then
whatever `{out}` names (a file, or a directory's files in sorted order).
The JSON it writes has, per argv line and per measure, each tree's median
and Q1–Q3 (inclusive quartiles), every pair's `[base, head]` values in run
order, the median of the paired ratios HEAD / BASE, and in how many pairs
HEAD was lower.  It exits 1 if the
outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
MEASURES = ("wall_s", "cpu_s", "peak_rss_mb")


def commit(tree: Path) -> str | None:
    """The tree's HEAD commit, marked "+dirty" when a tracked file differs; None outside git."""
    if not (tree / ".git").exists():
        return None

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _digest(stdout: Path, out: Path) -> str:
    """sha256 of stdout, then of `out`'s bytes: a file, or a directory's files in sorted order."""
    h = hashlib.sha256(stdout.read_bytes())
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
    for path in files:
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, argv: list[str], workdir: Path, tag: str) -> dict:
    """One fresh process of `argv` on `tree`: wall, CPU, peak RSS, exit code and output digest."""
    out = workdir / f"{tag}.out"
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    args = [sys.executable, "-m", "equimatch", *(a.replace("{out}", str(out)) for a in argv)]
    stdout = workdir / f"{tag}.stdout"
    with open(stdout, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=sink, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    digest = _digest(stdout, out)
    stdout.unlink()
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "digest": digest,
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(argv: str, runs: dict[str, list[dict]]) -> dict:
    """Medians, quartiles and paired ratios of one argv line's runs, in the file's layout."""
    row = {"argv": argv, "pairs": len(runs["base"])}
    for name in MEASURES:
        values = {side: [r[name] for r in runs[side]] for side in SIDES}
        ratios = [h / b for b, h in zip(values["base"], values["head"])]
        row[name] = {
            **{side: _quartiles(values[side]) for side in SIDES},
            "paired": [list(pair) for pair in zip(values["base"], values["head"])],
            "median_ratio": round(statistics.median(ratios), 4),
            "head_lower_in": sum(h < b for b, h in zip(values["base"], values["head"])),
        }
    row["exit_codes"] = {side: sorted({r["code"] for r in runs[side]}) for side in SIDES}
    digests = {side: sorted({r["digest"] for r in runs[side]}) for side in SIDES}
    row["same_output"] = digests["base"] == digests["head"] and len(digests["base"]) == 1
    row["digest"] = digests["base"][0] if row["same_output"] else digests
    return row


def compare(base: Path, head: Path, argvs: list[str], pairs: int, log=None) -> dict:
    """Every argv line on both trees, `pairs` alternated pairs each; the JSON layout as a dict."""
    trees = {"base": base.resolve(), "head": head.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
    rows = []
    with tempfile.TemporaryDirectory(prefix="equimatch-ab-") as workdir:
        for line in argvs:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_once(trees[side], shlex.split(line), Path(workdir), side))
                if log:
                    log(f"{line}: pair {i + 1}/{pairs}")
            rows.append(summarize(line, runs))
    return {
        "tool": "tools/ab.py",
        "trees": {side: {"dir": trees[side].name, "commit": commit(trees[side])} for side in SIDES},
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "command": f"{Path(sys.executable).name} -m equimatch ARGV, PYTHONHASHSEED=0",
        "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="source tree A (has src/equimatch)")
    parser.add_argument("head", type=Path, help="source tree B")
    parser.add_argument("argv", nargs="+", help="one equimatch argv line per argument")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    result = compare(args.base, args.head, args.argv, args.pairs,
                     log=lambda msg: print(msg, file=sys.stderr))
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if all(row["same_output"] for row in result["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
