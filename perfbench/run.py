"""equimatch benchmark: one workload, run through the real CLI, validated.

    python3 perfbench/run.py --workload pairs-heavy --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from `src/`.  With
`--trace 0` it times fresh `python -m equimatch` processes with no tracing,
alternating them with the same processes of the pinned program in
`pinned/`, and reports the end-to-end metrics relative to the pinned
program.  With `--trace 1` it alternates untraced processes with an
in-process traced pass (`tracing.py`) and reports per-layer self times,
work counts and the tracing overhead.
`--workload all` runs every workload in turn and prints one table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Reports, spans and run
context are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

END_TO_END = ("wall_ratio", "peak_rss_mb", "setup_s")
# The pinned program's set-up time on the host the baseline was taken on.
# set-up is reported as this times (current median / pinned median).
PINNED_SETUP_S = 0.28
SIDES = ("current", "pinned")
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
CALIBRATION_LOOP = 1_000_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: context for host-speed drift, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - start


class Runner:
    """Starts `python -m equimatch` children one at a time and measures each.

    A child imports the current program from `src/`, or with `side="pinned"`
    the pinned copy from `pinned/`.
    """

    def __init__(self, root: Path, out: Path):
        self.root = root
        self.out = out
        base = dict(os.environ)
        base.update({
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        paths = {"current": str(root / "src"), "pinned": str(HERE / "pinned")}
        # The size of the environment shifts where the stack starts, which
        # moves the speed of identical code by several percent; a pad gives
        # both programs environments of the same size.
        width = max(map(len, paths.values()))
        self.envs = {side: {**base, "PYTHONPATH": path, "PERFBENCH_PAD": "x" * (width - len(path))}
                     for side, path in paths.items()}

    def run(self, args: list[str], log: Path, side: str = "current") -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child."""
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "equimatch", *args],
                                    cwd=self.root, env=self.envs[side],
                                    stdout=sink, stderr=subprocess.STDOUT)
        # wait without reaping, so the watchdog can never signal a reused pid
        lock = threading.Lock()
        exited = []

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                exited.append(True)
            watchdog.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def setup(self, errors: list[str], side: str = "current") -> float:
        """Wall seconds of one fresh `python -m equimatch --version`."""
        log = self.out / f"version-{side}.log"
        wall, _, code = self.run(["--version"], log, side)
        if code != 0 or not log.read_text().strip():
            errors.append(f"{side} --version exited {code}")
        return wall


class Workload:
    """The CLI invocation of one workload and the validation of its reports."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name = name
        self.specs = wl.specs_for(name, seed)
        self.expected = {spec: wl.Expected(spec) for spec in self.specs}
        self.out = out
        # a graph the CLI's generator grammar does not know goes in as an edge-list file
        self.edge_file = None
        self.batch = any(map(wl.generated, self.specs))
        if self.batch:
            if not all(map(wl.generated, self.specs)):
                raise ValueError(f"{name}: a batch takes generator specs only")
            self.by_descriptor = {f"gen:{s}": e for s, e in self.expected.items()}
            self.specs_file = out / "specs.txt"
            self.specs_file.write_text("".join(f"{s}\n" for s in self.specs))
        elif self.specs:
            (spec,) = self.specs
            text = wl.edge_list(spec)
            self.edge_file = out / "graph.txt"
            self.edge_file.write_text(text)
            sha = hashlib.sha256(text.encode()).hexdigest()
            self.by_descriptor = {f"file:sha256:{sha}": self.expected[spec]}

    @property
    def reports_per_process(self) -> int:
        return len(self.specs) or 1

    def args(self, target: Path) -> list[str]:
        if self.batch:
            return ["batch", "--specs", str(self.specs_file), "--json", str(target)]
        if self.edge_file:
            return ["verify", "--file", str(self.edge_file), "--json", str(target)]
        return ["boolean", "--n", str(wl.BOOLEAN_N), "--json", str(target)]

    def target(self, i) -> Path:
        return self.out / (f"reports-{i}" if self.batch else f"report-{i}.json")

    def check(self, target: Path, code: int) -> tuple[int, str, list[str]]:
        """Failed report count, digest of the reports, and the failures' reasons."""
        if self.batch:
            files = sorted(target.glob("*.json")) if target.is_dir() else []
        else:
            files = [target] if target.is_file() else []
        blobs = [f.read_bytes() for f in files]
        if code != 0 or len(blobs) != self.reports_per_process:
            why = f"exit code {code}, {len(blobs)} reports"
            return self.reports_per_process, wl.digest(blobs), [why]
        failed, errors = 0, []
        for blob in blobs:
            try:
                report = json.loads(blob)
                if self.specs:
                    descriptor = report.get("graph", {}).get("descriptor", "")
                    exp = self.by_descriptor.get(descriptor)
                    errs = (wl.verify_report_errors(report, exp) if exp
                            else [f"unexpected report {descriptor!r}"])
                else:
                    errs = wl.boolean_report_errors(report, wl.BOOLEAN_N)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                errs = [f"malformed report: {exc!r}"]
            if errs:
                failed += 1
                errors.extend(errs)
        return failed, wl.digest(blobs), errors


def measure(runner: Runner, work: Workload, seconds: float) -> dict:
    """Untraced run: rounds of a set-up and a workload process of each program, for `seconds`.

    The shared host's speed drifts by up to half within minutes, and not
    alike for all code.  The pinned program is this program as the benchmark
    was added, so its processes run the same code and slow down with the
    current program's.  The two workload processes of a round run back to
    back, rounds alternate which program goes first, and a time is reported
    as the median over rounds of current / pinned.
    """
    samples = {side: {"wall_s": [], "peak_rss_mb": [], "setup_s": []} for side in SIDES}
    digests = {side: [] for side in SIDES}
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    for rnd in itertools.count():
        if rnd % 2 == 0:
            began = time.perf_counter()
        order = SIDES if rnd % 2 else SIDES[::-1]
        for side in order:
            samples[side]["setup_s"].append(runner.setup(errors, side))
        for side in order:
            got = samples[side]
            # names of one length for both programs, so their argv are the same size too
            target = work.target(f"{side[0]}{rnd}")
            wall, peak, code = runner.run(work.args(target), work.out / f"cli-{side[0]}{rnd}.log", side)
            bad, digest, errs = work.check(target, code)
            got["wall_s"].append(wall)
            got["peak_rss_mb"].append(peak)
            digests[side].append(digest)
            errors.extend(f"{side}: {e}" for e in errs)
            # only the current program's reports count; a pinned failure still fails the run
            if side == "current":
                attempted += work.reports_per_process
                failed += bad
        # rounds come in pairs, so each program goes first equally often;
        # stop before a further pair would overrun the measuring time
        now = time.perf_counter()
        if rnd % 2 and now - start + (now - began) > seconds:
            break
    while len(samples["current"]["setup_s"]) < MIN_SETUP_SAMPLES:
        for side in SIDES:
            samples[side]["setup_s"].append(runner.setup(errors, side))
    for side in SIDES:
        if len(set(digests[side])) > 1:
            errors.append(f"{side}: reports differ between identical processes: "
                          f"{sorted(set(digests[side]))}")
    if len(set(digests["current"])) > 1:
        failed = attempted
    med = {side: {name: statistics.median(v) for name, v in got.items()}
           for side, got in samples.items()}

    def ratio(name):
        return statistics.median(
            c / p for c, p in zip(samples["current"][name], samples["pinned"][name]))

    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {
            "wall_ratio": (ratio("wall_s"), "ratio"),
            "peak_rss_mb": (med["current"]["peak_rss_mb"], "MB"),
            "setup_s": (ratio("setup_s") * PINNED_SETUP_S, "s"),
        },
        "raw": {f"{side}.{name}": (value, "MB" if name == "peak_rss_mb" else "s")
                for side, got in med.items() for name, value in got.items()},
        "fail_frac": failed / attempted,
        "samples": samples,
        "digest": digests["current"][0],
        "digest_pinned": digests["pinned"][0],
    }


def measure_traced(runner: Runner, work: Workload, seconds: float) -> dict:
    """Traced run: a set-up process, an untraced process and a traced pass, repeated for `seconds`.

    The untraced samples taken alongside give the tracing overhead.
    """
    import tracing

    setup, walls, digests, passes, spans, errors = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        setup.append(runner.setup(errors))
        target = work.target(len(walls))
        wall, _, code = runner.run(work.args(target), work.out / f"cli-{len(walls)}.log")
        bad, digest, errs = work.check(target, code)
        walls.append(wall)
        digests.append(digest)
        attempted += work.reports_per_process
        failed += bad
        errors.extend(errs)
        metrics, tracer, errs = tracing.traced_pass(work.name, list(work.expected.values()))
        passes.append(metrics)
        spans.extend((len(passes) - 1, *s) for s in tracer.spans)
        attempted += 1
        if errs:
            failed += 1
            errors.extend(errs)
        if time.perf_counter() - start + setup[-1] + wall + metrics["trace.total.s"][0] > seconds:
            break
    if len(set(digests)) > 1:
        errors.append(f"reports differ between identical processes: {sorted(set(digests))}")
        failed = attempted
    out = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced passes: {values}")
                failed += 1
            out[name] = (value, unit)
    untraced = statistics.median(walls) - statistics.median(setup)
    out["trace.overhead"] = (out["trace.total.s"][0] / untraced - 1, "ratio")
    with open(work.out / "spans.jsonl", "w") as f:
        for (p, sid, name, s, e, parent, graph) in spans:
            f.write(json.dumps({"pass": p, "id": sid, "name": name, "start": s,
                                "end": e, "parent": parent, "graph": graph}) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": out,
        "fail_frac": failed / attempted,
        "samples": {"trace.total.s": [p["trace.total.s"][0] for p in passes],
                    "untraced_wall_s": walls, "setup_s": setup},
        "digest": digests[0],
    }


def context(root: Path) -> dict:
    import numpy

    head = root / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool) -> dict:
    out = root / ".perfbench_out" / f"{name}-seed{seed}-trace{int(traced)}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    runner = Runner(root, out)
    work = Workload(name, seed, out)
    calibration = [calibration_s()]
    if traced:
        result = measure_traced(runner, work, seconds)
    else:
        result = measure(runner, work, seconds)
    calibration.append(calibration_s())
    result["context"] = {**context(root), "workload": name, "seed": seed,
                         "specs": work.specs, "calibration_s": calibration}
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "equimatch" / "__init__.py").is_file():
        print("error: run from the repository root; src/equimatch is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        for metric, (value, unit) in res["metrics"].items():
            print(f"{name} {metric} {value:.6g} {unit}")
        for metric, (value, unit) in res.get("raw", {}).items():
            print(f"{name} raw {metric} {value:.6g} {unit}")
        print(f"{name} fail_frac {res['fail_frac']:.6g} ratio")
        print(f"{name} digest {res['digest']}")
        print(f"{name} context {json.dumps(res['context'])}")
        for err in res["errors"][:20]:
            print(f"{name} FAILED {err}")
    final = {
        "correct": all(not r["errors"] and not r["failed"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if len(names) == 1 else f"{name}.{metric}"): {"value": value, "unit": unit}
            for name, r in results.items() for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
