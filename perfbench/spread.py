"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --runs 10 --workload pairs-heavy --out spread.json

Runs `run.py` once per seed (1..runs) for each workload, from the repository
root, and prints per metric the median and the quartile spread
(Q3 - Q1) / median, as `statistics.quantiles(values, n=4)` gives the
quartiles.  The benchmark is steady when every spread except that of
`setup_s` stays well under the metric's bound in BENCHMARK.json.

With `--baseline perfbench/baseline.json` it also prints each median as a
share of the baseline's, and every seed whose report digest changed.  A
changed digest is reported, not failed: a change may move a witness on
purpose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--baseline", help="an earlier --out file to compare against")
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            began = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - began
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            lines = proc.stdout.splitlines()
            digest = next((line.split()[-1] for line in lines
                           if line.startswith(f"{workload} digest ")), None)
            # unscaled times, `<workload> raw <name> <value> <unit>`
            raw = {w[2]: float(w[3]) for w in map(str.split, lines)
                   if w[:2] == [workload, "raw"]}
            runs.append({"seed": seed, "exit": proc.returncode, "correct": last["correct"],
                         "attempted": last["attempted"], "failed": last["failed"],
                         "digest": digest,
                         "metrics": {k: v["value"] for k, v in last["metrics"].items()},
                         "raw": raw, "elapsed_s": elapsed})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, exit {proc.returncode} correct {last['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
                  + " raw " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()),
                  flush=True)
        per_metric = {}
        for name in bounds:
            per_metric[name] = summarize([r["metrics"][name] for r in runs])
            s = per_metric[name]
            print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} ({s['spread'] / bounds[name]:.2f} of bound)")
        for name in runs[0]["raw"]:
            s = summarize([r["raw"][name] for r in runs])
            print(f"{workload} raw {name}: median {s['median']:.5g} spread {s['spread']:.4f}")
        base = baseline.get(workload)
        if base:
            for name, s in per_metric.items():
                ref = base["metrics"][name]["median"]
                print(f"{workload} {name}: {s['median'] / ref:.3f} of baseline median {ref:.5g}")
            old = {r["seed"]: r["digest"] for r in base["runs"]}
            for r in runs:
                if r["seed"] in old and old[r["seed"]] != r["digest"]:
                    print(f"{workload} seed {r['seed']}: report digest changed")
        summary[workload] = {"runs": runs, "metrics": per_metric}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
