"""Fast self-checks of the benchmark code.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the repository root.  Checks that the metric and workload names
match BENCHMARK.json and that validation rejects corrupted reports.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from equimatch import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(argv, tmp_path) -> dict:
    out = tmp_path / "report.json"
    cli.run([*argv, "--json", str(out)])
    return json.loads(out.read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)
    metrics, _, errors = tracing.traced_pass("symmetric", [wl.Expected("kbipartite:2:3")])
    assert not errors
    assert {m["name"] for m in BENCH["per_layer"]} == {*metrics, "trace.overhead"}


def test_oracles_on_known_graphs():
    petersen = wl.Expected("petersen")
    assert petersen.counts == [1, 15, 75, 145, 90, 6]
    assert petersen.group_order == 120
    assert wl.Expected("kbipartite:4:4").group_order == 1152


def test_verify_validation_rejects_corruption(tmp_path):
    exp = wl.Expected("kbipartite:2:3")
    report = _report(["verify", "--gen", "kbipartite:2:3"], tmp_path)
    assert wl.verify_report_errors(report, exp) == []

    corrupt = []
    bad = copy.deepcopy(report)
    bad["matching_numbers"][1] += 1
    corrupt.append(bad)
    bad = copy.deepcopy(report)
    bad["group_order"] = 1
    corrupt.append(bad)
    bad = copy.deepcopy(report)
    rec = next(r for r in bad["checks"] if r["check"] == "injective" and r["details"]["columns"])
    rec["details"]["rank"] -= 1
    corrupt.append(bad)
    bad = copy.deepcopy(report)
    bad["checks"][0]["status"] = "skipped"
    corrupt.append(bad)
    bad = copy.deepcopy(report)
    del bad["checks"][-1]
    corrupt.append(bad)
    for bad in corrupt:
        assert wl.verify_report_errors(bad, exp)


def test_boolean_validation_rejects_corruption(tmp_path):
    report = _report(["boolean", "--n", "5"], tmp_path)
    assert wl.boolean_report_errors(report, 5) == []
    bad = copy.deepcopy(report)
    next(r for r in bad["checks"] if r["check"] == "lemma-rank")["details"]["rank"] -= 1
    assert wl.boolean_report_errors(bad, 5)
    bad = copy.deepcopy(report)
    bad["checks"] = [r for r in bad["checks"] if r["check"] != "chains"]
    assert wl.boolean_report_errors(bad, 5)


def test_chain_family_validation():
    from equimatch.boollattice import symmetric_chains

    chains = list(symmetric_chains(6, 1).chains)
    assert wl.chain_family_errors(6, 1, chains) == []
    assert wl.chain_family_errors(6, 1, chains[:-1])
    assert wl.chain_family_errors(6, 1, [chains[0], *chains[:-1]])


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_inputs_depend_only_on_seed(workload):
    assert wl.specs_for(workload, 3) == wl.specs_for(workload, 3)


def test_both_programs_get_environments_of_one_size(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    sizes = {side: sum(len(k) + len(v) for k, v in runner.envs[side].items()) for side in run.SIDES}
    assert sizes["current"] == sizes["pinned"]
    assert runner.envs["pinned"]["PYTHONPATH"] == str(HERE / "pinned")


def test_relabeled_graph_keeps_its_invariants():
    template = wl.Expected(wl.PAIRS_HEAVY_TEMPLATE)
    exp = wl.Expected(wl.specs_for("pairs-heavy", 2)[0])
    assert exp.counts == template.counts
    assert exp.group_order == template.group_order == 1
    assert wl.graph_of(exp.spec) != wl.graph_of(wl.specs_for("pairs-heavy", 3)[0])
