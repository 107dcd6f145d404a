import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimatch import boollattice, cli, graph, graphcli, graphtools, phimap, polyring, usage
from equimatch.cli import run
from equimatch.graph import generate
from equimatch.matchings import MatchingTable, matching_table


def test_gen_stdout(capsys):
    assert run(["gen", "cycle:6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "6 6"
    assert "0 5" in out


def test_gen_to_file_and_count_roundtrip(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    assert run(["gen", "cycle:6", "-o", str(path)]) == 0
    assert run(["count", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "m = [1, 6, 9, 2]" in out
    assert "r = 3" in out


def test_count_petersen(capsys):
    assert run(["count", "--gen", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "m = [1, 15, 75, 145, 90, 6]" in out


def test_count_exits_1_on_a_logconcavity_violation(monkeypatch, capsys):
    # a doctored table: C6's level 1 cut to two edges, so m_1^2 < m_0 m_2
    def cut(g):
        t = matching_table(g)
        return MatchingTable(g, (t.level(0), t.level(1)[:2], *t.by_size[2:]))

    monkeypatch.setattr(graphtools, "matching_table", cut)
    assert run(["count", "--gen", "cycle:6"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "m = [1, 2, 9, 2]",
        "r = 3",
        "log-concavity VIOLATED at (l, k) = (1, 1): slack -5",
    ]


def test_aut(capsys):
    assert run(["aut", "--gen", "cycle:6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "order = 12"
    assert "0 1 2 3 4 5" in out[1:]


def test_verify_c6_all_pass(tmp_path, capsys):
    out_json = tmp_path / "c6.json"
    assert run(["verify", "--gen", "cycle:6", "--all", "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    assert report["schema"] == 1
    assert report["overall"] == "pass"
    assert report["matching_numbers"] == [1, 6, 9, 2]
    assert all(rec["status"] in ("pass", "skipped") for rec in report["checks"])
    keys = [(r["check"], r["ell"], r["k"]) for r in report["checks"]]
    assert keys == sorted(keys)


def test_verify_single_slot(capsys):
    assert run(["verify", "--gen", "path:4", "--ell", "1", "--k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {r["check"] for r in report["checks"]} == {
        "diagram",
        "equivariant",
        "f-equivariance",
        "injective",
        "nonneg",
        "parts",
    }


def test_all_with_a_slot_is_a_usage_error(capsys):
    # --all means every slot, so a single slot beside it is refused, not dropped
    assert run(["verify", "--gen", "cycle:6", "--all", "--ell", "1", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--all runs every slot; it cannot be given with --ell and --k" in captured.err
    assert run(["verify", "--gen", "cycle:6", "--all", "--k", "1"]) == 2
    assert "--ell and --k must be given together" in capsys.readouterr().err


def test_verify_f_equivariance_witness(capsys):
    assert run(["verify", "--gen", "cycle:6", "--check", "f-equivariance"]) == 0
    report = json.loads(capsys.readouterr().out)
    recs = [
        r
        for r in report["checks"]
        if r["check"] == "f-equivariance" and (r["ell"], r["k"]) == (2, 2)
    ]
    assert len(recs) == 1
    assert recs[0]["status"] == "pass"
    assert recs[0]["details"]["counterexample"] is not None


def test_verify_budget_skips_single_slot(capsys):
    argv = ["verify", "--gen", "cycle:6", "--check", "injective", "--budget", "1",
            "--ell", "2", "--k", "2"]
    assert run(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "skipped"
    assert all(r["status"] == "skipped" for r in report["checks"])


def test_verify_budget_skips_are_reported_not_dropped(capsys):
    assert run(["verify", "--gen", "cycle:6", "--check", "injective", "--budget", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    statuses = {(r["ell"], r["k"]): r["status"] for r in report["checks"]}
    # slots with columns are skipped under the tiny budget; the vacuous
    # zero-column slots still pass
    assert statuses[(2, 2)] == "skipped"
    assert statuses[(3, 3)] == "pass"
    assert report["overall"] == "pass"


# Petersen's slot (2, 2): its m_1 * m_3 = 15 * 145 columns have k - l + 2 = 2
# rows each, plus one per pair one slot down, of which there are m_0 * m_4 =
# 1 * 90, each reached from 4 columns: 2 * 15 * 145 + 4 * 1 * 90 = 4,710
# nonzeros, counted before any chain is decomposed
PETERSEN_22 = ["verify", "--gen", "petersen", "--ell", "2", "--k", "2", "--check", "injective"]


def test_a_slot_over_its_nonzero_floor_decomposes_no_chain(monkeypatch, capsys):
    def unwanted(g, one_colored):
        raise RuntimeError("a chain decomposed for a slot over its nonzero floor")

    monkeypatch.setattr(phimap, "odd_chains", unwanted)
    assert run([*PETERSEN_22, "--budget", "4349"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [(r["check"], r["status"]) for r in report["checks"]] == [("injective", "skipped")]


@pytest.mark.parametrize("budget, status", [(4350, "skipped"), (4709, "skipped"), (4710, "pass")])
def test_a_slot_within_its_floor_is_refused_by_the_build(budget, status, monkeypatch, capsys):
    # between the floor m_1 * m_3 * (k - l + 2) = 4,350 and the 4,710 nonzeros
    # the slot is refused by its exact count, before the build reads a chain
    decomposed = []
    real = phimap.odd_chains

    def counted(g, one_colored):
        decomposed.append(one_colored)
        return real(g, one_colored)

    monkeypatch.setattr(phimap, "odd_chains", counted)
    assert run([*PETERSEN_22, "--budget", str(budget)]) == cli.report_exit(status)
    report = json.loads(capsys.readouterr().out)
    assert [(r["check"], r["status"]) for r in report["checks"]] == [("injective", status)]
    assert bool(decomposed) == (status == "pass")


def _work(t, order: int, check: str, ell: int, k: int) -> int:
    """What `check` walks on slot (ell, k), counted here from the table and the group order, or Φ's build."""
    columns = t.m(ell - 1) * t.m(k + 1)
    if check == "nonneg":
        return t.m(ell) * t.m(k)
    if check == "parts":  # the top pairs, read only where a column pair gives a union
        return t.m(ell) * t.m(k) if columns else 0
    if check == "f-equivariance":
        return columns * order
    return phimap.build_phi(t.graph, ell, k, table=t).nnz  # Φ: the nonzeros it has


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31 - 1), st.data())
def test_phi_records_are_skipped_exactly_when_phi_exceeds_the_budget(n, num, seed, data):
    # every check, not only those reading Φ: a record is skipped exactly when
    # the check's own work passes the budget, for a check reading Φ its nonzeros
    g = generate(f"gnp:{n}:{num}:4:{seed}")
    t = matching_table(g)
    order = graphcli.automorphisms(g).order
    works = {(c, ell, k): _work(t, order, c, ell, k) for (ell, k) in t.slots for c in cli.ALL_CHECKS}
    edges = sorted({max(1, v + d) for v in works.values() for d in (-1, 0, 1)})
    budget = data.draw(st.sampled_from(edges or [1]), label="budget")
    report, _ = graphcli._verify_report(g, "gen", t.slots, cli.ALL_CHECKS, budget, t)
    assert len(report["checks"]) == len(works)
    for rec in report["checks"]:
        over = works[rec["check"], rec["ell"], rec["k"]] > budget
        assert (rec["status"] == "skipped") == over, rec


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31 - 1), st.data())
def test_nonneg_and_parts_are_skipped_exactly_when_the_top_pairs_exceed_the_budget(n, num, seed, data):
    g = generate(f"gnp:{n}:{num}:4:{seed}")
    t = matching_table(g)
    tops = sorted({max(1, t.m(ell) * t.m(k) + d) for (ell, k) in t.slots for d in (-1, 0, 1)})
    budget = data.draw(st.sampled_from(tops or [1]), label="budget")
    report, _ = graphcli._verify_report(g, "gen", t.slots, ["nonneg", "parts"], budget, t)
    assert len(report["checks"]) == 2 * len(t.slots)
    for rec in report["checks"]:
        over = t.m(rec["ell"]) * t.m(rec["k"]) > budget
        # `parts` reads the top pairs only where a column pair gives a union to find
        over &= rec["check"] == "nonneg" or t.m(rec["k"] + 1) > 0
        assert (rec["status"] == "skipped") == over, rec
        assert (rec["details"] == {"reason": f"budget {budget} exceeded"}) == over, rec


@pytest.mark.parametrize(
    "argv", [["complete:9", "--ell", "3", "--k", "4"], ["cycle:6", "--ell", "2", "--k", "3", "--budget", "5"]]
)
def test_parts_passes_a_slot_without_columns_over_the_budget(argv, capsys):
    # k = r: no column pair gives a union, so `parts` reads no top pair
    # however many there are (K9's (3, 4) has 1,190,700, C6's (2, 3) 18)
    assert run(["verify", "--gen", *argv, "--check", "parts"]) == 0
    (rec,) = json.loads(capsys.readouterr().out)["checks"]
    assert rec["status"] == "pass" and rec["details"]["unions"] == 0


@pytest.mark.parametrize("check", ["f-equivariance", "nonneg", "parts"])
def test_a_check_runs_when_its_work_equals_the_budget(check, capsys):
    # gnp:8:1:2:7 has a trivial group, so f's work is its m_0 * m_2 column
    # pairs alone; `nonneg` and `parts` walk the m_1 * m_1 top pairs
    t = matching_table(generate("gnp:8:1:2:7"))
    work = t.m(0) * t.m(2) if check == "f-equivariance" else t.m(1) * t.m(1)
    argv = ["verify", "--gen", "gnp:8:1:2:7", "--ell", "1", "--k", "1", "--check", check]
    for budget, status in [(work, "pass"), (work - 1, "skipped")]:
        assert run([*argv, "--budget", str(budget)]) == cli.report_exit(status)
        (rec,) = json.loads(capsys.readouterr().out)["checks"]
        assert rec["status"] == status, budget


def test_phi_is_built_only_for_checks_that_read_it(monkeypatch, capsys):
    def unwanted(*args, **kwargs):
        raise RuntimeError("Φ built for a check that does not read it")

    monkeypatch.setattr(graphcli, "build_phi", unwanted)
    assert run(["verify", "--gen", "petersen", "--check", "nonneg"]) == 0
    assert run(["verify", "--gen", "cycle:6", "--check", "f-equivariance"]) == 0
    # `parts` counts its classes from the table and its own pair budget
    assert run(["verify", "--gen", "cycle:6", "--check", "nonneg,parts"]) == 0
    capsys.readouterr()
    # a check that reads Φ still asks for it
    assert run(["verify", "--gen", "cycle:6", "--check", "diagram,parts"]) == 4
    assert "Φ built for a check" in capsys.readouterr().err


def test_verify_deterministic_json(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--gen", "gnp:7:1:3:7", "--all", "--json", str(a)]) == 0
    assert run(["verify", "--gen", "gnp:7:1:3:7", "--all", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gen", "nosuch:5"],
        ["count", "--file", "/nonexistent/file"],
        ["verify", "--gen", "cycle:6", "--check", "bogus"],
        ["verify", "--gen", "cycle:6", "--ell", "2"],
        ["verify", "--gen", "cycle:6", "--ell", "3", "--k", "2"],
        ["gen", "path:0"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run(argv) == 2


@pytest.mark.parametrize("check", cli.ALL_CHECKS)
def test_a_slot_of_an_edgeless_graph_is_refused_before_any_check(check, monkeypatch, capsys):
    # r = 0 has no slot, as the 0-record report of every slot says; asking
    # for (1, 1) is a usage error whatever the check, and no check runs
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setitem(graphcli.CHECKS, check, graphcli.CHECKS[check]._replace(run=no_check))
    argv = ["verify", "--gen", "path:1", "--check", check]
    assert run(argv + ["--ell", "1", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 <= ell <= k <= r = 0" in captured.err
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--gen", "cycle:6", "--budget", "-1"], "argument --budget: must be a positive integer, got '-1'"),
        (["verify", "--gen", "cycle:6", "--budget", "0"], "argument --budget: must be a positive integer, got '0'"),
        (["batch", "--specs", "specs.txt", "--json", "reports", "--budget", "-1"], "got '-1'"),
        (["verify", "--gen", "cycle:6", "--check", ""], "argument --check: empty check name in ''"),
        (["verify", "--gen", "cycle:6", "--check", ","], "argument --check: empty check name in ','"),
        (["verify", "--gen", "cycle:6", "--check", "injective,"], "empty check name in 'injective,'"),
        (["verify", "--gen", "cycle:6", "--check", "parts,bogus,injective,nope"], "unknown checks: bogus, nope"),
        (["verify", "--gen", "cycle:6", "--ell", "1"], "--ell and --k must be given together"),
        (["verify", "--gen", "cycle:6", "--all", "--ell", "1", "--k", "1"], "--all runs every slot; it cannot be given with --ell and --k"),
    ],
)
def test_nonsense_limits_and_check_lists_are_usage_errors(argv, message, monkeypatch, capsys, tmp_path):
    # refused while the arguments are parsed: no graph built, no report written;
    # `batch` builds its graphs by `generate`, `verify` by `load_graph`
    def no_work(*args):
        raise RuntimeError("a graph was built before the arguments were checked")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "specs.txt").write_text("cycle:6\n")
    monkeypatch.setattr(graphcli, "generate", no_work)
    monkeypatch.setattr(graphcli, "load_graph", no_work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "reports").exists()


def test_check_table_is_the_one_the_parser_names():
    assert tuple(sorted(graphcli.CHECKS)) == cli.ALL_CHECKS


# --- the command line is parsed from one table ---


def _argparse_vars(argv: list[str]) -> dict | None:
    """vars() of the namespace argparse builds from argv, or None where it prints help or an error."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(usage.build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "cycle:6"],
        ["gen", "-o", "c6.txt", "cycle:6"],
        ["gen", "cycle:6", "--output", "c6.txt"],
        ["count", "--gen", "petersen"],
        ["aut", "--file", "c6.txt"],
        ["verify", "--file", "graph.txt"],
        ["verify", "--gen", "cycle:6", "--ell", "1", "--k", "2", "--check", "parts,injective,parts",
         "--budget", "10", "--json", "report.json"],
        ["verify", "--all", "--gen", "cycle:6"],
        ["boolean", "--n", "11"],
        ["boolean", "--json", "bool.json", "--n", "3"],
        ["transfer", "--gen", "cycle:6", "--blue", "0-1", "--pink", "2-3", "--kratt"],
        ["batch", "--specs", "specs.txt", "--json", "reports", "--budget", "5"],
    ],
    ids=" ".join,
)
def test_a_plain_argv_is_parsed_without_argparse_as_argparse_parses_it(argv):
    fast = cli._fast_parse(argv)
    assert fast is not None
    assert vars(fast) == _argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--help"],
        ["verify", "--gen=cycle:6"],
        ["verify", "--gen", "cycle:6", "--che", "injective"],
        ["verify", "--gen", "cycle:6", "--bogus"],
        ["verify", "--gen", "cycle:6", "--ell", "-1", "--k", "1"],
        ["verify", "--gen", "cycle:6", "--gen", "petersen"],
        ["gen", "-o", "a.txt", "--output", "b.txt", "cycle:6"],
        ["verify", "--gen", "cycle:6", "--file", "c6.txt"],
        ["verify"],
        ["boolean"],
        ["gen"],
        ["verify", "--gen", "cycle:6", "--budget", "x"],
        ["verify", "--gen", "cycle:6", "--json"],
        ["count", "--gen", "cycle:6", "stray"],
        ["verif", "--gen", "cycle:6"],
        [],
    ],
    ids=repr,
)
def test_the_fast_parse_leaves_every_other_argv_to_argparse(argv):
    # help, inline values, abbreviations, unknown tokens, dash values,
    # repeats, no source or two, a missing required argument, a bad value
    assert cli._fast_parse(argv) is None


# values each converter accepts, and values that some converter or argparse refuses
GOOD = {
    int: ("1", "2", "12", "1_0"),
    cli._budget: ("1", "1000"),
    cli._check_list: ("injective", "nonneg,injective,nonneg"),
    None: ("cycle:6", "petersen", "0-1,2-3", "out.json"),
}
BAD = ("-1", "0", "x", "", "injective,", "parts,bogus", ",", "a b", "verify", "-o")
# help, inline values, abbreviations, other commands' options and stray tokens
JUNK = ("-h", "--help", "--version", "--", "-", "--bogus", "--gen=cycle:6", "--n=3", "-ox",
        "--che", "--bud", "--out", "--ki", "--al", "stray",
        *sorted({opt.flag for c in cli.COMMANDS.values() for opt in c.arguments}))


@st.composite
def argvs(draw):
    """A command (or a near miss), its own options in any order, valued well or badly, and junk."""
    name = draw(st.sampled_from([*cli.COMMANDS, "verif", "--version", "-h"]))
    own = cli.COMMANDS[name].arguments if name in cli.COMMANDS else ()
    pieces = []
    for opt in own:
        positional = not opt.flag.startswith("-")
        # a required argument is left out one time in eight, any other one time in two
        if draw(st.integers(0, 7)) >= (7 if opt.required or positional else 4):
            continue
        piece = [] if positional else [draw(st.sampled_from([f for f in (opt.flag, opt.short) if f]))]
        if not opt.store_true:
            piece.append(draw(st.sampled_from(GOOD[opt.type] + (BAD if draw(st.booleans()) else ()))))
        pieces.append(piece)
    if pieces and draw(st.integers(0, 5)) == 0:
        pieces.append(draw(st.sampled_from(pieces)))  # a repeated option
    if draw(st.booleans()):
        pieces.append([draw(st.sampled_from(JUNK))])
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_fast_parse_accepts_only_what_argparse_accepts_alike(argv):
    # whatever the fast parse accepts, argparse accepts with the same
    # namespace, defaults included; so whatever argparse refuses is deferred
    fast = cli._fast_parse(argv)
    assert fast is None or vars(fast) == _argparse_vars(argv)


def test_version_prints_the_bytes_argparse_prints(capsys):
    assert run(["--version"]) == 0
    fast = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        usage.build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == fast == cli.__version__ + "\n"


# argparse's help for an 80-column terminal, pinned: the table must give the same parser
HELP = {
    ("--help",): """\
usage: equimatch [-h] [--version]
                 {gen,count,aut,verify,boolean,transfer,batch} ...

Exact verification of matching-space injections on small graphs.

positional arguments:
  {gen,count,aut,verify,boolean,transfer,batch}
    gen                 emit an edge-list file for a generator spec
    count               matching numbers and numeric log-concavity
    aut                 automorphism group order and elements
    verify              run the verification suite
    boolean             Boolean-lattice rank and chain suite
    transfer            decompose a matching pair and list neighbors
    batch               one verify report per spec line

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("verify", "--help"): """\
usage: equimatch verify [-h] (--gen GEN | --file FILE) [--ell ELL] [--k K]
                        [--all] [--check CHECK] [--budget BUDGET]
                        [--json JSON]

options:
  -h, --help       show this help message and exit
  --gen GEN        generator spec, e.g. cycle:6
  --file FILE      edge-list file
  --ell ELL
  --k K
  --all            all (ell, k) slots (default)
  --check CHECK    comma-separated subset of:
                   diagram,equivariant,f-equivariance,injective,nonneg,parts
  --budget BUDGET
  --json JSON      write the JSON report here instead of stdout
""",
}


@pytest.mark.parametrize("argv", sorted(HELP), ids=" ".join)
def test_help_is_unchanged(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(list(argv)) == 0
    assert capsys.readouterr().out == HELP[argv]


def test_boolean_report(tmp_path):
    out = tmp_path / "bool.json"
    assert run(["boolean", "--n", "4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    ranks = {
        r["ell"]: r["details"]["rank"]
        for r in report["checks"]
        if r["check"] == "lemma-rank"
    }
    assert ranks == {0: 1, 1: 4, 2: 4}
    chains = {
        r["ell"]: r["details"]["count"]
        for r in report["checks"]
        if r["check"] == "chains"
    }
    assert chains == {0: 1, 1: 4, 2: 6}


def test_boolean_summary_names_the_rank_paths(capsys):
    # the paths go to stderr only; the report on stdout has no timing
    assert run(["boolean", "--n", "11"]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"boolean n=11: 6 levels, identity 6 / mod-p 0 / bareiss 0, \d+\.\d\ds\n", captured.err
    )
    assert "identity" not in captured.out


def test_transfer_command(capsys):
    assert (
        run(
            [
                "transfer",
                "--gen",
                "cycle:6",
                "--blue",
                "0-1",
                "--pink",
                "0-1,2-3,4-5",
                "--kratt",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "b = 0, p = 2" in out
    assert out.count("neighbor:") == 2
    assert "f: blue=[0-1,2-3] pink=[0-1,4-5]" in out


def test_transfer_bad_token(capsys):
    assert run(["transfer", "--gen", "cycle:6", "--blue", "xx", "--pink", "0-1"]) == 2


def test_transfer_rejects_a_side_that_is_no_matching(capsys):
    # 0-1 and 1-2 share vertex 1; Φ's build trusts its table, the command does not
    assert run(["transfer", "--gen", "cycle:6", "--blue", "0-1,1-2", "--pink", "3-4"]) == 2
    assert "must be matchings" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["--blue", "--pink"])
def test_transfer_token_naming_a_non_edge_is_bad_input(side, capsys):
    # C6 has no chord 0-3: bad input (2), not an internal error (4)
    argv = {"--blue": "1-2", "--pink": "4-5"}
    argv[side] = "0-3"
    assert run(["transfer", "--gen", "cycle:6", *(x for kv in argv.items() for x in kv)]) == 2
    assert "error: (0, 3) is not an edge" in capsys.readouterr().err


def test_transfer_kratt_needs_fewer_blue_than_pink(capsys):
    # f maps (l-1, k+1) pairs; an equal-size pair is refused before any output
    assert run(["transfer", "--gen", "cycle:6", "--blue", "0-1", "--pink", "2-3", "--kratt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|blue| < |pink|" in captured.err


def test_batch(tmp_path):
    specs = tmp_path / "specs.txt"
    specs.write_text("cycle:6\npath:4\n# comment\n  # indented note\n")
    outdir = tmp_path / "reports"
    assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["cycle_6.json", "path_4.json"]
    for p in outdir.iterdir():
        assert json.loads(p.read_text())["overall"] == "pass"


def test_batch_refuses_a_bad_spec_before_any_report(tmp_path):
    specs = tmp_path / "specs.txt"
    specs.write_text("cycle:6\npath:4\ncomplete:x\n")
    outdir = tmp_path / "reports"
    assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 2
    assert not outdir.exists()


def test_batch_refuses_an_oversize_graph_before_any_report(tmp_path, capsys):
    # batch always runs the group checks, so n = 16 is refused up front,
    # not after cycle:6's report is written
    specs = tmp_path / "specs.txt"
    specs.write_text("cycle:6\ncycle:16\n")
    outdir = tmp_path / "reports"
    assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 2
    assert "n=16 exceeds the vertex limit 12" in capsys.readouterr().err
    assert not outdir.exists()


def test_batch_refuses_two_specs_that_write_one_file(tmp_path, capsys):
    # `complete:6` and `complete_6` would both be written to complete_6.json
    specs = tmp_path / "specs.txt"
    outdir = tmp_path / "reports"
    for lines in ("cycle:6\ncycle:6\n", "complete:6\npath:4\ncomplete_6\n"):
        specs.write_text(lines)
        assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 2
        name = lines.split()[0].replace(":", "_") + ".json"
        assert f"would both write {outdir / name}" in capsys.readouterr().err
        assert not outdir.exists()


def _failing_nonneg(monkeypatch):
    # a nonneg check that always fails: no correct graph reaches the fail path
    # and walks nothing, so no budget skips it
    check = graphcli.Check(
        reads_phi=False, reads_group=False, work=lambda *args: 0, run=lambda *args: (False, {"terms": 0})
    )
    monkeypatch.setitem(graphcli.CHECKS, "nonneg", check)


@pytest.mark.parametrize("budget", [cli.DEFAULT_BUDGET, 1])
def test_verify_exits_1_on_a_failed_check(budget, monkeypatch, capsys):
    # with budget 1 every other check is skipped, and the one failure still decides
    _failing_nonneg(monkeypatch)
    assert run(["verify", "--gen", "cycle:6", "--budget", str(budget)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    statuses = {r["status"] for r in report["checks"]}
    assert report["overall"] == "fail"
    assert "fail" in statuses and ("skipped" in statuses) == (budget == 1)
    assert "verify gen:cycle:6: fail (" in captured.err


def test_batch_exits_1_on_a_failed_check_and_writes_every_report(monkeypatch, tmp_path, capsys):
    _failing_nonneg(monkeypatch)
    specs = tmp_path / "specs.txt"
    specs.write_text("cycle:6\npath:4\n")
    outdir = tmp_path / "reports"
    assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 1
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["cycle_6.json", "path_4.json"]
    assert all(json.loads((outdir / name).read_text())["overall"] == "fail" for name in names)


def test_boolean_exits_1_on_an_invalid_chain_family(monkeypatch, capsys):
    monkeypatch.setattr(boollattice, "chains_are_valid", lambda fam: False)
    assert run(["boolean", "--n", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"
    assert {r["status"] for r in report["checks"] if r["check"] == "chains"} == {"fail"}
    assert {r["status"] for r in report["checks"] if r["check"] == "lemma-rank"} == {"pass"}


@pytest.mark.parametrize(
    "statuses, expected",
    [
        ((), "pass"),
        (("pass",), "pass"),
        (("skipped",), "skipped"),
        (("skipped", "pass"), "pass"),
        (("skipped", "fail"), "fail"),
    ],
)
def test_the_overall_status_of_a_report(statuses, expected):
    assert cli.overall(statuses) == expected
    assert cli.overall(iter(statuses * 2)) == expected


def test_check_subset_without_group_checks_skips_the_group(capsys):
    # n = 13 is past the automorphism search's vertex limit, but neither
    # check needs the group, so the group is never built
    assert run(["verify", "--gen", "cycle:13", "--check", "injective,nonneg"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_order"] is None
    assert report["overall"] == "pass"
    assert {r["check"] for r in report["checks"]} == {"injective", "nonneg"}


def test_group_check_past_the_vertex_limit_is_an_input_error(capsys):
    assert run(["verify", "--gen", "cycle:13", "--check", "equivariant", "--ell", "1", "--k", "1"]) == 2
    assert "vertex limit" in capsys.readouterr().err


def test_internal_error_exits_4(monkeypatch, capsys):
    # a pink-chain count below the forced minimum breaks an invariant of
    # build_phi, which must surface as an internal error, not as a failed
    # check (1) or an input error (2)
    monkeypatch.setattr(phimap, "odd_chains", lambda g, one_colored: ((), 0, 0, 0))
    assert run(["verify", "--gen", "cycle:6", "--check", "injective"]) == 4
    err = capsys.readouterr().err
    assert "InternalError" in err and "internal error" in err


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(polyring, "verify_nonneg", broken)
    assert run(["verify", "--gen", "path:4", "--check", "nonneg"]) == 4
    assert "KeyError" in capsys.readouterr().err


# sha256 of the all-check `verify` JSON on stdout and of the `aut` stdout,
# taken while the checks still walked every group element (Petersen and
# gnp:8:1:2:7 while Φ was still built one neighbor set per column); checking
# the generators only, and building Φ block by block, must leave every
# report byte-identical
PINNED_DIGESTS = {
    ("verify", "--gen", "cycle:6"): "ba68e27c2ae2c7fce727aea6a28403a3e4f413c9970d58b77023e400744b0f32",
    ("verify", "--gen", "complete:6"): "14053a41afba2db1bd2b8757f1f9c56bc0eda4af6b7ee95d59de0eba04fdabdb",
    ("verify", "--gen", "kbipartite:4:4"): "efef58948cb4a6bece8b0341a7fb77a92a2a90b306411dd3db425b0ce30ab47f",
    ("verify", "--gen", "petersen"): "7835d62b9024774b4c4819e203db4f16b26e2c6134a9836a392c76acfed442c9",
    ("verify", "--gen", "gnp:8:1:2:7"): "324e937c6fcb2bc96d3298b83c1370882f5dfd8b1d3b5be2af05616f56b16865",
    ("aut", "--gen", "kbipartite:3:3"): "0e1911df7cdfd115192759c2b00bf0876e9eb0a5559f7adea67e8a42377615bb",
    ("boolean", "--n", "9"): "e117ec807499811bd2fb219351213b8dc81c948aa69122eafd8663ba2235b4b2",
    ("count", "--gen", "petersen"): "5dc7b034c90d688cfddb80220103f3ed8806515440f0be189c38b2669209f32b",
    ("gen", "cycle:6"): "bfb5b0e7bc7ef780bd592500a43f482fa2055a92eb84ef0c44b8ef0ff96ac49a",
    ("transfer", "--gen", "cycle:6", "--blue", "0-1", "--pink", "0-1,2-3,4-5", "--kratt"): (
        "2a2d904803c47ec127d12af8558dbe9eb8d9f3fc6b13e5af341641619b831d2d"
    ),
}
# C6 with the chord 1-4 (|Aut| = 4), as an edge-list file
CHORDED_C6 = "6 7\n0 1\n0 5\n1 2\n1 4\n2 3\n3 4\n4 5\n"
# reports that read their graph from a file, or write themselves to one
PINNED_FILE_DIGESTS = {
    "verify --file chorded_c6": "e8c3e96d58bd495964f07b6d67e75ba3dc672c47612517f7516aae537220236d",
    # the same report as `verify --gen complete:6`
    "batch complete:6": "14053a41afba2db1bd2b8757f1f9c56bc0eda4af6b7ee95d59de0eba04fdabdb",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS), ids=" ".join)
def test_report_bytes_are_pinned(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


@pytest.mark.parametrize("name", sorted(PINNED_FILE_DIGESTS))
def test_file_report_bytes_are_pinned(name, tmp_path, capsys):
    (tmp_path / "chorded_c6.txt").write_text(CHORDED_C6)
    (tmp_path / "specs.txt").write_text("complete:6\n")
    if name == "batch complete:6":
        assert run(["batch", "--specs", str(tmp_path / "specs.txt"), "--json", str(tmp_path / "reports")]) == 0
        out = (tmp_path / "reports" / "complete_6.json").read_text()
    else:
        assert run(["verify", "--file", str(tmp_path / "chorded_c6.txt")]) == 0
        out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FILE_DIGESTS[name]


# every kind of value a report holds, and the strings that need escapes:
# quotes, backslashes, control characters, non-ASCII and lone surrogates
REPORT_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=12)
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | REPORT_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(REPORT_TEXT, inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(REPORT_VALUES)
def test_the_report_writer_writes_the_bytes_json_writes(value):
    assert cli.report_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


class _LoudInt(int):
    """An int whose repr and str are not its digits; json writes the digits."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", 0, -1, 10**200, -(10**200), True, False, None, [_LoudInt(7)],
        {"a": {}, "b": [], "c": ()}, [[[]], [{}]],
        'quote " backslash \\ slash /', "\x00\x01\x1f\x7f\t\n\r\b\f",
        "é ü ∑ 😀 \u2028", "\ud800 \udfff \ud83d",
        {"\n": 1, "é": 2, "\ud800": 3, "": 4, "Z": 5, "a": 6},
    ],
    ids=repr,
)
def test_the_report_writer_on_edge_values(value):
    assert cli.report_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_the_report_writer_without_the_json_accelerator(monkeypatch):
    # an interpreter built without `_json` quotes with `json.encoder`'s function
    monkeypatch.setitem(sys.modules, "_json", None)
    value = {"b": ["é\n", None, (True, -3)], "a": {"\ud800": "\""}}
    assert cli.report_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        1.5, {"a": [0.0]}, {1: "a"}, {None: 1}, {("a",): 1}, {"a": {1, 2}}, [b"a"],
        # the repr of an object holds its address, which differs from run to run
        pytest.param([object()], id="[object()]"),
    ],
    ids=repr,
)
def test_the_report_writer_refuses_values_a_report_never_holds(value):
    # json.dumps would write floats and turn int or None keys into strings
    with pytest.raises(TypeError):
        cli.report_text(value)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_the_file_digest_is_hashlibs(data):
    assert graph.sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_the_file_digest_of_an_edge_list_is_hashlibs(tmp_path, capsys):
    assert graph.sha256_hex(CHORDED_C6.encode()) == hashlib.sha256(CHORDED_C6.encode()).hexdigest()
    (tmp_path / "chorded_c6.txt").write_text(CHORDED_C6)
    assert run(["verify", "--file", str(tmp_path / "chorded_c6.txt"), "--check", "nonneg"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["graph"]["descriptor"] == "file:sha256:" + hashlib.sha256(CHORDED_C6.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gen", ""],
        ["count", "--gen", ""],
        ["aut", "--gen", ""],
        ["transfer", "--gen", "", "--blue", "0-1", "--pink", "0-1,2-3"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_empty_generator_spec_is_bad_input(argv, capsys):
    # an empty spec names no family; it is not a missing one, so no file is read
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown graph family ''\n"


def test_the_equivariant_record_names_the_first_failing_generator(monkeypatch):
    g = generate("cycle:6")
    t = matching_table(g)
    grp = graphcli.automorphisms(g)
    pairs = list(t.pairs(1, 3))[:2]
    failures = tuple(zip(grp.generators, pairs))
    assert len(failures) == 2
    report = phimap.EquivarianceReport(1, 2, grp.order, 12, failures)
    monkeypatch.setattr(phimap, "verify_equivariant", lambda *args, **kwargs: report)
    passed, details = graphcli._equivariant(g, 1, 2, t, grp, None)
    (blue, pink), sigma = pairs[0], grp.generators[0]
    assert not passed
    assert details["witness"] == {
        "sigma": list(sigma), "blue": graph.edge_token(g, blue), "pink": graph.edge_token(g, pink)
    }


def test_the_summary_times_the_report(capsys):
    started = time.monotonic()
    assert run(["verify", "--gen", "cycle:6"]) == 0
    elapsed = time.monotonic() - started
    (line,) = capsys.readouterr().err.splitlines()
    seconds = float(re.fullmatch(r"verify gen:cycle:6: pass \(.*, (\d+\.\d\d)s\)", line).group(1))
    assert 0 <= seconds <= elapsed + 0.01


def test_group_size_goes_to_stderr_not_the_report(tmp_path, capsys):
    assert run(["verify", "--gen", "complete:6", "--ell", "1", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert "|Aut| 720 from 5 generators" in captured.err
    assert "generators" not in captured.out
    assert run(["verify", "--gen", "path:4", "--check", "equivariant"]) == 0
    assert "|Aut| 2 from 1 generator," in capsys.readouterr().err
    # no group check, no group, nothing to say about it
    assert run(["verify", "--gen", "cycle:6", "--check", "nonneg"]) == 0
    assert "|Aut|" not in capsys.readouterr().err

    specs = tmp_path / "specs.txt"
    specs.write_text("cycle:6\ngnp:8:1:2:7\n")
    outdir = tmp_path / "reports"
    assert run(["batch", "--specs", str(specs), "--json", str(outdir)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("verify gen:cycle:6: pass (36 records, |Aut| 12 from 2 generators, ")
    assert err[1].startswith("verify gen:gnp:8:1:2:7: pass (")
    assert "|Aut| 1 from 0 generators" in err[1]
    for path in outdir.iterdir():
        assert "generators" not in path.read_text()


def _python(*args: str, stdout=subprocess.PIPE, unbuffered=False) -> subprocess.CompletedProcess:
    """`python args` in a fresh interpreter on this package's source, output captured as bytes.

    stdout is block-buffered, as for any process writing to a file or pipe,
    so output that the exit path fails to flush is lost here too, unless
    `unbuffered` sets PYTHONUNBUFFERED=1.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args], env={**env, "PYTHONPATH": src},
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )


def _modules_loaded_after(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of `argv` in a fresh interpreter, and the names of the modules it loaded."""
    code = (
        "import sys\n"
        "from equimatch import cli\n"
        f"rc = cli.run({argv!r})\n"
        "print(rc, *sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.decode().splitlines()[-1].split()
    return int(rc), set(loaded)


def _batch_argv(tmp_path, specs: str) -> list[str]:
    path = tmp_path / "specs.txt"
    path.write_text(specs)
    return ["batch", "--specs", str(path), "--json", str(tmp_path / "reports")]


def test_verify_with_trivial_group_never_loads_numpy():
    # gnp:7:2:5:2 has |Aut| = 1, so the equivariance check (the one numpy
    # path of verify) has no generator to test
    rc, loaded = _modules_loaded_after(["verify", "--gen", "gnp:7:2:5:2"])
    assert rc == 0 and "numpy" not in loaded


def test_boolean_never_loads_numpy():
    # every level is certified by the commutation identity, in integers
    rc, loaded = _modules_loaded_after(["boolean", "--n", "12"])
    assert rc == 0 and "numpy" not in loaded


@pytest.mark.parametrize("command", ["verify", "batch"])
def test_small_symmetric_graph_never_loads_numpy(command, tmp_path):
    # K6 (|Aut| = 720, 5 generators) has at most 2,250 nonzeros x generators
    # in a slot, under the limit from which equivariance uses numpy
    if command == "verify":
        argv = ["verify", "--gen", "complete:6"]
    else:
        argv = _batch_argv(tmp_path, "complete:6\n")
    rc, loaded = _modules_loaded_after(argv)
    assert rc == 0 and "numpy" not in loaded


GRAPH = {"graph", "matchings", "autgroup", "transfer"}
GRAPH_SIDE = GRAPH | {"graphcli", "phimap", "polyring"}
# `gen`, `count`, `aut` and `transfer` compile none of the `verify` side
TOOLS = GRAPH | {"graphtools"}


@pytest.mark.parametrize(
    "argv, own",
    [
        (["--version"], set()),
        # no graph module, and not the parser built for help (`usage`)
        (["boolean", "--n", "12"], {"boollattice", "brackets", "gram"}),
        # a trivial group applies no f, and the slot identity certifies every
        # rank, so neither the bracket successor nor a rank is compiled
        (["verify", "--gen", "gnp:8:1:2:7"], GRAPH_SIDE | {"gram"}),
        # the f scan of a nontrivial group brings in the bracket successor
        # alone: no Boolean suite and no exact algebra
        (["verify", "--gen", "complete:6"], GRAPH_SIDE | {"brackets", "gram"}),
        (["batch", "--specs", "{tmp}/specs.txt", "--json", "{tmp}/reports"], GRAPH_SIDE | {"brackets", "gram"}),
        # C6 with a chord has |Aut| = 4; its file's digest loads no `hashlib`
        (["verify", "--file", "{tmp}/chorded_c6.txt"], GRAPH_SIDE | {"brackets", "gram"}),
        (["gen", "cycle:6"], TOOLS),
        (["count", "--gen", "petersen"], TOOLS),
        (["aut", "--gen", "cycle:6"], TOOLS),
        (["transfer", "--gen", "cycle:6", "--blue", "0-1", "--pink", "0-1,2-3,4-5", "--kratt"], TOOLS | {"brackets"}),
    ],
    ids=[
        "version", "boolean", "verify-trivial-group", "verify-symmetric", "batch", "verify-file",
        "gen", "count", "aut", "transfer",
    ],
)
def test_command_loads_only_the_modules_it_runs(argv, own, tmp_path):
    # `--version` and `boolean` read no graph, so neither compiles the graph side;
    # `verify` and `batch` never compile `graphtools`, `boollattice` or `usage`
    (tmp_path / "specs.txt").write_text("complete:6\n")
    (tmp_path / "chorded_c6.txt").write_text(CHORDED_C6)
    rc, loaded = _modules_loaded_after([token.format(tmp=tmp_path) for token in argv])
    assert rc == 0
    ours = {name for name in loaded if name.split(".")[0] == "equimatch"}
    assert ours == {"equimatch", "equimatch.cli"} | {f"equimatch.{m}" for m in own}
    # a report is written without the `json` package
    assert not {"numpy", "hashlib", "_hashlib", "json", "json.decoder"} & loaded


def test_a_level_whose_identity_fails_compiles_exactalg_and_falls_back():
    # every identity reported as failing: each level is ranked by elimination
    code = (
        "import sys\n"
        "from equimatch import boollattice, cli\n"
        "before = 'equimatch.exactalg' in sys.modules\n"
        "boollattice.gram_identity_holds = lambda cols, shift, witnesses: False\n"
        "rc = cli.run(['boolean', '--n', '6'])\n"
        "print(rc, before, 'equimatch.exactalg' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 False True"
    assert b"4 levels, identity 0 / mod-p 4 / bareiss 0" in proc.stderr


@pytest.mark.parametrize("command", ["version", "boolean", "verify", "batch"])
def test_no_command_loads_dataclasses(command, tmp_path):
    argv = {
        "version": ["--version"],
        "boolean": ["boolean", "--n", "12"],
        "verify": ["verify", "--gen", "gnp:7:2:5:2"],
        "batch": _batch_argv(tmp_path, "cycle:6\npath:4\n"),
    }[command]
    rc, loaded = _modules_loaded_after(argv)
    assert rc == 0 and "dataclasses" not in loaded


FRONT_END = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "command, code, parsed_by_argparse",
    [
        ("version", 0, False),
        ("boolean", 0, False),
        ("verify", 0, False),
        ("batch", 0, False),
        ("help", 0, True),
        ("usage-error", 2, True),
    ],
)
def test_only_help_and_usage_errors_load_argparse(command, code, parsed_by_argparse, tmp_path):
    argv = {
        "version": ["--version"],
        "boolean": ["boolean", "--n", "8"],
        "verify": ["verify", "--gen", "gnp:8:1:2:7"],
        "batch": _batch_argv(tmp_path, "cycle:6\npath:4\n"),
        "help": ["--help"],
        "usage-error": ["verify", "--gen", "cycle:6", "--bogus"],
    }[command]
    rc, loaded = _modules_loaded_after(argv)
    assert rc == code
    if parsed_by_argparse:
        assert "argparse" in loaded
    else:
        assert not FRONT_END & loaded


# --- the process runs with the cyclic collector off ---


@contextmanager
def collector_off():
    """The collector off, with every earlier cycle collected; restored afterwards.

    Entered inside the test body: pytest's own machinery between a fixture
    and the body may drop cycles of its own.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("spec, ell, k", [("petersen", 2, 2), ("complete:8", 2, 3)])
def test_an_all_check_slot_decodes_its_pairs_from_the_levels(spec, ell, k, monkeypatch):
    # every check reads Φ's columns and the table's levels, so neither pair
    # tuple is built; complete:8's slot takes the numpy equivariance path,
    # and its f-equivariance record is skipped by the budget
    built = []

    def build(*args, **kwargs):
        built.append(phimap.build_phi(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(graphcli, "build_phi", build)
    g = generate(spec)
    t = matching_table(g)
    group = graphcli.automorphisms(g)
    records = graphcli._run_checks(g, ell, k, cli.ALL_CHECKS, cli.DEFAULT_BUDGET, group, t)
    statuses = {check: status for (check, _, _, status, _) in records}
    assert all(statuses[c] == "pass" for c in cli.ALL_CHECKS if graphcli.CHECKS[c].reads_phi)
    assert "fail" not in statuses.values()
    assert len(built) == 1 and built[0].blocks > 0
    assert not {"col_pairs", "row_pairs"} & vars(built[0]).keys()


@pytest.mark.parametrize("spec", ["cycle:6", "petersen", "complete:6", "gnp:8:1:2:7"])
def test_a_verify_report_leaves_no_cyclic_garbage(spec):
    # reference counting alone frees everything a report drops, so `main`
    # loses nothing by running without the collector
    with collector_off():
        g = generate(spec)
        t = matching_table(g)
        report, group = graphcli._verify_report(g, spec, t.slots, cli.ALL_CHECKS, cli.DEFAULT_BUDGET, t)
        passed = report["overall"] == "pass" and group is not None
        del g, t, report, group
        garbage = gc.collect()
    assert passed and garbage == 0


def test_the_boolean_suite_leaves_no_cyclic_garbage():
    with collector_off():
        passed = boollattice.verify_lemma(8).passed
        passed &= all(boollattice.chains_are_valid(boollattice.symmetric_chains(8, i)) for i in range(5))
        garbage = gc.collect()
    assert passed and garbage == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["--version"], ["verify", "--gen", "cycle:6"], ["boolean", "--n", "4"]])
def test_run_leaves_the_collector_as_it_found_it(enabled, argv, capsys):
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(argv) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_main_runs_the_command_with_the_collector_off_and_runs_no_atexit_handler():
    # `main` ends the process by `os._exit` once stdout is flushed: the
    # command's own output arrives, and interpreter teardown never runs
    code = (
        "import atexit, gc, sys\n"
        "from equimatch import cli, graphtools\n"
        "atexit.register(print, 'atexit handler ran')\n"
        "count = graphtools.cmd_count\n"
        "graphtools.cmd_count = lambda args: print('collector on:', gc.isenabled()) or count(args)\n"
        "sys.argv = ['equimatch', 'count', '--gen', 'cycle:6']\n"
        "cli.main()\n"
        "print('main returned')\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "collector on: False",
        "m = [1, 6, 9, 2]",
        "r = 3",
        "log-concavity: all 6 slacks nonnegative",
    ]


# the Boolean report (2 kB) sits in stdout's buffer until the process exits
@pytest.mark.parametrize("argv", [["verify", "--gen", "petersen"], ["boolean", "--n", "8"]], ids=" ".join)
def test_a_process_writes_the_same_report_to_stdout_as_to_its_json_file(argv, tmp_path):
    out = tmp_path / "report.json"
    to_stdout = _python("-m", "equimatch", *argv)
    to_file = _python("-m", "equimatch", *argv, "--json", str(out))
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()
    assert json.loads(to_stdout.stdout)["overall"] == "pass"


def test_a_process_keeps_its_exit_codes():
    version = _python("-m", "equimatch", "--version")
    assert version.returncode == 0
    assert version.stdout.decode().strip() == cli.__version__
    usage = _python("-m", "equimatch", "verify", "--gen", "cycle:6", "--ell", "1")
    assert usage.returncode == 2
    assert usage.stdout == b""
    assert b"--ell and --k must be given together" in usage.stderr
    skipped = _python("-m", "equimatch", "verify", "--gen", "cycle:6", "--ell", "1", "--k", "1",
                      "--check", "injective", "--budget", "1")
    assert skipped.returncode == 3
    assert json.loads(skipped.stdout)["overall"] == "skipped"


# K6's report (7 kB) and the Boolean one (2 kB) wait in stdout's buffer for
# `main`'s flush; Petersen's (19 kB) overflows it, so `emit` meets the closed
# pipe itself, as every write does when stdout is unbuffered.  Either way the
# process ends with 120, while a --json path that cannot be written is still
# an input error.
@pytest.mark.parametrize(
    "argv, code, unbuffered",
    [
        (["verify", "--gen", "complete:6"], 120, False),
        (["boolean", "--n", "8"], 120, False),
        (["verify", "--gen", "petersen"], 120, False),
        (["--version"], 120, False),
        (["verify", "--gen", "complete:6"], 120, True),
        (["verify", "--gen", "petersen"], 120, True),
        (["--version"], 120, True),
        (["count", "--gen", "petersen"], 120, True),
        (["verify", "--help"], 120, True),
        (["verify", "--gen", "cycle:6", "--json", os.devnull + "/report.json"], 2, True),
    ],
    ids=lambda value: (
        " ".join(value) if isinstance(value, list)
        else ("unbuffered" if value else "buffered") if isinstance(value, bool) else str(value)
    ),
)
def test_a_process_whose_stdout_is_closed_exits_as_the_interpreter_would(argv, code, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "equimatch", *argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
