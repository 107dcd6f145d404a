"""The `verify` and `batch` commands and the `verify` check table.

`cli.run` imports this module only for `verify` and `batch`, so
`equimatch --version` and `equimatch boolean` never compile the graph side
(`graph`, `matchings`, `autgroup`, `transfer`, `phimap`, `polyring`), and
these two commands never compile the others (`graphtools`) or the Boolean
suite.  Arguments reach them already parsed and checked by `cli`, all but
those that need the graph (a `verify` slot must lie within 1..r).  Both
run one graph at a time through `_verify_graph`, which walks the slots in
the table's order (`MatchingTable.slots`), hands the records to
`cli.make_report` and writes the report.  A check whose work on a slot is
over the budget is skipped there before any runs, a check reading Φ by
Φ's exact nonzero count (`phimap.nonzeros`).  `batch` makes its output
directory only once every spec is generated and within the vertex limit.
"""

from __future__ import annotations

import re
import sys
import time
from collections import namedtuple
from pathlib import Path

from . import phimap, polyring
from .autgroup import automorphisms, check_vertex_limit
from .cli import ALL_CHECKS, emit, make_report, overall, report_exit
from .graph import Graph, edge_token, generate, load_graph
from .matchings import matching_table
from .phimap import build_phi
from .transfer import f_equivariance_counterexample


def _witness(g: Graph, sigma, blue: int, pink: int) -> dict:
    return {"sigma": list(sigma), "blue": edge_token(g, blue), "pink": edge_token(g, pink)}


class Check(namedtuple("Check", "reads_phi reads_group work run")):
    """One `verify` check: what it reads besides the matching table, what it walks, and its run.

    `work(t, ell, k, group)` counts what the check walks on a slot, from the
    table's counts alone; `run(g, ell, k, table, group, phi)` returns (passed, details).
    """

    __slots__ = ()


def _injective(g, ell, k, t, group, phi):
    rep = phimap.verify_injective(g, ell, k, table=t, phi=phi)
    return rep.passed, {"rank": rep.total_rank, "columns": rep.expected, "blocks": rep.blocks}


def _equivariant(g, ell, k, t, group, phi):
    rep = phimap.verify_equivariant(g, ell, k, table=t, group=group, phi=phi)
    details = {"group_order": rep.group_order, "columns": rep.columns}
    if rep.failures:
        sigma, (blue, pink) = rep.failures[0]
        details["witness"] = _witness(g, sigma, blue, pink)
    return rep.passed, details


def _diagram(g, ell, k, t, group, phi):
    rep = polyring.verify_diagram(g, ell, k, table=t, phi=phi)
    return rep.passed, {"columns": rep.columns}


def _nonneg(g, ell, k, t, group, phi):
    rep = polyring.verify_nonneg(g, ell, k, table=t)
    details = {"terms": rep.term_count}
    if rep.violations:
        exps, coeff = rep.violations[0]
        details["violating_monomial"] = {"exponents": list(exps), "coefficient": str(coeff)}
    return rep.passed, details


def _parts(g, ell, k, t, group, phi):
    recs = phimap.count_parts(g, ell, k, table=t, phi=phi)
    return all(r.counts_equal for r in recs), {
        "unions": len(recs),
        "all_match_pow_edges": all(r.matches_pow_edges for r in recs),
        "all_match_pow_components": all(r.matches_pow_components for r in recs),
    }


def _f_equivariance(g, ell, k, t, group, phi):
    """Expected failure: the single-output map is order dependent, so a
    counterexample on a graph with nontrivial symmetry counts as a pass."""
    witness = f_equivariance_counterexample(g, group, ell, k, table=t)
    details = {"counterexample": None, "group_order": group.order}
    if witness is not None:
        sigma, (blue, pink) = witness
        details["counterexample"] = _witness(g, sigma, blue, pink)
        details["note"] = "expected failure of the order-dependent map, witnessed"
    return True, details


def _phi_nonzeros(t, ell, k, group):  # exact, so a check reading Φ is skipped just when Φ is over the budget
    return phimap.nonzeros(t, ell, k)


# keyed by the names `cli.ALL_CHECKS` lists for the parser: Check(reads_phi, reads_group, work, run)
CHECKS = {
    "diagram": Check(True, False, _phi_nonzeros, _diagram),
    "equivariant": Check(True, True, _phi_nonzeros, _equivariant),
    "f-equivariance": Check(
        False, True, lambda t, ell, k, group: t.m(ell - 1) * t.m(k + 1) * group.order, _f_equivariance
    ),
    "injective": Check(True, False, _phi_nonzeros, _injective),
    "nonneg": Check(False, False, lambda t, ell, k, group: t.m(ell) * t.m(k), _nonneg),
    "parts": Check(False, False, lambda t, ell, k, group: t.m(ell) * t.m(k) if t.m(k + 1) else 0, _parts),
}


def _run_checks(g: Graph, ell: int, k: int, checks, budget: int, group, t) -> list[tuple]:
    """The (check, ell, k, status, details) records of one slot; `t` is the graph's matching table.

    A check whose work is over the budget is skipped before anything runs.
    Φ is built once, with no budget of its own, only if a check left reads
    it: their work is Φ's exact nonzero count, so no build is refused.
    """
    within = [c for c in checks if CHECKS[c].work(t, ell, k, group) <= budget]
    phi = build_phi(g, ell, k, table=t) if any(CHECKS[c].reads_phi for c in within) else None
    records = []
    for name in checks:
        if name in within:
            passed, details = CHECKS[name].run(g, ell, k, t, group, phi)
            status = "pass" if passed else "fail"
        else:
            status, details = "skipped", {"reason": f"budget {budget} exceeded"}
        records.append((name, ell, k, status, details))
    return records


def _verify_report(g: Graph, descriptor: str, slots, checks, budget: int, t):
    """The report of `checks` over `slots`, and the group, built only if a check needs it (else None)."""
    group = automorphisms(g) if any(CHECKS[c].reads_group for c in checks) else None
    records = [rec for (ell, k) in slots for rec in _run_checks(g, ell, k, checks, budget, group, t)]
    subject = {
        "graph": {"descriptor": descriptor, "n": g.n, "m": g.num_edges},
        "matching_numbers": list(t.counts),
        "r": t.r,
        "group_order": None if group is None else group.order,
    }
    return make_report(subject, records), group


def _verify_graph(g: Graph, descriptor: str, slots, checks, budget: int, t, json_path) -> str:
    """Write the report of `checks` over `slots`, and to stderr its summary with the group's size."""
    started = time.monotonic()
    report, group = _verify_report(g, descriptor, slots, checks, budget, t)
    elapsed = time.monotonic() - started
    status = emit(report, json_path)
    aut = ""
    if group is not None:
        gens = len(group.generators)
        aut = f", |Aut| {group.order} from {gens} generator{'' if gens == 1 else 's'}"
    summary = f"{len(report['checks'])} records{aut}, {elapsed:.2f}s"
    print(f"verify {descriptor}: {status} ({summary})", file=sys.stderr)
    return status


def cmd_verify(args) -> int:
    g, descriptor = load_graph(args)
    t = matching_table(g)
    if args.ell is not None:
        # `cli` has checked that --ell and --k come together, without --all
        if not (1 <= args.ell <= args.k <= t.r):
            print(f"need 1 <= ell <= k <= r = {t.r}", file=sys.stderr)
            return 2
        slots = [(args.ell, args.k)]
    else:
        slots = t.slots
    return report_exit(_verify_graph(g, descriptor, slots, args.check, args.budget, t, args.json))


def cmd_batch(args) -> int:
    lines = (line.strip() for line in Path(args.specs).read_text().splitlines())
    specs = [line for line in lines if line and not line.startswith("#")]
    outdir = Path(args.json)
    # two specs writing one file, a bad spec, or a graph too large for the
    # group checks batch always runs, is refused before the directory is made
    paths: dict[Path, str] = {}
    for spec in specs:
        path = outdir / (re.sub(r"[^A-Za-z0-9_.-]", "_", spec) + ".json")
        if path in paths:
            raise ValueError(f"specs {paths[path]!r} and {spec!r} would both write {path}")
        paths[path] = spec
    graphs = [generate(spec) for spec in specs]
    for g in graphs:
        check_vertex_limit(g.n)
    outdir.mkdir(parents=True, exist_ok=True)
    statuses = []
    for (path, spec), g in zip(paths.items(), graphs):
        t = matching_table(g)
        status = _verify_graph(g, f"gen:{spec}", t.slots, ALL_CHECKS, args.budget, t, str(path))
        statuses.append(status)
    return report_exit(overall(statuses))
