"""Outside-in traced pass: the library's public calls, spanned one by one.

The pass repeats, in-process and in the same order, what `equimatch batch`
and `equimatch boolean` call, so each span's self time belongs to one
library function.  Spans are kept in memory and written out by the caller.
The one extra call is an explicit `block_partition` after `build_phi`, which
exposes the block counts; `verify_injective` still partitions internally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import workloads as wl

# per_layer metric names; the times are self seconds summed over the pass
SPAN_NAMES = (
    "graph.generate",
    "graph.parse_graph",
    "matchings.matching_table",
    "autgroup.automorphisms",
    "phimap.build_phi",
    "phimap.block_partition",
    "phimap.verify_injective",
    "phimap.verify_equivariant",
    "phimap.count_parts",
    "polyring.verify_nonneg",
    "polyring.verify_diagram",
    "transfer.f_equivariance_counterexample",
    "boollattice.up_map",
    "exactalg.rank_certified",
    "boollattice.symmetric_chains",
)
COUNT_NAMES = (
    "matchings.total",
    "autgroup.group_order",
    "autgroup.elements_checked",
    "phimap.pairs",
    "phimap.nnz",
    "transfer.pairs_decomposed",
    "phimap.blocks",
    "phimap.largest_block_cols",
    "phimap.distinct_unions",
    "polyring.terms",
)
BOOKKEEPING = "perfbench.bookkeeping"
ROOT = "perfbench.graph"  # parent of every span of one graph; its self time is unattributed


@dataclass
class Tracer:
    """Spans as (id, name, start, end, parent id, graph id) tuples, in memory."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    graph_id: str = ""

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.graph_id)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for (_, _, start, end, parent, _) in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (sid, name, start, end, _, _) in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child[sid])
        return out


def _count_phi(counts: dict, unions: set, phi, blocks) -> None:
    counts["phimap.pairs"] += len(phi.col_pairs) + len(phi.row_pairs)
    counts["phimap.nnz"] += phi.nnz
    counts["transfer.pairs_decomposed"] += len(phi.col_pairs)
    counts["phimap.blocks"] += len(blocks)
    counts["phimap.largest_block_cols"] = max(
        counts["phimap.largest_block_cols"], *(len(b.col_indices) for b in blocks))
    unions.update(b | p for (b, p) in phi.col_pairs)
    unions.update(b | p for (b, p) in phi.row_pairs)


def _verify_graph(tr: Tracer, lib, exp: wl.Expected, counts: dict, errors: list) -> None:
    generate, parse_graph, matching_table, automorphisms, phimap, polyring, transfer = lib
    spec = exp.spec
    if wl.generated(spec):
        g = tr.span("graph.generate", generate, spec)
    else:
        # `cmd_verify --file` parses the edge-list document
        text = tr.span(BOOKKEEPING, wl.edge_list, spec)
        g = tr.span("graph.parse_graph", parse_graph, text)
    # `cmd_batch` and `cmd_verify` build the table once themselves and once in `_verify_report`
    tr.span("matchings.matching_table", matching_table, g)
    t = tr.span("matchings.matching_table", matching_table, g)
    group = tr.span("autgroup.automorphisms", automorphisms, g)
    if list(t.counts) != exp.counts:
        errors.append(f"{spec}: matching numbers {list(t.counts)} != {exp.counts}")
    if group.order != exp.group_order:
        errors.append(f"{spec}: group order {group.order} != {exp.group_order}")
    counts["matchings.total"] += sum(t.counts)
    counts["autgroup.group_order"] += group.order
    unions: set[int] = set()
    for (ell, k) in wl.slots(t.r):
        where = f"{spec} ({ell},{k})"
        # `_run_checks` rebuilds the table for every slot
        t = tr.span("matchings.matching_table", matching_table, g)
        phi = None
        if k + 1 <= t.r:
            phi = tr.span("phimap.build_phi", phimap.build_phi, g, ell, k, table=t, budget=wl.BUDGET)
            blocks = tr.span("phimap.block_partition", phimap.block_partition, phi)
            # benchmark bookkeeping gets its own span so it stays out of unattributed.s
            tr.span(BOOKKEEPING, _count_phi, counts, unions, phi, blocks)
        # the checks in the CLI's (sorted) order
        rep = tr.span("polyring.verify_diagram", polyring.verify_diagram, g, ell, k, table=t, phi=phi)
        if not rep.passed:
            errors.append(f"{where}: diagram failed")
        rep = tr.span("phimap.verify_equivariant", phimap.verify_equivariant,
                      g, ell, k, table=t, group=group, phi=phi)
        counts["autgroup.elements_checked"] += group.order
        if not rep.passed:
            errors.append(f"{where}: equivariance failed")
        cols = t.m(ell - 1) * t.m(k + 1)
        if cols * max(group.order, 1) <= wl.BUDGET:
            tr.span("transfer.f_equivariance_counterexample",
                    transfer.f_equivariance_counterexample, g, group, ell, k)
            counts["transfer.pairs_decomposed"] += cols
        rep = tr.span("phimap.verify_injective", phimap.verify_injective, g, ell, k, table=t, phi=phi)
        if rep.total_rank != exp.columns(ell, k) or not rep.passed:
            errors.append(f"{where}: rank {rep.total_rank} != {exp.columns(ell, k)}")
        rep = tr.span("polyring.verify_nonneg", polyring.verify_nonneg, g, ell, k, table=t)
        counts["polyring.terms"] += rep.term_count
        if not rep.passed:
            errors.append(f"{where}: nonneg failed")
        recs = tr.span("phimap.count_parts", phimap.count_parts, g, ell, k, table=t, phi=phi)
        if not all(r.counts_equal for r in recs):
            errors.append(f"{where}: part counts differ")
    counts["phimap.distinct_unions"] += len(unions)


def _boolean(tr: Tracer, n: int, counts: dict, errors: list) -> None:
    from math import comb

    from equimatch import boollattice, exactalg

    # count the exact-fallback calls rank_certified makes, to tell mod-p
    # certified levels from Bareiss ones
    fallbacks = []
    real_rank = exactalg.rank

    def counting_rank(m):
        fallbacks.append(1)
        return real_rank(m)

    levels = min(n // 2, n - 1) + 1
    exactalg.rank = counting_rank
    try:
        for i in range(levels):
            m = tr.span("boollattice.up_map", boollattice.up_map, n, i)
            rk = tr.span("exactalg.rank_certified", exactalg.rank_certified, m)
            if rk != min(comb(n, i), comb(n, i + 1)):
                errors.append(f"boolean level {i}: rank {rk}")
    finally:
        exactalg.rank = real_rank
    counts["exactalg.levels"] += levels
    counts["exactalg.fallbacks"] += len(fallbacks)
    for i in range(n // 2 + 1):
        fam = tr.span("boollattice.symmetric_chains", boollattice.symmetric_chains, n, i)
        errors.extend(tr.span(BOOKKEEPING, wl.chain_family_errors, n, i, fam.chains))


def traced_pass(workload: str, expected: list[wl.Expected]) -> tuple[dict, Tracer, list[str]]:
    """One traced pass over the workload's graphs; returns per-layer metrics, spans and errors."""
    from equimatch import phimap, polyring, transfer
    from equimatch.autgroup import automorphisms
    from equimatch.graph import generate, parse_graph
    from equimatch.matchings import matching_table

    lib = (generate, parse_graph, matching_table, automorphisms, phimap, polyring, transfer)
    counts = dict.fromkeys(COUNT_NAMES + ("exactalg.levels", "exactalg.fallbacks"), 0)
    errors: list[str] = []
    tr = Tracer()
    start = time.perf_counter()
    for gid, exp in enumerate(expected):
        tr.graph_id = f"{gid}:{exp.spec}"
        tr.span(ROOT, _verify_graph, tr, lib, exp, counts, errors)
    if workload == "boolean":
        tr.graph_id = f"boolean:{wl.BOOLEAN_N}"
        tr.span(ROOT, _boolean, tr, wl.BOOLEAN_N, counts, errors)
    total = time.perf_counter() - start

    selfs = tr.self_times()
    metrics = {f"{name}.s": (selfs.get(name, 0.0), "s") for name in SPAN_NAMES}
    attributed = sum(v for name, v in selfs.items() if name != ROOT)
    metrics["unattributed.s"] = (total - attributed, "s")
    metrics["trace.total.s"] = (total, "s")
    for name in COUNT_NAMES:
        metrics[name] = (counts[name], "count")
    metrics["phimap.pairs_per_union"] = (
        counts["phimap.pairs"] / counts["phimap.distinct_unions"]
        if counts["phimap.distinct_unions"] else 0.0, "ratio")
    metrics["exactalg.modp_certified"] = (
        1 - counts["exactalg.fallbacks"] / counts["exactalg.levels"]
        if counts["exactalg.levels"] else 0.0, "ratio")
    return metrics, tr, errors
