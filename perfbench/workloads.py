"""Workload inputs and the independent oracles the benchmark validates against.

Nothing here imports equimatch: the graphs, matching counts and group orders
are computed from first principles so that a fault in the library cannot
vouch for itself.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from math import comb

ALL_CHECKS = ("diagram", "equivariant", "f-equivariance", "injective", "nonneg", "parts")
BUDGET = 10**6  # the CLI's default --budget, which every workload runs with
BOOLEAN_N = 11

# the workload names, in BENCHMARK.json order
WORKLOADS = ("pairs-heavy", "symmetric", "boolean")

# group orders known in closed form; the backtracking oracle must agree
KNOWN_GROUP_ORDERS = {"petersen": 120, "complete:6": 720, "kbipartite:4:4": 1152}

# A graph with a trivial group and 13,966 row+column pairs over the slots
# that build a map.  The seed only relabels its vertices, so every seed
# does the same work.  Graphs this size keep a sample near one second, and
# short samples are what make the ratio to the pinned program steady.
PAIRS_HEAVY_TEMPLATE = "gnp:8:1:2:7"
# one small graph, so a sample stays under a second
SYMMETRIC_SPECS = ("complete:6",)

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def generated(spec: str) -> bool:
    """Whether the CLI's generator grammar knows the spec; `relabel:` is the benchmark's own."""
    return not spec.startswith("relabel:")


def graph_of(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a generator spec, per the documented grammar.

    `relabel:<seed>:<spec>` is the graph of `<spec>` with its vertices
    permuted by a permutation drawn from `<seed>`.
    """
    parts = spec.split(":")
    if parts[0] == "relabel":
        n, edges = graph_of(":".join(parts[2:]))
        rng = splitmix64(int(parts[1]))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = next(rng) % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return n, sorted(tuple(sorted((perm[u], perm[v]))) for (u, v) in edges)
    if parts[0] == "complete":
        n = int(parts[1])
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if parts[0] == "kbipartite":
        a, b = int(parts[1]), int(parts[2])
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    if parts[0] == "petersen":
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return 10, edges
    if parts[0] == "gnp":
        n, p_num, p_den, seed = (int(x) for x in parts[1:])
        rng = splitmix64(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if next(rng) * p_den < p_num << 64]
        return n, edges
    raise ValueError(f"no oracle for spec {spec!r}")


def matching_counts(edges) -> list[int]:
    """m_0, m_1, ... by brute force over edge subsets of each size."""
    counts = [1]
    k = 1
    while True:
        m = 0
        for sub in combinations(edges, k):
            verts = {v for e in sub for v in e}
            if len(verts) == 2 * k:
                m += 1
        if not m:
            return counts
        counts.append(m)
        k += 1


def group_order(n: int, edges) -> int:
    """Number of adjacency-preserving vertex bijections, by backtracking."""
    adj = [0] * n
    for (u, v) in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    image = [0] * n

    def count(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used >> w & 1:
                continue
            if all((adj[v] >> u & 1) == (adj[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                total += count(v + 1, used | 1 << w)
        return total

    return count(0, 0)


def edge_list(spec: str) -> str:
    """The graph of a spec as an edge-list document: "n m", then one "u v" per edge."""
    n, edges = graph_of(spec)
    return "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for (u, v) in edges)])


def slots(r: int) -> list[tuple[int, int]]:
    return [(l, k) for k in range(1, r + 1) for l in range(1, k + 1)]


def specs_for(workload: str, seed: int) -> list[str]:
    """Graph specs of a verify or batch workload; the boolean workload has none."""
    if workload == "pairs-heavy":
        return [f"relabel:{seed}:{PAIRS_HEAVY_TEMPLATE}"]
    if workload == "symmetric":
        return list(SYMMETRIC_SPECS)
    if workload == "boolean":
        return []
    raise ValueError(f"unknown workload {workload!r}")


class Expected:
    """Oracle facts about one graph spec, computed without the library."""

    def __init__(self, spec: str):
        self.spec = spec
        self.n, self.edges = graph_of(spec)
        self.counts = matching_counts(self.edges)
        self.group_order = group_order(self.n, self.edges)
        known = KNOWN_GROUP_ORDERS.get(spec)
        if known is not None and known != self.group_order:
            raise RuntimeError(f"oracle group order {self.group_order} != {known} for {spec}")

    @property
    def r(self) -> int:
        return len(self.counts) - 1

    def m(self, k: int) -> int:
        return self.counts[k] if 0 <= k <= self.r else 0

    def columns(self, ell: int, k: int) -> int:
        return self.m(ell - 1) * self.m(k + 1)


def verify_report_errors(report: dict, exp: Expected) -> list[str]:
    """Reasons a `verify`/`batch` report is wrong for its graph; empty when it is right."""
    errs = []
    if report.get("overall") != "pass":
        errs.append(f"overall {report.get('overall')!r}")
    graph = report.get("graph", {})
    if (graph.get("n"), graph.get("m")) != (exp.n, len(exp.edges)):
        errs.append(f"graph size {graph.get('n')}/{graph.get('m')}")
    if report.get("matching_numbers") != exp.counts:
        errs.append(f"matching_numbers {report.get('matching_numbers')} != {exp.counts}")
    if report.get("r") != exp.r:
        errs.append(f"r {report.get('r')} != {exp.r}")
    if report.get("group_order") != exp.group_order:
        errs.append(f"group_order {report.get('group_order')} != {exp.group_order}")
    records = report.get("checks", [])
    seen = {(r.get("check"), r.get("ell"), r.get("k")) for r in records}
    wanted = {(c, l, k) for c in ALL_CHECKS for (l, k) in slots(exp.r)}
    if wanted - seen:
        errs.append(f"{len(wanted - seen)} (check, l, k) records missing")
    for rec in records:
        where = f"{rec.get('check')}({rec.get('ell')},{rec.get('k')})"
        status = rec.get("status")
        details = rec.get("details", {})
        if status == "skipped":
            # only the f-equivariance scan may be skipped, and only when it
            # really exceeds the budget
            cost = exp.columns(rec["ell"], rec["k"]) * exp.group_order
            if rec.get("check") != "f-equivariance" or cost <= BUDGET:
                errs.append(f"{where} skipped")
        elif status != "pass":
            errs.append(f"{where} {status}")
        if rec.get("check") == "injective":
            cols = exp.columns(rec["ell"], rec["k"])
            if details.get("rank") != cols or details.get("columns") != cols:
                errs.append(f"{where} rank {details.get('rank')} columns "
                            f"{details.get('columns')} expected {cols}")
    return errs


def boolean_report_errors(report: dict, n: int) -> list[str]:
    """Reasons a `boolean` report is wrong; empty when it is right."""
    errs = []
    if report.get("overall") != "pass":
        errs.append(f"overall {report.get('overall')!r}")
    records = report.get("checks", [])
    ranks = [r for r in records if r.get("check") == "lemma-rank"]
    chains = [r for r in records if r.get("check") == "chains"]
    levels = min(n // 2, n - 1) + 1
    if sorted(r.get("ell") for r in ranks) != list(range(levels)):
        errs.append("lemma-rank levels missing")
    if sorted(r.get("ell") for r in chains) != list(range(n // 2 + 1)):
        errs.append("chain families missing")
    for rec in records:
        if rec.get("status") != "pass":
            errs.append(f"{rec.get('check')}({rec.get('ell')}) {rec.get('status')}")
    for rec in ranks:
        i, d = rec["ell"], rec.get("details", {})
        src, dst = comb(n, i), comb(n, i + 1)
        if (d.get("dim_src"), d.get("dim_dst"), d.get("rank")) != (src, dst, min(src, dst)):
            errs.append(f"lemma-rank({i}) {d}")
    for rec in chains:
        if rec.get("details", {}).get("count") != comb(n, rec["ell"]):
            errs.append(f"chains({rec['ell']}) count {rec.get('details')}")
    return errs


def chain_family_errors(n: int, i: int, chains) -> list[str]:
    """Reasons a chain family is not C(n, i) disjoint saturated chains from level i to n-i."""
    seen: set[int] = set()
    for chain in chains:
        if [c.bit_count() for c in chain] != list(range(i, n - i + 1)):
            return [f"chains({i}) wrong levels"]
        if any(a & ~b for a, b in zip(chain, chain[1:])):
            return [f"chains({i}) not nested"]
        if seen.intersection(chain):
            return [f"chains({i}) not disjoint"]
        seen.update(chain)
    if len(chains) != comb(n, i):
        return [f"chains({i}) count {len(chains)}"]
    return []


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()
