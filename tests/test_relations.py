"""Metamorphic relations between whole `verify` reports.

Each relation compares the reports of two graphs built by `graph_from_edges`
and needs no second implementation, so it also catches a mistake an oracle
shares.
"""

from itertools import combinations, permutations, product
from math import comb

from hypothesis import assume, given, settings, strategies as st

from equimatch.cli import ALL_CHECKS, DEFAULT_BUDGET
from equimatch.graph import graph_from_edges
from equimatch.graphcli import _verify_report
from equimatch.matchings import matching_table
from equimatch.phimap import block_partition, build_phi
from equimatch.transfer import odd_chains

# named by vertex labels, or (the f scan's note) present only with its witness
WITNESS_KEYS = {"witness", "counterexample", "violating_monomial", "note"}


def _report(n: int, edges) -> dict:
    g = graph_from_edges(n, edges)
    t = matching_table(g)
    return _verify_report(g, "relation", t.slots, ALL_CHECKS, DEFAULT_BUDGET, t)[0]


def _records(report: dict) -> dict:
    """(check, l, k) -> (status, details without witnesses)."""
    return {
        (r["check"], r["ell"], r["k"]): (
            r["status"],
            {key: v for key, v in r["details"].items() if key not in WITNESS_KEYS},
        )
        for r in report["checks"]
    }


@st.composite
def graphs(draw, max_n=8):
    """A vertex count and the edges of one subset of its pairs, a few vertices cut loose."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loose = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return n, [e for e, keep in zip(pairs, kept) if keep and not set(e) & loose]


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_a_relabelled_graph_has_the_same_report(graph, data):
    n, edges = graph
    pi = data.draw(st.permutations(range(n)), label="pi")
    base = _report(n, edges)
    moved = _report(n, [(pi[u], pi[v]) for (u, v) in edges])
    for report in (base, moved):
        del report["graph"]["descriptor"]
        for rec in report["checks"]:
            if rec["check"] == "f-equivariance":
                rec["details"] = {}  # f depends on the vertex order by design
    assert _records(moved) == _records(base)
    base["checks"] = moved["checks"] = None
    assert moved == base


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_an_isolated_vertex_multiplies_each_group_order(graph):
    n, edges = graph
    before = n - len({v for e in edges for v in e})  # isolated vertices of G
    base, grown = _report(n, edges), _report(n + 1, edges)
    assert grown["graph"]["n"] == n + 1
    assert (grown["matching_numbers"], grown["r"]) == (base["matching_numbers"], base["r"])
    assert grown["group_order"] == base["group_order"] * (before + 1)
    old, new = _records(base), _records(grown)
    assert old.keys() == new.keys()
    for key, (status, details) in old.items():
        if key[0] == "f-equivariance" and "skipped" in (status, new[key][0]):
            continue  # the columns x |Aut| rule reads the larger group
        if "group_order" in details:
            details["group_order"] *= before + 1
        assert new[key] == (status, details), key


@st.composite
def connected_graphs(draw, max_n=5):
    """A vertex count and the edges of a random spanning tree plus some other pairs."""
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    return n, tree + [e for e in pairs if draw(st.booleans())]


def _canonical(n: int, edges) -> list:
    """The least sorted relabelled edge list, which isomorphic graphs share."""
    return min(sorted(tuple(sorted((p[u], p[v]))) for (u, v) in edges) for p in permutations(range(n)))


def _subject(n: int, edges) -> dict:
    """A report's graph subject, with the group order, and no slot checked."""
    g = graph_from_edges(n, edges)
    t = matching_table(g)
    return _verify_report(g, "relation", [], ["equivariant"], DEFAULT_BUDGET, t)[0]


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), connected_graphs())
def test_a_disjoint_union_convolves_the_matching_numbers_and_multiplies_the_groups(g, h):
    (n, g_edges), (m, h_edges) = g, h
    assume(n != m or _canonical(n, g_edges) != _canonical(m, h_edges))
    both = _subject(n + m, g_edges + [(n + u, n + v) for (u, v) in h_edges])
    g_subject, h_subject = _subject(n, g_edges), _subject(m, h_edges)
    a, b = g_subject["matching_numbers"], h_subject["matching_numbers"]
    convolution = [0] * (len(a) + len(b) - 1)
    for i, j in product(range(len(a)), range(len(b))):
        convolution[i + j] += a[i] * b[j]
    assert both["matching_numbers"] == convolution
    assert both["group_order"] == g_subject["group_order"] * h_subject["group_order"]


def _colored_positions(chains, ends, pink) -> int:
    """The positions of a pair's blue chains among its one-colored set's chains, as a bitset."""
    return sum(1 << i for i, c in enumerate(chains) if not pink & ends & c)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(14)))
def test_phi_on_seven_disjoint_edges_is_the_boolean_lemma(label):
    """Every block is the up map C(N', b) -> C(N', b + 1) on N' odd chains, b < N'/2,
    and every shape with N' <= 7 and N' - 2b >= 2 occurs."""
    g = graph_from_edges(14, [(label[2 * i], label[2 * i + 1]) for i in range(7)])
    t = matching_table(g)
    shapes = set()
    for (ell, k) in t.slots:
        if k == t.r:
            continue  # no column pair
        phi = build_phi(g, ell, k, table=t)
        rows = phi.row_pairs
        for block in block_partition(phi):
            blue, pink = phi.col_pairs[block.col_indices[0]]
            chains, ends = odd_chains(g, blue ^ pink)[:2]
            size, b = len(chains), len(chains) - len(phi.columns[block.col_indices[0]])
            up = {}
            for j in block.col_indices:
                column = _colored_positions(chains, ends, phi.col_pairs[j][1])
                up[column] = {_colored_positions(chains, ends, rows[r][1]) for r in phi.columns[j]}
            assert sorted(up) == sorted(sum(1 << i for i in s) for s in combinations(range(size), b))
            for column, reached in up.items():
                assert reached == {column | 1 << i for i in range(size) if not column >> i & 1}
            assert 2 * b < size and len(up) == len(block.col_indices) == comb(size, b)
            shapes.add((size, b))
    assert shapes == {(size, b) for size in range(8) for b in range(size) if size - 2 * b >= 2}
