"""Metamorphic relations between whole `verify` reports.

Each relation compares the reports of two graphs built by `graph_from_edges`
and needs no second implementation, so it also catches a mistake an oracle
shares.
"""

from hypothesis import given, settings, strategies as st

from equimatch.cli import ALL_CHECKS, DEFAULT_BUDGET
from equimatch.graph import graph_from_edges
from equimatch.graphcli import _verify_report
from equimatch.matchings import matching_table

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
