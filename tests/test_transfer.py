from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from equimatch import transfer
from equimatch.autgroup import apply_edge_perm, automorphisms, edge_action
from equimatch.graph import edge_bits, generate, graph_from_edges
from equimatch.graphtools import BLUE_CHAIN, PINK_CHAIN, decompose, neighbor_set
from equimatch.matchings import is_matching, matching_table
from equimatch.transfer import chain_walk, f_equivariance_counterexample, krattenthaler_f, odd_chains
from oracles import (
    atlas_graphs,
    chain_kinds,
    direct_even_part,
    enumerate_matchings,
    f_by_definition,
    f_counterexample_eager,
    neighbor_pairs,
    subset_inject,
    union_find_components,
)


def test_decompose_perfect_matching_vs_empty(c6):
    pink = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    dec = decompose(c6, (0, pink))
    assert dec.b == 0 and dec.p == 3
    assert all(c.kind == PINK_CHAIN and c.edges.bit_count() == 1 for c in dec.components)
    assert dec.p - dec.b == 3


def test_decompose_path4(path4):
    dec = decompose(path4, (0, edge_bits(path4, [(0, 1), (2, 3)])))
    assert dec.b == 0 and dec.p == 2


def test_decompose_shared_edge_excluded(c6):
    blue = edge_bits(c6, [(0, 1)])
    pink = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    dec = decompose(c6, (blue, pink))
    assert dec.b == 0 and dec.p == 2
    # the two-colored edge is not in any one-colored component
    shared = blue & pink
    assert all(not (c.edges & shared) for c in dec.components)


def test_neighbor_set_three_edge_chain():
    p6 = generate("path:6")
    # edges 0-1, 2-3 pink; 1-2 blue: a single odd pink chain a-b-c
    blue = edge_bits(p6, [(1, 2)])
    pink = edge_bits(p6, [(0, 1), (2, 3)])
    dec = decompose(p6, (blue, pink))
    assert [c.kind for c in dec.components] == [PINK_CHAIN]
    assert dec.components[0].edges.bit_count() == 3
    assert neighbor_set(p6, (blue, pink)) == ((pink, blue),)


def test_neighbor_set_never_swaps_a_blue_chain(c6):
    pair = (edge_bits(c6, [(0, 1)]), edge_bits(c6, [(2, 3), (4, 5)]))
    dec = decompose(c6, pair)
    assert [c.kind for c in dec.components] == [BLUE_CHAIN, PINK_CHAIN, PINK_CHAIN]
    # each neighbor keeps the blue chain 0-1 blue
    ns = neighbor_set(c6, pair)
    assert len(ns) == 2 and all(b & pair[0] == pair[0] for (b, _) in ns)


def test_neighbor_set_figure_pair(c6):
    pair = (edge_bits(c6, [(0, 1)]), edge_bits(c6, [(0, 1), (2, 3), (4, 5)]))
    ns = neighbor_set(c6, pair)
    assert set(ns) == {
        (edge_bits(c6, [(0, 1), (2, 3)]), edge_bits(c6, [(0, 1), (4, 5)])),
        (edge_bits(c6, [(0, 1), (4, 5)]), edge_bits(c6, [(0, 1), (2, 3)])),
    }


def test_neighbor_set_path4(path4):
    e1 = edge_bits(path4, [(0, 1)])
    e3 = edge_bits(path4, [(2, 3)])
    ns = neighbor_set(path4, (0, e1 | e3))
    assert set(ns) == {(e1, e3), (e3, e1)}


def _all_pairs(g, ell, k):
    return [
        (b, p)
        for b in enumerate_matchings(g, ell - 1)
        for p in enumerate_matchings(g, k + 1)
    ]


@pytest.mark.parametrize("spec", ["cycle:6", "path:4", "complete:5", "gnp:7:1:2:3"])
def test_neighbor_set_properties(spec):
    g = generate(spec)
    t = matching_table(g)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            for pair in _all_pairs(g, ell, k):
                dec = decompose(g, pair)
                assert dec.p - dec.b == k - ell + 2
                blue, pink = pair
                ns = neighbor_set(g, pair)
                assert len(ns) == dec.p >= 2 + dec.b >= 2
                for (b, p) in ns:
                    assert is_matching(g, b) and is_matching(g, p)
                    assert b.bit_count() == ell and p.bit_count() == k
                    assert b | p == blue | pink
                    assert b & p == blue & pink


@pytest.mark.parametrize("spec", ["cycle:6", "path:4", "kbipartite:2:3"])
def test_neighbor_set_is_natural(spec):
    g = generate(spec)
    t = matching_table(g)
    grp = automorphisms(g)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            for pair in _all_pairs(g, ell, k):
                ns = set(neighbor_set(g, pair))
                for sigma in grp:
                    ep = edge_action(sigma, g)
                    moved = (apply_edge_perm(ep, pair[0]), apply_edge_perm(ep, pair[1]))
                    lhs = set(neighbor_set(g, moved))
                    rhs = {
                        (apply_edge_perm(ep, b), apply_edge_perm(ep, p))
                        for (b, p) in ns
                    }
                    assert lhs == rhs


def test_subset_inject_examples():
    assert subset_inject(2, frozenset()) == {1}
    assert subset_inject(4, {2}) == {2, 3}
    assert subset_inject(3, {3}) == {1, 3}


def test_subset_inject_precondition():
    with pytest.raises(ValueError):
        subset_inject(2, {1})
    with pytest.raises(ValueError):
        subset_inject(4, {0})


@pytest.mark.parametrize("n", range(1, 13))
def test_subset_inject_exhaustively_injective(n):
    for b in range((n - 1) // 2 + 1):
        images = set()
        for combo in combinations(range(1, n + 1), b):
            s = frozenset(combo)
            out = subset_inject(n, s)
            assert s < out and len(out) == b + 1
            assert out not in images
            images.add(out)


def test_krattenthaler_path4(path4):
    pair = (0, edge_bits(path4, [(0, 1), (2, 3)]))
    out = krattenthaler_f(path4, pair)
    assert out == (edge_bits(path4, [(0, 1)]), edge_bits(path4, [(2, 3)]))


def test_krattenthaler_converts_lowest_chain(c6):
    # the shared-edge pair: pink chains at edges (2,3) and (4,5); the chain
    # containing the lowest label among odd chains is (2,3)
    pair = (edge_bits(c6, [(0, 1)]), edge_bits(c6, [(0, 1), (2, 3), (4, 5)]))
    out = krattenthaler_f(c6, pair)
    assert out == (edge_bits(c6, [(0, 1), (2, 3)]), edge_bits(c6, [(0, 1), (4, 5)]))


@pytest.mark.parametrize("spec", ["cycle:6", "path:4", "complete:5", "petersen"])
def test_krattenthaler_injective_and_in_neighbor_set(spec):
    g = generate(spec)
    t = matching_table(g)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            if t.m(k + 1) == 0:
                continue
            images = set()
            for pair in _all_pairs(g, ell, k):
                out = krattenthaler_f(g, pair)
                assert out in neighbor_set(g, pair)
                assert out not in images
                images.add(out)


def test_f_counterexample_c6(c6):
    grp = automorphisms(c6)
    wit = f_equivariance_counterexample(c6, grp, 2, 2)
    assert wit is not None
    sigma, (blue, pink) = wit
    ep = edge_action(sigma, c6)
    moved = (apply_edge_perm(ep, blue), apply_edge_perm(ep, pink))
    fb, fp = krattenthaler_f(c6, (blue, pink))
    assert krattenthaler_f(c6, moved) != (apply_edge_perm(ep, fb), apply_edge_perm(ep, fp))


def test_f_counterexample_path4_reversal(path4):
    grp = automorphisms(path4)
    wit = f_equivariance_counterexample(path4, grp, 1, 1)
    assert wit is not None
    # the documented reversal witness really is a counterexample
    rev = (3, 2, 1, 0)
    ep = edge_action(rev, path4)
    blue, pink = 0, edge_bits(path4, [(0, 1), (2, 3)])
    moved = (apply_edge_perm(ep, blue), apply_edge_perm(ep, pink))
    f_moved = krattenthaler_f(path4, moved)
    fb, fp = krattenthaler_f(path4, (blue, pink))
    moved_f = (apply_edge_perm(ep, fb), apply_edge_perm(ep, fp))
    assert f_moved == (edge_bits(path4, [(0, 1)]), edge_bits(path4, [(2, 3)]))
    assert moved_f == (edge_bits(path4, [(2, 3)]), edge_bits(path4, [(0, 1)]))
    assert f_moved != moved_f


def test_no_counterexample_for_trivial_group():
    # an asymmetric 7-vertex graph: its only automorphism is the identity
    g = generate("gnp:7:2:5:2")
    grp = automorphisms(g)
    assert grp.order == 1 and grp.generators == ()
    t = matching_table(g)
    slots = [(ell, k) for k in range(1, t.r) for ell in range(1, k + 1)]
    assert len(slots) == 3
    for (ell, k) in slots:
        assert f_equivariance_counterexample(g, grp, ell, k, table=t) is None
        assert f_counterexample_eager(g, grp, ell, k) is None


@pytest.mark.parametrize("spec", ["cycle:6", "complete:4", "kbipartite:3:3", "path:5", "gnp:7:2:5:11"])
def test_f_witness_matches_eager_scan(spec):
    g = generate(spec)
    t = matching_table(g)
    grp = automorphisms(g)
    witnesses = 0
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            expected = f_counterexample_eager(g, grp, ell, k)
            assert f_equivariance_counterexample(g, grp, ell, k, table=t) == expected
            assert f_equivariance_counterexample(g, grp, ell, k) == expected
            witnesses += expected is not None
    assert witnesses > 0


def test_f_generator_scan_agrees_with_eager_scan_on_atlas():
    """Every atlas graph with n <= 6: the same witness, or None where f commutes with the whole group."""
    commuting = witnessed = 0
    for g in atlas_graphs(6):
        t = matching_table(g)
        grp = automorphisms(g)
        for k in range(1, t.r):
            for ell in range(1, k + 1):
                expected = f_counterexample_eager(g, grp, ell, k)
                assert f_equivariance_counterexample(g, grp, ell, k, table=t) == expected
                commuting += expected is None and grp.order > 1
                witnessed += expected is not None
    # both outcomes occur on nontrivial groups
    assert commuting > 50 and witnessed > 200


def test_neighbor_set_and_f_match_oracle_on_atlas():
    """Every column pair of every slot of the atlas graphs with n <= 6."""
    pairs = 0
    for g in atlas_graphs(6):
        t = matching_table(g)
        for k in range(1, t.r):
            for ell in range(1, k + 1):
                for blue in t.level(ell - 1):
                    for pink in t.level(k + 1):
                        assert list(neighbor_set(g, (blue, pink))) == neighbor_pairs(g, blue, pink)
                        assert krattenthaler_f(g, (blue, pink)) == f_by_definition(g, blue, pink)
                        pairs += 1
    assert pairs > 1000


def test_f_scan_of_trivial_group_applies_f_to_nothing(monkeypatch):
    g = generate("gnp:8:1:2:7")
    grp = automorphisms(g)
    assert grp.order == 1

    def forbidden(*args):
        raise AssertionError("f applied although the group is trivial")

    monkeypatch.setattr(transfer, "krattenthaler_f", forbidden)
    assert f_equivariance_counterexample(g, grp, 1, 1) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**31 - 1), st.randoms(use_true_random=False))
def test_decompose_matches_degree_oracle(n, num, seed, rnd):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    matchings = [m for level in matching_table(g).by_size for m in level]
    for _ in range(30):
        blue, pink = rnd.choice(matchings), rnd.choice(matchings)
        dec = decompose(g, (blue, pink))
        kinds = chain_kinds(g, blue, pink)
        assert [(c.edges, c.kind) for c in dec.components] == [(e, kind) for (e, kind, _) in kinds]
        # components by minimum edge come by minimum vertex too; f relies on it
        lows = [low for (_, _, low) in kinds]
        assert lows == sorted(lows)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**31 - 1), st.randoms(use_true_random=False))
def test_odd_chains_match_degree_oracle(n, num, seed, rnd):
    """Each odd chain's stored edge is an end edge, so `pink & ends & c` gives its color."""
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    matchings = [m for level in matching_table(g).by_size for m in level]
    for _ in range(30):
        blue, pink = rnd.choice(matchings), rnd.choice(matchings)
        chains, ends, even, even_components = odd_chains(g, blue ^ pink)
        kinds = chain_kinds(g, blue, pink)
        odd = [(edges, kind) for (edges, kind, _) in kinds if kind in (BLUE_CHAIN, PINK_CHAIN)]
        assert [(c, PINK_CHAIN if pink & ends & c else BLUE_CHAIN) for c in chains] == odd
        assert not ends & ~sum(chains)  # one end edge per chain, none elsewhere
        for c in chains:
            end = ends & c
            assert end and not end & (end - 1)
            others = c & ~end
            touching = {v for i in range(g.num_edges) if others >> i & 1 for v in g.edges[i]}
            assert len(set(g.edges[end.bit_length() - 1]) - touching) >= 1
        assert even == sum(edges for (edges, kind, _) in kinds if kind not in (BLUE_CHAIN, PINK_CHAIN))
        # the intersection's edges are isolated odd components of the union,
        # so the even part and its component count are the union's
        assert (even, even_components) == direct_even_part(g, blue | pink)
    assert odd_chains(g, blue ^ pink) is odd_chains(g, blue ^ pink)  # memoised


def _assert_walk(g, one_colored):
    """`chain_walk` gives the union-find components in their order, a path an
    edge at a degree-1 vertex of the set, and a cycle 0; returns the cycle count."""
    walked = chain_walk(g, one_colored)
    assert [comp for comp, _ in walked] == union_find_components(g, one_colored)
    degree = Counter(v for i in range(g.num_edges) if one_colored >> i & 1 for v in g.edges[i])
    cycles = 0
    for comp, end in walked:
        ends = [v for i in range(g.num_edges) if comp >> i & 1 for v in g.edges[i] if degree[v] == 1]
        if not ends:
            assert end == 0
            cycles += 1
        else:
            assert end & comp and not end & (end - 1)
            assert set(g.edges[end.bit_length() - 1]) & set(ends)
    return cycles


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 5), st.integers(0, 2**31 - 1), st.randoms(use_true_random=False))
def test_chain_walk_matches_union_find_on_matching_pairs(n, num, seed, rnd):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    matchings = [m for level in matching_table(g).by_size for m in level]
    for _ in range(30):
        _assert_walk(g, rnd.choice(matchings) ^ rnd.choice(matchings))


# C6, C8 and C4 + C6, each of whose perfect-matching pairs is a union of even cycles
CYCLES = [[(i, (i + 1) % n) for i in range(n)] for n in (6, 8)] + [
    [(0, 1), (1, 2), (2, 3), (0, 3)] + [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CYCLES), st.randoms(use_true_random=False))
def test_chain_walk_closes_the_cycles_of_perfect_matching_pairs(edges, rnd):
    n = max(v for e in edges for v in e) + 1
    label = rnd.sample(range(n), n)
    g = graph_from_edges(n, [(label[u], label[v]) for (u, v) in edges])
    perfect = matching_table(g).level(n // 2)
    blue, pink = rnd.choice(perfect), rnd.choice(perfect)
    assert _assert_walk(g, blue ^ pink) == len(union_find_components(g, blue ^ pink))
    # two different perfect matchings differ on at least one whole cycle
    assert _assert_walk(g, perfect[0] ^ perfect[-1]) >= 1
