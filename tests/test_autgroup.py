import pytest
from hypothesis import given, settings, strategies as st

from equimatch.autgroup import SizeLimitError, automorphisms, edge_action
from equimatch.graph import edge_bits, generate
from equimatch.matchings import is_matching, matching_table
from oracles import (
    act_matching,
    brute_force_automorphisms,
    compose,
    group_closure,
    inverse,
    is_automorphism,
)


def test_group_orders(c6, petersen):
    # order and generator count of the strong generating set for the base 0..n-1
    cases = [
        (c6, 12, 2),
        (generate("complete:4"), 24, 3),
        (petersen, 120, 4),
        (generate("complete:6"), 720, 5),
        (generate("complete:7"), 5040, 6),
        (generate("kbipartite:4:4"), 1152, 7),
        (generate("gnp:8:1:2:7"), 1, 0),
    ]
    for g, order, gens in cases:
        grp = automorphisms(g)
        assert (grp.order, len(grp.generators)) == (order, gens)
    # a factorial order, with no element listed
    assert automorphisms(generate("complete:12")).order == 479001600


def test_group_axioms(c6):
    grp = automorphisms(c6)
    perms = set(grp)
    assert tuple(range(c6.n)) in perms
    for s in perms:
        assert inverse(s) in perms
        for t in perms:
            assert compose(s, t) in perms


def test_sorted_and_limit(c6):
    grp = automorphisms(c6)
    assert list(grp) == sorted(grp)
    with pytest.raises(SizeLimitError):
        automorphisms(generate("path:13"))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_against_permutation_filter(n, num, seed):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    grp = automorphisms(g)
    elements = brute_force_automorphisms(g)
    assert list(grp) == elements
    assert grp.order == len(elements)
    # a strong generating set: automorphisms, never the identity, generating the group
    assert tuple(range(g.n)) not in grp.generators
    assert list(grp.generators) == sorted(set(grp.generators))
    assert all(is_automorphism(g, s) for s in grp.generators)
    assert group_closure(grp.generators, g.n) == set(elements)


def test_edge_action_examples(c6, path4):
    ident = tuple(range(6))
    assert edge_action(ident, c6) == tuple(range(6))
    rot = tuple((v + 1) % 6 for v in range(6))
    ea = edge_action(rot, c6)
    # rotation maps edge (i, i+1) to (i+1, i+2); a bijection on indices
    assert sorted(ea) == list(range(6))
    assert ea[c6.edge_index[(0, 1)]] == c6.edge_index[(1, 2)]
    rev = (3, 2, 1, 0)
    ea4 = edge_action(rev, path4)
    assert ea4[path4.edge_index[(0, 1)]] == path4.edge_index[(2, 3)]
    assert ea4[path4.edge_index[(1, 2)]] == path4.edge_index[(1, 2)]


def test_edge_action_rejects_non_automorphism(path4):
    assert not is_automorphism(path4, (1, 0, 2, 3))
    with pytest.raises(ValueError):
        edge_action((1, 0, 2, 3), path4)
    assert is_automorphism(path4, (3, 2, 1, 0))


def test_act_matching(c6):
    rot = tuple((v + 1) % 6 for v in range(6))
    m = edge_bits(c6, [(0, 1)])
    assert act_matching(rot, c6, m) == edge_bits(c6, [(1, 2)])
    assert act_matching(rot, c6, 0) == 0
    assert act_matching(tuple(range(6)), c6, m) == m


def test_action_preserves_matchings_and_composes(c6):
    grp = automorphisms(c6)
    t = matching_table(c6)
    for k in range(t.r + 1):
        for m in t.level(k):
            for s in list(grp)[:6]:
                img = act_matching(s, c6, m)
                assert img.bit_count() == k and is_matching(c6, img)
                for tt in list(grp)[:6]:
                    assert act_matching(compose(s, tt), c6, m) == act_matching(
                        s, c6, act_matching(tt, c6, m)
                    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
    st.randoms(use_true_random=False),
)
def test_first_element_outside_a_subgroup_is_a_generator(n, num, seed, rnd):
    """The property the generator-only witness scans rest on."""
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    grp = automorphisms(g)
    elements = brute_force_automorphisms(g)
    subgroup = group_closure(rnd.sample(elements, min(2, len(elements))), g.n)
    outside = [s for s in elements if s not in subgroup]
    if outside:
        assert outside[0] in grp.generators
