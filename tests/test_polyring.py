from fractions import Fraction

import pytest

from equimatch import graphcli
from equimatch.autgroup import automorphisms, edge_action
from equimatch.graph import edge_bits, generate
from equimatch.graphtools import check_numeric_logconcavity
from equimatch.matchings import MatchingTable, matching_table
from equimatch.phimap import PhiMatrix, build_phi
from equimatch.polyring import verify_diagram, verify_nonneg
from oracles import (
    Poly,
    atlas_graphs,
    block_key,
    constant,
    diagram_failures_by_pi,
    nonneg_by_expansion,
    pair_monomial,
    pi_map,
    weighted_matching_poly,
)


def test_weighted_poly_k0(c6, path4):
    for g in (c6, path4):
        assert weighted_matching_poly(g, 0) == constant(g.num_edges)


def test_weighted_poly_examples(c6, path4):
    p = weighted_matching_poly(path4, 2)
    e1 = path4.edge_index[(0, 1)]
    e3 = path4.edge_index[(2, 3)]
    exps = [0, 0, 0]
    exps[e1] = 1
    exps[e3] = 1
    assert p == Poly(3, {tuple(exps): 1})
    assert len(weighted_matching_poly(c6, 3).terms) == 2


def test_evaluation_at_ones_counts(c6, petersen):
    for g in (c6, petersen):
        t = matching_table(g)
        for k in range(t.r + 1):
            assert weighted_matching_poly(g, k).evaluate_ones() == t.m(k)


def test_pair_monomial_shared_edges_square(c6):
    blue = edge_bits(c6, [(0, 1)])
    pink = edge_bits(c6, [(0, 1), (2, 3)])
    exps = pair_monomial(c6, blue, pink)
    assert exps[c6.edge_index[(0, 1)]] == 2
    assert exps[c6.edge_index[(2, 3)]] == 1
    assert sum(exps) == 3


def test_pi_map_zero_and_linearity(path4):
    assert pi_map(path4, [], []).is_zero()
    phi = build_phi(path4, 1, 1)
    col = phi.columns[0]
    through = pi_map(
        path4,
        [phi.row_pairs[r] for r in col],
        [Fraction(1, len(col))] * len(col),
    )
    direct = pi_map(path4, [phi.col_pairs[0]], [Fraction(1)])
    assert through == direct


def test_verify_nonneg_examples(c6, path4):
    assert verify_nonneg(path4, 1, 1).passed
    t = matching_table(c6)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            assert verify_nonneg(c6, ell, k, table=t).passed


def test_nonneg_evaluates_to_numeric_slack(c6, path4, petersen):
    for g in (c6, path4, petersen):
        t = matching_table(g)
        slacks = {(l, k): s for (l, k, s) in check_numeric_logconcavity(t)}
        for k in range(1, t.r + 1):
            for ell in range(1, k + 1):
                diff = weighted_matching_poly(g, ell) * weighted_matching_poly(g, k) - (
                    weighted_matching_poly(g, ell - 1)
                    * weighted_matching_poly(g, k + 1)
                )
                assert diff.evaluate_ones() == slacks[(ell, k)]


def test_verify_diagram_examples(c6, path4):
    assert verify_diagram(path4, 1, 1).passed
    rep = verify_diagram(c6, 2, 2)
    assert rep.passed and rep.columns == 12
    # vacuous when there are no columns: every slot (l, r)
    for ell in (1, 2, 3):
        assert verify_diagram(c6, ell, 3) == (ell, 3, 0, ())


@pytest.mark.parametrize("spec", ["cycle:6", "path:4", "complete:5", "kbipartite:2:3"])
def test_pi_is_equivariant(spec):
    g = generate(spec)
    t = matching_table(g)
    grp = automorphisms(g)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            pairs = [(b, p) for b in t.level(ell) for p in t.level(k)]
            coeffs = [Fraction(1)] * len(pairs)
            base = pi_map(g, pairs, coeffs)
            for sigma in grp:
                ep = edge_action(sigma, g)
                from equimatch.autgroup import apply_edge_perm

                moved_pairs = [
                    (apply_edge_perm(ep, b), apply_edge_perm(ep, p))
                    for (b, p) in pairs
                ]
                assert pi_map(g, moved_pairs, coeffs) == base.permute_variables(ep)


def test_poly_arithmetic():
    a = Poly(2, {(1, 0): 1, (0, 1): 1})
    sq = a * a
    assert sq == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (sq - sq).is_zero()
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
    assert str(Poly(2, {})) == "0"
    assert "x0" in str(a)


def _corpus():
    """Every atlas graph on 1..6 vertices, then C6, path4 and Petersen."""
    yield from atlas_graphs(6)
    yield from (generate("cycle:6"), generate("path:4"), generate("petersen"))


def test_counts_match_polynomial_expansion():
    """verify_nonneg and verify_diagram agree with the Fraction polynomial oracle."""
    graphs = 0
    for g in _corpus():
        graphs += 1
        t = matching_table(g)
        for k in range(1, t.r + 1):
            for ell in range(1, k + 1):
                rep = verify_nonneg(g, ell, k, table=t)
                terms, negative = nonneg_by_expansion(g, t, ell, k)
                assert (rep.term_count, list(rep.violations)) == (terms, negative)
                if t.m(k + 1):
                    phi = build_phi(g, ell, k, table=t)
                    diagram = verify_diagram(g, ell, k, table=t, phi=phi)
                    assert list(diagram.failures) == diagram_failures_by_pi(g, phi)
                    assert diagram.columns == len(phi.col_pairs)
    assert graphs == 208 + 3


def test_nonneg_violations_match_expansion(c6):
    # a doctored table: level 1 keeps two disjoint edges and level 2 lists
    # every matching twice, so the column product outweighs the row product
    # at most monomials and cancels it exactly at one
    t = matching_table(c6)
    a, b = edge_bits(c6, [(0, 1)]), edge_bits(c6, [(2, 3)])
    fake = MatchingTable(c6, (t.level(0), (a, b), t.level(2) * 2, t.level(3)))
    rep = verify_nonneg(c6, 1, 1, table=fake)
    terms, negative = nonneg_by_expansion(c6, fake, 1, 1)
    assert not rep.passed
    assert rep.term_count == terms
    keys = {(x | y, x & y) for x in (a, b) for y in (a, b)} | {(m, 0) for m in t.level(2)}
    assert terms == len(keys) - 1  # the cancelled monomial x_a x_b is no term
    assert [(e, Fraction(c)) for (e, c) in rep.violations] == negative
    # the report prints an integer coefficient exactly as the Fraction did
    assert [str(c) for (_, c) in rep.violations] == [str(c) for (_, c) in negative]


def test_diagram_flags_the_columns_the_oracle_flags(c6):
    phi = build_phi(c6, 2, 2)
    # column 0 loses its entries (weight sum 0), column 1 sends an entry to a
    # row of another (union, intersection) key
    key = block_key(c6, *phi.col_pairs[1])
    other = next(r for r, pair in enumerate(phi.row_pairs) if block_key(c6, *pair)[:2] != key[:2])
    columns = list(phi.columns)
    columns[0] = ()
    columns[1] = tuple(sorted((other,) + columns[1][1:]))
    bad = PhiMatrix(phi.table, phi.ell, phi.k, tuple(columns), phi.blocks)
    rep = verify_diagram(c6, 2, 2, phi=bad)
    assert list(rep.failures) == diagram_failures_by_pi(c6, bad) == list(phi.col_pairs[:2])


@pytest.mark.parametrize("kept", ["intersection", "union"])
def test_diagram_flags_a_row_that_keeps_half_of_its_columns_key(kept, c6):
    # a row of the column's intersection but another union, or of its union
    # but another intersection, changes the column's monomial
    phi = build_phi(c6, 2, 2)

    def key(pair):
        return pair[0] | pair[1], pair[0] & pair[1]

    same = 1 if kept == "intersection" else 0
    j, row = next(
        (j, r)
        for j, col in enumerate(phi.col_pairs)
        for r, pair in enumerate(phi.row_pairs)
        if key(pair)[same] == key(col)[same] and key(pair)[1 - same] != key(col)[1 - same]
    )
    columns = list(phi.columns)
    columns[j] = tuple(sorted((row,) + columns[j][1:]))
    bad = PhiMatrix(phi.table, phi.ell, phi.k, tuple(columns), phi.blocks)
    rep = verify_diagram(c6, 2, 2, phi=bad)
    assert list(rep.failures) == diagram_failures_by_pi(c6, bad) == [phi.col_pairs[j]]


def _doctored(g, level, drop):
    """g's matching table with the matchings in `drop` taken out of one level."""
    t = matching_table(g)
    by_size = list(t.by_size)
    by_size[level] = tuple(m for m in by_size[level] if m not in drop)
    return MatchingTable(g, tuple(by_size))


def _exponent_vector(g, powers):
    """The exponent vector of the monomial with the given power on each (u, v) edge."""
    exponents = [0] * g.num_edges
    for edge, power in powers.items():
        exponents[g.edge_index[edge]] = power
    return tuple(exponents)


def test_nonneg_names_each_monomial_a_missing_edge_makes_negative(c6):
    # without edge e on level 1, a 2-matching {e, f} is no longer the union
    # of two 1-matchings: its (1, 1) coefficient is 0 - 1
    fake = _doctored(c6, 1, {edge_bits(c6, [(0, 1)])})
    expected = sorted((_exponent_vector(c6, {(0, 1): 1, f: 1}), -1) for f in [(2, 3), (3, 4), (4, 5)])
    assert list(verify_nonneg(c6, 1, 1, table=fake).violations) == expected
    # the report names the first of them
    passed, details = graphcli._nonneg(c6, 1, 1, fake, None, None)
    assert not passed
    assert details["violating_monomial"] == {"exponents": list(expected[0][0]), "coefficient": "-1"}


def test_nonneg_gives_a_shared_edge_exponent_2(c6):
    # take {a, x} out of level 2, for the perfect matching {a, x, y}: the
    # (1, 3) pair (a, {a, x, y}) still counts once, but the (2, 2) pairs of
    # its monomial, {a, x} and {a, y} in either order, are gone, and so for
    # x; the monomial of {a, x} beside {1-2, y} loses both of its pairs
    a, x, y = (0, 1), (2, 3), (4, 5)
    rep = verify_nonneg(c6, 2, 2, table=_doctored(c6, 2, {edge_bits(c6, [a, x])}))
    expected = sorted(
        (_exponent_vector(c6, powers), -1)
        for powers in ({a: 2, x: 1, y: 1}, {a: 1, x: 2, y: 1}, {a: 1, (1, 2): 1, x: 1, y: 1})
    )
    assert list(rep.violations) == expected
