from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equimatch.exactalg import equals, multiply, permutation_matrix, BasisIndex
from equimatch.autgroup import apply_edge_perm, automorphisms, edge_action
from equimatch.graph import InternalError, edge_bits, generate
from equimatch.matchings import logconcavity_violations, matching_table
from equimatch.phimap import (
    BudgetExceededError,
    PhiMatrix,
    block_partition,
    build_phi,
    count_parts,
    even_part,
    verify_equivariant,
    verify_injective,
)
from oracles import direct_even_part, part_map_is_bijective, rank_gauss_sparse


def test_build_phi_path4(path4):
    phi = build_phi(path4, 1, 1)
    assert len(phi.row_pairs) == 9 and len(phi.col_pairs) == 1
    e1 = edge_bits(path4, [(0, 1)])
    e3 = edge_bits(path4, [(2, 3)])
    col = phi.columns[0]
    assert len(col) == 2
    rows = {phi.row_pairs[r] for (r, _) in col}
    assert rows == {(e1, e3), (e3, e1)}
    assert all(v == Fraction(1, 2) for (_, v) in col)


def test_build_phi_c6_dimensions_and_fig4_column(c6):
    phi = build_phi(c6, 2, 2)
    assert len(phi.row_pairs) == 81 and len(phi.col_pairs) == 12
    blue = edge_bits(c6, [(0, 1)])
    pink = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    j = phi.col_index[(blue, pink)]
    col = phi.columns[j]
    assert len(col) == 2 and all(v == Fraction(1, 2) for (_, v) in col)


def test_columns_sum_to_one(c6):
    phi = build_phi(c6, 2, 2)
    for col in phi.columns:
        assert sum(v for (_, v) in col) == 1


def test_out_of_range(c6):
    with pytest.raises(ValueError):
        build_phi(c6, 0, 1)
    with pytest.raises(ValueError):
        build_phi(c6, 2, 1)
    with pytest.raises(ValueError):
        build_phi(c6, 1, 4)


def test_budget_exceeded(c6):
    with pytest.raises(BudgetExceededError):
        build_phi(c6, 2, 2, budget=3)


def test_block_partition_c6(c6):
    phi = build_phi(c6, 2, 2)
    blocks = block_partition(phi)
    assert sum(len(b.col_indices) for b in blocks) == 12
    assert sum(len(b.row_indices) for b in blocks) == 81
    # the three sub-matchings of one perfect matching give three singleton blocks
    pm = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    keys = {
        phi.col_keys[j]
        for j, (b, p) in enumerate(phi.col_pairs)
        if p == pm and b & pm == b and b.bit_count() == 1
    }
    assert len(keys) == 3
    for key in keys:
        block = next(b for b in blocks if b.key == key)
        assert len(block.col_indices) == 1


def test_even_part_empty_for_odd_components(c6):
    # a perfect matching union: three single-edge (odd) components
    pm = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    assert even_part(c6, pm) == 0


def test_verify_injective_examples(c6, path4):
    rep = verify_injective(path4, 1, 1)
    assert rep.passed and rep.total_rank == 1
    rep6 = verify_injective(c6, 2, 2)
    assert rep6.passed and rep6.total_rank == 12 == 6 * 2
    # k = r: no columns, vacuous
    assert verify_injective(c6, 3, 3).passed
    assert verify_injective(c6, 3, 3).expected == 0


def test_block_rank_sums_match_sparse_oracle(c6, path4):
    for g in (c6, path4):
        t = matching_table(g)
        for k in range(1, t.r + 1):
            for ell in range(1, k + 1):
                if t.m(k + 1) == 0:
                    continue
                phi = build_phi(g, ell, k, table=t)
                rep = verify_injective(g, ell, k, table=t, phi=phi)
                assert rep.total_rank == rank_gauss_sparse(phi.matrix)


def test_verify_equivariant_examples(c6, path4):
    assert verify_equivariant(path4, 1, 1).passed
    rep = verify_equivariant(c6, 2, 2)
    assert rep.passed and rep.group_order == 12


def test_equivariance_as_explicit_matrix_identity(c6):
    # cross-check the vectorized path against literal P_sigma products
    t = matching_table(c6)
    phi = build_phi(c6, 2, 2, table=t)
    grp = automorphisms(c6)
    col_basis = BasisIndex(phi.col_pairs)
    row_basis = BasisIndex(phi.row_pairs)
    for sigma in grp.perms[:4]:
        ep = edge_action(sigma, c6)

        def move(pair):
            return (apply_edge_perm(ep, pair[0]), apply_edge_perm(ep, pair[1]))

        p_rows = permutation_matrix(row_basis, move)
        p_cols = permutation_matrix(col_basis, move)
        assert equals(multiply(p_rows, phi.matrix), multiply(phi.matrix, p_cols))


def test_dimension_consequence_agrees_with_numeric_logconcavity(c6, path4):
    for g in (c6, path4):
        t = matching_table(g)
        assert not logconcavity_violations(t)
        for k in range(1, t.r + 1):
            for ell in range(1, k + 1):
                rep = verify_injective(g, ell, k, table=t)
                assert rep.passed
                assert t.m(ell - 1) * t.m(k + 1) <= t.m(ell) * t.m(k)


def test_count_parts_c6(c6):
    recs = count_parts(c6, 2, 2)
    pm = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    rec = next(r for r in recs if r.union == pm)
    assert rec.even_edges == 0 and rec.source_classes == 1 == rec.target_classes
    assert all(r.counts_equal for r in recs)
    # unions with only odd components collapse to one class
    assert all(r.source_classes == 1 for r in recs if r.even_edges == 0)


@pytest.mark.parametrize("spec", ["cycle:6", "path:4", "path:6", "complete:5"])
def test_part_counts_and_bijectivity(spec):
    g = generate(spec)
    t = matching_table(g)
    for k in range(1, t.r + 1):
        for ell in range(1, k + 1):
            if t.m(k + 1) == 0:
                continue
            recs = count_parts(g, ell, k, table=t)
            assert all(r.counts_equal for r in recs)
            assert part_map_is_bijective(g, ell, k)


def test_nonzero_entries_respect_blocks(path4, c6):
    for g in (path4, c6):
        t = matching_table(g)
        for k in range(1, t.r + 1):
            for ell in range(1, k + 1):
                if t.m(k + 1) == 0:
                    continue
                phi = build_phi(g, ell, k, table=t)
                for j, col in enumerate(phi.columns):
                    for (r, _) in col:
                        assert phi.row_keys[r] == phi.col_keys[j]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_memoised_block_keys_match_direct_components(n, num, seed):
    """Every key, from the per-graph even-part memo, equals a fresh component search."""
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    t = matching_table(g)
    for k in range(1, t.r):
        for ell in range(1, k + 1):
            phi = build_phi(g, ell, k, table=t)
            for pairs, keys in ((phi.col_pairs, phi.col_keys), (phi.row_pairs, phi.row_keys)):
                for (b, p), key in zip(pairs, keys):
                    u = b | p
                    assert key == (u, b & p, b & direct_even_part(g, u)[0])
            for rec in count_parts(g, ell, k, table=t, phi=phi):
                h, comps = direct_even_part(g, rec.union)
                assert (rec.even_edges, rec.even_components) == (h.bit_count(), comps)


def test_entry_outside_its_block_is_an_internal_error(c6):
    phi = build_phi(c6, 2, 2)
    key = phi.col_keys[0]
    stray = next(r for r, row_key in enumerate(phi.row_keys) if row_key != key)
    columns = (((stray, phi.columns[0][0][1]),) + phi.columns[0][1:],) + phi.columns[1:]
    bad = PhiMatrix(c6, 2, 2, phi.row_pairs, phi.col_pairs, columns)
    with pytest.raises(InternalError):
        block_partition(bad)
