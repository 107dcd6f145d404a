from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equimatch import exactalg, matchings, phimap
from equimatch.autgroup import apply_edge_perm, automorphisms, edge_action
from equimatch.graph import InternalError, edge_bits, generate
from equimatch.graphtools import logconcavity_violations
from equimatch.matchings import matching_table
from equimatch.phimap import (
    BudgetExceededError,
    PhiMatrix,
    block_partition,
    build_phi,
    count_parts,
    nonzeros,
    slot_identity_holds,
    verify_equivariant,
    verify_injective,
)
from equimatch.polyring import verify_diagram, verify_nonneg
from equimatch.transfer import f_equivariance_counterexample, odd_chains
from oracles import (
    BasisIndex,
    act_matching,
    atlas_graphs,
    block_key,
    brute_force_automorphisms,
    compose,
    direct_even_part,
    down_pair_witnesses,
    equals,
    equivariance_failures_full,
    multiply,
    pair_phi_block_ranks,
    pair_phi_blocks,
    part_map_is_bijective,
    permutation_matrix,
    phi_by_neighbor_sets,
    phi_matrix,
    rank_gauss_sparse,
)


def test_build_phi_path4(path4):
    phi = build_phi(path4, 1, 1)
    assert len(phi.row_pairs) == 9 and len(phi.col_pairs) == 1
    e1 = edge_bits(path4, [(0, 1)])
    e3 = edge_bits(path4, [(2, 3)])
    col = phi.columns[0]
    assert len(col) == 2
    rows = {phi.row_pairs[r] for r in col}
    assert rows == {(e1, e3), (e3, e1)}
    assert all(v == Fraction(1, 2) for (_, v) in phi_matrix(phi).cols[0])


def test_build_phi_c6_dimensions_and_fig4_column(c6):
    phi = build_phi(c6, 2, 2)
    assert len(phi.row_pairs) == 81 and len(phi.col_pairs) == 12
    blue = edge_bits(c6, [(0, 1)])
    pink = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    j = phi.col_pairs.index((blue, pink))
    col = phi_matrix(phi).cols[j]
    assert len(col) == 2 and all(v == Fraction(1, 2) for (_, v) in col)


def test_columns_sum_to_one(c6):
    # a column is a nonempty sorted row set with weight 1/len on each row
    phi = build_phi(c6, 2, 2)
    for col in phi.columns:
        assert col and list(col) == sorted(set(col))
    for col in phi_matrix(phi).cols:
        assert sum(v for (_, v) in col) == 1


def test_out_of_range(c6):
    with pytest.raises(ValueError):
        build_phi(c6, 0, 1)
    with pytest.raises(ValueError):
        build_phi(c6, 2, 1)
    with pytest.raises(ValueError):
        build_phi(c6, 1, 4)


# every library entry point that takes a slot, called with the graph's table and group
_SLOT_ENTRY_POINTS = {
    "build_phi": lambda g, t, grp, ell, k: build_phi(g, ell, k, table=t),
    "count_parts": lambda g, t, grp, ell, k: count_parts(g, ell, k, table=t),
    "f_equivariance_counterexample": lambda g, t, grp, ell, k: f_equivariance_counterexample(g, grp, ell, k, table=t),
    "verify_diagram": lambda g, t, grp, ell, k: verify_diagram(g, ell, k, table=t),
    "verify_equivariant": lambda g, t, grp, ell, k: verify_equivariant(g, ell, k, table=t, group=grp),
    "verify_injective": lambda g, t, grp, ell, k: verify_injective(g, ell, k, table=t),
    "verify_nonneg": lambda g, t, grp, ell, k: verify_nonneg(g, ell, k, table=t),
}


@pytest.mark.parametrize("ell, k", [(0, 1), (2, 1), (0, 3), (4, 4), (1, 4)])
@pytest.mark.parametrize("entry", sorted(_SLOT_ENTRY_POINTS))
def test_every_entry_point_refuses_a_slot_out_of_range(c6, entry, ell, k):
    # r = 3 on C6; k = r stays a valid slot, with no columns
    t = matching_table(c6)
    grp = automorphisms(c6)
    call = _SLOT_ENTRY_POINTS[entry]
    call(c6, t, grp, 1, 3)
    call(c6, t, grp, 3, 3)
    with pytest.raises(ValueError, match=rf"^\(ell, k\) = \({ell}, {k}\) out of range for r = 3$"):
        call(c6, t, grp, ell, k)


def test_budget_exceeded(c6):
    with pytest.raises(BudgetExceededError):
        build_phi(c6, 2, 2, budget=3)


def test_a_build_within_its_budget_reads_chains_and_one_over_reads_none(monkeypatch):
    # C6's (2, 2) has 2·m1·m3 = 24 nonzeros, tested before any chain is read
    g = generate("cycle:6")
    decomposed = []
    real = phimap.odd_chains
    monkeypatch.setattr(phimap, "odd_chains", lambda g, u: decomposed.append(u) or real(g, u))
    with pytest.raises(BudgetExceededError, match=r"^nonzero count 24 exceeds budget 23 at \(2, 2\)$"):
        build_phi(g, 2, 2, budget=23)
    assert not decomposed
    assert build_phi(g, 2, 2, budget=24).nnz == 24 and decomposed


def test_block_partition_c6(c6):
    phi = build_phi(c6, 2, 2)
    blocks = block_partition(phi)
    assert sum(len(b.col_indices) for b in blocks) == 12
    # no two blocks' columns reach a common row
    reached = [{r for j in b.col_indices for r in phi.columns[j]} for b in blocks]
    assert sum(map(len, reached)) == len({r for col in phi.columns for r in col})
    # the three sub-matchings of one perfect matching give three singleton blocks
    pm = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    keys = {
        block_key(c6, b, p)
        for (b, p) in phi.col_pairs
        if p == pm and b & pm == b and b.bit_count() == 1
    }
    assert len(keys) == 3
    for key in keys:
        block = next(b for b in blocks if b.key == key)
        assert len(block.col_indices) == 1


def test_even_part_empty_for_odd_components(c6):
    # a perfect matching union: three single-edge (odd) components, so the
    # chain memo holds no even part and no even component
    pm = edge_bits(c6, [(0, 1), (2, 3), (4, 5)])
    assert odd_chains(c6, pm)[2:] == (0, 0)


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
                assert rep.total_rank == rank_gauss_sparse(phi_matrix(phi))


def test_verify_equivariant_examples(c6, path4):
    assert verify_equivariant(path4, 1, 1).passed
    rep = verify_equivariant(c6, 2, 2)
    assert rep.passed and rep.group_order == 12


@pytest.mark.parametrize("spec", ["cycle:6", "complete:6"])
def test_a_slot_without_columns_is_the_tables_case(spec):
    # at k = r the column level r + 1 is empty: the scan returns None for
    # every generator without reading a column, and neither group check
    # special-cases the slot
    def unread(j):
        raise AssertionError(f"column {j} of a slot without columns read")

    g = generate(spec)
    t = matching_table(g)
    grp = automorphisms(g)
    assert t.r == 3 and t.m(4) == 0 and grp.generators
    for sigma in grp.generators:
        assert t.noncommuting_column(3, 3, sigma, unread) is None
    rep = verify_equivariant(g, 3, 3, table=t, group=grp)
    assert rep.passed and rep.failures == () and rep.columns == 0
    assert f_equivariance_counterexample(g, grp, 3, 3, table=t) is None


def test_level_moves_are_computed_once_per_table(monkeypatch):
    """Both group checks over every slot of K6 read each generator's image of
    each level from one memo on the table, and each generator's edge action
    from another: one edge action per generator."""
    g = generate("complete:6")
    t = matching_table(g)
    grp = automorphisms(g)
    calls = {}

    def counted(sigma, host):
        calls[sigma] = calls.get(sigma, 0) + 1
        return edge_action(sigma, host)

    monkeypatch.setattr(matchings, "edge_action", counted)
    slots = [(ell, k) for k in range(1, t.r + 1) for ell in range(1, k + 1)]
    for (ell, k) in slots:
        assert verify_equivariant(g, ell, k, table=t, group=grp).passed
    for (ell, k) in slots:
        f_equivariance_counterexample(g, grp, ell, k, table=t)
    assert set(calls) == set(grp.generators)
    assert all(n == 1 for n in calls.values())


def test_equivariance_as_explicit_matrix_identity(c6):
    # cross-check the vectorized path against literal P_sigma products
    t = matching_table(c6)
    phi = build_phi(c6, 2, 2, table=t)
    grp = automorphisms(c6)
    col_basis = BasisIndex(phi.col_pairs)
    row_basis = BasisIndex(phi.row_pairs)
    matrix = phi_matrix(phi)
    for sigma in list(grp)[:4]:
        ep = edge_action(sigma, c6)

        def move(pair):
            return (apply_edge_perm(ep, pair[0]), apply_edge_perm(ep, pair[1]))

        p_rows = permutation_matrix(row_basis, move)
        p_cols = permutation_matrix(col_basis, move)
        assert equals(multiply(p_rows, matrix), multiply(matrix, p_cols))


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


@pytest.mark.parametrize("spec", ["cycle:8", "path:6", "complete:6", "petersen"])
def test_a_union_has_two_classes_per_even_component(spec):
    # each even component is coloured one of two ways, so the classes number
    # 2^components, and 2^edges only where the union has no even part
    g = generate(spec)
    t = matching_table(g)
    records = []
    for (ell, k) in t.slots:
        recs = count_parts(g, ell, k, table=t)
        assert [rec.union for rec in recs] == sorted({b | p for b in t.level(ell - 1) for p in t.level(k + 1)})
        records += recs
    assert all(rec.matches_pow_components for rec in records)
    assert all(rec.matches_pow_edges == (rec.even_edges == 0) for rec in records)
    if spec in ("cycle:8", "petersen"):
        assert {rec.matches_pow_edges for rec in records} == {True, False}


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
                for pair, col in zip(phi.col_pairs, phi.columns):
                    for r in col:
                        assert block_key(g, *phi.row_pairs[r]) == block_key(g, *pair)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_memoised_block_keys_match_direct_components(n, num, seed):
    """Every key, from the per-graph even-part memo, equals a fresh component search."""
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    t = matching_table(g)
    for k in range(1, t.r):
        for ell in range(1, k + 1):
            phi = build_phi(g, ell, k, table=t)
            for block in block_partition(phi):
                pairs = [phi.col_pairs[j] for j in block.col_indices]
                pairs += [phi.row_pairs[r] for j in block.col_indices for r in phi.columns[j]]
                for (b, p) in pairs:
                    u = b | p
                    assert block.key == (u, b & p, b & direct_even_part(g, u)[0])
            for rec in count_parts(g, ell, k, table=t, phi=phi):
                h, comps = direct_even_part(g, rec.union)
                assert (rec.even_edges, rec.even_components) == (h.bit_count(), comps)


def test_entry_outside_its_block_is_an_internal_error():
    # the stray row keeps its column's union and intersection, so the
    # monomials agree and only the blue part of the even part tells
    g = generate("cycle:8")
    phi = build_phi(g, 2, 2)
    j, stray = next(
        (j, r)
        for j, pair in enumerate(phi.col_pairs)
        for r, row in enumerate(phi.row_pairs)
        if block_key(g, *row)[:2] == block_key(g, *pair)[:2] and block_key(g, *row) != block_key(g, *pair)
    )
    columns = list(phi.columns)
    columns[j] = tuple(sorted((stray,) + columns[j][1:]))
    bad = PhiMatrix(phi.table, phi.ell, phi.k, tuple(columns), phi.blocks)
    with pytest.raises(InternalError):
        verify_diagram(g, 2, 2, phi=bad)
    # the slot identity fails, and the exact fallback finds two groups sharing a row
    assert not slot_identity_holds(bad)
    with pytest.raises(InternalError):
        verify_injective(g, 2, 2, phi=bad)


def test_pink_chains_below_the_forced_minimum_are_an_internal_error(c6, monkeypatch):
    monkeypatch.setattr(phimap, "odd_chains", lambda g, one_colored: ((), 0, 0, 0))
    with pytest.raises(InternalError):
        build_phi(c6, 2, 2)


def _assert_block_build_matches_pair_oracle(g, t, ell, k):
    phi = build_phi(g, ell, k, table=t)
    oracle = phi_by_neighbor_sets(g, ell, k, table=t)
    assert (phi.row_pairs, phi.col_pairs) == (oracle.row_pairs, oracle.col_pairs)
    assert phi_matrix(phi).cols == oracle.columns
    # the oracle keys every row pair; the build keys the columns only
    blocks = block_partition(phi)
    expected = pair_phi_blocks(g, oracle)
    assert [(b.key, b.col_indices) for b in blocks] == [(key, cols) for key, cols, _ in expected]
    for b, (_, _, rows) in zip(blocks, expected):
        assert {r for j in b.col_indices for r in phi.columns[j]} <= set(rows)
    rep = verify_injective(g, ell, k, table=t, phi=phi)
    ranks = pair_phi_block_ranks(g, oracle)
    assert [(b.key, len(b.col_indices)) for b in blocks] == [(key, ncols) for key, ncols, _ in ranks]
    assert rep.blocks == len(ranks)
    assert rep.total_rank == sum(rank for _, _, rank in ranks) == rep.expected
    assert slot_identity_holds(phi)


def test_block_build_matches_pair_oracle_on_atlas():
    """Columns as row pairs, blocks and block ranks agree with the per-pair build on
    every slot with columns of every atlas graph with n <= 6."""
    slots = 0
    for g in atlas_graphs(6):
        t = matching_table(g)
        for (ell, k) in _slots_with_columns(t):
            _assert_block_build_matches_pair_oracle(g, t, ell, k)
            slots += 1
    assert slots > 300


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_block_build_matches_pair_oracle_on_gnp(n, num, seed):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    t = matching_table(g)
    for (ell, k) in _slots_with_columns(t):
        _assert_block_build_matches_pair_oracle(g, t, ell, k)


def _slots_with_columns(t):
    return [(l, k) for k in range(1, t.r) for l in range(1, k + 1)]


def _assert_the_build_counts_the_blocks(g):
    """The build's count of block heads is the number of groups and of distinct block keys."""
    t = matching_table(g)
    for (ell, k) in _slots_with_columns(t):
        phi = build_phi(g, ell, k, table=t)
        keys = {block_key(g, *pair) for pair in phi.col_pairs}
        assert phi.blocks == len(block_partition(phi)) == len(keys)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_the_build_counts_the_blocks_on_gnp(n, num, seed):
    _assert_the_build_counts_the_blocks(generate(f"gnp:{n}:{num}:6:{seed}"))


def test_the_build_counts_the_blocks_on_atlas():
    for g in atlas_graphs(6):
        _assert_the_build_counts_the_blocks(g)


# EQUIVARIANCE_SCAN_LIMIT values that force each path of verify_equivariant
EQUIVARIANCE_PATHS = {"numpy": 0, "scan": 1 << 62}


def _each_equivariance_path(monkeypatch):
    """Yield each path's name with verify_equivariant forced onto that path."""
    for path, limit in EQUIVARIANCE_PATHS.items():
        monkeypatch.setattr(phimap, "EQUIVARIANCE_SCAN_LIMIT", limit)
        yield path


def test_generator_check_agrees_with_full_group_scan(monkeypatch):
    """On every atlas graph with n <= 6 the generator check passes where a scan of
    every element does, and otherwise reports that scan's first witness; it
    lists each failing generator with its own first witness.  Both paths, the
    numpy pattern test and the column scan alone, are held to the oracle."""
    slots = 0
    for g in atlas_graphs(6):
        t = matching_table(g)
        grp = automorphisms(g)
        elements = brute_force_automorphisms(g)
        for (ell, k) in _slots_with_columns(t):
            phi = build_phi(g, ell, k, table=t)
            expected = equivariance_failures_full(g, phi, elements)
            by_generators = equivariance_failures_full(g, phi, grp.generators)
            for path in _each_equivariance_path(monkeypatch):
                rep = verify_equivariant(g, ell, k, table=t, group=grp, phi=phi)
                assert rep.passed == (not expected), path
                assert rep.failures[:1] == expected[:1], path
                assert rep.failures == by_generators, path
                assert rep.group_order == len(elements), path
            slots += 1
    assert slots > 300


def _doctored(phi: PhiMatrix, sigma, columns=None) -> PhiMatrix:
    """Phi with one entry moved to a free row of its block, and moved alike in its orbit under <sigma>.

    The moves form a <sigma>-invariant set, so the result still commutes
    with sigma but not, in general, with the rest of the group.  A free row
    has the column's block key and is not in the column.  The entry is in
    the first of `columns` (default: all, in order) that has a free row.
    """
    g = phi.graph
    row_keys = [block_key(g, *pair) for pair in phi.row_pairs]
    powers = [tuple(range(g.n))]
    while compose(sigma, powers[-1]) != powers[0]:
        powers.append(compose(sigma, powers[-1]))
    col_index = {pair: j for j, pair in enumerate(phi.col_pairs)}
    row_index = {pair: i for i, pair in enumerate(phi.row_pairs)}

    def move(tau, pair):
        return (act_matching(tau, g, pair[0]), act_matching(tau, g, pair[1]))

    for j in range(len(phi.columns)) if columns is None else columns:
        column = phi.columns[j]
        key = block_key(g, *phi.col_pairs[j])
        free = [r for r, rk in enumerate(row_keys) if rk == key and r not in column]
        if not free:
            continue
        r0, r1 = column[0], free[0]
        moves = {}
        for tau in powers:
            jj = col_index[move(tau, phi.col_pairs[j])]
            rows = (row_index[move(tau, phi.row_pairs[r0])], row_index[move(tau, phi.row_pairs[r1])])
            moves.setdefault(jj, set()).add(rows)
        if any(len(rows) > 1 for rows in moves.values()):
            continue  # sigma fixes the column but not the move
        columns = list(phi.columns)
        for jj, ((old, new),) in moves.items():
            columns[jj] = tuple(sorted([r for r in columns[jj] if r != old] + [new]))
        return PhiMatrix(phi.table, phi.ell, phi.k, tuple(columns), phi.blocks)
    raise ValueError("no entry can be moved")


@pytest.mark.parametrize("spec", ["cycle:8", "path:8", "cycle:9"])
def test_doctored_phi_fails_as_the_full_scan_says(spec, monkeypatch):
    """A moved entry fails the check with the first witness a full scan names;
    for each generator in turn, a move that commutes with it fails all the
    same.  Both paths of the check are held to the scan."""
    g = generate(spec)
    t = matching_table(g)
    grp = automorphisms(g)
    elements = brute_force_automorphisms(g)
    phi = build_phi(g, 2, 2, table=t)
    identity = tuple(range(g.n))
    for sigma in (identity,) + grp.generators:
        bad = _doctored(phi, sigma)
        block_partition(bad)  # the moved entries stay inside their blocks
        expected = equivariance_failures_full(g, bad, elements)
        by_generators = equivariance_failures_full(g, bad, grp.generators)
        assert sigma not in {s for (s, _) in expected}
        for path in _each_equivariance_path(monkeypatch):
            rep = verify_equivariant(g, 2, 2, table=t, group=grp, phi=bad)
            if sigma == identity or len(grp.generators) > 1:
                assert expected and not rep.passed, path
            assert rep.failures[:1] == expected[:1], path
            assert rep.failures == by_generators, path


def test_a_moved_entry_in_any_column_fails_as_the_scan_says(monkeypatch):
    """Each column of cycle:8's (2, 2) map doctored alone: both paths report
    the generators' failures as the full scan does, wherever the column is."""
    g = generate("cycle:8")
    t = matching_table(g)
    grp = automorphisms(g)
    phi = build_phi(g, 2, 2, table=t)
    identity = tuple(range(g.n))
    failing = set()
    for j in range(len(phi.columns)):
        try:
            bad = _doctored(phi, identity, columns=[j])
        except ValueError:
            continue
        expected = equivariance_failures_full(g, bad, grp.generators)
        for path in _each_equivariance_path(monkeypatch):
            rep = verify_equivariant(g, 2, 2, table=t, group=grp, phi=bad)
            assert rep.failures == expected, (path, j)
        witnesses = {pair for (_, pair) in expected}
        failing.update(i for i, pair in enumerate(phi.col_pairs) if pair in witnesses)
    assert max(failing) >= len(phi.columns) // 2  # so a scan must not stop halfway


def _group_ranks_by_exact_rank(g, monkeypatch):
    """Per slot: verify_injective, by the identity and by the forced fallback, against exact group ranks."""
    t = matching_table(g)
    for (ell, k) in _slots_with_columns(t):
        phi = build_phi(g, ell, k, table=t)
        blocks = block_partition(phi)
        ranks = []
        for b in blocks:
            rows = sorted({r for j in b.col_indices for r in phi.columns[j]})
            row_map = {r: i for i, r in enumerate(rows)}
            pattern = tuple(tuple(row_map[r] for r in phi.columns[j]) for j in b.col_indices)
            ranks.append(exactalg.rank(exactalg.Pattern(len(rows), pattern)))
        expected = (ell, k, len(blocks), sum(ranks), len(phi.columns))
        assert slot_identity_holds(phi)
        assert verify_injective(g, ell, k, table=t, phi=phi) == expected
        with monkeypatch.context() as m:
            m.setattr(phimap, "slot_identity_holds", lambda phi: False)
            assert verify_injective(g, ell, k, table=t, phi=phi) == expected
        yield from zip(blocks, ranks)


def test_one_column_block_ranks_match_exact_rank(monkeypatch):
    blocks = list(_group_ranks_by_exact_rank(generate("gnp:8:1:2:7"), monkeypatch))
    assert sum(len(b.col_indices) == 1 for b, _ in blocks) > 1000
    assert all(rank == len(b.col_indices) for b, rank in blocks)
    for g in atlas_graphs(6):
        for _ in _group_ranks_by_exact_rank(g, monkeypatch):
            pass


@pytest.mark.parametrize("spec", ["petersen", "complete:7", "kbipartite:4:4", "gnp:10:1:2:1"])
def test_slot_identity_holds_on_every_slot(spec):
    g = generate(spec)
    t = matching_table(g)
    for (ell, k) in _slots_with_columns(t):
        assert slot_identity_holds(build_phi(g, ell, k, table=t)), (ell, k)


def _assert_the_identity_counts_and_witnesses_agree_with_the_oracles(g):
    """Per slot with columns: the trace count is both builds' nonzeros, and Φ one
    slot down has the pair-by-pair witnesses as its columns."""
    t = matching_table(g)
    for (ell, k) in _slots_with_columns(t):
        phi = build_phi(g, ell, k, table=t)
        oracle = phi_by_neighbor_sets(g, ell, k, table=t)
        assert nonzeros(t, ell, k) == phi.nnz == sum(map(len, oracle.columns)), (ell, k)
        below = build_phi(g, ell - 1, k + 1, table=t).columns if ell > 1 else ()
        assert Counter(below) == Counter(down_pair_witnesses(g, ell, k, table=t)), (ell, k)


@pytest.mark.parametrize("spec", ["cycle:8", "petersen", "complete:7", "kbipartite:4:4"])
def test_the_identity_counts_and_witnesses_agree_with_the_oracles(spec):
    _assert_the_identity_counts_and_witnesses_agree_with_the_oracles(generate(spec))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_the_identity_counts_and_witnesses_agree_with_the_oracles_on_gnp(n, num, seed):
    _assert_the_identity_counts_and_witnesses_agree_with_the_oracles(generate(f"gnp:{n}:{num}:6:{seed}"))


def test_petersen_nonzeros_are_the_identitys_trace():
    # 2·m1·m3 + 4·m0·m4: two rows per column, and one more per pair one slot down
    t = matching_table(generate("petersen"))
    assert nonzeros(t, 2, 2) == 2 * 15 * 145 + 4 * 1 * 90 == 4710


def test_a_build_whose_nonzeros_miss_the_count_is_an_internal_error():
    # a pink chain held twice in the memo gives its columns one row too many
    g = generate("cycle:6")
    t = matching_table(g)
    blue, pink = next(t.pairs(1, 3))
    chains, ends, even, even_components = odd_chains(g, blue ^ pink)
    repeated = next(c for c in chains if pink & ends & c)
    g._chain_memo[blue ^ pink] = (chains + (repeated,), ends, even, even_components)
    with pytest.raises(InternalError, match=r"^Φ's nonzeros at \(2, 2\) differ from the slot identity's count 24$"):
        build_phi(g, 2, 2, table=t)


def _free_row(phi, j):
    """A row of column j's block that column j does not reach."""
    g = phi.graph
    key = block_key(g, *phi.col_pairs[j])
    return next(
        (r for r, pair in enumerate(phi.row_pairs) if r not in phi.columns[j] and block_key(g, *pair) == key),
        None,
    )


def _doctored_pattern(phi, how):
    """Φ's columns with one doctored the way `how` names; rank may fall ("copied")."""
    columns = list(phi.columns)
    if how == "dropped":
        j = next(j for j, col in enumerate(columns) if len(col) > 1)
        columns[j] = columns[j][1:]
    elif how == "added":
        j = next(j for j in range(len(columns)) if _free_row(phi, j) is not None)
        columns[j] = tuple(sorted(columns[j] + (_free_row(phi, j),)))
    elif how == "copied":
        cols = next(b.col_indices for b in block_partition(phi) if len(b.col_indices) > 1)
        columns[cols[1]] = columns[cols[0]]
    elif how == "moved":
        return _doctored(phi, tuple(range(phi.graph.n))).columns
    return tuple(columns)


@pytest.mark.parametrize("how", ["dropped", "added", "copied", "moved"])
@pytest.mark.parametrize("spec, ell, k", [("cycle:8", 2, 2), ("path:8", 2, 2), ("cycle:9", 2, 2)])
def test_doctored_pattern_fails_the_identity_and_gets_the_oracle_rank(spec, ell, k, how, monkeypatch):
    g = generate(spec)
    phi = build_phi(g, ell, k)
    bad = PhiMatrix(phi.table, ell, k, _doctored_pattern(phi, how), phi.blocks)
    assert not slot_identity_holds(bad)
    # the fallback ranks the doctored Φ block by block, one elimination per block
    ranked = []
    real_rank = exactalg.rank
    monkeypatch.setattr(exactalg, "rank", lambda m: ranked.append(m.ncols) or real_rank(m))
    rep = verify_injective(g, ell, k, phi=bad)
    assert ranked == [len(b.col_indices) for b in block_partition(bad)]
    assert len(ranked) == rep.blocks == phi.blocks
    assert rep.total_rank == rank_gauss_sparse(phi_matrix(bad))
    if how == "copied":
        assert rep.total_rank == rep.expected - 1 and not rep.passed


@pytest.mark.parametrize("spec, ell, k", [("cycle:8", 2, 2), ("cycle:10", 3, 3)])
def test_repeated_blue_chain_fails_the_identity(spec, ell, k):
    # the pattern is intact, so the fallback finds full rank
    g = generate(spec)
    phi = build_phi(g, ell, k)
    # a column with a blue chain has more than k - l + 2 rows
    blue, pink = next(pair for pair, rows in zip(phi.col_pairs, phi.columns) if len(rows) > k - ell + 2)
    chains, ends, even, even_components = odd_chains(g, blue ^ pink)
    repeated = next(c for c in chains if not pink & ends & c)
    g._chain_memo[blue ^ pink] = (chains + (repeated,), ends, even, even_components)
    assert not slot_identity_holds(phi)
    rep = verify_injective(g, ell, k, phi=phi)
    assert rep.total_rank == rank_gauss_sparse(phi_matrix(phi)) == rep.expected
