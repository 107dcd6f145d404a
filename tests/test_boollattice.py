from fractions import Fraction
from math import comb

import pytest

from equimatch import boollattice, exactalg
from equimatch.boollattice import (
    ChainFamily,
    chains_are_valid,
    level_subsets,
    symmetric_chains,
    up_map,
    verify_lemma,
)
from equimatch.brackets import bracket_successor
from equimatch.cli import run
from equimatch.exactalg import Pattern
from equimatch.gram import gram_identity_holds
from equimatch.graph import InternalError
from oracles import (
    averaging_matrix,
    bits_to_set,
    bracket_successor_by_sets,
    level_subsets_by_sorting,
    rank_gauss_dense,
    rank_gauss_sparse,
    set_to_bits,
    symmetric_chains_by_sets,
    unmatched_openers_by_positions,
    up_map_by_sorting,
)


def test_up_map_n2():
    m = up_map(2, 0)
    assert m.nrows == 2 and m.ncols == 1
    assert m.cols[0] == (0, 1)
    assert [v for (_, v) in averaging_matrix(m).cols[0]] == [Fraction(1, 2), Fraction(1, 2)]


def test_up_map_n3_level1():
    m = up_map(3, 1)
    assert m.nrows == 3 and m.ncols == 3
    # the averaging map puts 1/(n - i) on each cover
    for col in averaging_matrix(m).cols:
        assert len(col) == 2 and all(v == Fraction(1, 2) for (_, v) in col)
        assert sum(v for (_, v) in col) == 1


@pytest.mark.parametrize("n", range(0, 15))
def test_levels_match_the_sorted_combinations(n):
    for i in range(n + 2):
        assert level_subsets(n, i) == level_subsets_by_sorting(n, i)


@pytest.mark.parametrize("n", range(1, 15))
def test_up_maps_match_the_sorted_construction(n):
    for i in range(n):
        assert up_map(n, i) == up_map_by_sorting(n, i)


def test_up_map_range_check():
    with pytest.raises(ValueError):
        up_map(3, 3)
    with pytest.raises(ValueError):
        up_map(3, -1)


def test_verify_lemma_small():
    rep1 = verify_lemma(1)
    assert rep1.passed and rep1.levels[0].rank == 1
    rep2 = verify_lemma(2)
    assert rep2.passed
    # i = 1 = n/2 with shrinking target: rank 1 of 2, flagged not failed
    top = rep2.levels[1]
    assert top.rank == 1 and not top.injectivity_expected
    rep4 = verify_lemma(4)
    assert [lv.rank for lv in rep4.levels] == [1, 4, 4]
    assert [lv for lv in rep4.levels if not lv.injectivity_expected] == [rep4.levels[2]]
    assert rep4.passed


@pytest.mark.parametrize("n, levels", [(1, 1), (2, 2), (3, 2), (4, 4), (11, 6), (12, 8)])
def test_verify_lemma_builds_only_the_up_maps_it_reads(n, levels, monkeypatch):
    # levels 0..floor(n/2), and for even n the one above the middle, its witness
    built = []
    real_up_map = boollattice.up_map
    monkeypatch.setattr(boollattice, "up_map", lambda n_, i: built.append(i) or real_up_map(n_, i))
    assert verify_lemma(n).passed
    assert built == list(range(levels))


def test_verify_lemma_refuses_past_the_size_limit_before_any_up_map(monkeypatch):
    def no_up_map(n, i):
        raise AssertionError("an up map was built")

    monkeypatch.setattr(boollattice, "up_map", no_up_map)
    with pytest.raises(ValueError, match="n=15 exceeds the size budget 14"):
        verify_lemma(boollattice.SIZE_LIMIT + 1)


def test_verify_lemma_runs_at_the_size_limit():
    rep = verify_lemma(boollattice.SIZE_LIMIT)
    assert rep.n == 14 and rep.passed
    assert [lv.path for lv in rep.levels] == ["identity"] * 8


def _forbid_elimination(monkeypatch):
    def no_elimination(m):
        raise AssertionError("an elimination ran")

    for name in ("rank_certified", "rank_certified_path", "rank_mod", "rank"):
        monkeypatch.setattr(exactalg, name, no_elimination)


@pytest.mark.parametrize("n", range(1, 13))
def test_lemma_ranks_match_oracle(n, monkeypatch):
    # every level is certified by the commutation identity alone; the dense
    # oracle takes 8 s at n = 10 and minutes beyond, so n = 10, 11 use the
    # sparse one and n = 12 the lemma's value
    levels = range(n // 2 + 1)
    if n <= 11:
        oracle = rank_gauss_dense if n <= 9 else rank_gauss_sparse
        oracle_ranks = [oracle(averaging_matrix(up_map(n, i))) for i in levels]
    else:
        oracle_ranks = [min(comb(n, i), comb(n, i + 1)) for i in levels]
    _forbid_elimination(monkeypatch)
    rep = verify_lemma(n)
    assert rep.passed
    assert [lv.path for lv in rep.levels] == ["identity"] * len(rep.levels)
    assert [lv.rank for lv in rep.levels] == oracle_ranks
    for lv in rep.levels:
        assert lv.rank == min(lv.dim_src, lv.dim_dst)


def test_every_level_is_certified_mod_p(monkeypatch):
    # the Bareiss fallback must not run: each level's mod-p rank reaches
    # min(dim_src, dim_dst) on its own.  verify_lemma no longer reaches the
    # mod-p path, so the up maps are ranked directly
    def no_fallback(m):
        raise AssertionError("Bareiss fallback ran")

    monkeypatch.setattr(exactalg, "rank", no_fallback)
    for n in range(1, 13):
        for i in range(n // 2 + 1):
            m = up_map(n, i)
            assert exactalg.rank_certified(m) == min(comb(n, i), comb(n, i + 1))
            assert exactalg.rank_certified_path(m)[1] == "mod-p"


def _doctored(m: Pattern, kind: str) -> Pattern:
    """m with column 0 changed: its last entry dropped, an entry added, or column 1 copied."""
    col = m.cols[0]
    if kind == "drop":
        new = col[:-1]
    elif kind == "add":
        extra = min(set(range(m.nrows)) - set(col))
        new = tuple(sorted(col + (extra,)))
    else:
        new = m.cols[1]
    return Pattern(m.nrows, (new,) + m.cols[1:])


def _rows(m: Pattern) -> list[list[int]]:
    return [[j for j, col in enumerate(m.cols) if r in col] for r in range(m.nrows)]


def _identity_args(n: int, i: int, ups: dict) -> tuple:
    """(columns, shift, witnesses) of level i's identity, as verify_lemma chooses them."""
    if 2 * i < n:
        return ups[i].cols, n - 2 * i, ups[i - 1].cols if i else ()
    return _rows(ups[i]), 2, _rows(ups[i + 1]) if i + 1 < n else ()


@pytest.mark.parametrize("kind", ["drop", "add", "copy"])
@pytest.mark.parametrize("n, i", [(7, 2), (6, 1), (6, 3)])
def test_doctored_up_map_falls_back_to_the_exact_rank(n, i, kind, monkeypatch):
    ups = {j: up_map(n, j) for j in range(n)}
    bad = _doctored(ups[i], kind)
    assert gram_identity_holds(*_identity_args(n, i, ups))
    assert not gram_identity_holds(*_identity_args(n, i, {**ups, i: bad}))

    real_up_map = boollattice.up_map
    monkeypatch.setattr(
        boollattice, "up_map", lambda n_, j: bad if (n_, j) == (n, i) else real_up_map(n_, j)
    )
    rep = verify_lemma(n)
    doctored = rep.levels[i]
    assert doctored.path in ("mod-p", "bareiss")
    assert doctored.rank == rank_gauss_dense(averaging_matrix(bad))
    for lv in rep.levels:
        m = bad if lv.i == i else up_map(n, lv.i)
        assert lv.rank == rank_gauss_dense(averaging_matrix(m))
    if kind == "copy" and 2 * i < n:
        # two equal columns of an injective level: the rank falls short and
        # is reported, not assumed
        assert doctored.path == "bareiss"
        assert doctored.rank == min(doctored.dim_src, doctored.dim_dst) - 1
        assert not rep.passed


def test_surjective_above_middle():
    # transpose symmetry: above the middle the up map has full row rank
    for n in range(2, 7):
        for i in range(n // 2 + 1, n):
            m = averaging_matrix(up_map(n, i))
            assert rank_gauss_dense(m) == comb(n, i + 1) == m.nrows


def test_chain_example_n2():
    fam = symmetric_chains(2, 0)
    assert fam.chains == ((0b00, 0b01, 0b11),)  # empty -> {1} -> {1, 2}


def test_chain_example_n3():
    fam = symmetric_chains(3, 1)
    assert len(fam.chains) == 3
    assert all(len(chain) == 2 for chain in fam.chains)
    assert chains_are_valid(fam)


@pytest.mark.parametrize("n", range(1, 13))
def test_chains_valid_all_levels(n):
    for i in range(n // 2 + 1):
        fam = symmetric_chains(n, i)
        assert chains_are_valid(fam)
        assert len(fam.chains) == comb(n, i)


def _doctored_family(kind: str) -> ChainFamily:
    """symmetric_chains(6, 1) with one fault: six chains of five sets, levels 1 to 5."""
    fam = symmetric_chains(6, 1)
    a, b, *rest = fam.chains
    if kind == "shared set":
        # a's sets from level 2 up, under the other element of a's 2-set
        other = a[1] & ~a[0]
        chains = (a, (other,) + a[1:], *rest)
    elif kind == "not a cover":
        # a and b trade their 3-sets: every set still used once, on its level
        chains = (a[:2] + b[2:3] + a[3:], b[:2] + a[2:3] + b[3:], *rest)
    elif kind == "stops low":
        chains = (a[:-1], b, *rest)
    elif kind == "starts high":
        chains = (a[1:], b, *rest)
    elif kind == "missing":
        chains = (b, *rest)
    elif kind == "repeated in place of another":
        chains = (a, a, *rest)
    else:  # repeated as a seventh chain
        chains = (a, b, *rest, a)
    return ChainFamily(6, 1, chains)


@pytest.mark.parametrize(
    "kind",
    ["shared set", "not a cover", "stops low", "starts high", "missing",
     "repeated in place of another", "repeated as a seventh chain"],
)
def test_a_doctored_chain_family_is_invalid(kind):
    assert chains_are_valid(symmetric_chains(6, 1))
    assert not chains_are_valid(_doctored_family(kind))


@pytest.mark.parametrize(
    "fam",
    [
        # saturated, disjoint, C(4, 1) chains from level 1 to 3, but on element 5
        ChainFamily(4, 1, ((16, 17, 19), (2, 6, 14), (4, 5, 13), (8, 9, 11))),
        ChainFamily(2, 1, ((4,), (8,))),
        # one member exactly 1 << n, the first bitset past [n]
        ChainFamily(2, 1, ((1,), (4,))),
    ],
)
def test_a_chain_family_outside_the_ground_set_is_invalid(fam):
    assert not chains_are_valid(fam)


def test_a_chain_that_breaks_nesting_between_neighbours_only_is_invalid():
    # {} < {1} and {1} < {1, 2, 3} nest two steps apart, but {1} is not in {2, 3}
    fam = ChainFamily(3, 0, ((0b000, 0b001, 0b110, 0b111),))
    assert not chains_are_valid(fam)
    assert chains_are_valid(ChainFamily(3, 0, ((0b000, 0b001, 0b011, 0b111),)))


def test_exhausted_successor_is_an_internal_error(monkeypatch, capsys):
    # a start with fewer than n - 2i unmatched openers would give a chain
    # that stops below level n-i: a real raise, kept under `python -O`, and
    # exit code 4 from the CLI.  Dropping the last unmatched opener leaves
    # too few exactly where a start has n - 2i, as the empty set has
    real = boollattice.unmatched_openers

    def one_short(n, members):
        openers = real(n, members)
        return openers & ~(1 << openers.bit_length() - 1) if openers else 0

    monkeypatch.setattr(boollattice, "unmatched_openers", one_short)
    with pytest.raises(InternalError):
        symmetric_chains(4, 1)
    with pytest.raises(InternalError):
        symmetric_chains(4, 0)
    assert run(["boolean", "--n", "4"]) == 4
    assert "InternalError" in capsys.readouterr().err


def test_chain_steps_are_matrix_entries():
    n = 5
    for i in range(n // 2 + 1):
        fam = symmetric_chains(n, i)
        for chain in fam.chains:
            for a, b in zip(chain, chain[1:]):
                lvl = a.bit_count()
                m = up_map(n, lvl)
                src = level_subsets(n, lvl)
                dst = level_subsets(n, lvl + 1)
                col = m.cols[src.index(a)]
                assert dst.index(b) in col


def test_bits_set_roundtrip():
    for bits in range(32):
        assert set_to_bits(bits_to_set(bits)) == bits


@pytest.mark.parametrize("n", range(0, 13))
def test_unmatched_openers_match_the_positional_scan(n):
    for bits in range(1 << n):
        assert boollattice.unmatched_openers(n, bits) == unmatched_openers_by_positions(n, bits)


@pytest.mark.parametrize("n", range(0, 11))
def test_bitset_successor_matches_the_set_walk(n):
    for bits in range(1 << n):
        expected = bracket_successor_by_sets(n, bits_to_set(bits))
        got = bracket_successor(n, bits)
        assert got == (None if expected is None else set_to_bits(expected))


@pytest.mark.parametrize("n", range(1, 15))
def test_chain_families_match_the_set_walk(n):
    # the bitset walk gives the frozenset walk's families, chain by chain
    for i in range(n // 2 + 1):
        assert symmetric_chains(n, i).chains == symmetric_chains_by_sets(n, i)
