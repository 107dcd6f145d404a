from fractions import Fraction
from math import comb

import pytest

from equimatch import boollattice
from equimatch.boollattice import (
    bits_to_set,
    chains_are_valid,
    level_subsets,
    set_to_bits,
    symmetric_chains,
    up_map,
    verify_lemma,
)
from equimatch.cli import run
from equimatch.graph import InternalError
from oracles import averaging_matrix, rank_gauss_dense


def test_up_map_n2():
    m = up_map(2, 0)
    assert m.nrows == 2 and m.ncols == 1
    assert m.cols[0] == ((0, 1), (1, 1))
    assert [v for (_, v) in averaging_matrix(m).cols[0]] == [Fraction(1, 2), Fraction(1, 2)]


def test_up_map_n3_level1():
    m = up_map(3, 1)
    assert m.nrows == 3 and m.ncols == 3
    # the averaging map puts 1/(n - i) on each cover
    for col in averaging_matrix(m).cols:
        assert len(col) == 2 and all(v == Fraction(1, 2) for (_, v) in col)
        assert sum(v for (_, v) in col) == 1


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
    assert rep4.flagged == (rep4.levels[2],)
    assert rep4.passed


@pytest.mark.parametrize("n", range(1, 9))
def test_lemma_ranks_match_oracle(n):
    for lv in verify_lemma(n).levels:
        assert lv.rank == min(lv.dim_src, lv.dim_dst)
        assert lv.rank == rank_gauss_dense(averaging_matrix(up_map(n, lv.i)))


def test_every_level_is_certified_mod_p(monkeypatch):
    # the Bareiss fallback must not run: each level's mod-p rank reaches
    # min(dim_src, dim_dst) on its own
    def no_fallback(m):
        raise AssertionError("Bareiss fallback ran")

    monkeypatch.setattr(boollattice.exactalg, "rank", no_fallback)
    for n in range(1, 13):
        assert verify_lemma(n).passed


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


def test_exhausted_successor_is_an_internal_error(monkeypatch, capsys):
    # a chain that stops below level n-i breaks an invariant: a real raise,
    # kept under `python -O`, and exit code 4 from the CLI
    monkeypatch.setattr(boollattice, "bracket_successor", lambda n, members: None)
    with pytest.raises(InternalError):
        symmetric_chains(4, 1)
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
                assert dst.index(b) in {r for (r, _) in col}


def test_bits_set_roundtrip():
    for bits in range(32):
        assert set_to_bits(bits_to_set(bits)) == bits
