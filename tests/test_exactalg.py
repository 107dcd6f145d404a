import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equimatch import exactalg
from equimatch.exactalg import Pattern, rank, rank_certified, rank_mod
from oracles import (
    BasisIndex,
    ExactMatrix,
    averaging_matrix,
    equals,
    from_entries,
    identity,
    multiply,
    ones_matrix,
    permutation_matrix,
    rank_gauss_dense,
    rank_gauss_sparse,
    rank_mod_p,
    to_dense,
)


def test_pattern_is_the_class_of_gram():
    # re-exported, so patterns built on either side compare equal and hash alike
    from equimatch import gram

    assert Pattern is gram.Pattern


def test_rank_identity():
    assert rank(Pattern(5, tuple((i,) for i in range(5)))) == 5


def test_rank_single_column():
    m = Pattern(2, ((0, 1),))
    assert equals(averaging_matrix(m), from_entries(2, 1, [(0, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))]))
    assert rank(m) == 1


def test_rank_zero_sizes():
    assert rank(Pattern(0, ())) == 0
    assert rank(Pattern(3, ())) == 0
    assert rank(Pattern(0, ((), ()))) == 0
    assert rank_certified(Pattern(3, ((), ()))) == 0


def _random_pattern(rng, nrows, ncols, density=0.3) -> Pattern:
    return Pattern(nrows, tuple(
        tuple(r for r in range(nrows) if rng.random() < density) for _ in range(ncols)
    ))


def _deficient_pattern(rng, nrows, ncols, inner, density=0.3) -> Pattern:
    """Each column the union of some of `inner` pairwise disjoint base columns: rank <= inner.

    Columns repeat whenever two draw the same bases.
    """
    group = [rng.randrange(inner + 1) for _ in range(nrows)]  # group `inner` is in no base
    cols = []
    for _ in range(ncols):
        chosen = {b for b in range(inner) if rng.random() < density}
        cols.append(tuple(r for r in range(nrows) if group[r] in chosen))
    return Pattern(nrows, tuple(cols))


def _transpose(m: Pattern) -> Pattern:
    return Pattern(m.ncols, tuple(
        tuple(c for c, col in enumerate(m.cols) if r in col) for r in range(m.nrows)
    ))


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_gaussian_oracles(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 50)
    ncols = rng.randint(1, 50)
    inner = rng.randint(1, min(nrows, ncols))
    for m in (_random_pattern(rng, nrows, ncols), _deficient_pattern(rng, nrows, ncols, inner)):
        exact = averaging_matrix(m)
        expected = rank_gauss_dense(exact)
        assert rank(m) == expected
        assert rank_gauss_sparse(exact) == expected
        assert rank_certified(m) == expected
        assert rank_mod(m) <= expected


@pytest.mark.parametrize("seed", range(6))
def test_rank_invariant_under_scaling_and_permutation(seed):
    rng = random.Random(100 + seed)
    m = _random_pattern(rng, 12, 9)
    base = rank(m)
    # any nonzero column weights: the pattern stands for every scaling of itself
    scales = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(m.ncols)]
    scaled = ExactMatrix(m.nrows, m.ncols, tuple(
        tuple((r, s) for r in col) for col, s in zip(m.cols, scales)
    ))
    assert rank_gauss_dense(scaled) == base
    perm = list(range(m.ncols))
    rng.shuffle(perm)
    assert rank(Pattern(m.nrows, tuple(m.cols[j] for j in perm))) == base
    row_perm = list(range(m.nrows))
    rng.shuffle(row_perm)
    assert rank(Pattern(m.nrows, tuple(tuple(sorted(row_perm[r] for r in col)) for col in m.cols))) == base
    # rank eliminates over the smaller dimension: both orientations agree
    assert rank(_transpose(m)) == base


def test_rank_defect_certified_falls_back():
    # two equal columns: modular rank 1 < min dim, Bareiss decides
    m = Pattern(3, ((0, 1), (0, 1)))
    assert rank_certified(m) == 1


def test_rank_certified_path_names_the_path():
    assert exactalg.rank_certified_path(Pattern(2, ((0,), (1,)))) == (2, "mod-p")
    m = Pattern(3, ((0, 1), (0, 1)))
    assert exactalg.rank_certified_path(m) == (1, "bareiss")


_CERT_PRIME = exactalg._CERT_PRIME  # 2**31 - 1


@pytest.mark.parametrize("prime", [11, _CERT_PRIME])
@pytest.mark.parametrize(
    "shape", [(30, 12), (12, 30), (20, 20)], ids=["tall", "wide", "square"]
)
@pytest.mark.parametrize("seed", range(4))
def test_rank_mod_matches_mod_p_oracle(seed, shape, prime):
    # sparse, so most rows are zero in a pivot column; the deficient pattern
    # has rank at most `inner`, so it also covers pivot columns with no nonzero
    rng = random.Random(300 + seed)
    nrows, ncols = shape
    inner = rng.randint(1, min(shape) - 3)
    deficient = _deficient_pattern(rng, nrows, ncols, inner)
    for m in (_random_pattern(rng, nrows, ncols, density=0.15), deficient):
        assert rank_mod(m, prime) == rank_mod_p(ones_matrix(m), prime)
    assert rank_mod(deficient, prime) <= inner


# a 7 x 7 pattern of determinant 11: rank 7 over Q, 6 over F_11
_DET_11 = Pattern(7, (
    (0, 1, 5, 6), (2, 4, 5, 6), (0, 2, 3, 6), (1, 3, 4, 5, 6), (0, 1, 2, 3, 4), (1, 2, 6), (2, 3, 5, 6),
))


def test_rank_mod_below_rank_at_the_prime(monkeypatch):
    assert rank_mod(_DET_11, 11) == rank_mod_p(ones_matrix(_DET_11), 11) == 6
    assert rank(_DET_11) == rank_gauss_dense(ones_matrix(_DET_11)) == 7
    assert rank_certified(_DET_11) == 7
    # at a certificate prime that divides the determinant the mod-p rank
    # falls short, and the exact fallback gives the rank
    real_rank_mod = exactalg.rank_mod
    monkeypatch.setattr(exactalg, "rank_mod", lambda m: real_rank_mod(m, 11))
    assert exactalg.rank_certified_path(_DET_11) == (7, "bareiss")


def test_residues_put_the_shorter_side_in_rows(monkeypatch):
    # on a tie the columns of m become the rows; the residue array is read
    # through the first pivot-column scan, before any elimination step
    import numpy as np

    seen = []
    real_flatnonzero = np.flatnonzero

    def first_array(column):
        if not seen:
            seen.append(column.base.copy())
        return real_flatnonzero(column)

    monkeypatch.setattr(np, "flatnonzero", first_array)
    rng = random.Random(7)
    for nrows, ncols in [(9, 4), (4, 9), (6, 6)]:
        m = _random_pattern(rng, nrows, ncols, density=0.5)
        seen.clear()
        rank_mod(m, 11)
        a = seen[0].T if ncols >= nrows else seen[0]
        assert a.shape == (nrows, ncols)
        assert (a != 0).tolist() == [[r in col for col in m.cols] for r in range(nrows)]


def test_permutation_matrix_basics():
    b = BasisIndex(("a", "b", "c"))
    ident = permutation_matrix(b, {"a": "a", "b": "b", "c": "c"})
    assert equals(ident, identity(3))
    p1 = permutation_matrix(b, {"a": "b", "b": "a", "c": "c"})
    p2 = permutation_matrix(b, {"a": "a", "b": "c", "c": "b"})
    composed = permutation_matrix(b, {"a": "c", "b": "a", "c": "b"})
    # matrix composition matches bijection composition p2 after p1
    assert equals(multiply(p2, p1), composed)
    # doubly stochastic 0/1
    dense = to_dense(p1)
    assert all(sum(row) == 1 for row in dense)
    assert all(sum(col) == 1 for col in zip(*dense))


def test_permutation_matrix_rejects_bad_maps():
    b = BasisIndex((1, 2, 3))
    with pytest.raises(ValueError):
        permutation_matrix(b, {1: 4, 2: 2, 3: 3})
    with pytest.raises(ValueError):
        permutation_matrix(b, {1: 2, 2: 2, 3: 3})


def test_multiply_and_equals():
    a = from_entries(2, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    assert equals(multiply(a, identity(2)), a)
    assert equals(a, a)
    double = from_entries(2, 2, [(0, 0, 2), (0, 1, 4), (1, 1, 6)])
    assert not equals(a, double)
    third = from_entries(1, 1, [(0, 0, Fraction(1, 3))])
    three = from_entries(1, 1, [(0, 0, 3)])
    assert equals(multiply(third, three), identity(1))
    with pytest.raises(ValueError):
        multiply(a, from_entries(3, 1, [(0, 0, 1)]))


def test_matrix_invariants_enforced():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(ValueError):
        ExactMatrix(2, 1, (((0, zero),),))  # stored zero
    with pytest.raises(ValueError):
        ExactMatrix(2, 1, (((1, one), (0, one)),))  # unsorted
    with pytest.raises(ValueError):
        ExactMatrix(2, 1, (((2, one),),))  # out of range
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, (((0, one),),))  # column count
    for bad in ((1, 0), (0, 0), (2,), (-1, 1)):  # unsorted, repeated, out of range twice
        with pytest.raises(ValueError):
            Pattern(2, (bad,))
    with pytest.raises(ValueError):
        BasisIndex((2, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_rank_bounds(seed):
    rng = random.Random(seed)
    m = _random_pattern(rng, rng.randint(1, 12), rng.randint(1, 12), density=0.4)
    rk = rank(m)
    assert 0 <= rk <= min(m.nrows, m.ncols)
    assert rk == rank_gauss_dense(ones_matrix(m))
