import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equimatch import exactalg
from equimatch.exactalg import IntMatrix, pattern_matrix, rank, rank_certified, rank_mod
from oracles import (
    BasisIndex,
    ExactMatrix,
    equals,
    from_entries,
    identity,
    integer_matrix,
    multiply,
    permutation_matrix,
    rank_gauss_dense,
    rank_gauss_sparse,
    rank_mod_p,
    to_dense,
    transpose,
)


def test_rank_identity():
    assert rank(integer_matrix(identity(5))) == 5


def test_rank_single_column():
    m = from_entries(2, 1, [(0, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))])
    assert integer_matrix(m) == pattern_matrix(2, [[0, 1]])
    assert rank(integer_matrix(m)) == 1


def test_rank_zero_sizes():
    assert rank(IntMatrix(0, 0, ())) == 0
    assert rank(IntMatrix(3, 0, ())) == 0
    assert rank(integer_matrix(from_entries(0, 2, []))) == 0
    assert rank_certified(pattern_matrix(3, [[], []])) == 0


def _random_sparse(rng, nrows, ncols, density=0.3):
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries.append(
                    (r, c, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                )
    return from_entries(nrows, ncols, entries)


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_gaussian_oracles(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 50)
    ncols = rng.randint(1, 50)
    m = _random_sparse(rng, nrows, ncols)
    expected = rank_gauss_dense(m)
    ints = integer_matrix(m)
    assert rank(ints) == expected
    assert rank_gauss_sparse(m) == expected
    assert rank_certified(ints) == expected
    assert rank_mod(ints) <= expected


@pytest.mark.parametrize("seed", range(6))
def test_rank_invariant_under_scaling_and_permutation(seed):
    rng = random.Random(100 + seed)
    m = _random_sparse(rng, 12, 9)
    base = rank(integer_matrix(m))
    scales = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(m.ncols)]
    scaled = ExactMatrix(
        m.nrows,
        m.ncols,
        tuple(
            tuple((r, v * s) for (r, v) in col) for col, s in zip(m.cols, scales)
        ),
    )
    assert rank(integer_matrix(scaled)) == base
    perm = list(range(m.ncols))
    rng.shuffle(perm)
    permuted = ExactMatrix(m.nrows, m.ncols, tuple(m.cols[j] for j in perm))
    assert rank(integer_matrix(permuted)) == base
    # rank eliminates over the smaller dimension: both orientations agree
    assert rank(integer_matrix(transpose(m))) == base


def test_rank_defect_certified_falls_back():
    # two proportional columns: modular rank 1 < min dim, Bareiss decides
    m = IntMatrix(3, 2, (((0, 1), (1, 2)), ((0, 2), (1, 4))))
    assert rank_certified(m) == 1


def test_rank_certified_path_names_the_path():
    assert exactalg.rank_certified_path(pattern_matrix(2, [[0], [1]])) == (2, "mod-p")
    m = IntMatrix(3, 2, (((0, 1), (1, 2)), ((0, 2), (1, 4))))
    assert exactalg.rank_certified_path(m) == (1, "bareiss")


def test_transpose_swaps_rows_and_columns():
    m = IntMatrix(3, 2, (((0, 1), (2, -3)), ((1, 5),)))
    t = exactalg.transpose(m)
    assert t == IntMatrix(2, 3, (((0, 1),), ((1, 5),), ((0, -3),)))
    assert exactalg.transpose(t) == m


def test_gram_certifies_signed_columns():
    # columns (1, 1) and (1, -1): mᵀm = 2·I, the off-diagonal sum cancels to 0
    m = IntMatrix(2, 2, (((0, 1), (1, 1)), ((0, 1), (1, -1))))
    none = IntMatrix(2, 0, ())
    assert exactalg.gram_certifies(m, 2, none)
    assert not exactalg.gram_certifies(m, 1, none)
    # 1·I + w·wᵀ = [[2, 1], [1, 2]] differs off the diagonal
    assert not exactalg.gram_certifies(m, 1, pattern_matrix(2, [[0, 1]]))


def test_gram_certifies_rejects_a_nonpositive_shift():
    # both identities hold, yet neither matrix has full column rank
    ones = pattern_matrix(1, [[0], [0]])  # 1 x 2, rank 1
    assert not exactalg.gram_certifies(ones, 0, exactalg.transpose(ones))
    zero = IntMatrix(1, 1, ((),))  # 0 = -1 + 1·1
    assert not exactalg.gram_certifies(zero, -1, pattern_matrix(1, [[0]]))


def test_gram_certifies_rejects_a_witness_of_the_wrong_height():
    m = pattern_matrix(1, [[0]])  # mᵀm = 1·I
    assert exactalg.gram_certifies(m, 1, IntMatrix(1, 0, ()))
    assert not exactalg.gram_certifies(m, 1, IntMatrix(2, 0, ()))
    assert not exactalg.gram_certifies(m, 1, IntMatrix(0, 0, ()))


_CERT_PRIME = exactalg._CERT_PRIME  # 2**31 - 1


@pytest.mark.parametrize("prime", [11, _CERT_PRIME])
@pytest.mark.parametrize(
    "shape", [(30, 12), (12, 30), (20, 20)], ids=["tall", "wide", "square"]
)
@pytest.mark.parametrize("seed", range(4))
def test_rank_mod_matches_mod_p_oracle(seed, shape, prime):
    # sparse, so most rows are zero in a pivot column; the product has rank
    # at most `inner`, so it also covers pivot columns with no nonzero
    rng = random.Random(300 + seed)
    nrows, ncols = shape
    inner = rng.randint(1, min(shape) - 3)
    deficient = multiply(
        _random_sparse(rng, nrows, inner, density=0.3),
        _random_sparse(rng, inner, ncols, density=0.3),
    )
    for m in (_random_sparse(rng, nrows, ncols, density=0.15), deficient):
        assert rank_mod(integer_matrix(m), prime) == rank_mod_p(m, prime)
    assert rank_mod(integer_matrix(deficient), prime) <= inner


def test_rank_mod_below_rank_at_the_prime():
    # columns (p, 1) and (0, 1): determinant p, so rank 2 over Q and 1 mod p
    m = from_entries(2, 2, [(0, 0, _CERT_PRIME), (1, 0, 1), (1, 1, 1)])
    ints = integer_matrix(m)
    assert rank_mod(ints) == rank_mod_p(m, _CERT_PRIME) == 1
    assert rank(ints) == 2
    assert rank_certified(ints) == 2


def test_residues_put_the_shorter_side_in_rows():
    # on a tie the columns of m become the rows
    rng = random.Random(7)
    for nrows, ncols in [(9, 4), (4, 9), (6, 6)]:
        m = integer_matrix(_random_sparse(rng, nrows, ncols, density=0.5))
        a = exactalg._residues(m, 11)
        if ncols >= nrows:
            a = a.T
        assert a.shape == (nrows, ncols)
        pattern = [[False] * ncols for _ in range(nrows)]
        for c, col in enumerate(m.cols):
            for (r, _) in col:
                pattern[r][c] = True
        assert (a != 0).tolist() == pattern


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
    for matrix, one, zero in ((ExactMatrix, Fraction(1), Fraction(0)), (IntMatrix, 1, 0)):
        with pytest.raises(ValueError):
            matrix(2, 1, (((0, zero),),))  # stored zero
        with pytest.raises(ValueError):
            matrix(2, 1, (((1, one), (0, one)),))  # unsorted
        with pytest.raises(ValueError):
            matrix(2, 1, (((2, one),),))  # out of range
        with pytest.raises(ValueError):
            matrix(2, 2, (((0, one),),))  # column count
    with pytest.raises(ValueError):
        BasisIndex((2, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_rank_bounds(seed):
    rng = random.Random(seed)
    m = _random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12), density=0.4)
    rk = rank(integer_matrix(m))
    assert 0 <= rk <= min(m.nrows, m.ncols)
    assert rk == rank_gauss_dense(m)
