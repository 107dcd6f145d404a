import random

from hypothesis import given, settings, strategies as st

from equimatch.boollattice import up_map
from equimatch.gram import gram_identity_holds
from oracles import from_entries, multiply, transpose


def _dense_identity_holds(nrows: int, cols, shift: int, witnesses) -> bool:
    """shift > 0 and PᵀP − shift·I − WWᵀ = 0, from Fraction products of the whole matrices."""
    ncols = len(cols)
    p = from_entries(nrows, ncols, [(r, j, 1) for j, col in enumerate(cols) for r in col])
    w = from_entries(ncols, len(witnesses), [(j, c, 1) for c, wit in enumerate(witnesses) for j in wit])
    ptp = multiply(transpose(p), p)
    wwt = multiply(w, transpose(w))
    entries = [(r, c, v) for c, col in enumerate(ptp.cols) for (r, v) in col]
    entries += [(r, c, -v) for c, col in enumerate(wwt.cols) for (r, v) in col]
    entries += [(j, j, -shift) for j in range(ncols)]
    return shift > 0 and not any(from_entries(ncols, ncols, entries).cols)


def _boolean_instance(rng, n: int):
    """A level identity of the Boolean up maps, rows and columns relabelled at random."""
    i = rng.randrange((n + 1) // 2)  # 2i < n
    up = up_map(n, i)
    witnesses = up_map(n, i - 1).cols if i else ()
    col_perm = list(range(up.ncols))
    rng.shuffle(col_perm)
    row_perm = list(range(up.nrows))
    rng.shuffle(row_perm)
    cols = [None] * up.ncols
    for j, col in enumerate(up.cols):
        cols[col_perm[j]] = tuple(sorted(row_perm[r] for r in col))
    return up.nrows, cols, n - 2 * i, [sorted(col_perm[j] for j in w) for w in witnesses]


def _disjoint_instance(rng):
    """Pairwise disjoint columns, column j of length shift + (singleton witnesses on j)."""
    shift = rng.randint(1, 3)
    ncols = rng.randint(0, 5)
    witnesses = [[rng.randrange(ncols)] for _ in range(rng.randint(0, 4))] if ncols else []
    cols, nrows = [], 0
    for j in range(ncols):
        size = shift + sum(w == [j] for w in witnesses)
        cols.append(tuple(range(nrows, nrows + size)))
        nrows += size
    return nrows, cols, shift, witnesses


def _random_instance(rng):
    nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
    cols = [tuple(r for r in range(nrows) if rng.random() < 0.5) for _ in range(ncols)]
    witnesses = [sorted(rng.sample(range(ncols), rng.randint(0, ncols))) for _ in range(rng.randint(0, 3))]
    return nrows, cols, rng.randint(-1, 3), witnesses


def _perturbed(rng, nrows, cols, shift, witnesses):
    """One change: an entry toggled, the shift moved by one, or a witness dropped or added."""
    cols, witnesses = list(cols), [list(w) for w in witnesses]
    kind = rng.randrange(4)
    if kind == 0 and cols and nrows:
        j, r = rng.randrange(len(cols)), rng.randrange(nrows)
        cols[j] = tuple(sorted(set(cols[j]) ^ {r}))
    elif kind == 1:
        shift += rng.choice((-1, 1))
    elif kind == 2 and witnesses:
        witnesses.pop(rng.randrange(len(witnesses)))
    elif cols:
        witnesses.append(sorted(rng.sample(range(len(cols)), rng.randint(1, len(cols)))))
    return nrows, cols, shift, witnesses


def _instance(seed: int, kind: str):
    rng = random.Random(seed)
    if kind == "boolean":
        return rng, _boolean_instance(rng, rng.randint(1, 6))
    if kind == "disjoint":
        return rng, _disjoint_instance(rng)
    return rng, _random_instance(rng)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["boolean", "disjoint", "random"]), st.booleans())
def test_gram_identity_agrees_with_the_dense_products(seed, kind, perturb):
    rng, (nrows, cols, shift, witnesses) = _instance(seed, kind)
    if perturb:
        nrows, cols, shift, witnesses = _perturbed(rng, nrows, cols, shift, witnesses)
    assert gram_identity_holds(cols, shift, witnesses) == _dense_identity_holds(nrows, cols, shift, witnesses)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["boolean", "disjoint"]))
def test_gram_identity_holds_on_the_unperturbed_families(seed, kind):
    # the agreement test above sees holding instances, not only failing ones
    _, (nrows, cols, shift, witnesses) = _instance(seed, kind)
    assert _dense_identity_holds(nrows, cols, shift, witnesses)
    assert gram_identity_holds(cols, shift, witnesses)


def test_gram_identity_rejects_an_unnamed_column_that_shares_a_row():
    # columns 0 and 1 are named and share row 0 as their witness says;
    # column 2, named by none, shares row 1 with column 0
    cols = ((0, 1), (0, 2), (1,))
    assert not gram_identity_holds(cols, 1, [[0, 1]])
    assert gram_identity_holds(((0, 1), (0, 2), (3,)), 1, [[0, 1]])
    assert not gram_identity_holds(((0,), (0,)), 1, [])


def test_gram_identity_rejects_a_nonpositive_shift():
    # both identities hold, yet neither matrix has full column rank
    assert not gram_identity_holds(((0,), (0,)), 0, [[0, 1]])  # 1 x 2, rank 1
    assert not gram_identity_holds(((),), -1, [[0]])  # 0 = -1 + 1·1


def test_gram_identity_rejects_a_witness_out_of_range():
    assert gram_identity_holds(((0,),), 1, [])
    assert not gram_identity_holds(((0,),), 1, [[0, 1]])
    assert not gram_identity_holds(((0,),), 1, [[-1]])
    # with three columns the pair code of (0, 5) is that of (1, 2)
    assert not gram_identity_holds(((0, 1), (2, 3), (2, 4)), 1, [[0, 5]])


def test_gram_identity_rejects_a_witness_with_a_wrong_pair():
    cols = ((0, 2), (0, 3), (1, 4), (1, 5))
    assert gram_identity_holds(cols, 1, [[0, 1], [2, 3]])
    # every column still named once, so only the off-diagonal differs
    assert not gram_identity_holds(cols, 1, [[0, 3], [1, 2]])


def test_gram_identity_counts_multiplicity():
    # columns 0 and 1 share two rows: two witnesses naming both, not one;
    # the diagonal (3 = 1 + 2) holds for both witness lists
    cols = ((0, 1, 2), (0, 1, 3))
    for witnesses, holds in (([[0, 1], [0, 1]], True), ([[0, 1], [0], [1]], False)):
        assert _dense_identity_holds(4, cols, 1, witnesses) == holds
        assert gram_identity_holds(cols, 1, witnesses) == holds
