"""Exact rank of 0/1 patterns over the integers.

A `Pattern` (defined in `gram`, re-exported here as the same class) is a
0/1 matrix stored column-major, each column the tuple of its rows.  The
library's maps average over 0/1 patterns (a column of Φ or of a Boolean up
map has weight 1/len on each entry), and scaling a column never changes
rank, so callers pass the pattern itself.  Rank is computed by
fraction-free Bareiss elimination over arbitrary-precision integers, with
pivoting by minimal absolute value.

`rank_certified` adds a fast path: a single modular elimination over a large
prime field lower-bounds the rational rank, so whenever it reaches
min(rows, cols) the exact rank is certified without big-integer work; any
shortfall falls back to Bareiss.  The modular elimination runs in numpy on a
dense int64 array with the shorter side as rows, and each pivot step updates
only the rows that are nonzero in the pivot column.  numpy is imported there,
not at module load, so callers that never certify a rank never load it.
`rank_certified_path` also says which of the two paths gave the rank.

Full column rank with no elimination at all is the Gram identity of
`gram`, which does not import this module, so a caller whose identities
all hold never compiles it.  The same holds for Φ: `rank_by_groups` ranks
the blocks (`phimap.block_partition`) of a Φ that fails its slot identity,
and `pattern_commutes` is the numpy pre-filter of Φ's equivariance on a
large slot, so `phimap` compiles no numpy code and imports this module only
for those two.
"""

from __future__ import annotations

from . import InternalError
from .gram import Pattern

_CERT_PRIME = 2_147_483_647  # fits in int64 with safe products


def rank(m: Pattern) -> int:
    """Exact rank via integer fraction-free Bareiss elimination."""
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for r in col:
            rows[r][c] = 1
    if m.nrows < m.ncols:
        # eliminate over the smaller dimension for speed; rank is transpose-invariant
        rows = [list(col) for col in zip(*rows)]
    return _bareiss_rank(rows, len(rows), min(m.nrows, m.ncols))


def _bareiss_rank(rows: list[list[int]], nr: int, nc: int) -> int:
    prev = 1
    rk = 0
    for c in range(nc):
        # pivot: minimal absolute value, then lowest row index
        piv_i = -1
        piv_abs = 0
        for i in range(rk, nr):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if piv_i < 0 or a < piv_abs:
                    piv_i, piv_abs = i, a
        if piv_i < 0:
            continue
        if piv_i != rk:
            rows[rk], rows[piv_i] = rows[piv_i], rows[rk]
        rp = rows[rk]
        piv = rp[c]
        for i in range(rk + 1, nr):
            ri = rows[i]
            vi = ri[c]
            if vi:
                for j in range(c + 1, nc):
                    ri[j] = (ri[j] * piv - rp[j] * vi) // prev
                ri[c] = 0
            elif prev != piv:
                for j in range(c + 1, nc):
                    ri[j] = ri[j] * piv // prev
        prev = piv
        rk += 1
        if rk == nr:
            break
    return rk


def rank_mod(m: Pattern, prime: int = _CERT_PRIME) -> int:
    """Rank of the pattern over F_prime (vectorized).

    The shorter side becomes the rows (the columns of m on a tie), so the
    elimination stops after at most that many pivots.  Residues are below
    prime < 2**31, so every product fits in int64.  Rows with a zero in the
    pivot column would be updated by a zero multiple of the pivot row, so
    only the nonzero ones are touched.
    """
    if m.nrows == 0 or m.ncols == 0:
        return 0
    import numpy as np

    rows = [r for col in m.cols for r in col]
    cols = [c for c, col in enumerate(m.cols) for _ in col]
    a = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    a[rows, cols] = 1
    if m.ncols >= m.nrows:
        a = np.ascontiguousarray(a.T)
    nr, nc = a.shape
    rk = 0
    for c in range(nc):
        nz = np.flatnonzero(a[rk:, c])
        if nz.size == 0:
            continue
        nz += rk
        i = int(nz[0])
        if i != rk:
            # row rk is zero in column c, so the rows to update stay nz[1:]
            a[[rk, i]] = a[[i, rk]]
        inv = pow(int(a[rk, c]), prime - 2, prime)
        a[rk, c:] = (a[rk, c:] * inv) % prime
        below = nz[1:]
        if below.size:
            a[below, c:] = (
                a[below, c:] - np.outer(a[below, c], a[rk, c:])
            ) % prime
        rk += 1
        if rk == nr:
            break
    return rk


def rank_certified_path(m: Pattern) -> tuple[int, str]:
    """Exact rank, and the path that gave it: "mod-p" or "bareiss".

    rank over F_p never exceeds the rational rank, so hitting the trivial
    upper bound min(rows, cols) certifies the exact value.
    """
    ub = min(m.nrows, m.ncols)
    if rank_mod(m) == ub:
        return ub, "mod-p"
    return rank(m), "bareiss"


def rank_certified(m: Pattern) -> int:
    """Exact rank; modular certificate when full, Bareiss otherwise."""
    return rank_certified_path(m)[0]


def rank_by_groups(columns, groups) -> int:
    """Exact rank of `columns` as the sum of the ranks of its `groups` of column indices.

    Two groups that share a row are a fault of the build: `InternalError`.
    """
    owner: dict[int, int] = {}
    total = 0
    for g_index, cols in enumerate(groups):
        rows = sorted({r for j in cols for r in columns[j]})
        if any(owner.setdefault(r, g_index) != g_index for r in rows):
            raise InternalError("nonzero entry escapes its block")
        row_map = {r: i for i, r in enumerate(rows)}
        total += rank(Pattern(
            len(rows), tuple(tuple(row_map[r] for r in columns[j]) for j in cols)
        ))
    return total


def pattern_commutes(t, ell: int, k: int, columns):
    """`commutes(sigma)`: whether sigma maps the (l, k) slot map with these columns to itself.

    `t` is the slot's `MatchingTable` and `columns[j]` the sorted rows of
    column j.  The pattern becomes sorted column-major (col, row) codes
    once; each automorphism moves them by the table's memoised moves, and
    uniform 1/len weights make pattern equality equivalent to matrix
    equality.  A False only says that some column fails:
    `MatchingTable.noncommuting_column` names it.
    """
    import numpy as np

    ncols = len(columns)
    len_k1, len_k = t.m(k + 1), t.m(k)
    nrows = t.m(ell) * len_k
    col_of_nz = np.repeat(
        np.arange(ncols, dtype=np.int64),
        np.fromiter((len(c) for c in columns), dtype=np.int64, count=ncols),
    )
    row_of_nz = np.fromiter(
        (r for col in columns for r in col),
        dtype=np.int64,
        count=len(col_of_nz),
    )
    base_codes = np.sort(col_of_nz * nrows + row_of_nz)
    i1, i2 = np.divmod(np.arange(ncols, dtype=np.int64), len_k1)
    r1, r2 = np.divmod(row_of_nz, len_k)

    def commutes(sigma) -> bool:
        col_a, col_b, row_a, row_b = (
            np.asarray(t.moves(sigma, s), dtype=np.int64) for s in (ell - 1, k + 1, ell, k)
        )
        cimg = col_a[i1] * len_k1 + col_b[i2]
        moved = np.sort(cimg[col_of_nz] * nrows + row_a[r1] * len_k + row_b[r2])
        return np.array_equal(moved, base_codes)

    return commutes
