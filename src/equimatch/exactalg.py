"""Exact sparse linear algebra over the integers.

Matrices are stored column-major as sorted (row, int) coordinate lists.  The
library's maps average over 0/1 patterns (a column of Φ or of a Boolean up
map has weight 1/len on each entry), and scaling a column never changes
rank, so callers pass the 0/1 pattern itself.  Rank is computed by
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

`gram_certifies` certifies full column rank with no elimination: given a
witness w and a shift > 0, it checks mᵀm = shift·I + w·wᵀ entry by entry in
exact integers, which forces |mx|² > 0 for every x ≠ 0.  The Boolean up maps
satisfy such an identity (the sl₂ commutation relation DU − UD = (n − 2i)·I),
so their ranks are certified without numpy.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

_CERT_PRIME = 2_147_483_647  # fits in int64 with safe products

Column = tuple[tuple[int, int], ...]


class IntMatrix:
    """An nrows × ncols integer matrix; `cols[j]` lists column j's (row, value), sorted by row, no zeros."""

    def __init__(self, nrows: int, ncols: int, cols: tuple[Column, ...]):
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        for col in cols:
            prev = -1
            for (r, v) in col:
                if not (0 <= r < nrows):
                    raise ValueError("row index out of range")
                if r <= prev:
                    raise ValueError("column entries not strictly sorted by row")
                if v == 0:
                    raise ValueError("stored zero entry")
                prev = r
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return (self.nrows, self.ncols, self.cols) == (other.nrows, other.ncols, other.cols)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix(nrows={self.nrows!r}, ncols={self.ncols!r}, cols={self.cols!r})"


def pattern_matrix(nrows: int, patterns) -> IntMatrix:
    """The 0/1 matrix whose column j has a 1 in each row of `patterns[j]` (sorted)."""
    cols = tuple(tuple((r, 1) for r in rows) for rows in patterns)
    return IntMatrix(nrows, len(cols), cols)


def _rows(m: IntMatrix) -> list[list[tuple[int, int]]]:
    """The rows of m as sparse (column, value) lists, each sorted by column."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for (r, v) in col:
            rows[r].append((c, v))
    return rows


def transpose(m: IntMatrix) -> IntMatrix:
    """mᵀ; its columns are the rows of m, each sorted by column index."""
    return IntMatrix(m.ncols, m.nrows, tuple(map(tuple, _rows(m))))


def rank(m: IntMatrix) -> int:
    """Exact rank via integer fraction-free Bareiss elimination."""
    # eliminate over the smaller dimension for speed; rank is transpose-invariant
    if m.nrows < m.ncols:
        rows: list[list[int]] = [[0] * m.nrows for _ in range(m.ncols)]
        for c, col in enumerate(m.cols):
            for (r, v) in col:
                rows[c][r] = v
        nr, nc = m.ncols, m.nrows
    else:
        rows = [[0] * m.ncols for _ in range(m.nrows)]
        for c, col in enumerate(m.cols):
            for (r, v) in col:
                rows[r][c] = v
        nr, nc = m.nrows, m.ncols
    return _bareiss_rank(rows, nr, nc)


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


def _residues(m: IntMatrix, prime: int):
    """Dense int64 residues of the matrix mod prime.

    The shorter side becomes the rows (the columns of m on a tie): the
    elimination then stops after at most that many pivots.
    """
    import numpy as np

    a = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    rows = [r for col in m.cols for (r, _) in col]
    cols = [c for c, col in enumerate(m.cols) for _ in col]
    a[rows, cols] = [v % prime for col in m.cols for (_, v) in col]
    return np.ascontiguousarray(a.T) if m.ncols >= m.nrows else a


def rank_mod(m: IntMatrix, prime: int = _CERT_PRIME) -> int:
    """Rank of the matrix over F_prime (vectorized).

    Residues are below prime < 2**31, so every product fits in int64.  Rows
    with a zero in the pivot column would be updated by a zero multiple of
    the pivot row, so only the nonzero ones are touched.
    """
    if m.nrows == 0 or m.ncols == 0:
        return 0
    import numpy as np

    a = _residues(m, prime)
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


def rank_certified_path(m: IntMatrix) -> tuple[int, str]:
    """Exact rank, and the path that gave it: "mod-p" or "bareiss".

    rank over F_p never exceeds the rational rank, so hitting the trivial
    upper bound min(rows, cols) certifies the exact value.
    """
    ub = min(m.nrows, m.ncols)
    if rank_mod(m) == ub:
        return ub, "mod-p"
    return rank(m), "bareiss"


def rank_certified(m: IntMatrix) -> int:
    """Exact rank; modular certificate when full, Bareiss otherwise."""
    return rank_certified_path(m)[0]


def _gram(vectors, n: int) -> dict[int, int]:
    """Upper triangle of Σ v·vᵀ over sparse vectors sorted by index, keyed a·n + b (a <= b)."""
    g: dict[int, int] = {}
    get = g.get
    for vec in vectors:
        for (a, va), (b, vb) in combinations_with_replacement(vec, 2):
            key = a * n + b
            g[key] = get(key, 0) + va * vb
    return g


def gram_certifies(m: IntMatrix, shift: int, w: IntMatrix) -> bool:
    """True iff shift > 0, w.nrows == m.ncols and mᵀm = shift·I + w·wᵀ exactly.

    Then m has full column rank: for x ≠ 0,
    |mx|² = xᵀmᵀmx = shift·|x|² + |wᵀx|² > 0, so mx ≠ 0.  mᵀm is summed over
    the rows of m, collected from its columns, and w·wᵀ over the columns of
    w, both as sparse integer counters.  False means only "not certified",
    never "rank deficient".
    """
    if shift <= 0 or w.nrows != m.ncols:
        return False
    n = m.ncols
    lhs = _gram(_rows(m), n)
    rhs = _gram(w.cols, n)
    for s in range(n):
        key = s * n + s
        rhs[key] = rhs.get(key, 0) + shift
    return {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
