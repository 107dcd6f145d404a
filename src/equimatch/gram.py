"""0/1 patterns, and one integer Gram identity: the full-column-rank certificate of Φ and of the Boolean up maps.

If PᵀP = shift·I + Σ w·wᵀ with shift > 0, then |Px|² > 0 for every x ≠ 0.
Both are Proctor's sl₂ relation DU − UD = (n − 2i)·I (1982): Φ's blocks are
Boolean up maps.  Importing nothing of the package keeps `exactalg` uncompiled
wherever every identity holds.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, compress, repeat
from operator import lt


class Pattern:
    """An nrows × len(cols) 0/1 matrix; `cols[j]` is the tuple of column j's rows, strictly increasing."""

    def __init__(self, nrows: int, cols: tuple[tuple[int, ...], ...]):
        for col in cols:
            if col and not (0 <= col[0] and col[-1] < nrows):
                raise ValueError("row index out of range")
            if not all(map(lt, col, col[1:])):
                raise ValueError("column rows not strictly increasing")
        self.nrows = nrows
        self.ncols = len(cols)
        self.cols = cols

    def __eq__(self, other):
        if other.__class__ is not Pattern:
            return NotImplemented
        return (self.nrows, self.cols) == (other.nrows, other.cols)

    def __hash__(self) -> int:
        return hash((self.nrows, self.cols))

    def __repr__(self) -> str:
        return f"Pattern(nrows={self.nrows!r}, cols={self.cols!r})"


def _pairs(index_lists) -> Counter:
    """The multiset of (j, j') over each two positions j before j' of each list."""
    return Counter(chain.from_iterable(map(combinations, index_lists, repeat(2))))


def gram_identity_holds(cols, shift: int, witnesses) -> bool:
    """True iff shift > 0 and PᵀP = shift·I + Σ w·wᵀ in integers; False means only "not certified".

    `cols` are P's 0/1 columns, each a tuple of strictly increasing rows;
    each witness is a sorted list of column indices, and all are read twice.
    The diagonal is each column's length.  Off it, the (j, j') pairs of row
    sharing among named columns and those of the witnesses are compared as
    multisets (two Counters hold no zero counts, so dict equality is
    multiset equality).  Once the diagonal holds, the unnamed columns are
    exactly those of length shift, and they must share no row with any
    column.  A column index out of range gives False.
    """
    if shift <= 0:
        return False
    ncols = len(cols)
    named = Counter(chain.from_iterable(witnesses))
    if named and not (0 <= min(named) and max(named) < ncols):
        return False
    diagonal = [shift] * ncols
    for j, t in named.items():
        diagonal[j] += t
    if list(map(len, cols)) != diagonal:
        return False
    reach: dict[int, list[int]] = {}
    for j in sorted(named):
        for r in cols[j]:
            reach.setdefault(r, []).append(j)
    free = list(chain.from_iterable(compress(cols, map(shift.__eq__, diagonal))))
    rows = set(free)
    if len(rows) != len(free) or not rows.isdisjoint(reach):
        return False
    return dict.__eq__(_pairs(reach.values()), _pairs(witnesses))
