"""One integer Gram identity, the full-column-rank certificate of Φ and of the Boolean up maps.

If PᵀP = shift·I + Σ w·wᵀ with shift > 0, then |Px|² > 0 for every x ≠ 0.
Both are Proctor's sl₂ relation DU − UD = (n − 2i)·I (1982): Φ's blocks are
Boolean up maps.  Importing nothing of the package keeps `exactalg` uncompiled.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain


def _pair_codes(index_lists, ncols: int) -> Counter:
    """The multiset of j·ncols + j' over each two positions j before j' of each list."""
    return Counter(ja * ncols + jb for js in index_lists for a, ja in enumerate(js) for jb in js[a + 1:])


def gram_identity_holds(cols, shift: int, witnesses) -> bool:
    """True iff shift > 0 and PᵀP = shift·I + Σ w·wᵀ in integers; False means only "not certified".

    `cols` are P's 0/1 columns, each a tuple of strictly increasing rows;
    each witness is a sorted list of column indices, and all are read twice.
    The diagonal is each column's length.  Off it, (j, j') codes of row
    sharing and of witnesses are compared as multisets, with rows collected
    only for named columns: an unnamed one must share no row, so the total
    must be every row-sharing pair.  A column index out of range gives False.
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
    hits = Counter(Counter(chain.from_iterable(cols)).values())
    shared = sum(n * (n - 1) // 2 * rows for n, rows in hits.items())
    codes = _pair_codes(reach.values(), ncols)
    return codes.total() == shared and codes == _pair_codes(witnesses, ncols)
