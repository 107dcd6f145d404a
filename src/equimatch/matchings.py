"""Enumeration of k-matchings, the matching-number sequence and the group's action on them.

Matchings are edge bitsets (ints) over the host graph's canonical edge
indexing.  Enumeration backtracks over edge indices in increasing order with
a used-vertex bitmask; results are sorted by bitset value, which is the basis
ordering contract shared with the matrix modules.
The table owns the walk order: `slots` lists every (l, k) slot and
`pairs` the pairs of two levels in index order, and the index decodes
(`noncommuting_column`, the f scan, `exactalg.pattern_commutes`) follow it.
It memoises each automorphism's edge permutation and its moves on each
level, and holds the one scan that tests a slot map (Φ or the
single-output map) against it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .autgroup import Permutation, apply_edge_perm, edge_action
from .graph import Graph


def is_matching(g: Graph, bits: int) -> bool:
    used = 0
    e = bits
    while e:
        i = (e & -e).bit_length() - 1
        e &= e - 1
        u, v = g.edges[i]
        mask = (1 << u) | (1 << v)
        if used & mask:
            return False
        used |= mask
    return True


class MatchingTable:
    """Every matching of a graph; `by_size[k]` holds the sorted k-matching bitsets."""

    def __init__(self, graph: Graph, by_size: tuple[tuple[int, ...], ...]):
        self.graph = graph
        self.by_size = by_size
        self._moves: dict[tuple[Permutation, int], tuple[int, ...]] = {}
        self._edge_perms: dict[Permutation, tuple[int, ...]] = {}

    @property
    def r(self) -> int:
        return len(self.by_size) - 1

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_size)

    def m(self, k: int) -> int:
        """m_k, zero beyond the maximum matching size."""
        return len(self.by_size[k]) if 0 <= k <= self.r else 0

    def level(self, k: int) -> tuple[int, ...]:
        return self.by_size[k] if 0 <= k <= self.r else ()

    @property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """Every (l, k) slot, 1 <= l <= k <= r, by k and then by l: the order every caller walks."""
        return tuple((ell, k) for k in range(1, self.r + 1) for ell in range(1, k + 1))

    def pairs(self, a: int, b: int):
        """The (a, b) pairs of matchings in index order, pair i * m_b + j being
        (level(a)[i], level(b)[j]): both levels sorted, so by (blue, pink)."""
        return product(self.level(a), self.level(b))

    def check_slot(self, ell: int, k: int) -> None:
        """Raise ValueError unless 1 <= ell <= k <= r; k = r is a valid slot with no columns."""
        if not (1 <= ell <= k <= self.r):
            raise ValueError(f"(ell, k) = ({ell}, {k}) out of range for r = {self.r}")

    @cached_property
    def positions(self) -> tuple[dict[int, int], ...]:
        """Per size s, the position of each s-matching in its level."""
        return tuple({bits: i for i, bits in enumerate(level)} for level in self.by_size)

    def moves(self, sigma: Permutation, s: int) -> tuple[int, ...]:
        """The position in level s of sigma's image of each s-matching, computed once per table.

        sigma's edge permutation is computed once too, for all of its levels.
        """
        hit = self._moves.get((sigma, s))
        if hit is None:
            eperm = self._edge_perms.get(sigma)
            if eperm is None:
                eperm = self._edge_perms[sigma] = edge_action(sigma, self.graph)
            position = self.positions[s]
            hit = self._moves[(sigma, s)] = tuple(
                position[apply_edge_perm(eperm, bits)] for bits in self.by_size[s]
            )
        return hit

    def noncommuting_column(self, ell: int, k: int, sigma: Permutation, column):
        """The first (blue, pink) column pair whose moved rows are not its moved column's rows, or None.

        The slot map sends (l - 1, k + 1) pairs to (l, k) pairs, both in
        sorted (blue, pink) index order; `column(j)` is the sorted tuple of
        column j's rows, each weighing 1/len, so equal row sets are equal
        columns.  sigma moves both index pairs by `moves`, a bijection on
        columns, so None means the map commutes with sigma.  Scanned over
        the sorted generators, the first failure is the first failing
        element of the whole group (the argument is in `autgroup.automorphisms`);
        an empty column level (k = r) gives None before any level is moved.
        """
        blues, pinks = self.level(ell - 1), self.level(k + 1)
        if not pinks:
            return None
        m_k, m_k1 = self.m(k), len(pinks)
        col_a, col_b = self.moves(sigma, ell - 1), self.moves(sigma, k + 1)
        row_a, row_b = self.moves(sigma, ell), self.moves(sigma, k)
        for j in range(len(blues) * m_k1):
            i1, i2 = divmod(j, m_k1)
            moved = sorted(row_a[r // m_k] * m_k + row_b[r % m_k] for r in column(j))
            if tuple(moved) != column(col_a[i1] * m_k1 + col_b[i2]):
                return blues[i1], pinks[i2]
        return None


def matching_table(g: Graph) -> MatchingTable:
    """Every matching of g, by size, from one backtracking pass.

    Each matching is a node of the search tree, so the pass visits it once
    rather than once per larger size enumerated.  The tree is walked from
    an explicit stack (every level is sorted afterwards, so the visiting
    order is free), which leaves no reference cycle for the collector.
    """
    levels: list[list[int]] = [[0]]
    ends = g.ends
    m = len(ends)
    # each entry: first edge to try, used vertices, the matching, the size of its extensions
    todo = [(0, 0, 0, 1)]
    while todo:
        start, used, bits, size = todo.pop()
        if size == len(levels):
            levels.append([])
        level = levels[size]
        for e in range(start, m):
            vm = ends[e]
            if not used & vm:
                grown = bits | (1 << e)
                level.append(grown)
                todo.append((e + 1, used | vm, grown, size + 1))
    if not levels[-1]:
        levels.pop()
    return MatchingTable(g, tuple(tuple(sorted(level)) for level in levels))
