"""Boolean-lattice level maps and symmetric chain families.

Subsets of [n] use positions 1..n; as bitsets (bit i-1 for element i) the
numeric order of same-size subsets coincides with colex order, which is the
basis ordering for the level matrices.  Each level's rank is certified by
the sl₂ commutation identity DU − UD = (n − 2i)·I, checked in exact integers
(Proctor 1982); exact elimination runs only where the identity fails, so the
lemma never loads numpy.  Chains are produced by iterating the
bracket-matching successor `bracket_successor` on bitsets (which `transfer`
reads for the single-output map), truncating the full symmetric chain
decomposition to levels [i, n-i].  Of the package it reads only `exactalg`
and the init, so the `boolean` command compiles nothing of the graph side.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from . import InternalError, exactalg
from .exactalg import IntMatrix, pattern_matrix


def level_subsets(n: int, i: int) -> list[int]:
    """All i-subsets of [n] as bitsets, in colex (= numeric) order."""
    return sorted(
        sum(1 << (x - 1) for x in combo)
        for combo in combinations(range(1, n + 1), i)
    )


def up_map(n: int, i: int) -> IntMatrix:
    """Level-raising map as a 0/1 pattern: column s has a 1 at each cover of s.

    The averaging map gives each cover weight 1/(n-i); scaling a column
    changes no rank, so the pattern stands for it.
    """
    if not (0 <= i < n):
        raise ValueError("need 0 <= i < n")
    src = level_subsets(n, i)
    dst = level_subsets(n, i + 1)
    dst_index = {s: j for j, s in enumerate(dst)}
    return pattern_matrix(len(dst), [
        sorted(dst_index[s | (1 << (x - 1))] for x in range(1, n + 1) if not s >> (x - 1) & 1)
        for s in src
    ])


class LevelRank(NamedTuple):
    i: int
    dim_src: int
    dim_dst: int
    rank: int
    path: str  # what certified the rank: "identity", "mod-p" or "bareiss"

    @property
    def injective(self) -> bool:
        return self.rank == self.dim_src

    @property
    def injectivity_expected(self) -> bool:
        # at i = n/2 exactly (n even) the target is strictly smaller, so
        # injectivity is impossible by dimension count; flag, don't assert
        return self.dim_src <= self.dim_dst

    @property
    def passed(self) -> bool:
        """Full rank, and injective exactly where the dimensions allow it."""
        return (
            self.injective == self.injectivity_expected
            and self.rank == min(self.dim_src, self.dim_dst)
        )


class LemmaReport(NamedTuple):
    n: int
    levels: tuple[LevelRank, ...]

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)

    @property
    def flagged(self) -> tuple[LevelRank, ...]:
        return tuple(lv for lv in self.levels if not lv.injectivity_expected)


def _level_rank(n: int, i: int, ups: list[IntMatrix]) -> LevelRank:
    """Rank of ups[i], certified by the commutation identity or else ranked exactly.

    On level i, U_iᵀU_i = (n − 2i)·I + U_{i−1}U_{i−1}ᵀ (common covers minus
    common subsets), so for 2i < n U_i has full column rank.  At i = n/2
    the same identity one level up, U_iU_iᵀ = 2·I + U_{i+1}ᵀU_{i+1}, gives
    U_iᵀ full column rank.  An identity that fails, as it would for a wrong
    up map, leaves the rank to the exact elimination.
    """
    up = ups[i]
    if 2 * i < n:
        m, shift = up, n - 2 * i
        w = ups[i - 1] if i else IntMatrix(up.ncols, 0, ())
    else:
        m, shift = exactalg.transpose(up), 2
        w = exactalg.transpose(ups[i + 1]) if i + 1 < n else IntMatrix(up.nrows, 0, ())
    if exactalg.gram_certifies(m, shift, w):
        rk, path = m.ncols, "identity"
    else:
        rk, path = exactalg.rank_certified_path(up)
    return LevelRank(i, comb(n, i), comb(n, i + 1), rk, path)


def verify_lemma(n: int, limit: int = 14) -> LemmaReport:
    """Ranks of the up maps for all levels i <= floor(n/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > limit:
        raise ValueError(f"n={n} exceeds the size budget {limit}")
    top = min(n // 2, n - 1)
    # level n/2 (n even) reads the up map one level above it as its witness
    ups = [up_map(n, i) for i in range(min(top + 2, n))]
    return LemmaReport(n, tuple(_level_rank(n, i, ups) for i in range(top + 1)))


def bracket_successor(n: int, members: int) -> int | None:
    """Add the leftmost unmatched opener of the bracket word of the bitset `members`.

    Position i in 1..n (bit i-1) is a closer ")" iff i is a member, else an
    opener "(".  Closers match the nearest unmatched opener to their left,
    so the answer is the bottom of the opener stack; None if it is empty.
    """
    depth = 0
    bottom = 0
    for i in range(n):
        if members >> i & 1:
            if depth:
                depth -= 1
        else:
            if not depth:
                bottom = i
            depth += 1
    if not depth:
        return None
    return members | 1 << bottom


class ChainFamily(NamedTuple):
    n: int
    i: int
    chains: tuple[tuple[int, ...], ...]  # each chain: bitsets from level i to n-i


def symmetric_chains(n: int, i: int) -> ChainFamily:
    """C(n, i) pairwise disjoint saturated chains from level i to level n-i.

    Each chain starts at an i-subset and repeatedly adds the leftmost
    unmatched opener of its bracket word; injectivity of that successor on
    every level makes the chains disjoint.
    """
    if not (0 <= i <= n // 2):
        raise ValueError("need 0 <= i <= n/2")
    chains = []
    for start in level_subsets(n, i):
        members = start
        chain = [start]
        for _ in range(n - 2 * i):
            members = bracket_successor(n, members)
            if members is None:
                raise InternalError("bracket successor exhausted below level n-i")
            chain.append(members)
        chains.append(tuple(chain))
    return ChainFamily(n, i, tuple(chains))


def chains_are_valid(fam: ChainFamily) -> bool:
    """Saturation, level bounds, and pairwise disjointness."""
    seen: set[int] = set()
    for chain in fam.chains:
        sizes = [c.bit_count() for c in chain]
        if sizes != list(range(fam.i, fam.n - fam.i + 1)):
            return False
        for a, b in zip(chain, chain[1:]):
            if a & ~b:
                return False
        for c in chain:
            if c in seen:
                return False
            seen.add(c)
    return len(fam.chains) == comb(fam.n, fam.i)
