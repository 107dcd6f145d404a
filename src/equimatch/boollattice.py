"""Boolean-lattice level maps and symmetric chain families, and the `boolean` command.

Subsets of [n] use positions 1..n; as bitsets (bit i-1 for element i) the
numeric order of same-size subsets coincides with colex order, which is the
basis ordering for the level matrices, and is the order in which
`level_subsets` steps from one subset to the next.  Each level's rank is
certified by the sl₂ commutation identity DU − UD = (n − 2i)·I (Proctor
1982), checked in exact integers by `gram.gram_identity_holds` on the up
maps' columns (at the middle level, their row lists); exact elimination
runs only where the identity fails, so the lemma never loads numpy.  Every
chain comes from one bracket scan of its start (`brackets.unmatched_openers`):
it adds the start's unmatched openers from left to right, which is the walk
of the bracket-matching successor `brackets.bracket_successor` (the f scan's
subset injection), truncating the full symmetric chain decomposition to
levels [i, n-i].  Of the package it reads the init, `brackets` and `gram`
(the 0/1 pattern and the identity), and `exactalg` only for a level whose
identity fails.  Only the `boolean` command compiles this module: the f
scan imports `brackets` alone.  The command hands its records to
`cli.make_report`, which builds every report.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from math import comb

from . import InternalError
from .brackets import unmatched_openers
from .gram import Pattern, gram_identity_holds

SIZE_LIMIT = 14  # the largest n whose lemma `verify_lemma` runs


def level_subsets(n: int, i: int) -> list[int]:
    """All i-subsets of [n] as bitsets, in colex (= numeric) order.

    Each subset is the next larger number with i bits set (Gosper's step).
    """
    if i == 0:
        return [0]
    out = []
    s = (1 << i) - 1
    end = 1 << n
    while s < end:
        out.append(s)
        low = s & -s
        ripple = s + low
        s = ripple | ((s ^ ripple) >> 2) // low
    return out


def up_map(n: int, i: int) -> Pattern:
    """Level-raising map as a 0/1 pattern: column s has a 1 at each cover of s.

    The averaging map gives each cover weight 1/(n-i); scaling a column
    changes no rank, so the pattern stands for it.  Adding a higher free
    element gives a larger cover, so walking the free elements from low to
    high lists each column's rows in order.
    """
    if not (0 <= i < n):
        raise ValueError("need 0 <= i < n")
    full = (1 << n) - 1
    dst_index = {s: j for j, s in enumerate(level_subsets(n, i + 1))}
    columns = []
    for s in level_subsets(n, i):
        rows = []
        free = full ^ s
        while free:
            low = free & -free
            rows.append(dst_index[s | low])
            free ^= low
        columns.append(tuple(rows))
    return Pattern(len(dst_index), tuple(columns))


class LevelRank(namedtuple("LevelRank", "i dim_src dim_dst rank path")):
    """The rank of the up map from level i; `path` names what certified it:
    "identity", "mod-p" or "bareiss"."""

    __slots__ = ()

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
        """Full rank, which makes the map injective exactly where the dimensions allow it."""
        return self.rank == min(self.dim_src, self.dim_dst)


class LemmaReport(namedtuple("LemmaReport", "n levels")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)


def _row_lists(m: Pattern) -> list[list[int]]:
    """The rows of m, each as the sorted list of its columns: the columns of mᵀ."""
    rows: list[list[int]] = [[] for _ in range(m.nrows)]
    for j, col in enumerate(m.cols):
        for r in col:
            rows[r].append(j)
    return rows


def _level_rank(n: int, i: int, ups: list[Pattern]) -> LevelRank:
    """Rank of ups[i], certified by the commutation identity or else ranked exactly.

    On level i, U_iᵀU_i = (n − 2i)·I + U_{i−1}U_{i−1}ᵀ (common covers minus
    common subsets), so for 2i < n U_i has full column rank; the witnesses
    are the columns of U_{i−1}.  At i = n/2 the same identity one level up,
    U_iU_iᵀ = 2·I + U_{i+1}ᵀU_{i+1}, gives U_iᵀ full column rank, read from
    the row lists of U_i and U_{i+1}.  An identity that fails, as it would
    for a wrong up map, leaves the rank to the exact elimination.
    """
    up = ups[i]
    if 2 * i < n:
        cols, shift = up.cols, n - 2 * i
        witnesses = ups[i - 1].cols if i else ()
    else:
        cols, shift = _row_lists(up), 2
        witnesses = _row_lists(ups[i + 1]) if i + 1 < n else ()
    if gram_identity_holds(cols, shift, witnesses):
        rk, path = len(cols), "identity"
    else:
        from . import exactalg

        rk, path = exactalg.rank_certified_path(up)
    return LevelRank(i, comb(n, i), comb(n, i + 1), rk, path)


def verify_lemma(n: int) -> LemmaReport:
    """Ranks of the up maps for all levels i <= floor(n/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > SIZE_LIMIT:
        raise ValueError(f"n={n} exceeds the size budget {SIZE_LIMIT}")
    top = n // 2
    # only level n/2 (n even) reads the up map one level above it, as its witness
    built = top + 2 if 2 * top == n else top + 1
    ups = [up_map(n, i) for i in range(min(built, n))]
    return LemmaReport(n, tuple(_level_rank(n, i, ups) for i in range(top + 1)))


class ChainFamily(namedtuple("ChainFamily", "n i chains")):
    """Symmetric chains of the Boolean lattice of [n]; each chain lists bitsets from level i to n-i."""

    __slots__ = ()


def symmetric_chains(n: int, i: int) -> ChainFamily:
    """C(n, i) pairwise disjoint saturated chains from level i to level n-i.

    Each chain starts at an i-subset and adds its unmatched openers from
    left to right, one scan per start.  That is the walk of
    `brackets.bracket_successor`: the leftmost unmatched opener, once a
    closer, has no unmatched opener to its left and stays unmatched, and
    every other match is unchanged.  Injectivity of that successor on every level makes
    the chains disjoint.  An i-subset has at least n - 2i unmatched
    openers, so a start with fewer is an internal error.
    """
    if not (0 <= i <= n // 2):
        raise ValueError("need 0 <= i <= n/2")
    steps = n - 2 * i
    chains = []
    for start in level_subsets(n, i):
        openers = unmatched_openers(n, start)
        if openers.bit_count() < steps:
            raise InternalError("fewer than n - 2i unmatched openers")
        members = start
        chain = [start]
        for _ in range(steps):
            low = openers & -openers
            openers ^= low
            members |= low
            chain.append(members)
        chains.append(tuple(chain))
    return ChainFamily(n, i, tuple(chains))


def chains_are_valid(fam: ChainFamily) -> bool:
    """Members inside [n], saturation, level bounds, and pairwise disjointness.

    Every chain has one member per level, so the members are pairwise
    distinct iff their set has that many.
    """
    levels = list(range(fam.i, fam.n - fam.i + 1))
    for chain in fam.chains:
        if list(map(int.bit_count, chain)) != levels:
            return False
        for a, b in zip(chain, chain[1:]):
            if a & ~b:
                return False
    members = set().union(*fam.chains)
    return (
        len(fam.chains) == comb(fam.n, fam.i)
        and len(members) == len(fam.chains) * len(levels)
        and 0 <= min(members, default=0)
        and max(members, default=0) < 1 << fam.n
    )


def cmd_boolean(args) -> int:
    """The `boolean` command: the lemma's level ranks and the chain families, as one report."""
    from .cli import emit, make_report, report_exit  # here, so the library never loads the front end

    n = args.n
    started = time.monotonic()
    rep = verify_lemma(n)
    records = []
    for lv in rep.levels:
        details = {
            "dim_src": lv.dim_src,
            "dim_dst": lv.dim_dst,
            "rank": lv.rank,
            "injective": lv.injective,
            "injectivity_expected": lv.injectivity_expected,
        }
        records.append(("lemma-rank", lv.i, lv.i + 1, "pass" if lv.passed else "fail", details))
    for i in range(n // 2 + 1):
        fam = symmetric_chains(n, i)
        ok = chains_are_valid(fam)
        records.append(("chains", i, n - i, "pass" if ok else "fail", {"count": len(fam.chains)}))
    status = emit(make_report({"boolean_lattice": {"n": n}}, records), args.json)
    paths = [lv.path for lv in rep.levels]
    counts = " / ".join(f"{p} {paths.count(p)}" for p in ("identity", "mod-p", "bareiss"))
    print(
        f"boolean n={n}: {len(paths)} levels, {counts}, {time.monotonic() - started:.2f}s",
        file=sys.stderr,
    )
    return report_exit(status)
