"""The equivariant injection between tensor products of matching spaces.

The map sends the basis pair (M, M') of an (l-1)-matching and a
(k+1)-matching to the average of the pairs in its neighbor set.  A column is
stored as the sorted indices of those rows; each entry weighs 1/len, so the
weights of a column sum to 1 by construction.

Chain swaps keep a pair's union, its intersection and the blue part of the
even components of the union, so Φ is block diagonal under that block key.
All pairs of a block share one one-colored set and so one chain
decomposition; only the color of each odd chain differs between them.  The
build therefore decomposes each one-colored set once (`transfer.odd_chains`,
memoised on the graph), reads a chain c's color as `pink & ends & c` and
computes a swapped pair's row index arithmetically.  A column with p rows has
N = 2p − (k − l + 2) odd chains, and its block holds all C(N, p) colorings
of them with p pink, each a column of the slot, so the build counts the
blocks from the row counts alone.  Injectivity is certified on the whole
slot by one integer identity (`slot_identity_holds`, which builds the
down-pair witnesses for `gram.gram_identity_holds`); only a Φ that fails it
is grouped (`block_partition`) and ranked block by block
(`exactalg.rank_by_groups`), and only then is `exactalg` loaded.
Equivariance is the table's one group scan
(`MatchingTable.noncommuting_column`) over Φ's stored columns, after the
numpy pre-filter `exactalg.pattern_commutes` on a large slot; this module
compiles no numpy code.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from math import comb

from . import InternalError
from .autgroup import AutomorphismGroup, automorphisms
from .graph import Graph
from .gram import gram_identity_holds
from .matchings import MatchingTable, matching_table
from .transfer import odd_chains

# nonzeros x generators from which numpy's equivariance test repays its import
EQUIVARIANCE_SCAN_LIMIT = 1 << 16

BlockKey = tuple[int, int, int]  # (union, intersection, even-part blue edges)

PairBits = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """Matrix would exceed the nonzero budget; report as skipped."""


class Block(namedtuple("Block", "key col_indices")):
    __slots__ = ()


class PhiMatrix:
    """Φ on one (l, k) slot of a matching table.

    Column j is the pair `col_pairs[j]` and row i the pair `row_pairs[i]`,
    both in sorted (blue, pink) order, built only when read.  `columns[j]`
    lists the sorted row indices of column j's neighbor set.  `blocks`
    counts the blocks: n_p columns with p rows fill n_p / C(2p − k + l − 2, p)
    of them (`block_partition` groups them).
    """

    def __init__(
        self,
        table: MatchingTable,
        ell: int,
        k: int,
        columns: tuple[tuple[int, ...], ...],
        blocks: int,
    ):
        self.table = table
        self.ell = ell
        self.k = k
        self.columns = columns
        self.blocks = blocks

    @property
    def graph(self) -> Graph:
        return self.table.graph

    @cached_property
    def col_pairs(self) -> tuple[PairBits, ...]:
        return tuple(self.table.pairs(self.ell - 1, self.k + 1))

    @cached_property
    def row_pairs(self) -> tuple[PairBits, ...]:
        return tuple(self.table.pairs(self.ell, self.k))

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)


def build_phi(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    budget: int | None = None,
) -> PhiMatrix:
    """Matrix of the averaged chain-swap map for one (l, k) slot.

    Swapping a pink chain c of (blue, pink) gives (blue ^ c, pink ^ c), whose
    row index is position(blue ^ c) * m_k + position(pink ^ c).  Past `budget`
    nonzeros it raises `BudgetExceededError` (`verify` first skips a slot that must pass it).
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    m_k = t.m(k)
    row_of_blue, row_of_pink = t.positions[ell], t.positions[k]
    forced = k - ell + 2  # p - b for every column pair
    columns = []
    nnz = 0
    for blue, pink in t.pairs(ell - 1, k + 1):
        chains, ends = odd_chains(g, blue ^ pink)[:2]
        rows = sorted(
            row_of_blue[blue ^ c] * m_k + row_of_pink[pink ^ c] for c in chains if pink & ends & c
        )
        if len(rows) < forced:
            raise InternalError("pink-chain count below the forced minimum")
        nnz += len(rows)
        if budget is not None and nnz > budget:
            raise BudgetExceededError(f"nonzero count exceeds budget {budget} at ({ell}, {k})")
        columns.append(tuple(rows))
    blocks = sum(n // comb(2 * p - forced, p) for p, n in Counter(map(len, columns)).items())
    return PhiMatrix(t, ell, k, tuple(columns), blocks)


def block_partition(phi: PhiMatrix) -> list[Block]:
    """The columns by block key, sorted by key: the one grouping, read from the chain memo."""
    groups: dict[BlockKey, list[int]] = {}
    for j, (blue, pink) in enumerate(phi.col_pairs):
        even = odd_chains(phi.graph, blue ^ pink)[2]
        groups.setdefault((blue | pink, blue & pink, blue & even), []).append(j)
    return [Block(key, tuple(cols)) for key, cols in sorted(groups.items())]


def slot_identity_holds(phi: PhiMatrix) -> bool:
    """True iff PᵀP = (k − l + 2)·I + DᵀD on Φ's 0/1 pattern P (`gram.gram_identity_holds`).

    D sends a column pair to its blue-chain swaps (blue ^ c, pink ^ c); the
    witnesses are D's rows, the columns that reach each down pair.  A
    column's p entries must be (k − l + 2) + b, b its blue chains, and two
    columns must share as many rows as down pairs.  Any D makes the right
    side positive definite, as the shift is at least 2, so the identity
    gives P full column rank; a column of exactly k − l + 2 entries (b = 0
    when correct) is given no down pair and its chains are not read.
    """
    shift = phi.k - phi.ell + 2
    pairs = phi.table.pairs(phi.ell - 1, phi.k + 1)
    downs: dict[PairBits, list[int]] = {}
    for j, ((blue, pink), column) in enumerate(zip(pairs, phi.columns)):
        if len(column) == shift:
            continue
        chains, ends = odd_chains(phi.graph, blue ^ pink)[:2]
        for c in chains:
            if not pink & ends & c:
                downs.setdefault((blue ^ c, pink ^ c), []).append(j)
    return gram_identity_holds(phi.columns, shift, downs.values())


class InjectivityReport(namedtuple("InjectivityReport", "ell k blocks total_rank expected")):
    """Φ's rank on one slot against its column count, and Φ's block count."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.total_rank == self.expected


def verify_injective(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    phi: PhiMatrix | None = None,
) -> InjectivityReport:
    """Full column rank by the slot identity, or else by exact rank per block."""
    t = table or matching_table(g)
    t.check_slot(ell, k)
    phi = phi or build_phi(g, ell, k, table=t)
    ncols = len(phi.columns)
    if slot_identity_holds(phi):
        rank = ncols
    else:
        from .exactalg import rank_by_groups  # only a Φ that fails the slot identity gets here

        rank = rank_by_groups(phi.columns, (b.col_indices for b in block_partition(phi)))
    return InjectivityReport(ell, k, phi.blocks, rank, ncols)


class EquivarianceReport(namedtuple("EquivarianceReport", "ell k group_order columns failures")):
    """Φ's equivariance on one slot; `failures` lists each failing generator
    with a witness column."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_equivariant(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    group: AutomorphismGroup | None = None,
    phi: PhiMatrix | None = None,
) -> EquivarianceReport:
    """Check P_sigma . Phi = Phi . P_sigma for every automorphism.

    Works on the index level: the column of the moved pair must equal the
    row-permuted column of the original pair, which is the matrix identity
    and the set-level neighbor-set equality at once.  sigma -> P_sigma is a
    homomorphism, so the identity holds for the group once it holds for each
    generator, and only the generators are checked, each by
    `MatchingTable.noncommuting_column`.  `failures` lists the failing
    generators in sorted order, each with its first offending column pair;
    the first entry is also the first failing element of the whole group
    in lexicographic order (the argument is in `autgroup.automorphisms`).

    On a slot with fewer than `EQUIVARIANCE_SCAN_LIMIT` nonzeros times
    generators, that scan is the check itself.  Larger slots load numpy
    and compare sorted (col, row) codes first (`exactalg.pattern_commutes`),
    scanning only a failing generator for its witness.  Both read the
    table's memoised moves.
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    grp = group or automorphisms(g)
    if not grp.generators:  # nothing to move: Φ is neither built nor counted
        return EquivarianceReport(ell, k, grp.order, t.m(ell - 1) * t.m(k + 1), ())
    phi = phi or build_phi(g, ell, k, table=t)
    commutes = None
    if phi.nnz * len(grp.generators) >= EQUIVARIANCE_SCAN_LIMIT:
        # imported here so small slots and trivial groups never compile numpy code
        from .exactalg import pattern_commutes

        commutes = pattern_commutes(t, ell, k, phi.columns)
    failures = []
    for sigma in grp.generators:
        if commutes and commutes(sigma):
            continue
        pair = t.noncommuting_column(ell, k, sigma, phi.columns.__getitem__)
        if pair is not None:
            failures.append((sigma, pair))
        elif commutes:
            raise InternalError("pattern mismatch without an offending column")
    return EquivarianceReport(ell, k, grp.order, len(phi.columns), tuple(failures))


class PartRecord(
    namedtuple("PartRecord", "union source_classes target_classes even_edges even_components")
):
    """Class counts of one union; `even_edges` is the edge count of its even part."""

    __slots__ = ()

    @property
    def counts_equal(self) -> bool:
        return self.source_classes == self.target_classes

    @property
    def matches_pow_edges(self) -> bool:
        return self.source_classes == 1 << self.even_edges

    @property
    def matches_pow_components(self) -> bool:
        return self.source_classes == 1 << self.even_components


def count_parts(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    phi: PhiMatrix | None = None,
) -> list[PartRecord]:
    """Equivalence-class counts per realized union subgraph.

    Two pairs with the same union are equivalent when they agree on the even
    part of the union.  Reports the class counts on both sides together with
    the even part's edge and component counts; callers may compare against
    either power-of-two candidate.  Both sides are scanned from the table's
    levels, keyed by union, so every (l, k) pair with a realized union
    counts, reached by Φ or not; `phi` is accepted like the other checks'
    and not read.  The top pairs are walked only for a union some column pair gave.

    A union's even part and component count come from the chain memo of
    the first column pair with that union (`transfer.odd_chains`): its
    intersection edges are isolated odd components, so every pair with
    that union gives the same values.  Every even-part edge is in exactly
    one of the two matchings, so a class is keyed by its blue edges there.
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    evens: dict[int, int] = {}
    even_components: dict[int, int] = {}
    sources: dict[int, set] = {}
    for blue, pink in t.pairs(ell - 1, k + 1):
        u = blue | pink
        h = evens.get(u)
        if h is None:
            _, _, h, even_components[u] = odd_chains(g, blue ^ pink)
            evens[u] = h
            sources[u] = set()
        sources[u].add(blue & h)
    targets: dict[int, set] = {u: set() for u in sources}
    for blue, pink in t.pairs(ell, k) if sources else ():
        u = blue | pink
        h = evens.get(u)
        if h is not None:
            targets[u].add(blue & h)
    return [
        PartRecord(u, len(sources[u]), len(targets[u]), evens[u].bit_count(), even_components[u])
        for u in sorted(sources)
    ]
