"""The equivariant injection between tensor products of matching spaces.

The map sends the basis pair (M, M') of an (l-1)-matching and a
(k+1)-matching to the average of the pairs in its neighbor set, i.e. each
column has p entries of value 1/p.  Columns and rows are grouped into blocks
by (union, intersection, blue part of the even components of the union);
chain swaps preserve all three, so the matrix is block diagonal and rank can
be certified block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactalg
from . import graph as graphlib
from .autgroup import AutomorphismGroup, apply_edge_perm, automorphisms, edge_action
from .exactalg import ExactMatrix
from .graph import Graph, InternalError
from .matchings import MatchingTable, matching_table
from .transfer import MatchingPair, neighbor_set

DEFAULT_BUDGET = 10**6

BlockKey = tuple[int, int, int]  # (union, intersection, even-part blue edges)

PairBits = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """Matrix would exceed the nonzero budget; report as skipped."""


def even_part(g: Graph, union: int) -> int:
    """Union of components of the edge-induced subgraph with even edge count.

    Memoised per union on the graph, so the pairs sharing a union (several
    per union, on both sides of every slot) search its components once.
    """
    return graphlib.even_part(g, union)[0]


def block_key(g: Graph, blue: int, pink: int) -> BlockKey:
    union = blue | pink
    return (union, blue & pink, blue & even_part(g, union))


@dataclass(frozen=True)
class PhiMatrix:
    graph: Graph
    ell: int
    k: int
    row_pairs: tuple[PairBits, ...]
    col_pairs: tuple[PairBits, ...]
    columns: tuple[tuple[tuple[int, Fraction], ...], ...]

    @cached_property
    def col_keys(self) -> tuple[BlockKey, ...]:
        g = self.graph
        return tuple(block_key(g, b, p) for (b, p) in self.col_pairs)

    @cached_property
    def row_keys(self) -> tuple[BlockKey, ...]:
        g = self.graph
        return tuple(block_key(g, b, p) for (b, p) in self.row_pairs)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)


def _tensor_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[PairBits, ...]:
    # both factors sorted, so the nested product is sorted by (blue, pink)
    return tuple((x, y) for x in a for y in b)


def build_phi(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    budget: int | None = None,
) -> PhiMatrix:
    """Matrix of the averaged chain-swap map for one (l, k) slot."""
    t = table or matching_table(g)
    if not (1 <= ell <= k <= t.r):
        raise ValueError(f"(ell, k) = ({ell}, {k}) out of range for r = {t.r}")
    col_pairs = _tensor_pairs(t.level(ell - 1), t.level(k + 1))
    row_pairs = _tensor_pairs(t.level(ell), t.level(k))
    row_index = {p: i for i, p in enumerate(row_pairs)}
    columns = []
    nnz = 0
    for (blue, pink) in col_pairs:
        nbrs = neighbor_set(g, MatchingPair(blue, pink))
        p = len(nbrs)
        if p < k - ell + 2:
            raise InternalError("pink-chain count below the forced minimum")
        nnz += p
        if budget is not None and nnz > budget:
            raise BudgetExceededError(
                f"nonzero count exceeds budget {budget} at ({ell}, {k})"
            )
        w = Fraction(1, p)
        entries = sorted((row_index[(q.blue, q.pink)], w) for q in nbrs)
        columns.append(tuple(entries))
    return PhiMatrix(g, ell, k, row_pairs, col_pairs, tuple(columns))


@dataclass(frozen=True)
class Block:
    key: BlockKey
    col_indices: tuple[int, ...]
    row_indices: tuple[int, ...]


def block_partition(phi: PhiMatrix) -> list[Block]:
    """Group columns and rows by block key, sorted by key.

    Every nonzero entry lies in the (column, row) block of its shared key;
    rows whose key is not realized by any column still appear (with no
    columns) so the row grouping is a partition too.
    """
    by_key: dict[BlockKey, tuple[list[int], list[int]]] = {}
    for j, key in enumerate(phi.col_keys):
        by_key.setdefault(key, ([], []))[0].append(j)
    for i, key in enumerate(phi.row_keys):
        by_key.setdefault(key, ([], []))[1].append(i)
    row_keys = phi.row_keys
    for key, column in zip(phi.col_keys, phi.columns):
        if any(row_keys[r] != key for (r, _) in column):
            raise InternalError("nonzero entry escapes its block")
    return [
        Block(key, tuple(cols), tuple(rows))
        for key, (cols, rows) in sorted(by_key.items())
    ]


def _block_matrix(phi: PhiMatrix, block: Block) -> ExactMatrix:
    row_map = {r: i for i, r in enumerate(block.row_indices)}
    cols = []
    for j in block.col_indices:
        cols.append(tuple((row_map[r], v) for (r, v) in phi.columns[j]))
    return ExactMatrix(len(block.row_indices), len(block.col_indices), tuple(cols))


@dataclass(frozen=True)
class BlockRank:
    key: BlockKey
    nrows: int
    ncols: int
    rank: int


@dataclass(frozen=True)
class InjectivityReport:
    ell: int
    k: int
    blocks: tuple[BlockRank, ...]
    total_rank: int
    expected: int

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
    """Rank, block by block; passes iff every block has full column rank."""
    t = table or matching_table(g)
    if k + 1 > t.r:
        # no columns at all: vacuously injective
        return InjectivityReport(ell, k, (), 0, 0)
    phi = phi or build_phi(g, ell, k, table=t)
    blocks = block_partition(phi)
    ranks = []
    total = 0
    for block in blocks:
        ncols = len(block.col_indices)
        if not ncols:
            continue
        if ncols == 1:
            # one column with a nonzero entry (weights are 1/p > 0) has rank 1
            rk = int(any(v for (_, v) in phi.columns[block.col_indices[0]]))
        else:
            sub = _block_matrix(phi, block)
            rk = (
                exactalg.rank_certified(sub)
                if ncols > 48
                else exactalg.rank(sub)
            )
        total += rk
        ranks.append(BlockRank(block.key, len(block.row_indices), ncols, rk))
    return InjectivityReport(ell, k, tuple(ranks), total, len(phi.col_pairs))


def _matching_perms(t: MatchingTable, sigmas, sizes: tuple[int, ...]):
    """Per automorphism, lazily: for each level, the image position of every matching position."""
    g = t.graph
    level_index = {
        s: {bits: i for i, bits in enumerate(t.level(s))} for s in sizes
    }
    for sigma in sigmas:
        eperm = edge_action(sigma, g)
        per_size = {}
        for s in sizes:
            idx = level_index[s]
            per_size[s] = [
                idx[apply_edge_perm(eperm, bits)] for bits in t.level(s)
            ]
        yield sigma, per_size


def _equivariance_witness(phi: PhiMatrix, pm: dict, ell: int, k: int, len_k: int, len_k1: int):
    """Slow per-column scan; returns the first offending column pair or None."""
    col_a, col_b = pm[ell - 1], pm[k + 1]
    row_a, row_b = pm[ell], pm[k]
    for j in range(len(phi.col_pairs)):
        i1, i2 = divmod(j, len_k1)
        j_img = col_a[i1] * len_k1 + col_b[i2]
        moved = sorted(
            (row_a[r // len_k] * len_k + row_b[r % len_k], v)
            for (r, v) in phi.columns[j]
        )
        if tuple(moved) != phi.columns[j_img]:
            return phi.col_pairs[j]
    return None


@dataclass(frozen=True)
class EquivarianceReport:
    ell: int
    k: int
    group_order: int
    columns: int
    failures: tuple[tuple[tuple[int, ...], PairBits], ...]  # failing generators

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
    row-permuted column of the original pair, with identical weights.  This
    is simultaneously the matrix identity and the set-level neighbor-set
    equality (uniform weights 1/p on both sides).  sigma -> P_sigma is a
    homomorphism, so the identity holds for the group once it holds for each
    generator, and only the generators are checked.  `failures` lists the
    failing generators in sorted order, each with its first offending column
    pair.  The elements commuting with Phi form a subgroup, so the first
    entry is also the first failing element of the whole group in
    lexicographic order (see `autgroup.automorphisms`).
    """
    t = table or matching_table(g)
    grp = group or automorphisms(g)
    if k + 1 > t.r:
        return EquivarianceReport(ell, k, grp.order, 0, ())
    phi = phi or build_phi(g, ell, k, table=t)
    ncols = len(phi.col_pairs)
    if not grp.generators:
        return EquivarianceReport(ell, k, grp.order, ncols, ())
    # imported here so a trivial group never loads numpy
    import numpy as np

    len_k1 = t.m(k + 1)
    len_k = t.m(k)
    nrows = len(phi.row_pairs)
    sizes = (ell - 1, ell, k, k + 1)
    # sparse pattern as column-major (col, row) codes; uniform 1/p weights
    # make pattern equality equivalent to matrix equality
    col_of_nz = np.repeat(
        np.arange(ncols, dtype=np.int64),
        np.fromiter((len(c) for c in phi.columns), dtype=np.int64, count=ncols),
    )
    row_of_nz = np.fromiter(
        (r for col in phi.columns for (r, _) in col),
        dtype=np.int64,
        count=len(col_of_nz),
    )
    base_codes = np.sort(col_of_nz * nrows + row_of_nz)
    i1 = np.arange(ncols, dtype=np.int64) // len_k1
    i2 = np.arange(ncols, dtype=np.int64) % len_k1
    r1 = row_of_nz // len_k
    r2 = row_of_nz % len_k

    def commutes(pm: dict) -> bool:
        col_a = np.asarray(pm[ell - 1], dtype=np.int64)
        col_b = np.asarray(pm[k + 1], dtype=np.int64)
        row_a = np.asarray(pm[ell], dtype=np.int64)
        row_b = np.asarray(pm[k], dtype=np.int64)
        cimg = col_a[i1] * len_k1 + col_b[i2]
        moved = np.sort(cimg[col_of_nz] * nrows + row_a[r1] * len_k + row_b[r2])
        return np.array_equal(moved, base_codes)

    failures = []
    for sigma, pm in _matching_perms(t, grp.generators, sizes):
        if commutes(pm):
            continue
        pair = _equivariance_witness(phi, pm, ell, k, len_k, len_k1)
        if pair is None:
            raise InternalError("pattern mismatch without an offending column")
        failures.append((sigma, pair))
    return EquivarianceReport(ell, k, grp.order, ncols, tuple(failures))


@dataclass(frozen=True)
class PartRecord:
    union: int
    source_classes: int
    target_classes: int
    even_edges: int  # edge count of the even part
    even_components: int

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
    either power-of-two candidate.
    """
    t = table or matching_table(g)
    phi = phi or build_phi(g, ell, k, table=t)
    sources: dict[int, set] = {}
    for (blue, pink) in phi.col_pairs:
        u = blue | pink
        h = even_part(g, u)
        sources.setdefault(u, set()).add((blue & h, pink & h))
    targets: dict[int, set] = {}
    for (blue, pink) in phi.row_pairs:
        u = blue | pink
        if u not in sources:
            continue
        h = even_part(g, u)
        targets.setdefault(u, set()).add((blue & h, pink & h))
    out = []
    for u in sorted(sources):
        h, comps = graphlib.even_part(g, u)
        out.append(
            PartRecord(
                u,
                len(sources[u]),
                len(targets.get(u, set())),
                h.bit_count(),
                comps,
            )
        )
    return out
