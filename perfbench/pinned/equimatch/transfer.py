"""Chain decomposition of two-colored matching pairs and the transfer maps.

Given a pair (blue, pink) of matchings, the edges carrying exactly one color
form a subgraph whose components are paths ("chains") or even cycles.  Odd
chains whose end edges are blue (resp. pink) are the swappable currency: the
neighbor set of a pair swaps the colors inside one pink chain at a time,
while the single-output map `krattenthaler_f` picks one pink chain through a
vertex-order-dependent subset injection (bracket matching).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import graph as graphlib
from .graph import Graph
from .matchings import is_matching

BLUE_CHAIN = "blue"
PINK_CHAIN = "pink"
EVEN_PATH = "even_path"
EVEN_CYCLE = "even_cycle"


@dataclass(frozen=True)
class MatchingPair:
    """An ordered pair of matchings on a shared host; blue first, pink second."""

    blue: int
    pink: int

    @property
    def union(self) -> int:
        return self.blue | self.pink

    @property
    def intersection(self) -> int:
        return self.blue & self.pink

    @property
    def one_colored(self) -> int:
        return self.blue ^ self.pink

    def sizes(self) -> tuple[int, int]:
        return (self.blue.bit_count(), self.pink.bit_count())


@dataclass(frozen=True)
class ChainComponent:
    edges: int
    kind: str
    min_vertex: int


@dataclass(frozen=True)
class ChainDecomposition:
    pair: MatchingPair
    components: tuple[ChainComponent, ...]

    @property
    def b(self) -> int:
        return sum(1 for c in self.components if c.kind == BLUE_CHAIN)

    @property
    def p(self) -> int:
        return sum(1 for c in self.components if c.kind == PINK_CHAIN)

    @cached_property
    def odd_chains(self) -> tuple[ChainComponent, ...]:
        """Blue and pink chains ordered by ascending minimum vertex label."""
        odd = [c for c in self.components if c.kind in (BLUE_CHAIN, PINK_CHAIN)]
        odd.sort(key=lambda c: c.min_vertex)
        return tuple(odd)


def _classify(g: Graph, comp: int, blue: int) -> ChainComponent:
    edges = graphlib.bits_to_edges(g, comp)
    vdeg: dict[int, int] = {}
    for (u, v) in edges:
        vdeg[u] = vdeg.get(u, 0) + 1
        vdeg[v] = vdeg.get(v, 0) + 1
    if any(d > 2 for d in vdeg.values()):
        raise ValueError("component has a vertex of degree > 2; inputs are not matchings")
    count = len(edges)
    endpoints = [v for v, d in vdeg.items() if d == 1]
    min_vertex = min(vdeg)
    if not endpoints:
        if count % 2 or count < 4:
            raise ValueError("odd or degenerate cycle in one-colored subgraph")
        return ChainComponent(comp, EVEN_CYCLE, min_vertex)
    if count % 2 == 0:
        return ChainComponent(comp, EVEN_PATH, min_vertex)
    # odd path: alternation forces both end edges to carry the same color
    end_colors = set()
    for i in range(g.num_edges):
        if comp >> i & 1:
            u, v = g.edges[i]
            if vdeg[u] == 1 or vdeg[v] == 1:
                end_colors.add(bool(blue >> i & 1))
    if len(end_colors) != 1:
        raise ValueError("odd chain with mixed end colors; inputs are not matchings")
    kind = BLUE_CHAIN if end_colors.pop() else PINK_CHAIN
    return ChainComponent(comp, kind, min_vertex)


def decompose(g: Graph, pair: MatchingPair) -> ChainDecomposition:
    """Split the one-colored subgraph into classified components.

    Components are listed by minimum edge index; p - b always equals
    |pink| - |blue|.
    """
    if not (is_matching(g, pair.blue) and is_matching(g, pair.pink)):
        raise ValueError("both sides of the pair must be matchings")
    comps = [
        _classify(g, comp, pair.blue)
        for comp in graphlib.components(g, pair.one_colored)
    ]
    return ChainDecomposition(pair, tuple(comps))


def swap_chain(pair: MatchingPair, chain: ChainComponent) -> MatchingPair:
    """Exchange blue and pink inside one pink chain; everything else fixed."""
    if chain.kind != PINK_CHAIN:
        raise ValueError("only pink chains may be swapped")
    c = chain.edges
    blue = (pair.blue & ~c) | (pair.pink & c & ~pair.blue)
    pink = (pair.pink & ~c) | (pair.blue & c & ~pair.pink)
    # two-colored edges never lie in a one-colored component, so the masks
    # above only move single-colored edges
    return MatchingPair(blue, pink)


def neighbor_set(g: Graph, pair: MatchingPair) -> tuple[MatchingPair, ...]:
    """All pairs obtained by swapping exactly one pink chain, sorted."""
    dec = decompose(g, pair)
    out = [
        swap_chain(pair, c) for c in dec.components if c.kind == PINK_CHAIN
    ]
    out.sort(key=lambda q: (q.blue, q.pink))
    return tuple(out)


def bracket_successor(n: int, members: frozenset[int]) -> frozenset[int] | None:
    """Add the leftmost unmatched opener of the bracket word of `members`.

    Position i in 1..n is a closer ")" iff i is a member, else an opener "(".
    Closers match the nearest unmatched opener to their left.  Returns None
    when every opener is matched.
    """
    stack: list[int] = []
    for i in range(1, n + 1):
        if i in members:
            if stack:
                stack.pop()
        else:
            stack.append(i)
    if not stack:
        return None
    return members | {stack[0]}


def subset_inject(n: int, members) -> frozenset[int]:
    """The bracket-matching injection of b-subsets of [n] into (b+1)-subsets.

    Requires 2*|members| < n so that an unmatched opener is guaranteed.
    """
    members = frozenset(members)
    if any(not (1 <= i <= n) for i in members):
        raise ValueError("members must lie in 1..n")
    if 2 * len(members) >= n:
        raise ValueError("need 2*|S| < n")
    result = bracket_successor(n, members)
    assert result is not None
    return result


def krattenthaler_f(g: Graph, pair: MatchingPair) -> MatchingPair:
    """The vertex-order-dependent single-output transfer map.

    Odd chains are ordered by minimum vertex label; the positions of the blue
    chains form a subset of [b+p], and the element added by `subset_inject`
    names the pink chain to swap.
    """
    dec = decompose(g, pair)
    odd = dec.odd_chains
    blue_positions = frozenset(
        i + 1 for i, c in enumerate(odd) if c.kind == BLUE_CHAIN
    )
    enlarged = subset_inject(len(odd), blue_positions)
    (new_pos,) = enlarged - blue_positions
    target = odd[new_pos - 1]
    assert target.kind == PINK_CHAIN
    return swap_chain(pair, target)


def f_equivariance_counterexample(g, group, ell: int, k: int):
    """First (sigma, pair) with f(sigma.pair) != sigma.f(pair), or None.

    Scans automorphisms in sorted order and column pairs in sorted basis
    order, so the witness is deterministic.
    """
    from .autgroup import apply_edge_perm, edge_action
    from .matchings import enumerate_matchings

    blues = enumerate_matchings(g, ell - 1)
    pinks = enumerate_matchings(g, k + 1)
    if not pinks:
        return None
    pairs = [MatchingPair(b, p) for b in blues for p in pinks]
    images = {pair: krattenthaler_f(g, pair) for pair in pairs}
    for sigma in group:
        eperm = edge_action(sigma, g)
        for pair in pairs:
            moved = MatchingPair(
                apply_edge_perm(eperm, pair.blue), apply_edge_perm(eperm, pair.pink)
            )
            f_moved = images[moved]
            fp = images[pair]
            moved_f = MatchingPair(
                apply_edge_perm(eperm, fp.blue), apply_edge_perm(eperm, fp.pink)
            )
            if f_moved != moved_f:
                return (sigma, pair)
    return None
