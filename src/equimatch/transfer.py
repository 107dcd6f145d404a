"""Chain decomposition of two-colored matching pairs and the single-output transfer map.

A pair (blue, pink) of matchings is a tuple of two edge bitsets.  The
edges carrying exactly one color form a subgraph whose components are
paths ("chains") or even cycles.  Odd chains whose end edges are blue
(resp. pink) are the swappable currency: the neighbor set of a pair swaps
the colors inside one pink chain at a time, while the single-output map
`krattenthaler_f` picks one pink chain through a vertex-order-dependent
subset injection (the bracket matching of `brackets.bracket_successor`,
imported only where f is applied).

`odd_chains` is the one chain decomposition: each odd chain with one end
edge, memoised per one-colored set, so Φ's build, the union-part counts, the
single-output map and the neighbor sets (`graphtools.neighbor_set`) share
it.  None of them checks its pair.  The `transfer` command's `decompose` (in
`graphtools`, which `verify` and `batch` never compile) checks it, and names
every component, even ones included, by walking `graph.components` and
`end_edge` itself.
The f-equivariance counterexample runs the table's one group scan
(`MatchingTable.noncommuting_column`) on f's lazily applied columns.
"""

from __future__ import annotations

from . import InternalError
from . import graph as graphlib
from .graph import Graph
from .matchings import MatchingTable, matching_table


def end_edge(g: Graph, component: int) -> int:
    """One end edge of a path component, as a single-bit edge set; 0 for a cycle."""
    if not component & (component - 1):
        return component
    ends = g.ends
    seen = twice = 0
    rest = component
    while rest:
        vm = ends[(rest & -rest).bit_length() - 1]
        twice |= seen & vm
        seen |= vm
        rest &= rest - 1
    endpoints = seen & ~twice
    rest = component
    while rest:
        low = rest & -rest
        if ends[low.bit_length() - 1] & endpoints:
            return low
        rest ^= low
    return 0


def odd_chains(g: Graph, one_colored: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The odd chains of a one-colored set, the union of its even components, and their number.

    Each chain is (edges, end) with `end` one of its end edges, so a pair
    with this one-colored set colors the chain pink iff `pink & end`.
    Chains come by minimum edge index; components share no vertex and edges
    sort lexicographically, so that is also ascending minimum vertex.  The
    set must be the symmetric difference of two matchings; that is not
    checked here (`graphtools.decompose` checks it).  Then the pair's intersection
    edges are isolated single-edge components of its union, so the even
    part and its component count are also those of the union.  Memoised on
    `g` per set, so all pairs sharing a union and an intersection search its
    components once.
    """
    hit = g._chain_memo.get(one_colored)
    if hit is None:
        chains = []
        even = count = 0
        for comp in graphlib.components(g, one_colored):
            if comp.bit_count() % 2:
                end = end_edge(g, comp)
                if not end:
                    raise InternalError("odd component without an end vertex")
                chains.append((comp, end))
            else:
                even |= comp
                count += 1
        hit = g._chain_memo[one_colored] = (tuple(chains), even, count)
    return hit


def krattenthaler_f(g: Graph, pair: tuple[int, int], successor=None) -> tuple[int, int]:
    """The vertex-order-dependent single-output transfer map.

    Odd chains are ordered by minimum vertex label (the order of
    `odd_chains`); the positions of the blue chains form a bitset subset of
    [b+p], and the position `brackets.bracket_successor` adds names the
    pink chain to swap (a caller applying f many times passes it in).  The
    pair is trusted to be two matchings with |blue| < |pink|.
    """
    if successor is None:
        from .brackets import bracket_successor as successor
    blue, pink = pair
    chains = odd_chains(g, blue ^ pink)[0]
    blue_positions = 0
    for i, (c, end) in enumerate(chains):
        if not pink & end:
            blue_positions |= 1 << i
    if 2 * blue_positions.bit_count() >= len(chains):
        raise ValueError("need fewer blue than pink chains")
    enlarged = successor(len(chains), blue_positions)
    if enlarged is None:
        raise InternalError("no unmatched opener although b < p")
    c, end = chains[(enlarged ^ blue_positions).bit_length() - 1]
    if not pink & end:
        raise InternalError("the subset injection named a blue chain")
    return blue ^ c, pink ^ c


def f_equivariance_counterexample(
    g, group, ell: int, k: int, table: MatchingTable | None = None
):
    """First (sigma, (blue, pink)) with f(sigma.pair) != sigma.f(pair), or None.

    f is a slot map whose column j holds one row, that of f(pair j), so
    `MatchingTable.noncommuting_column` tests it against each sorted
    generator: the witness is the first failing automorphism in
    lexicographic order, then the first column pair in sorted basis order,
    and generators that all commute leave none.  f is applied only to the
    pairs the scan reaches: a trivial group costs nothing.  Its chains come
    from the memo that `phimap.build_phi` fills for the same column pairs.
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    if not group.generators:
        return None
    blues, pinks = t.level(ell - 1), t.level(k + 1)
    if not pinks:
        return None
    from .brackets import bracket_successor

    m_k, m_k1 = t.m(k), len(pinks)
    row_of_blue, row_of_pink = t.positions[ell], t.positions[k]
    images: dict[int, tuple[int]] = {}

    def column(j: int) -> tuple[int]:
        image = images.get(j)
        if image is None:
            blue, pink = krattenthaler_f(g, (blues[j // m_k1], pinks[j % m_k1]), bracket_successor)
            image = images[j] = (row_of_blue[blue] * m_k + row_of_pink[pink],)
        return image

    for sigma in group.generators:
        pair = t.noncommuting_column(ell, k, sigma, column)
        if pair is not None:
            return (sigma, pair)
    return None
