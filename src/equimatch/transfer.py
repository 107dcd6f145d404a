"""Chain decomposition of two-colored matching pairs and the single-output transfer map.

A pair (blue, pink) of matchings is a tuple of two edge bitsets.  The
edges carrying exactly one color form a subgraph whose components are
paths ("chains") or even cycles.  Odd chains whose end edges are blue
(resp. pink) are the swappable currency: the neighbor set of a pair swaps
the colors inside one pink chain at a time, while the single-output map
`krattenthaler_f` picks one pink chain through a vertex-order-dependent
subset injection (the bracket matching of `brackets.bracket_successor`,
imported only where f is applied).

`chain_walk` is the one component walk of a one-colored set: one walk
per component, which finds an end edge of each path as it goes.
`odd_chains` keeps its odd chains as plain edge bitsets with one mask of
their end edges, memoised per one-colored set, so Φ's build, the
union-part counts, the single-output map and the neighbor sets
(`graphtools.neighbor_set`) share it.  None of them checks its pair.  The
`transfer` command's `decompose` (in `graphtools`, which `verify` and
`batch` never compile) checks it, and names every component, even ones
included, from `chain_walk`.
The f-equivariance counterexample runs the table's one group scan
(`MatchingTable.noncommuting_column`) on f's lazily applied columns.
"""

from __future__ import annotations

from . import InternalError
from .graph import Graph
from .matchings import MatchingTable, matching_table


def chain_walk(g: Graph, one_colored: int) -> list[tuple[int, int]]:
    """The components of a one-colored set by minimum edge, each with an end edge (0 for a cycle).

    From the lowest remaining edge {u, v}, u < v, it walks from v along
    the set's one remaining edge at each vertex until none is left.  Back
    at u, the component is a cycle; otherwise the last edge walked (the
    first, if none was) ends at a degree-1 vertex, and the walk goes on
    from u.  The set is trusted to have maximum degree 2, as the symmetric
    difference of two matchings has.
    """
    edges, incident = g.edges, g.incident
    rest = one_colored
    out = []
    while rest:
        end = rest & -rest
        rest ^= end
        u, x = edges[end.bit_length() - 1]
        comp = end
        while step := incident[x] & rest:
            rest ^= step
            comp |= (end := step)
            a, b = edges[step.bit_length() - 1]
            x = a + b - x  # the step's other end
        if x == u:
            end = 0  # a cycle: nothing is left at u either
        x = u
        while step := incident[x] & rest:
            rest ^= step
            comp |= step
            a, b = edges[step.bit_length() - 1]
            x = a + b - x
        out.append((comp, end))
    return out


def odd_chains(g: Graph, one_colored: int) -> tuple[tuple[int, ...], int, int, int]:
    """(chains, ends, even, count): odd chains, their end edges, the even part and its components.

    Each chain is a plain edge bitset and `ends` holds one end edge per
    chain, so a pair with this one-colored set colors chain c pink iff
    `pink & ends & c`.  Chains come by minimum edge index (`chain_walk`),
    which for vertex-disjoint components is ascending minimum vertex.  The
    set must be the symmetric difference of two matchings, unchecked here
    (`graphtools.decompose` checks it).  Then the pair's intersection edges
    are isolated single-edge components of its union, so the even part and
    its `count` of components are also the union's.  Memoised on `g` per
    set, so all pairs sharing a union and an intersection walk it once.
    """
    hit = g._chain_memo.get(one_colored)
    if hit is None:
        chains = []
        ends = even = count = 0
        for comp, end in chain_walk(g, one_colored):
            if comp.bit_count() % 2:
                if not end:
                    raise InternalError("odd cycle in a one-colored set")
                chains.append(comp)
                ends |= end
            else:
                even |= comp
                count += 1
        hit = g._chain_memo[one_colored] = (tuple(chains), ends, even, count)
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
    chains, ends = odd_chains(g, blue ^ pink)[:2]
    blue_positions = 0
    for i, c in enumerate(chains):
        if not pink & ends & c:
            blue_positions |= 1 << i
    if 2 * blue_positions.bit_count() >= len(chains):
        raise ValueError("need fewer blue than pink chains")
    enlarged = successor(len(chains), blue_positions)
    if enlarged is None:
        raise InternalError("no unmatched opener although b < p")
    c = chains[(enlarged ^ blue_positions).bit_length() - 1]
    if not pink & ends & c:
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
