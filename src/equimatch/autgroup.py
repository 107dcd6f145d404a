"""Automorphism groups of small graphs as strong generating sets.

The group is held by a strong generating set for the base 0, 1, ..., n-1
(Sims 1970): for every i, the generators that fix 0..i-1 generate the
pointwise stabiliser of 0..i-1.  A representation is a homomorphism, so a
map commutes with the whole group once it commutes with each generator, and
both group checks test the generators only, by one scan
(`matchings.MatchingTable.noncommuting_column`).
One backtracking search over vertex images, with a degree prune, finds the
generators and streams the elements in lexicographic order.  A vertex-count
limit guards against factorial blowup where every element is walked (the
`aut` listing).
"""

from __future__ import annotations

from collections.abc import Iterator

from .graph import Graph

VERTEX_LIMIT = 12

Permutation = tuple[int, ...]


class SizeLimitError(ValueError):
    """Graph too large for exhaustive group enumeration."""


class AutomorphismGroup:
    """The automorphisms of `graph`: sorted strong generators (never the identity) and the order."""

    def __init__(self, graph: Graph, generators: tuple[Permutation, ...], order: int):
        self.graph = graph
        self.generators = generators
        self.order = order

    def __iter__(self) -> Iterator[Permutation]:
        """Every element, lexicographically, found anew on each pass."""
        return _extensions(self.graph, ())


def _extensions(g: Graph, prefix: Permutation) -> Iterator[Permutation]:
    """The automorphisms with sigma[i] = prefix[i] for every i < len(prefix), in lexicographic order."""
    adj = g.adjacency_bits
    deg = tuple(a.bit_count() for a in adj)
    return _place(prefix, adj, deg, [-1] * g.n, 0, 0)


def _place(
    prefix: Permutation, adj: tuple[int, ...], deg: tuple[int, ...], image: list[int], v: int, used: int
) -> Iterator[Permutation]:
    """The completions of image[:v], a partial automorphism using the vertex bitset `used`.

    A module-level generator, not a closure over itself, so a search
    leaves no reference cycle for the collector.
    """
    n = len(image)
    if v == n:
        yield tuple(image)
        return
    dv = deg[v]
    av = adj[v]
    for w in (prefix[v],) if v < len(prefix) else range(n):
        if used >> w & 1 or deg[w] != dv:
            continue
        aw = adj[w]
        for u in range(v):
            if (av >> u & 1) != (aw >> image[u] & 1):
                break
        else:
            image[v] = w
            yield from _place(prefix, adj, deg, image, v + 1, used | (1 << w))
    image[v] = -1


def _orbit(point: int, generators: list[Permutation]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for sigma in generators:
            w = sigma[v]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def check_vertex_limit(n: int) -> None:
    """Raise SizeLimitError when a group search on n vertices is refused."""
    if n > VERTEX_LIMIT:
        raise SizeLimitError(f"n={n} exceeds the vertex limit {VERTEX_LIMIT}")


def automorphisms(g: Graph) -> AutomorphismGroup:
    """A strong generating set for the base 0..n-1, and the group order.

    From the last base point down, the orbit of i under the stabiliser of
    0..i-1 is closed under the generators found so far; each point w > i the
    orbit still misses gets the lexicographically first automorphism fixing
    0..i-1 with i -> w, when one exists.  The order is the product of the
    orbit lengths.

    So the lexicographically first element outside a subgroup H is a
    generator: if it fixes 0..i-1 and sends i to w, every element fixing
    0..i and every generator sending i below w is smaller, hence in H; were
    w in their orbit, its whole coset would lie in H.  A check that finds
    the first element failing a property closed under products (commuting
    with a map) scans the sorted generators only.
    """
    n = g.n
    check_vertex_limit(n)
    generators: list[Permutation] = []
    order = 1
    for i in range(n - 1, -1, -1):
        orbit = _orbit(i, generators)
        for w in range(i + 1, n):
            if w in orbit:
                continue
            sigma = next(_extensions(g, tuple(range(i)) + (w,)), None)
            if sigma is not None:
                generators.append(sigma)
                orbit = _orbit(i, generators)
        order *= len(orbit)
    return AutomorphismGroup(g, tuple(sorted(generators)), order)


def edge_action(sigma: Permutation, g: Graph) -> tuple[int, ...]:
    """Induced permutation of edge indices; errors if sigma is not an automorphism."""
    index = g.edge_index
    out = []
    for (u, v) in g.edges:
        a, b = sigma[u], sigma[v]
        if a > b:
            a, b = b, a
        j = index.get((a, b))
        if j is None:
            raise ValueError(f"({u}, {v}) maps to non-edge ({a}, {b})")
        out.append(j)
    return tuple(out)


def apply_edge_perm(eperm: tuple[int, ...], bits: int) -> int:
    out = 0
    while bits:
        i = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        out |= 1 << eperm[i]
    return out
