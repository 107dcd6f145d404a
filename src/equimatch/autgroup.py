"""Exhaustive automorphism groups of small graphs and their induced actions.

The group is enumerated completely (not by generators) because the
verification checks quantify over every element; a vertex-count limit guards
against factorial blowup.  The search backtracks over vertex images with a
degree-refinement prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import Graph

DEFAULT_VERTEX_LIMIT = 12

Permutation = tuple[int, ...]


class SizeLimitError(ValueError):
    """Graph too large for exhaustive group enumeration."""


@dataclass(frozen=True)
class AutomorphismGroup:
    graph: Graph
    perms: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.perms)

    @cached_property
    def identity(self) -> Permutation:
        return tuple(range(self.graph.n))

    def __iter__(self):
        return iter(self.perms)


def automorphisms(g: Graph, limit: int = DEFAULT_VERTEX_LIMIT) -> AutomorphismGroup:
    """All adjacency-preserving vertex bijections, sorted lexicographically."""
    n = g.n
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds the vertex limit {limit}")
    adj = g.adjacency_bits
    deg = [adj[v].bit_count() for v in range(n)]
    found: list[Permutation] = []
    image = [-1] * n

    def place(v: int, used: int):
        if v == n:
            found.append(tuple(image))
            return
        dv = deg[v]
        av = adj[v]
        for w in range(n):
            if used >> w & 1 or deg[w] != dv:
                continue
            ok = True
            for u in range(v):
                if (av >> u & 1) != (adj[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                place(v + 1, used | (1 << w))
        image[v] = -1

    place(0, 0)
    found.sort()
    return AutomorphismGroup(g, tuple(found))


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
