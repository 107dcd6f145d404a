"""Vertex-labeled simple graphs with a canonical edge indexing.

Edges are stored as (u, v) with u < v, sorted lexicographically; the index of
an edge is its position in that sorted list.  Every other module keys matrices
and bitsets off this single ordering, so it must be a pure function of the
labeled graph.

Edge sets are plain Python ints used as bitsets over edge indices;
`Graph.incident` holds each vertex's, which `transfer.chain_walk` steps along.

An edge is valid when it is no loop, its labels lie in 0..n-1 and it is
no repeat: `_checked_edge` says so once, for `graph_from_edges` and for
`parse_graph` (which adds the line number).

`load_graph` reads the graph a command names by `--gen` or `--file`; it
lives here, with `edge_token`, so that both command modules (`graphcli`
and `graphtools`) share it and neither compiles the other.
"""

from __future__ import annotations

import sys
from functools import cached_property
from pathlib import Path

from . import InternalError  # noqa: F401  (defined in the package init; importable from here too)


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphSpecError(ValueError):
    """Bad generator spec string."""


class Graph:
    """n vertices and the strictly increasing tuple of edges (u, v), u < v.

    Equal graphs have equal vertex counts and edge tuples; the derived
    tables below are computed once per graph, when first read.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        if n < 0:
            raise ValueError("negative vertex count")
        prev = None
        for (u, v) in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edge list not strictly increasing")
            prev = (u, v)
        self.n = n
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """For each edge, its two endpoints as a vertex bitset."""
        return tuple((1 << u) | (1 << v) for (u, v) in self.edges)

    @cached_property
    def incident(self) -> tuple[int, ...]:
        """For each vertex, the bitset of its edges."""
        inc = [0] * self.n
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        return tuple(inc)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """For each vertex, neighbors as a vertex bitset."""
        adj = [0] * self.n
        for (u, v) in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def _chain_memo(self) -> dict[int, tuple[tuple[int, ...], int, int, int]]:
        """Memo of `transfer.odd_chains`, filled as one-colored sets are asked for."""
        return {}

    def index_of(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self.edge_index[(u, v)]
        except KeyError:
            raise ValueError(f"{(u, v)} is not an edge") from None

    def serialize(self) -> str:
        lines = [f"{self.n} {self.num_edges}"]
        lines.extend(f"{u} {v}" for (u, v) in self.edges)
        return "\n".join(lines) + "\n"


def _checked_edge(u: int, v: int, n: int, seen, line: int | None = None) -> tuple[int, int]:
    """The edge u-v as (min, max), unless it is a loop, has a label outside 0..n-1 or is in `seen`."""
    if u == v:
        raise GraphFormatError(f"loop at vertex {u}", line)
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(f"label out of range in ({u}, {v})", line)
    edge = (u, v) if u < v else (v, u)
    if edge in seen:
        raise GraphFormatError(f"duplicate edge {edge}", line)
    return edge


def graph_from_edges(n: int, edges) -> Graph:
    """Canonicalize an iterable of (u, v) pairs into a Graph; endpoint order within a pair is irrelevant."""
    seen = set()
    for (u, v) in edges:
        seen.add(_checked_edge(u, v, n, seen))
    return Graph(n, tuple(sorted(seen)))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: first line "n m", then m lines "u v", then only blank lines."""
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise GraphFormatError("missing header line", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("header must be 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("header must be two integers", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header", 1)
    seen = set()
    for lineno in range(2, m + 2):
        if lineno - 1 >= len(lines):
            raise GraphFormatError("unexpected end of input", lineno)
        raw = lines[lineno - 1]
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer label in {raw!r}", lineno) from None
        seen.add(_checked_edge(u, v, n, seen, lineno))
    for lineno, raw in enumerate(lines[m + 1:], start=m + 2):
        if raw.strip():
            raise GraphFormatError(f"unexpected line after the edges: {raw!r}", lineno)
    return Graph(n, tuple(sorted(seen)))


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """splitmix64 stream; fixed forever as the gnp generator PRNG."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _positive(token: str, what: str) -> int:
    try:
        val = int(token)
    except ValueError:
        raise GraphSpecError(f"non-integer {what}: {token!r}") from None
    if val <= 0:
        raise GraphSpecError(f"non-positive {what}: {val}")
    return val


def _cycle(n: int):
    if n < 3:
        raise GraphSpecError("cycle needs n >= 3")
    return n, [(i, (i + 1) % n) for i in range(n)]


def _gnp(n: int, p_num: str, p_den: str, seed: str):
    try:
        p_num, p_den, seed = int(p_num), int(p_den), int(seed)
    except ValueError:
        raise GraphSpecError("gnp parameters must be integers") from None
    if p_den <= 0 or p_num < 0 or p_num > p_den:
        raise GraphSpecError("probability must lie in [0, 1]")
    rng = _splitmix64(seed)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if next(rng) * p_den < p_num << 64]


def _petersen():
    # the outer 5-cycle, its spokes and the inner pentagram
    return 10, [e for i in range(5) for e in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))]


# family: (parameter names, how many leading ones are positive sizes, builder of (n, edges))
_FAMILIES = {
    "path": (("n",), 1, lambda n: (n, [(i, i + 1) for i in range(n - 1)])),
    "cycle": (("n",), 1, _cycle),
    "complete": (("n",), 1, lambda n: (n, [(i, j) for i in range(n) for j in range(i + 1, n)])),
    "kbipartite": (("a", "b"), 2, lambda a, b: (a + b, [(i, a + j) for i in range(a) for j in range(b)])),
    "star": (("n",), 1, lambda n: (n, [(0, i) for i in range(1, n)])),
    "petersen": ((), 0, _petersen),
    "gnp": (("n", "p_num", "p_den", "seed"), 1, _gnp),
}


def generate(spec: str) -> Graph:
    """Deterministic graph families, one row each of `_FAMILIES`.

    Grammar: path:n | cycle:n | complete:n | kbipartite:a:b | star:n |
    petersen | gnp:n:p_num:p_den:seed.  Sizes (n, a, b) are positive
    integers, and cycle needs n >= 3.  gnp draws one splitmix64 value per
    vertex pair (u, v) with u < v in lexicographic order and keeps the edge
    iff draw * p_den < p_num * 2^64, with 0 <= p_num <= p_den.
    """
    family, *params = spec.split(":")
    try:
        names, sizes, build = _FAMILIES[family]
    except KeyError:
        raise GraphSpecError(f"unknown graph family {family!r}") from None
    if len(params) != len(names):
        raise GraphSpecError(f"usage: {':'.join((family, *names))}")
    args = [_positive(p, "size") for p in params[:sizes]] + params[sizes:]
    return graph_from_edges(*build(*args))


def edge_bits(g: Graph, pairs) -> int:
    """Bitset for an iterable of (u, v) endpoint pairs."""
    bits = 0
    for (u, v) in pairs:
        bits |= 1 << g.index_of(u, v)
    return bits


def edge_token(g: Graph, bits: int) -> str:
    """The edges of `bits` as comma-separated `u-v` tokens, as reports and `transfer` print them."""
    return ",".join(f"{u}-{v}" for i, (u, v) in enumerate(g.edges) if bits >> i & 1)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of `data` in hex, from CPython's own digest module.

    `hashlib` would load OpenSSL's `_hashlib`, which costs a `verify --file`
    process a few milliseconds of start-up for one digest.
    """
    try:
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:  # an interpreter built without CPython's digest modules
        from hashlib import sha256
    return sha256(data).hexdigest()


def load_graph(args) -> tuple[Graph, str]:
    """The graph of `--gen` or `--file`, and its report descriptor."""
    if args.gen is not None:
        return generate(args.gen), f"gen:{args.gen}"
    text = Path(args.file).read_text()
    return parse_graph(text), f"file:sha256:{sha256_hex(text.encode())}"
