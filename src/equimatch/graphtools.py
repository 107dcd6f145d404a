"""The commands that show one graph: `gen`, `count`, `aut` and `transfer`.

`cli.run` imports this module only for these four commands, so `verify`
and `batch` never compile it, nor the code that only these commands read:
the edge-token parser, the full chain decomposition with a named kind for
every component (`decompose`), the neighbor set of one (blue, pink) tuple
of matchings, and the numeric log-concavity of the matching numbers.
Φ's build reads the same chains through `transfer.odd_chains`, which
`neighbor_set` reads too.  These commands in turn compile none of the
`verify` side (`graphcli`, `phimap`, `polyring`, `gram`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from pathlib import Path

from .autgroup import automorphisms
from .cli import write_stdout
from .graph import Graph, edge_bits, edge_token, generate, load_graph
from .matchings import MatchingTable, is_matching, matching_table
from .transfer import chain_walk, krattenthaler_f, odd_chains

BLUE_CHAIN = "blue"
PINK_CHAIN = "pink"
EVEN_PATH = "even_path"
EVEN_CYCLE = "even_cycle"


class ChainComponent(namedtuple("ChainComponent", "edges kind")):
    __slots__ = ()


class ChainDecomposition(namedtuple("ChainDecomposition", "components")):
    __slots__ = ()

    @property
    def b(self) -> int:
        return sum(1 for c in self.components if c.kind == BLUE_CHAIN)

    @property
    def p(self) -> int:
        return sum(1 for c in self.components if c.kind == PINK_CHAIN)


def decompose(g: Graph, pair: tuple[int, int]) -> ChainDecomposition:
    """Check that both sides are matchings and name the kind of every component.

    Components are listed by minimum edge index; p - b always equals
    |pink| - |blue|.  Colors alternate along a component of two matchings,
    so its cycles are even and both end edges of an odd chain share a color.
    """
    blue, pink = pair
    if not (is_matching(g, blue) and is_matching(g, pink)):
        raise ValueError("both sides of the pair must be matchings")
    comps = []
    for comp, end in chain_walk(g, blue ^ pink):
        if comp.bit_count() % 2:
            kind = PINK_CHAIN if pink & end else BLUE_CHAIN
        else:
            kind = EVEN_PATH if end else EVEN_CYCLE
        comps.append(ChainComponent(comp, kind))
    return ChainDecomposition(tuple(comps))


def neighbor_set(g: Graph, pair: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """All pairs obtained by swapping exactly one pink chain, sorted.

    Swapping chain c gives (blue ^ c, pink ^ c).  The pair is trusted to be
    two matchings, as in `transfer.odd_chains`.
    """
    blue, pink = pair
    chains, ends = odd_chains(g, blue ^ pink)[:2]
    return tuple(sorted((blue ^ c, pink ^ c) for c in chains if pink & ends & c))


def check_numeric_logconcavity(t: MatchingTable) -> list[tuple[int, int, int]]:
    """All (l, k, slack) triples with slack = m_l*m_k - m_{l-1}*m_{k+1}, in slot order."""
    return [(l, k, t.m(l) * t.m(k) - t.m(l - 1) * t.m(k + 1)) for (l, k) in t.slots]


def logconcavity_violations(t: MatchingTable) -> list[tuple[int, int, int]]:
    return [trip for trip in check_numeric_logconcavity(t) if trip[2] < 0]


def _parse_matching_tokens(g: Graph, text: str) -> int:
    if not text.strip():
        return 0
    pairs = []
    for tok in text.split(","):
        m = re.fullmatch(r"\s*(\d+)-(\d+)\s*", tok)
        if not m:
            raise ValueError(f"bad edge token {tok!r}; expected 'u-v'")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return edge_bits(g, pairs)


def cmd_gen(args) -> int:
    g = generate(args.spec)
    text = g.serialize()
    if args.output:
        Path(args.output).write_text(text)
    else:
        write_stdout(text)
    return 0


def cmd_count(args) -> int:
    g, _ = load_graph(args)
    t = matching_table(g)
    write_stdout(f"m = {list(t.counts)}\n")
    write_stdout(f"r = {t.r}\n")
    bad = logconcavity_violations(t)
    for (ell, k, slack) in bad:
        write_stdout(f"log-concavity VIOLATED at (l, k) = ({ell}, {k}): slack {slack}\n")
    if bad:
        return 1
    write_stdout(f"log-concavity: all {t.r * (t.r + 1) // 2} slacks nonnegative\n")
    return 0


def cmd_aut(args) -> int:
    g, _ = load_graph(args)
    group = automorphisms(g)
    write_stdout(f"order = {group.order}\n")
    for sigma in group:
        write_stdout(" ".join(map(str, sigma)) + "\n")
    return 0


def cmd_transfer(args) -> int:
    g, _ = load_graph(args)
    blue = _parse_matching_tokens(g, args.blue)
    pink = _parse_matching_tokens(g, args.pink)
    dec = decompose(g, (blue, pink))
    if args.kratt and blue.bit_count() >= pink.bit_count():
        raise ValueError("--kratt needs |blue| < |pink|: f maps (l-1, k+1) pairs")
    write_stdout(f"blue = [{edge_token(g, blue)}]  pink = [{edge_token(g, pink)}]\n")
    write_stdout(f"two-colored = [{edge_token(g, blue & pink)}]\n")
    for comp in dec.components:
        write_stdout(f"component [{edge_token(g, comp.edges)}]: {comp.kind}\n")
    write_stdout(f"b = {dec.b}, p = {dec.p}\n")
    for (b, p) in neighbor_set(g, (blue, pink)):
        write_stdout(f"neighbor: blue=[{edge_token(g, b)}] pink=[{edge_token(g, p)}]\n")
    if args.kratt:
        b, p = krattenthaler_f(g, (blue, pink))
        write_stdout(f"f: blue=[{edge_token(g, b)}] pink=[{edge_token(g, p)}]\n")
    return 0
