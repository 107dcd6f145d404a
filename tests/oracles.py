"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the algorithms of the package under test:
matchings by subset filtering, automorphisms by filtering all permutations,
rank by naive rational Gaussian elimination (dense and sparse-dict forms)
and by dense elimination over F_p in pure Python integers,
the edge-variable identities by expanding polynomials over Fractions,
components by union-find and even parts by a fresh search per union, chain
kinds from vertex degrees, neighbor sets and the single-output map from
those kinds (odd chains sorted by minimum vertex explicitly, the bracket
injection read off segment counts), Φ by one neighbor set per column pair
with a row index over every row pair and its slot identity's witnesses by
each column pair's blue-chain swaps, the f-equivariance scan eagerly
over every group element, the symmetric chains by a bracket walk on
frozensets, and the Boolean levels and up maps by sorting combination sums
and each column's covers.  It also holds
the rational matrices that Φ and the up maps stand for (`ExactMatrix`, made
from a 0/1 pattern with its averaging weights or with ones) and the literal
exact-matrix helpers (dense form, products, permutation matrices, the whole
of Φ as one averaging matrix) that tests state identities with, and two
helpers that only tests use: `enumerate_matchings`, one level of the
library's table, and `subset_inject`, the library's bracket successor on
frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import gcd, lcm

from equimatch.brackets import bracket_successor
from equimatch.exactalg import Pattern
from equimatch.graph import Graph, InternalError
from equimatch.matchings import matching_table
from equimatch.phimap import build_phi


def brute_force_matchings(g: Graph, k: int) -> list[int]:
    """All k-matchings as bitsets by filtering every k-subset of edges."""
    out = []
    for combo in combinations(range(g.num_edges), k):
        verts = set()
        ok = True
        for i in combo:
            u, v = g.edges[i]
            if u in verts or v in verts:
                ok = False
                break
            verts.update((u, v))
        if ok:
            out.append(sum(1 << i for i in combo))
    out.sort()
    return out


def enumerate_matchings(g: Graph, k: int) -> list[int]:
    """All k-matchings of g as bitsets, sorted by bitset value, read off the library's table."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return list(matching_table(g).level(k))


def brute_force_counts(g: Graph) -> list[int]:
    counts = []
    k = 0
    while True:
        c = len(brute_force_matchings(g, k))
        if c == 0:
            break
        counts.append(c)
        k += 1
    return counts


def brute_force_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    edge_set = set(g.edges)
    out = []
    for perm in permutations(range(g.n)):
        if all(
            tuple(sorted((perm[u], perm[v]))) in edge_set for (u, v) in g.edges
        ):
            out.append(perm)
    return sorted(out)


# --- rational matrices from 0/1 patterns, and literal helpers ---


Column = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ExactMatrix:
    nrows: int
    ncols: int
    cols: tuple[Column, ...]  # per column, sorted by row, no zeros

    def __post_init__(self):
        if len(self.cols) != self.ncols:
            raise ValueError("column count mismatch")
        for col in self.cols:
            prev = -1
            for (r, v) in col:
                if not (0 <= r < self.nrows):
                    raise ValueError("row index out of range")
                if r <= prev:
                    raise ValueError("column entries not strictly sorted by row")
                if v == 0:
                    raise ValueError("stored zero entry")
                prev = r


def averaging_matrix(m: Pattern) -> ExactMatrix:
    """The averaging map a 0/1 pattern stands for: column j weighs 1/len on each of its rows."""
    return ExactMatrix(m.nrows, m.ncols, tuple(
        tuple((r, Fraction(1, len(col))) for r in col) for col in m.cols
    ))


def ones_matrix(m: Pattern) -> ExactMatrix:
    """The 0/1 pattern itself as an exact matrix: a 1 at each of its entries."""
    return ExactMatrix(m.nrows, m.ncols, tuple(tuple((r, Fraction(1)) for r in col) for col in m.cols))



@dataclass(frozen=True)
class BasisIndex:
    """Bijection between sorted basis labels and 0-based positions."""

    labels: tuple

    def __post_init__(self):
        if list(self.labels) != sorted(set(self.labels)):
            raise ValueError("labels must be strictly sorted and distinct")

    @cached_property
    def position(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)


def to_dense(m: ExactMatrix) -> list[list[Fraction]]:
    dense = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for (r, v) in col:
            dense[r][c] = v
    return dense


def transpose(m: ExactMatrix) -> ExactMatrix:
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for (r, v) in col:
            rows[r].append((c, v))
    return ExactMatrix(m.ncols, m.nrows, tuple(tuple(r) for r in rows))


def from_entries(nrows: int, ncols: int, entries) -> ExactMatrix:
    """Build from (row, col, value) triples; values are coerced to Fraction."""
    cols: list[dict[int, Fraction]] = [dict() for _ in range(ncols)]
    for (r, c, v) in entries:
        v = Fraction(v)
        if v == 0:
            continue
        acc = cols[c].get(r, Fraction(0)) + v
        if acc == 0:
            cols[c].pop(r, None)
        else:
            cols[c][r] = acc
    return ExactMatrix(
        nrows, ncols, tuple(tuple(sorted(col.items())) for col in cols)
    )


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, tuple(((i, Fraction(1)),) for i in range(n)))


def multiply(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions do not conform")
    cols = []
    for bc in b.cols:
        acc: dict[int, Fraction] = {}
        for (i, v) in bc:
            for (r, w) in a.cols[i]:
                s = acc.get(r, Fraction(0)) + w * v
                if s == 0:
                    acc.pop(r, None)
                else:
                    acc[r] = s
        cols.append(tuple(sorted(acc.items())))
    return ExactMatrix(a.nrows, b.ncols, tuple(cols))


def equals(a: ExactMatrix, b: ExactMatrix) -> bool:
    return a.nrows == b.nrows and a.ncols == b.ncols and a.cols == b.cols


def permutation_matrix(basis: BasisIndex, mapping) -> ExactMatrix:
    """0/1 matrix sending the column of label x to the row of mapping(x)."""
    pos = basis.position
    get = mapping.__getitem__ if hasattr(mapping, "__getitem__") else mapping
    cols = []
    seen = set()
    for lab in basis.labels:
        img = get(lab)
        if img not in pos:
            raise ValueError(f"image {img!r} is not a basis label")
        if img in seen:
            raise ValueError("mapping is not a bijection on the labels")
        seen.add(img)
        cols.append(((pos[img], Fraction(1)),))
    return ExactMatrix(len(basis), len(basis), tuple(cols))


def phi_matrix(phi) -> ExactMatrix:
    """The whole of Φ as one exact matrix, rows and columns in pair order."""
    return averaging_matrix(Pattern(len(phi.row_pairs), phi.columns))


# --- Φ built pair by pair: the oracle for the block-by-block build ---


@dataclass(frozen=True)
class PairPhi:
    """Φ as one neighbor set per column pair, with Fraction weights over every row pair."""

    row_pairs: tuple[tuple[int, int], ...]
    col_pairs: tuple[tuple[int, int], ...]
    columns: tuple[Column, ...]


def phi_by_neighbor_sets(g: Graph, ell: int, k: int, table=None) -> PairPhi:
    """Φ on one slot: `neighbor_pairs` per column, rows looked up in a dict of all row pairs."""
    t = table or matching_table(g)
    col_pairs = tuple((b, p) for b in t.level(ell - 1) for p in t.level(k + 1))
    row_pairs = tuple((b, p) for b in t.level(ell) for p in t.level(k))
    row_index = {pair: i for i, pair in enumerate(row_pairs)}
    columns = []
    for (blue, pink) in col_pairs:
        nbrs = neighbor_pairs(g, blue, pink)
        w = Fraction(1, len(nbrs))
        columns.append(tuple(sorted((row_index[q], w) for q in nbrs)))
    return PairPhi(row_pairs, col_pairs, tuple(columns))


def down_pair_witnesses(g: Graph, ell: int, k: int, table=None) -> list[tuple[int, ...]]:
    """The witnesses of Φ's slot identity on (l, k), walked pair by pair.

    Each (l − 2, k + 2) pair reached from a column pair (blue, pink) by
    swapping a blue chain c, (blue ^ c, pink ^ c), gets the sorted indices of
    the columns that reach it, in order of first reach; chains by `chain_kinds`.
    """
    t = table or matching_table(g)
    downs: dict[tuple[int, int], list[int]] = {}
    for j, (blue, pink) in enumerate((b, p) for b in t.level(ell - 1) for p in t.level(k + 1)):
        for (c, kind, _) in chain_kinds(g, blue, pink):
            if kind == "blue":
                downs.setdefault((blue ^ c, pink ^ c), []).append(j)
    return [tuple(cols) for cols in downs.values()]


def pair_phi_blocks(g: Graph, phi: PairPhi) -> list[tuple[tuple, tuple[int, ...], tuple[int, ...]]]:
    """(key, columns, rows) of every block with a column, sorted by key.

    Keys every row pair, reached or not, so a block's rows are all the rows
    of its key; an entry outside its column's block is an InternalError.
    """
    col_keys = [block_key(g, b, p) for (b, p) in phi.col_pairs]
    row_keys = [block_key(g, b, p) for (b, p) in phi.row_pairs]
    by_key: dict[tuple, tuple[list[int], list[int]]] = {}
    for j, ck in enumerate(col_keys):
        by_key.setdefault(ck, ([], []))[0].append(j)
    for i, rk in enumerate(row_keys):
        if rk in by_key:
            by_key[rk][1].append(i)
    for ck, column in zip(col_keys, phi.columns):
        if any(row_keys[r] != ck for (r, _) in column):
            raise InternalError("nonzero entry escapes its block")
    return [(ck, tuple(cols), tuple(rows)) for ck, (cols, rows) in sorted(by_key.items())]


def pair_phi_block_ranks(g: Graph, phi: PairPhi) -> list[tuple[tuple, int, int]]:
    """(key, columns, rank) per block, each rank by sparse rational elimination."""
    out = []
    for key, cols, rows in pair_phi_blocks(g, phi):
        row_map = {r: i for i, r in enumerate(rows)}
        block = ExactMatrix(len(rows), len(cols), tuple(
            tuple((row_map[r], v) for (r, v) in phi.columns[j]) for j in cols
        ))
        out.append((key, len(cols), rank_gauss_sparse(block)))
    return out


def rank_gauss_dense(m: ExactMatrix) -> int:
    """Naive dense Gaussian elimination over Fractions (first-nonzero pivot)."""
    rows = to_dense(m)
    nr, nc = m.nrows, m.ncols
    rank = 0
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[c]
        for i in range(rank + 1, nr):
            f = rows[i][c]
            if f:
                fi = f * inv
                ri = rows[i]
                for j in range(c, nc):
                    ri[j] -= pr[j] * fi
        rank += 1
        if rank == nr:
            break
    return rank


def rank_gauss_sparse(m: ExactMatrix) -> int:
    """Left-looking sparse rational elimination with min-row pivots.

    Each incoming column is reduced against the stored pivot columns until it
    empties (dependent) or claims an unclaimed minimal row.  Stored pivot
    columns have their pivot at their minimal row, so the reduction strictly
    raises the column's minimal row and terminates.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for col in m.cols:
        cur = {r: v for (r, v) in col}
        while cur:
            r = min(cur)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = cur
                rank += 1
                break
            f = cur[r] / piv[r]
            for rr, vv in piv.items():
                s = cur.get(rr, Fraction(0)) - f * vv
                if s == 0:
                    cur.pop(rr, None)
                else:
                    cur[rr] = s
    return rank


def rank_mod_p(m: ExactMatrix, p: int) -> int:
    """Dense Gaussian elimination over F_p in pure Python integers.

    The matrix is first made integral column by column, as `rank_mod`
    specifies: multiply by the lcm of the column's denominators, then divide
    by the gcd of the resulting entries.
    """
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        scale = lcm(*(v.denominator for (_, v) in col))
        ints = [(r, int(v * scale)) for (r, v) in col]
        g = gcd(*(v for (_, v) in ints))
        for (r, v) in ints:
            rows[r][c] = v // g % p
    nr, nc = m.nrows, m.ncols
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], -1, p)
        for i in range(rank + 1, nr):
            f = rows[i][c] * inv % p
            if f:
                ri = rows[i]
                for j in range(c, nc):
                    ri[j] = (ri[j] - f * pr[j]) % p
        rank += 1
    return rank


# --- edge-variable polynomials: the oracle for polyring's monomial counts ---


class Poly:
    """Immutable polynomial; terms is a dict exponent-tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                if len(exps) != nvars:
                    raise ValueError("exponent vector length mismatch")
                clean[tuple(exps)] = coeff
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + c
        return Poly(self.nvars, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) - c
        return Poly(self.nvars, acc)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Poly(self.nvars, acc)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate_ones(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def negative_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted((e, c) for e, c in self.terms.items() if c < 0)

    def permute_variables(self, perm: tuple[int, ...]) -> "Poly":
        """Variable x_i becomes x_perm[i]."""
        acc = {}
        for exps, c in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[perm[i]] = e
            acc[tuple(new)] = c
        return Poly(self.nvars, acc)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            mono = "*".join(factors) if factors else "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def constant(nvars: int, value=1) -> Poly:
    return Poly(nvars, {tuple([0] * nvars): Fraction(value)})


def monomial_of_bits(g: Graph, bits: int) -> tuple[int, ...]:
    return tuple(1 if bits >> i & 1 else 0 for i in range(g.num_edges))


def pair_monomial(g: Graph, blue: int, pink: int) -> tuple[int, ...]:
    """Exponent vector of the product of both edge monomials; shared edges get 2."""
    return tuple(
        (blue >> i & 1) + (pink >> i & 1) for i in range(g.num_edges)
    )


def poly_of_bitsets(g: Graph, bitsets) -> Poly:
    """Sum of the squarefree monomials of the given edge bitsets, repeats included."""
    terms: dict[tuple, Fraction] = {}
    for bits in bitsets:
        mono = monomial_of_bits(g, bits)
        terms[mono] = terms.get(mono, Fraction(0)) + 1
    return Poly(g.num_edges, terms)


def weighted_matching_poly(g: Graph, k: int) -> Poly:
    """Generating polynomial of the k-matchings (subset filter); one squarefree term each."""
    return poly_of_bitsets(g, brute_force_matchings(g, k))


def pi_map(g: Graph, basis_pairs, coefficients) -> Poly:
    """Linear extension of the pair-to-monomial map.

    `coefficients` is indexed like `basis_pairs`; pairs are (blue, pink)
    bitsets.
    """
    acc: dict[tuple, Fraction] = {}
    for (blue, pink), c in zip(basis_pairs, coefficients):
        c = Fraction(c)
        if c == 0:
            continue
        key = pair_monomial(g, blue, pink)
        acc[key] = acc.get(key, Fraction(0)) + c
    return Poly(g.num_edges, acc)


def nonneg_by_expansion(g: Graph, table, ell: int, k: int) -> tuple[int, list]:
    """Term count and sorted negative terms of m_l*m_k - m_{l-1}*m_{k+1}, expanded.

    The polynomials are those of the table's levels, so a doctored table
    yields negative terms to compare.
    """
    def m(i):
        return poly_of_bitsets(g, table.level(i))

    diff = m(ell) * m(k) - m(ell - 1) * m(k + 1)
    return len(diff.terms), diff.negative_terms()


def diagram_failures_by_pi(g: Graph, phi) -> list[tuple[int, int]]:
    """Column pairs whose monomial differs from the monomial image of their column."""
    failures = []
    for j, (blue, pink) in enumerate(phi.col_pairs):
        direct = pi_map(g, [(blue, pink)], [Fraction(1)])
        column = phi.columns[j]
        through = pi_map(
            g,
            [phi.row_pairs[r] for r in column],
            [Fraction(1, len(column)) for _ in column],
        )
        if direct != through:
            failures.append((blue, pink))
    return failures


# --- permutation helpers the library itself does not need ---


def is_automorphism(g: Graph, sigma: tuple[int, ...]) -> bool:
    if sorted(sigma) != list(range(g.n)):
        return False
    edge_set = set(g.edges)
    return all(tuple(sorted((sigma[u], sigma[v]))) in edge_set for (u, v) in g.edges)


def act_matching(sigma: tuple[int, ...], g: Graph, bits: int) -> int:
    """Image of a matching bitset under a vertex permutation, edge by edge."""
    out = 0
    for i, (u, v) in enumerate(g.edges):
        if bits >> i & 1:
            out |= 1 << g.edge_index[tuple(sorted((sigma[u], sigma[v])))]
    return out


def compose(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma . tau)(v) = sigma(tau(v))."""
    return tuple(sigma[t] for t in tau)


def inverse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def group_closure(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the generators, by a graph search from the identity."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        s = frontier.pop()
        for gen in generators:
            p = compose(gen, s)
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


# --- the f-equivariance scan and the part map, computed eagerly and directly ---


def union_find_components(g: Graph, support: int) -> list[int]:
    """Components of the edge subgraph as edge bitsets, by union-find on vertices."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = [i for i in range(g.num_edges) if support >> i & 1]
    for i in edges:
        u, v = g.edges[i]
        parent[root(u)] = root(v)
    comps: dict[int, int] = {}
    for i in edges:
        r = root(g.edges[i][0])
        comps[r] = comps.get(r, 0) | 1 << i
    return sorted(comps.values(), key=lambda c: c & -c)


def direct_even_part(g: Graph, union: int) -> tuple[int, int]:
    """Even part of a union and its component count, from a fresh component search."""
    bits = count = 0
    for comp in union_find_components(g, union):
        if comp.bit_count() % 2 == 0:
            bits |= comp
            count += 1
    return bits, count


def block_key(g: Graph, blue: int, pink: int) -> tuple[int, int, int]:
    """(union, intersection, blue part of the union's even components): the block of a pair."""
    u = blue | pink
    return (u, blue & pink, blue & direct_even_part(g, u)[0])


def f_counterexample_eager(g: Graph, group, ell: int, k: int):
    """First (sigma, (blue, pink)) with f(sigma.pair) != sigma.f(pair), or None.

    Applies f to every column pair up front and scans every group element,
    the identity included, in sorted order.
    """
    blues = brute_force_matchings(g, ell - 1)
    pinks = brute_force_matchings(g, k + 1)
    pairs = [(b, p) for b in blues for p in pinks]
    images = {pair: f_by_definition(g, *pair) for pair in pairs}
    for sigma in sorted(group):
        for pair in pairs:
            moved = (act_matching(sigma, g, pair[0]), act_matching(sigma, g, pair[1]))
            fp = images[pair]
            moved_f = (act_matching(sigma, g, fp[0]), act_matching(sigma, g, fp[1]))
            if images[moved] != moved_f:
                return (sigma, pair)
    return None


def equivariance_failures_full(g: Graph, phi, elements) -> tuple:
    """(sigma, first column pair where Phi(sigma.x) != sigma.Phi(x)) per failing element.

    Scans every given element in sorted order and compares whole columns as
    maps from row pairs to weights (1/len each), acting edge by edge.
    """
    col_index = {pair: j for j, pair in enumerate(phi.col_pairs)}
    failures = []
    for sigma in sorted(elements):

        def move(pair):
            return (act_matching(sigma, g, pair[0]), act_matching(sigma, g, pair[1]))

        for j, pair in enumerate(phi.col_pairs):
            image = phi.columns[col_index[move(pair)]]
            phi_moved = {phi.row_pairs[r]: Fraction(1, len(image)) for r in image}
            moved_phi = {move(phi.row_pairs[r]): Fraction(1, len(phi.columns[j])) for r in phi.columns[j]}
            if phi_moved != moved_phi:
                failures.append((sigma, pair))
                break
    return tuple(failures)


def atlas_graphs(max_n: int):
    """Every graph of the networkx atlas on 1..max_n vertices, in atlas order."""
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        if 0 < G.number_of_nodes() <= max_n:
            edges = tuple(sorted(tuple(sorted(e)) for e in G.edges()))
            yield Graph(G.number_of_nodes(), edges)


def part_map_is_bijective(g: Graph, ell: int, k: int) -> bool:
    """Check that unioning neighbor sets maps source parts bijectively to target parts."""
    t = matching_table(g)
    if k + 1 > t.r:
        return True
    phi = build_phi(g, ell, k, table=t)
    src_parts: dict[tuple[int, tuple[int, int]], set[tuple[int, int]]] = {}
    for (blue, pink) in phi.col_pairs:
        u = blue | pink
        h = direct_even_part(g, u)[0]
        src_parts.setdefault((u, (blue & h, pink & h)), set()).add((blue, pink))
    tgt_parts: dict[tuple[int, tuple[int, int]], set[tuple[int, int]]] = {}
    for (blue, pink) in phi.row_pairs:
        u = blue | pink
        h = direct_even_part(g, u)[0]
        tgt_parts.setdefault((u, (blue & h, pink & h)), set()).add((blue, pink))
    images = {}
    for key, part in src_parts.items():
        union_of_neighbors: set[tuple[int, int]] = set()
        for (blue, pink) in part:
            union_of_neighbors.update(neighbor_pairs(g, blue, pink))
        # the image must be exactly one target part
        matches = [
            tk
            for tk, tp in tgt_parts.items()
            if tk[0] == key[0] and tp == union_of_neighbors
        ]
        if len(matches) != 1:
            return False
        images[key] = matches[0]
    # injectivity of the part map
    return len(set(images.values())) == len(images)


def chain_kinds(g: Graph, blue: int, pink: int) -> list[tuple[int, str, int]]:
    """(edges, kind, min vertex) of each one-colored component, from vertex degrees."""
    out = []
    for comp in union_find_components(g, blue ^ pink):
        edges = [i for i in range(g.num_edges) if comp >> i & 1]
        deg: dict[int, int] = {}
        for i in edges:
            for v in g.edges[i]:
                deg[v] = deg.get(v, 0) + 1
        ends = {v for v, d in deg.items() if d == 1}
        if not ends:
            kind = "even_cycle"
        elif len(edges) % 2 == 0:
            kind = "even_path"
        else:
            end_edge = next(i for i in edges if set(g.edges[i]) & ends)
            kind = "blue" if blue >> end_edge & 1 else "pink"
        out.append((comp, kind, min(deg)))
    return out


def neighbor_pairs(g: Graph, blue: int, pink: int) -> list[tuple[int, int]]:
    """The pairs obtained by swapping the colors of one pink chain, sorted."""
    return sorted(
        (blue ^ c, pink ^ c) for (c, kind, _) in chain_kinds(g, blue, pink) if kind == "pink"
    )


# --- the Boolean levels and up maps by sorting: the oracles for the colex steps ---


def level_subsets_by_sorting(n: int, i: int) -> list[int]:
    """All i-subsets of [n] as bitsets, each a sum over a combination, sorted."""
    return sorted(
        sum(1 << (x - 1) for x in combo)
        for combo in combinations(range(1, n + 1), i)
    )


def up_map_by_sorting(n: int, i: int) -> Pattern:
    """The level-raising 0/1 pattern, each column's covers looked up and sorted."""
    src = level_subsets_by_sorting(n, i)
    dst = level_subsets_by_sorting(n, i + 1)
    dst_index = {s: j for j, s in enumerate(dst)}
    return Pattern(len(dst), tuple(
        tuple(sorted(dst_index[s | (1 << (x - 1))] for x in range(1, n + 1) if not s >> (x - 1) & 1))
        for s in src
    ))


# --- the bracket walk on frozensets: the oracle for the bitset walk ---


def bits_to_set(bits: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


def set_to_bits(members) -> int:
    return sum(1 << (i - 1) for i in members)


def unmatched_openers_by_positions(n: int, members: int) -> int:
    """The unmatched openers of `members`' bracket word, by a scan of every position 1..n."""
    openers = 0
    for i in range(n):
        bit = 1 << i
        if members & bit:
            if openers:
                openers ^= 1 << openers.bit_length() - 1
        else:
            openers |= bit
    return openers


def bracket_successor_by_sets(n: int, members: frozenset[int]) -> frozenset[int] | None:
    """Add the leftmost unmatched opener; a member is a closer, a non-member an opener.

    A stack of the openers' positions, scanned over 1..n.
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


def symmetric_chains_by_sets(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The chain family from level i to level n-i, walked through frozensets."""
    chains = []
    for combo in combinations(range(1, n + 1), i):
        members = frozenset(combo)
        chain = [set_to_bits(members)]
        while len(members) < n - i:
            members = bracket_successor_by_sets(n, members)
            chain.append(set_to_bits(members))
        chains.append(tuple(chain))
    return tuple(sorted(chains))


def subset_inject(n: int, members) -> frozenset[int]:
    """The library's bracket successor as an injection of b-subsets of [n] into (b+1)-subsets.

    Requires 2*|members| < n so that an unmatched opener is guaranteed.
    """
    members = frozenset(members)
    if any(not (1 <= i <= n) for i in members):
        raise ValueError("members must lie in 1..n")
    if 2 * len(members) >= n:
        raise ValueError("need 2*|S| < n")
    result = bracket_successor(n, set_to_bits(members))
    if result is None:
        raise InternalError("no unmatched opener although 2*|S| < n")
    return bits_to_set(result)


def f_by_definition(g: Graph, blue: int, pink: int) -> tuple[int, int]:
    """The single-output map: sort the odd chains by minimum vertex; the blue
    ones are closers ")" and the pink ones openers "(" of a bracket word; swap
    the leftmost opener that no closer matches.

    Opener i is unmatched iff every segment from i onwards holds more
    openers than closers.  Needs fewer blue than pink chains.
    """
    odd = sorted(
        (low, c, kind) for (c, kind, low) in chain_kinds(g, blue, pink) if kind in ("blue", "pink")
    )
    kinds = [kind for (_, _, kind) in odd]
    for i, kind in enumerate(kinds):
        if kind != "pink":
            continue
        height = 0
        for later in kinds[i:]:
            height += 1 if later == "pink" else -1
            if height == 0:
                break
        else:
            c = odd[i][1]
            return (blue ^ c, pink ^ c)
    raise ValueError("every pink chain is matched: need fewer blue than pink chains")
