"""Multivariate polynomials in edge variables, exactly.

Terms map fixed-length exponent tuples (one slot per edge index) to exact
coefficients.  Houses the weighted matching polynomials, the monomial map on
tensor bases, the nonnegativity difference, and the commuting-diagram check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .matchings import MatchingTable, enumerate_matchings, matching_table
from .phimap import PhiMatrix, build_phi


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


def weighted_matching_poly(g: Graph, k: int) -> Poly:
    """Generating polynomial of the k-matchings; one squarefree term each."""
    terms = {
        monomial_of_bits(g, bits): Fraction(1)
        for bits in enumerate_matchings(g, k)
    }
    return Poly(g.num_edges, terms)


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


@dataclass(frozen=True)
class NonnegReport:
    ell: int
    k: int
    term_count: int
    violations: tuple[tuple[tuple, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_nonneg(
    g: Graph, ell: int, k: int, table: MatchingTable | None = None
) -> NonnegReport:
    """Expand m_l*m_k - m_{l-1}*m_{k+1} in edge variables; all coefficients >= 0?"""
    t = table or matching_table(g)
    if not (1 <= ell <= k <= t.r):
        raise ValueError(f"(ell, k) = ({ell}, {k}) out of range for r = {t.r}")
    diff = weighted_matching_poly(g, ell) * weighted_matching_poly(g, k) - (
        weighted_matching_poly(g, ell - 1) * weighted_matching_poly(g, k + 1)
    )
    return NonnegReport(ell, k, len(diff.terms), tuple(diff.negative_terms()))


@dataclass(frozen=True)
class DiagramReport:
    ell: int
    k: int
    columns: int
    failures: tuple[tuple[int, int], ...]  # offending column pairs

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_diagram(
    g: Graph,
    ell: int,
    k: int,
    table: MatchingTable | None = None,
    phi: PhiMatrix | None = None,
) -> DiagramReport:
    """Monomial image of each column equals the monomial of its input pair.

    Each neighbor pair preserves union and intersection, so its monomial is
    the input's monomial; the column's p weights of 1/p must sum back to 1.
    The check computes both sides exactly and compares.
    """
    t = table or matching_table(g)
    if k + 1 > t.r:
        return DiagramReport(ell, k, 0, ())
    phi = phi or build_phi(g, ell, k, table=t)
    failures = []
    for j, (blue, pink) in enumerate(phi.col_pairs):
        direct = pi_map(g, [(blue, pink)], [Fraction(1)])
        through = pi_map(
            g,
            [phi.row_pairs[r] for (r, _) in phi.columns[j]],
            [v for (_, v) in phi.columns[j]],
        )
        if direct != through:
            failures.append((blue, pink))
    return DiagramReport(ell, k, len(phi.col_pairs), tuple(failures))
