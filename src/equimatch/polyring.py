"""Edge-variable identities, checked on integer monomial counts.

Matching polynomials are squarefree, so the edge monomial of a pair
(M, M') is fixed by its union and intersection bitsets: the exponent of
edge i is bit i of the union plus bit i of the intersection.  The
nonnegativity difference and the commuting diagram therefore reduce to
counting pairs per (union, intersection) key, with no polynomial
arithmetic.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import InternalError
from .graph import Graph
from .matchings import MatchingTable, matching_table
from .phimap import PhiMatrix, build_phi
from .transfer import odd_chains

MonomialKey = tuple[int, int]  # (union, intersection) of a pair of matchings


def _key_counts(pairs) -> Counter:
    """Number of pairs per monomial key, i.e. the product of two matching polynomials."""
    return Counter((b | p, b & p) for (b, p) in pairs)


def _exponents(g: Graph, key: MonomialKey) -> tuple[int, ...]:
    """Exponent vector of the monomial a key stands for; shared edges get 2."""
    union, inter = key
    return tuple((union >> i & 1) + (inter >> i & 1) for i in range(g.num_edges))


class NonnegReport(namedtuple("NonnegReport", "ell k term_count violations")):
    """The matching-polynomial difference of one slot; `violations` lists its
    negative terms as (exponents, coefficient), sorted."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_nonneg(
    g: Graph, ell: int, k: int, table: MatchingTable | None = None
) -> NonnegReport:
    """Expand m_l*m_k - m_{l-1}*m_{k+1} in edge variables; all coefficients >= 0?

    The coefficient of a monomial is the number of (l, k) pairs with its key
    minus the number of (l-1, k+1) pairs with it.  Every top count is
    positive, so only a bottom key can cancel a term or go negative, and
    one pass over the bottom product's keys finds both.
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    top = _key_counts(t.pairs(ell, k))
    terms = len(top)
    violations = []
    for key, c in _key_counts(t.pairs(ell - 1, k + 1)).items():
        coeff = top.get(key, 0) - c
        if coeff == 0:
            terms -= 1
        elif coeff < 0:
            terms += key not in top
            violations.append((_exponents(g, key), coeff))
    return NonnegReport(ell, k, terms, tuple(sorted(violations)))


class DiagramReport(namedtuple("DiagramReport", "ell k columns failures")):
    """The diagram check of one slot; `failures` lists the offending column pairs."""

    __slots__ = ()

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

    With monomials as (union, intersection) keys this holds exactly when
    every neighbor row of a column keeps the column's key and the column's
    weights sum to 1.  A column's weights are 1/len on each of its rows, so
    they sum to 1 whenever the column has a row.  As the one scan that
    decodes every reached row, it also raises `InternalError` for a row that
    keeps the key but not the column's blue edges on the union's even part
    (the one-colored set's, in the chain memo): Φ is then not block diagonal.
    """
    t = table or matching_table(g)
    t.check_slot(ell, k)
    phi = phi or build_phi(g, ell, k, table=t)
    row_blues, row_pinks = t.level(ell), t.level(k)
    m_k = len(row_pinks)
    failures = []
    for (blue, pink), column in zip(t.pairs(ell - 1, k + 1), phi.columns):
        union, inter = blue | pink, blue & pink
        even = odd_chains(g, blue ^ pink)[2]
        kept = bool(column)
        for r in column:
            b, p = row_blues[r // m_k], row_pinks[r % m_k]
            if b | p != union or b & p != inter:
                kept = False
            elif (b ^ blue) & even:
                raise InternalError("nonzero entry escapes its block")
        if not kept:
            failures.append((blue, pink))
    return DiagramReport(ell, k, len(phi.columns), tuple(failures))
