"""Constructive perturbative solution of the loop equations.

For every canonical moment c and every word w with [wA] = c, the loop
equation of w isolates 8 t2 * m_c, so each order-k coefficient follows from
strictly earlier data: lower-degree series at order k (the factorized left
side) and higher-degree series at order k-1 (the quartic insertions).  At
order 0 only the left side remains, so the Gaussian moments follow from
m_[] = 1 alone.  When several words determine the same moment, all
determinations must agree exactly; that agreement is checked at every order
and is the module's strongest internal invariant.

The recursion runs once, at t2 = 1 and in integers: M[c][k] =
8^(deg c / 2 + 2k) * m_c,k is an integer, and every term of the loop
equation of c at order k carries the same power of 8, so the equation
becomes M = Lhs - 16 Q - 64 Bt with no division.  Every t2 > 0 follows by
homogeneity, m_c,k(t2) = M[c][k] / (8 t2)^(deg c / 2 + 2k); the only
fractions are built from the finished table.

The recursion needs moments of degree up to D + 2K at order 0, one degree
band less per order; the working table is extended internally so any
(D, K) request is closed automatically.  The top band is read only at
order 0, so its insertions are never built and its left sides are dropped
once used.  The equations of each moment come from its rep word at once
(``sde.moment_equations``), not word by word.  The same pair of moments
splits many words, so at each order k >= 1 a pair's convolution
sum_j M[x][j] M[y][k-j] is formed once and every determination that reads
it adds it up; each determination is still summed and compared on its own.
The comparison of these series with the algebraic branch lives beside the
branch's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import MomentSeries, exact_int, positive_t2
from .words import (
    CanonicalMoment,
    canonicalize,
    iter_canonical_moments,
    vanishes_by_parity,
)
from .sde import M2, CoefTag, moment_equations


class InconsistentSystem(ArithmeticError):
    """Two loop equations determined different values for one coefficient."""


def _recipes_for(c: CanonicalMoment, index: dict, with_insertions: bool) -> list[tuple]:
    """One (lhs pairs, +16 t4 insertions, -16 t4 insertions) per word of c.

    Every entry is a row index into the integer table, looked up in
    ``index`` by run tuple.  Without ``with_insertions`` both insertion
    tuples are empty: the top degree band is read only at order 0, where
    the insertions do not enter.
    """
    out = []
    for _, pairs, terms in moment_equations(c.rep_word(), with_insertions):
        out.append((
            tuple([(index[x.runs], index[y.runs]) for x, y in pairs]),
            tuple([index[m.runs] for m, tag in terms if tag is CoefTag.Q]),
            tuple([index[m.runs] for m, tag in terms if tag is CoefTag.QNEG]),
        ))
    return out


@dataclass
class MomentTable:
    """Moment series of every non-parity canonical moment of degree <= D.

    ``enforcement_conflicts`` is empty for the plain recursion; when the
    alternating moment is pinned to zero the constrained system is
    overdetermined and genuinely inconsistent, and each conflicting
    determination is recorded here as (moment, order, values).
    """

    t2: Fraction
    max_degree: int
    order: int
    moments: dict
    enforcement_conflicts: tuple = ()

    def series(self, c: CanonicalMoment | str) -> MomentSeries:
        if not isinstance(c, CanonicalMoment):
            c = canonicalize(c)
        if c.is_empty():
            return MomentSeries.constant(1, self.t2, self.order)
        if vanishes_by_parity(c):
            return MomentSeries.zero(self.t2, self.order)
        if c.degree > self.max_degree:
            raise KeyError(f"{c.label()} has degree {c.degree}, above the table's D = {self.max_degree}")
        return self.moments[c]

    def as_json(self) -> dict:
        return {
            "t2": str(self.t2),
            "max_degree": self.max_degree,
            "order": self.order,
            "moments": {m.label(): s.as_json()["coeffs"] for m, s in sorted(
                self.moments.items(), key=lambda kv: (kv[0].degree, kv[0].runs)
            )},
        }

    def csv_rows(self):
        yield ("moment", "degree", "order", "coefficient")
        for m in sorted(self.moments, key=lambda c: (c.degree, c.runs)):
            for k, coeff in enumerate(self.moments[m].coeffs):
                yield (m.label(), m.degree, k, str(coeff))


def solve_series(D: int, K: int, t2, enforce_vanishing_alternating: bool = False) -> MomentTable:
    """Moment series through degree D and order K at rational t2 > 0.

    With ``enforce_vanishing_alternating`` the moment m_{1,1,1,1} is pinned to the zero
    series and its own equation is skipped; by default the recursion is run
    unmodified and whatever it produces for m_{1,1,1,1} is reported, so the
    vanishing claim can be tested rather than assumed.  The pinned system is
    overdetermined: when its determinations conflict, the first (canonical
    word) one is used and the conflict is recorded on the returned table.
    """
    D, K = exact_int(D, "D"), exact_int(K, "K", 0)
    t2 = positive_t2(t2, "solve_series")
    if type(enforce_vanishing_alternating) is not bool:
        raise ValueError(
            f"enforce_vanishing_alternating must be True or False, got {enforce_vanishing_alternating!r}"
        )
    if D < 2 or D % 2 != 0:
        raise ValueError(f"D must be an even integer >= 2, got {D}")

    degree_cap = [D + 2 * (K - k) for k in range(K + 1)]
    all_moments = [CanonicalMoment(())]
    for d in range(2, degree_cap[0] + 1, 2):
        all_moments.extend(iter_canonical_moments(d))
    # keyed by run tuples, whose hash and equality run in C
    index = {c.runs: i for i, c in enumerate(all_moments)}
    m2 = index[M2.runs]
    pinned = index.get((1, 1, 1, 1)) if enforce_vanishing_alternating else None

    def value(c: CanonicalMoment, k: int, v: int) -> Fraction:
        """Integer table entry v of c at order k, as the coefficient at t2."""
        return v / (8 * t2) ** (c.degree // 2 + 2 * k)

    # M = Lhs - 16 Q - 64 Bt, every term carrying the same power of 8; at
    # order 0 only Lhs remains, built from lower degrees down to m_[] = 1
    rows, recipes, conflicts = [[1] + [0] * K], [None], []
    for k in range(K + 1):
        # each pair's sum over j of M[x][j] M[y][k-j], once per order k >= 1:
        # both halves of a pair are of lower degree, so their rows are final here
        products = {}
        for i, c in enumerate(all_moments[1:], 1):
            if c.degree > degree_cap[k]:
                break
            if k == 0:
                below_top = c.degree < degree_cap[0]
                own = _recipes_for(c, index, below_top)
                rows.append([])
                recipes.append(own if below_top else None)
            else:
                own = recipes[i]
            row = rows[i]
            if i == pinned:
                row.append(0)
                continue
            bitrace = 64 * sum(rows[m2][j] * row[k - 1 - j] for j in range(k))
            values = []
            for pairs, plus, minus in own:
                if k == 0:    # one product per pair: nothing to share, and no dict of the top band's pairs
                    values.append(sum(rows[x][0] * rows[y][0] for x, y in pairs))
                    continue
                det = 0
                for pair in pairs:
                    product = products.get(pair)
                    if product is None:
                        x, y = pair
                        product = products[pair] = sum(rows[x][j] * rows[y][k - j] for j in range(k + 1))
                    det += product
                det -= 16 * (sum(rows[m][k - 1] for m in plus) - sum(rows[m][k - 1] for m in minus))
                values.append(det - bitrace)
            if any(v != values[0] for v in values[1:]):
                at_t2 = tuple(value(c, k, v) for v in values)
                if pinned is None:
                    raise InconsistentSystem(
                        f"order {k} of {c.label()}: determinations disagree: {list(at_t2)}"
                    )
                conflicts.append((c, k, at_t2))
            row.append(values[0])

    kept = {
        c: MomentSeries(t2, [value(c, k, v) for k, v in enumerate(rows[i])])
        for i, c in enumerate(all_moments)
        if 0 < c.degree <= D
    }
    return MomentTable(
        t2=t2, max_degree=D, order=K, moments=kept, enforcement_conflicts=tuple(conflicts)
    )

