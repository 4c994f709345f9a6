"""Constructive perturbative solution of the loop equations.

For every canonical moment c and every word w with [wA] = c, the loop
equation of w isolates 8 t2 * m_c, so each order-k coefficient follows from
strictly earlier data: lower-degree series at order k (the factorized left
side) and higher-degree series at order k-1 (the quartic insertions).  At
order 0 only the left side remains, so the Gaussian moments follow from
m_[] = 1 alone; ``gaussian_moment`` (non-crossing pairing counts) is kept as
the independent reference for them.  When several words determine the same
moment, all determinations must agree exactly; that agreement is checked at
every order and is the module's strongest internal invariant.

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
once used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import MomentSeries, exact_int, positive_t2, rat
from .words import (
    A,
    CanonicalMoment,
    canonicalize,
    iter_canonical_moments,
    vanishes_by_parity,
)
from .sde import M2, CoefTag, insertions, lhs_pairs

ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _noncrossing_pairings(letters: str) -> int:
    """Number of non-crossing pairings of a letter string matching colours."""
    n = len(letters)
    if n == 0:
        return 1
    if n % 2 != 0:
        return 0
    total = 0
    first = letters[0]
    for j in range(1, n, 2):
        if letters[j] == first:
            total += _noncrossing_pairings(letters[1:j]) * _noncrossing_pairings(letters[j + 1 :])
    return total


def gaussian_moment(c: CanonicalMoment | str, t2) -> Fraction:
    """Gaussian (order-zero) moment: pairing count times (8 t2)^(-deg/2)."""
    t2 = positive_t2(t2, "gaussian_moment")
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    if c.is_empty():
        return Fraction(1)
    if vanishes_by_parity(c):
        return ZERO
    count = _noncrossing_pairings(c.rep_word())
    return Fraction(count) / (8 * t2) ** (c.degree // 2)


class InconsistentSystem(ArithmeticError):
    """Two loop equations determined different values for one coefficient."""


def _recipe_words(c: CanonicalMoment):
    """The distinct words w with [wA] = c, each giving one determination."""
    rep = c.rep_word()
    seen = set()
    for p, letter in enumerate(rep):
        w = rep[p + 1 :] + rep[:p]
        if letter == A and w not in seen:
            seen.add(w)
            yield w


def _recipes_for(c: CanonicalMoment, index: dict, with_insertions: bool) -> list[tuple]:
    """One (lhs pairs, +16 t4 insertions, -16 t4 insertions) per word of c.

    Every entry is a row index into the integer table.  Without
    ``with_insertions`` both insertion tuples are empty: the top degree
    band is read only at order 0, where the insertions do not enter.
    """
    out = []
    for w in _recipe_words(c):
        pairs = tuple((index[x], index[y]) for x, y in lhs_pairs(w))
        terms = insertions(w) if with_insertions else ()
        plus = tuple(index[m] for m, tag in terms if tag is CoefTag.Q)
        minus = tuple(index[m] for m, tag in terms if tag is CoefTag.QNEG)
        out.append((pairs, plus, minus))
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
        return self.moments[c]

    def coefficient(self, c, k: int) -> Fraction:
        return self.series(c).coefficient(k)

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
    D, K = exact_int(D, "D"), exact_int(K, "K")
    t2 = positive_t2(t2, "solve_series")
    if D < 2 or D % 2 != 0:
        raise ValueError("D must be an even integer >= 2")
    if K < 0:
        raise ValueError("K must be >= 0")

    degree_cap = [D + 2 * (K - k) for k in range(K + 1)]
    all_moments = [CanonicalMoment(())]
    for d in range(2, degree_cap[0] + 1, 2):
        all_moments.extend(iter_canonical_moments(d))
    index = {c: i for i, c in enumerate(all_moments)}
    m2 = index[M2]
    pinned = index.get(CanonicalMoment((1, 1, 1, 1))) if enforce_vanishing_alternating else None

    def value(c: CanonicalMoment, k: int, v: int) -> Fraction:
        """Integer table entry v of c at order k, as the coefficient at t2."""
        return v / (8 * t2) ** (c.degree // 2 + 2 * k)

    # M = Lhs - 16 Q - 64 Bt, every term carrying the same power of 8; at
    # order 0 only Lhs remains, built from lower degrees down to m_[] = 1
    rows, recipes, conflicts = [[1] + [0] * K], [None], []
    for k in range(K + 1):
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
                det = sum(rows[x][j] * rows[y][k - j] for x, y in pairs for j in range(k + 1))
                if k:
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


@dataclass(frozen=True)
class VerifyRecord:
    """Comparison of one solver series against one closed-form expansion."""

    moment: CanonicalMoment
    ok: bool
    first_mismatch: int | None
    solver_coeffs: tuple
    closed_coeffs: tuple | None
    detail: str = ""


def verify_closed_forms(D: int, K: int, t2, table: MomentTable | None = None) -> list[VerifyRecord]:
    """Compare the perturbative solution against the closed-form branch.

    Every closed form is Taylor-expanded exactly (surd expanded via the
    series square root) and compared coefficient by coefficient with the
    solver output.  Mismatches are reported as data, including the first
    diverging order; closed forms that are not power series at t4 = 0
    (the degree-8 branch values have a simple pole) are flagged as such.
    A given ``table`` must be the solution for exactly this (D, K, t2).
    """
    from . import closedform

    if table is None:
        table = solve_series(D, K, t2)
    elif (table.max_degree, table.order, table.t2) != (D, K, rat(t2)):
        raise ValueError(
            f"table solves D = {table.max_degree}, K = {table.order}, t2 = {table.t2}, "
            f"not the requested D = {D}, K = {K}, t2 = {rat(t2)}"
        )
    records = []
    for d in range(2, D + 1, 2):
        for c in iter_canonical_moments(d):
            solver_coeffs = tuple(table.series(c).coeffs)
            try:
                closed = closedform.moment_series(c, t2, K)
            except closedform.PoleAtGaussianPoint as exc:
                records.append(
                    VerifyRecord(c, False, None, solver_coeffs, None, detail=str(exc))
                )
                continue
            closed_coeffs = tuple(closed.coeffs)
            mismatch = None
            for k, (a, b) in enumerate(zip(solver_coeffs, closed_coeffs)):
                if a != b:
                    mismatch = k
                    break
            ok = mismatch is None
            records.append(
                VerifyRecord(
                    c,
                    ok,
                    mismatch,
                    solver_coeffs,
                    closed_coeffs,
                    detail="" if ok else (
                        f"first divergence at order {mismatch}: "
                        f"solver {solver_coeffs[mismatch]} vs closed form {closed_coeffs[mismatch]}"
                    ),
                )
            )
    return records
