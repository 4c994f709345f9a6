"""Constructive perturbative solution of the loop equations.

The order-zero moments are Gaussian: non-crossing colour-respecting pairing
counts times the propagator weight 1/(8 t2) per glued edge.  For every
canonical moment c and every word w with [wA] = c, the loop equation of w
isolates 8 t2 * m_c, so each order-k coefficient follows from strictly
earlier data: lower-degree series at order k (the factorized left side) and
higher-degree series at order k-1 (the quartic insertions).  When several
words determine the same moment, all determinations must agree exactly;
that agreement is checked at every order and is the module's strongest
internal invariant.

The recursion needs moments of degree up to D + 2K at order 0, one degree
band less per order; the working table is extended internally so any
(D, K) request is closed automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import MomentSeries, exact_int, rat
from .words import (
    A,
    CanonicalMoment,
    Word,
    canonicalize,
    iter_canonical_moments,
    vanishes_by_parity,
)
from .sde import M2, CoefTag, _equation_terms

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


def gaussian_moment(c: CanonicalMoment | Word | str, t2) -> Fraction:
    """Gaussian (order-zero) moment: pairing count times (8 t2)^(-deg/2)."""
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    if c.is_empty():
        return Fraction(1)
    if vanishes_by_parity(c):
        return ZERO
    t2 = rat(t2)
    count = _noncrossing_pairings(c.rep_word().letters)
    return Fraction(count) / (8 * t2) ** (c.degree // 2)


class InconsistentSystem(ArithmeticError):
    """Two loop equations determined different values for one coefficient."""


@dataclass(frozen=True)
class _Recipe:
    """One word's equation, rearranged to isolate its highest moment."""

    word: Word
    lhs_pairs: tuple        # ((CanonicalMoment, CanonicalMoment), ...)
    insertions: tuple       # ((CanonicalMoment, +-1), ...) the 16 t4 terms
    target: CanonicalMoment


def _recipes_for(c: CanonicalMoment) -> list[_Recipe]:
    """All distinct words w with [wA] = c, each giving one determination."""
    rep = c.rep_word().letters
    seen = set()
    out = []
    for p, letter in enumerate(rep):
        if letter != A:
            continue
        w = rep[p + 1 :] + rep[:p]
        if w in seen:
            continue
        seen.add(w)
        lhs, rhs, _display = _equation_terms(w)
        ins = []
        for m, tag in rhs:
            if tag is CoefTag.Q:
                ins.append((m, 1))
            elif tag is CoefTag.QNEG:
                ins.append((m, -1))
        out.append(_Recipe(Word(w), lhs, tuple(ins), c))
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
    """Moment series through degree D and order K at fixed rational t2 > 0.

    With ``enforce_vanishing_alternating`` the moment m_{1,1,1,1} is pinned to the zero
    series and its own equation is skipped; by default the recursion is run
    unmodified and whatever it produces for m_{1,1,1,1} is reported, so the
    vanishing claim can be tested rather than assumed.  The pinned system is
    overdetermined: when its determinations conflict, the first (canonical
    word) one is used and the conflict is recorded on the returned table.
    """
    D, K = exact_int(D, "D"), exact_int(K, "K")
    t2 = rat(t2)
    if t2 <= 0:
        raise ValueError("solve_series needs t2 > 0")
    if D < 2 or D % 2 != 0:
        raise ValueError("D must be an even integer >= 2")
    if K < 0:
        raise ValueError("K must be >= 0")

    m1111 = CanonicalMoment((1, 1, 1, 1))
    degree_cap = {k: D + 2 * (K - k) for k in range(K + 1)}
    all_moments = []
    for d in range(2, degree_cap[0] + 1, 2):
        all_moments.extend(iter_canonical_moments(d))
    recipes = {c: _recipes_for(c) for c in all_moments}

    table: dict[CanonicalMoment, list[Fraction]] = {}

    def coeff(c: CanonicalMoment, k: int) -> Fraction:
        if k < 0:
            return ZERO
        if c.is_empty():
            return Fraction(1) if k == 0 else ZERO
        if vanishes_by_parity(c):
            return ZERO
        return table[c][k]

    # order 0: Gaussian seed
    for c in all_moments:
        table[c] = [gaussian_moment(c, t2)]
    if enforce_vanishing_alternating:
        table[m1111] = [ZERO]

    def determination(rec: _Recipe, k: int) -> Fraction:
        lhs = ZERO
        for x, y in rec.lhs_pairs:
            for j in range(k + 1):
                lhs += coeff(x, j) * coeff(y, k - j)
        quartic = ZERO
        for m, sign in rec.insertions:
            quartic += sign * coeff(m, k - 1)
        bitrace = ZERO
        for j in range(k):
            bitrace += coeff(M2, j) * coeff(rec.target, k - 1 - j)
        return (lhs - 16 * quartic - 64 * bitrace) / (8 * t2)

    conflicts = []

    # order-zero consistency of the Gaussian seed with every equation
    for c in all_moments:
        if enforce_vanishing_alternating and c == m1111:
            continue
        for rec in recipes[c]:
            det = determination(rec, 0)
            if det != table[c][0]:
                if enforce_vanishing_alternating:
                    conflicts.append((c, 0, (table[c][0], det)))
                    break
                raise InconsistentSystem(
                    f"order 0 of {c.label()} from word {rec.word}: {det} != Gaussian {table[c][0]}"
                )

    for k in range(1, K + 1):
        for d in range(2, degree_cap[k] + 1, 2):
            for c in iter_canonical_moments(d):
                if enforce_vanishing_alternating and c == m1111:
                    table[c].append(ZERO)
                    continue
                values = [determination(rec, k) for rec in recipes[c]]
                if any(v != values[0] for v in values[1:]):
                    if not enforce_vanishing_alternating:
                        raise InconsistentSystem(
                            f"order {k} of {c.label()}: determinations disagree: {values}"
                        )
                    conflicts.append((c, k, tuple(values)))
                table[c].append(values[0])

    kept = {
        c: MomentSeries(t2, coeffs[: K + 1])
        for c, coeffs in table.items()
        if c.degree <= D
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
    """
    from . import closedform

    if table is None:
        table = solve_series(D, K, t2)
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
