"""Exact evaluators for the model's closed-form quantities.

The moment table below is the unique solution of the loop-equation
hierarchy inside the quadratic-surd ansatz, under the closure constraint
m_{1,1,1,1} = 0: we call it the *algebraic branch*.  Its entries satisfy
every generated loop equation with exactly zero residual.  The degree-10
values needed by the degree-7-word equations are completed at runtime: that
linear system is 16 t4 times one integer matrix, reduced over Q once
(``completion_system``), so each point only forms and maps a right side.
Note that the algebraic branch is a different object from the
Gaussian-based perturbative expansion computed by ``solver`` /
``mapenum``: the closure constraint is incompatible with the Gaussian
initial data, so the two agree only through low orders; the degree-8 entries of the branch even carry a simple pole at t4 = 0.
``solver.verify_closed_forms`` quantifies the divergence order by order.

Everything here is exact field arithmetic in Q(s), s = sqrt(t2^2 + 8 t4),
except the free energies, which are plain floating point.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    CouplingPoint,
    MomentSeries,
    SurdScalar,
    exact_int,
    positive_t2,
    rat,
    rational_sqrt,
    surd_expansion,
)
from .words import CanonicalMoment, canonicalize, vanishes_by_parity
from .sde import M2, CoefTag, generate_system


class Signature(enum.Enum):
    """Clifford-module type; fixes the two signs in the full action."""

    S20 = (2, 0)
    S11 = (1, 1)
    S02 = (0, 2)

    @property
    def eps1(self) -> int:
        return {Signature.S20: 1, Signature.S11: 1, Signature.S02: -1}[self]

    @property
    def eps2(self) -> int:
        return {Signature.S20: 1, Signature.S11: -1, Signature.S02: -1}[self]

    @classmethod
    def parse(cls, text) -> "Signature":
        if isinstance(text, Signature):
            return text
        key = str(text).strip().replace(" ", "").strip("()").replace(",", "")
        try:
            return {"20": cls.S20, "11": cls.S11, "02": cls.S02}[key]
        except KeyError:
            raise ValueError(f"unknown signature {text!r}; use 2,0 / 1,1 / 0,2") from None

    def __str__(self):
        return f"({self.value[0]},{self.value[1]})"


DIRAC_INDICES = (2, 4, 6)


@lru_cache(maxsize=None, typed=True)   # typed: 2.0 must reach the check, not the entry of 2
def dirac_trace_polynomial(ell: int, signature: Signature) -> tuple:
    """tr D^ell as ((u, v), c): the sum of c tr(u) tr(v) over least rotations u <= v.

    D = sigma3 x (A x 1 + eps1 1 x A^T) + sigma1 x (B x 1 + eps2 1 x B^T).  On
    each letter string w, tr(sigma_w) = 2 (-1)^(pairs with B before A) when both
    letter counts are even, else 0, and tr(X x Y^T) = tr X tr Y, the letters of
    Y read in reverse; the trace of the empty word is N.
    """
    eps = {"A": signature.eps1, "B": signature.eps2}
    rotation = lambda w: min((w[i:] + w[:i] for i in range(len(w))), default="")
    poly = Counter()
    for w in itertools.product("AB", repeat=_check_ell(ell)):
        if w.count("A") % 2 == 0:
            sign = 2 * (-1) ** sum(w[:i].count("B") for i, x in enumerate(w) if x == "A")
            for right in itertools.product((False, True), repeat=ell):
                u = "".join(x for x, r in zip(w, right) if not r)
                v = "".join(x for x, r in zip(w, right) if r)[::-1]
                poly[tuple(sorted((rotation(u), rotation(v))))] += sign * math.prod(eps[x] for x in v)
    return tuple(sorted((pair, c) for pair, c in poly.items() if c))


# Numerator of each branch moment over DEN * t4^q, as monomials
# (coefficient, t2 power, t4 power, s power in {0, 1}).
_PLAIN = lambda c, i, j: (Fraction(c), i, j, 0)
_SURD = lambda c, i, j: (Fraction(c), i, j, 1)


def _family(c1, c2, c3, cs1, cs2, q, den):
    """Degree-8-style numerator c1 t2^4 + c2 t2^2 t4 + c3 t4^2 - (cs1 t2^3 + cs2 t2 t4) s."""
    return (
        q,
        den,
        (
            _PLAIN(c1, 4, 0),
            _PLAIN(c2, 2, 1),
            _PLAIN(c3, 0, 2),
            _SURD(-cs1, 3, 0),
            _SURD(-cs2, 1, 1),
        ),
    )


def _deg6(c):
    """c * (t2^2 s + 2 t4 s - t2^3 - 6 t2 t4) / (32768 t4^3)."""
    return (
        3,
        32768,
        (
            _PLAIN(-c, 3, 0),
            _PLAIN(-6 * c, 1, 1),
            _SURD(c, 2, 0),
            _SURD(2 * c, 0, 1),
        ),
    )


# moment label -> (q, den, monomials): value = sum(monomials)/(den * t4^q).
# Keys are re-indexed below by the canonical class of each label, so aliases
# such as m_{3,3,1,1} (canonically m_{3,1,1,3}) resolve to the same entry.
_NAMED_FORMS = {
    "m_{2}": (1, 32, (_PLAIN(-1, 1, 0), _SURD(1, 0, 0))),
    "m_{4}": (2, 256, (_PLAIN(1, 2, 0), _PLAIN(4, 0, 1), _SURD(-1, 1, 0))),
    "m_{2,2}": (2, 512, (_PLAIN(1, 2, 0), _PLAIN(4, 0, 1), _SURD(-1, 1, 0))),
    "m_{1,1,1,1}": (0, 1, ()),
    "m_{6}": _deg6(19),
    "m_{4,2}": _deg6(7),
    "m_{2,1,2,1}": _deg6(3),
    "m_{3,1,1,1}": _deg6(1),
    "m_{8}": _family(49, 396, 408, 49, 200, 4, 524288),
    "m_{6,2}": _family(15, 124, 136, 15, 64, 4, 524288),
    "m_{4,4}": _family(11, 92, 104, 11, 48, 4, 524288),
    "m_{2,2,2,2}": _family(9, 76, 88, 9, 40, 4, 524288),
    "m_{4,1,2,1}": _family(5, 44, 56, 5, 24, 4, 524288),
    "m_{3,2,1,2}": _family(5, 44, 56, 5, 24, 4, 524288),
    "m_{2,1,1,2,1,1}": _family(3, 28, 40, 3, 16, 4, 524288),
    "m_{3,1,3,1}": _family(3, 20, 8, 3, 8, 4, 524288),
    "m_{3,3,1,1}": _family(3, 20, 8, 3, 8, 4, 524288),
    "m_{5,1,1,1}": _family(3, 20, 8, 3, 8, 4, 524288),
    "m_{1,1,1,1,1,1,1,1}": _family(3, 20, 8, 3, 8, 4, 524288),
    "m_{2,2,1,1,1,1}": _family(1, 4, -8, 1, 0, 4, 524288),
}


def _build_table() -> dict:
    from .words import parse_moment_label

    table = {}
    for label, form in _NAMED_FORMS.items():
        runs = parse_moment_label(label).runs
        if runs in table and table[runs] != form:
            raise AssertionError(f"conflicting closed forms for class of {label}")
        table[runs] = form
    return table


_MOMENT_TABLE = _build_table()

MAX_TABLE_DEGREE = 8


class UnknownMoment(KeyError):
    """Requested a moment outside the tabulated closed forms."""


class PoleAtGaussianPoint(ArithmeticError):
    """The branch value is not a power series at t4 = 0."""


def _as_surd(runs, point: CouplingPoint) -> SurdScalar:
    q, den, monomials = _MOMENT_TABLE[runs]
    t2, t4 = point.t2, point.t4
    parts = [Fraction(0), Fraction(0)]     # plain part, surd part
    for coef, i, j, sp in monomials:
        parts[sp] += coef * t2**i * t4**j
    scale = den * t4**q
    return SurdScalar(parts[0] / scale, parts[1] / scale, point.ssq)


def moment(c: CanonicalMoment | str, point: CouplingPoint) -> SurdScalar:
    """Exact branch value of a moment of degree <= 8.

    All three signatures share the same leading-order moments.
    """
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    point.require_physical()
    if c.is_empty():
        return SurdScalar(1, 0, point.ssq)
    if vanishes_by_parity(c):
        return SurdScalar(0, 0, point.ssq)
    if c.runs not in _MOMENT_TABLE:
        raise UnknownMoment(
            f"no tabulated closed form for {c.label()} (degree {c.degree} > {MAX_TABLE_DEGREE})"
        )
    return _as_surd(c.runs, point)


def moment_series(c: CanonicalMoment | str, t2, order: int) -> MomentSeries:
    """Exact Taylor expansion of a branch moment in t4, at fixed t2 > 0.

    Raises PoleAtGaussianPoint for entries whose numerator does not vanish
    to order t4^q (all degree-8 branch values have a simple pole).
    """
    t2 = positive_t2(t2, "moment_series")
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    if c.is_empty():
        return MomentSeries.constant(1, t2, order)
    if vanishes_by_parity(c) or c.runs == (1, 1, 1, 1):
        return MomentSeries.zero(t2, order)
    if c.runs not in _MOMENT_TABLE:
        raise UnknownMoment(f"no tabulated closed form for {c.label()}")
    q, den, monomials = _MOMENT_TABLE[c.runs]
    work = order + q
    s = surd_expansion(t2, work)
    num = MomentSeries.zero(t2, work)
    for coef, i, j, sp in monomials:
        piece = MomentSeries.constant(coef * t2**i, t2, work).shift_mul_t4(j)
        if sp:
            piece = piece * s
        num = num + piece
    try:
        shifted = num.divide_t4(q)
    except Exception as exc:
        raise PoleAtGaussianPoint(
            f"{c.label()} branch value has a pole at t4 = 0: {exc}"
        ) from None
    coeffs = list(shifted.coeffs[: order + 1])
    coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return MomentSeries(t2, [x / den for x in coeffs])


# -- degree-10 completion ----------------------------------------------------


@dataclass(frozen=True)
class CompletionSystem:
    """The degree-10 completion 16 t4 M x = rhs, reduced once over Q.

    Every degree-10 moment enters the degree-7-word loop equations with
    coefficient +-16 t4, so M is one integer matrix (a row per equation, a
    column per unknown) and a point changes only the right side.  Reducing
    [M | I] gives ``solve`` (x = solve rhs / (16 t4), free coordinates 0)
    and the left-null rows ``consistency``, which every right side must
    satisfy.
    """

    equations: tuple      # the SdeEquations of the rows
    unknowns: tuple       # the CanonicalMoments of the columns
    solve: tuple          # per unknown: ((row, coefficient), ...); () if free
    consistency: tuple    # per left-null row: ((row, coefficient), ...)

    @property
    def rank(self) -> int:
        return sum(1 for r in self.solve if r)

    @property
    def kernel_dim(self) -> int:
        return len(self.unknowns) - self.rank


@lru_cache(maxsize=None)
def completion_system() -> CompletionSystem:
    """Gauss-Jordan on [M | I] over Q, pivoting on the first nonzero row."""
    eqs = [eq for eq in generate_system(7) if len(eq.source_word) == 7]
    quartic = {CoefTag.Q: 1, CoefTag.QNEG: -1}
    unknowns = sorted({m for eq in eqs for m, t in eq.rhs if t in quartic}, key=lambda m: m.runs)
    if any(m.degree != 10 for m in unknowns):
        raise AssertionError("unexpected low-degree quartic term")
    col = {m: i for i, m in enumerate(unknowns)}
    n, ncols = len(eqs), len(unknowns)
    aug = [[Fraction(0)] * ncols + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, eq in enumerate(eqs):
        for m, tag in eq.rhs:
            if tag in quartic:
                aug[i][col[m]] += quartic[tag]
    pivots = []
    for c in range(ncols):
        prow = len(pivots)
        sel = next((r for r in range(prow, n) if aug[r][c]), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        aug[prow] = [v / aug[prow][c] for v in aug[prow]]
        for r in range(n):
            if r != prow and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(c)
    sparse = lambda row: tuple((j, v) for j, v in enumerate(row[ncols:]) if v)
    solve = [()] * ncols
    for i, c in enumerate(pivots):
        solve[c] = sparse(aug[i])
    return CompletionSystem(tuple(eqs), tuple(unknowns), tuple(solve),
                            tuple(sparse(row) for row in aug[len(pivots):]))


def branch_assignment(point: CouplingPoint) -> dict:
    """Moment values satisfying every loop equation of a word of degree <= 7.

    Degrees <= 8 come from the closed-form table.  The 12 degree-10 moments
    referenced by the degree-7-word equations are completed exactly from
    ``completion_system()``, reduced over Q once: at each point only the
    right sides are formed, checked against its consistency row and mapped
    to the solution.  The system has rank 9, and its 3 free coordinates are
    set to zero, which any residual check is insensitive to.  The table and
    that completion close the equations of words up to degree 7 and no
    further: degree 9 would need degree-12 moments.
    """
    point.require_physical()
    ssq = point.ssq
    vals = {CanonicalMoment(runs): _as_surd(runs, point) for runs in _MOMENT_TABLE}
    system = completion_system()
    one, zero = SurdScalar(1, 0, ssq), SurdScalar(0, 0, ssq)
    c2, bt = 8 * point.t2, vals[M2] * (64 * point.t4)
    rhs = []
    value = lambda m: one if m.is_empty() else vals[m]
    for eq in system.equations:
        acc = sum((value(x) * value(y) for x, y in eq.lhs), zero)
        for m, tag in eq.rhs:
            if tag is CoefTag.C2:
                acc = acc - vals[m] * c2
            elif tag is CoefTag.BT:
                acc = acc - bt * vals[m]
        rhs.append(acc)
    apply = lambda row: sum((rhs[j] * v for j, v in row), zero)
    if any(not apply(row).is_zero() for row in system.consistency):
        raise ArithmeticError("inconsistent completion system")
    for m, row in zip(system.unknowns, system.solve):
        vals[m] = apply(row) * (1 / (16 * point.t4))
    return vals


# -- Dirac moments ------------------------------------------------------------


def _check_ell(ell: int) -> int:
    ell = exact_int(ell, "ell")
    if ell not in DIRAC_INDICES:
        raise ValueError(f"Dirac moment closed forms exist for ell in {DIRAC_INDICES}, got {ell}")
    return ell


def dirac_moment(ell: int, point: CouplingPoint) -> SurdScalar:
    """Exact closed form of the normalized Dirac trace power d_ell."""
    ell = _check_ell(ell)
    point.require_physical()
    t2, t4, ssq = point.t2, point.t4, point.ssq
    s = SurdScalar.s(ssq)
    r = lambda x: SurdScalar.rational(x, ssq)
    if ell == 2:
        return (s - r(t2)) / r(4 * t4)
    if ell == 4:
        return (r(t2 * t2 + 4 * t4) - r(t2) * s) / r(8 * t4 * t4)
    num = r(-(t2**3) - 6 * t2 * t4) + (r(t2 * t2) + r(2 * t4)) * s
    return r(19) * num / r(256 * t4**3)


def dirac_from_words(ell: int, point: CouplingPoint) -> SurdScalar:
    """d_ell from word moments: (1/N^2) tr(u) tr(v) -> m_u m_v over ``dirac_trace_polynomial``.

    m_empty = 1; pairs with a parity-odd moment drop out, and with them every
    signature-dependent sign.  E.g. d_4 = 8 m_4 + 16 m_{2,2} - 8 m_{1,1,1,1} + 32 m_2^2.
    """
    pairs = Counter()
    for (u, v), c in dirac_trace_polynomial(_check_ell(ell), Signature.S20):
        x, y = sorted((canonicalize(u), canonicalize(v)), key=lambda m: m.runs)
        if not (vanishes_by_parity(x) or vanishes_by_parity(y)):
            pairs[x, y] += c
    values = {x: moment(x, point) for x in set().union(*pairs)}
    terms = ((values[x] * values[y] if x.runs else values[y]) * c for (x, y), c in pairs.items())
    return sum(terms, SurdScalar(0, 0, point.ssq))


def rescale_dirac(ell: int, point: CouplingPoint):
    """Evaluate d_ell through the quartic-coupling rescaling identity.

    Returns t4^(-ell/4) * d_ell(t2 / sqrt(t4), 1): exactly (a SurdScalar on
    the same radicand as ``point``) when sqrt(t4) is rational, else as a
    float.  Contract: equals dirac_moment(ell, point).
    """
    ell = _check_ell(ell)
    if point.t4 <= 0:
        raise ValueError("rescale_dirac needs t4 > 0")
    root = rational_sqrt(point.t4)
    if root is not None:
        inner = CouplingPoint(point.t2 / root, 1)
        val = dirac_moment(ell, inner)
        scale = Fraction(1) / root ** (ell // 2)
        # rebase a + b*sqrt(ssq/t4) onto sqrt(ssq)
        return SurdScalar(val.a * scale, val.b * scale / root, point.ssq)
    inner = CouplingPoint(Fraction(point.t2) / Fraction(math.sqrt(float(point.t4))).limit_denominator(10**12), 1)
    approx = dirac_moment(ell, inner).to_float()
    return float(point.t4) ** (-ell / 4) * approx


# -- free energy ---------------------------------------------------------------


def gaussian_free_energy(t2) -> float:
    """Quadratic-ensemble free energy: -5 ln 2 + 2 ln pi - 2 ln t2."""
    t2 = positive_t2(t2, "gaussian_free_energy")
    return -5 * math.log(2) + 2 * math.log(math.pi) - 2 * math.log(float(t2))


def free_energy(point: CouplingPoint) -> float:
    """The published planar free-energy formula, evaluated as printed.

    F = -1/2 + t2/(t2 + s) + ln(pi^2 (t2 + s) / (64 t2^2)).

    Caution: this expression does not satisfy dF/dt4 = -d_4 (its t4
    derivative is +d_4) and its t4 -> 0 limit reproduces the Gaussian free
    energy only at t2 = 1.  ``free_energy_consistent`` is the evaluator that
    satisfies both identities; the two coincide nowhere except by accident.
    """
    t2 = float(positive_t2(point.t2, "free_energy"))
    s = point.s_float()
    arg = math.pi**2 * (t2 + s) / (64 * t2 * t2)
    return -0.5 + t2 / (t2 + s) + math.log(arg)


def free_energy_consistent(point: CouplingPoint) -> float:
    """Planar free energy integrated from the Gaussian base.

    Defined by F(t2, 0) = gaussian_free_energy(t2) and dF/dt4 = -d_4, which
    integrates in closed form to

        F = -1/2 + s/(t2 + s) + ln(pi^2 / (16 t2 (t2 + s))).
    """
    t2 = float(positive_t2(point.t2, "free_energy_consistent"))
    s = point.s_float()
    arg = math.pi**2 / (16 * t2 * (t2 + s))
    return -0.5 + s / (t2 + s) + math.log(arg)


def critical_point(t2) -> Fraction:
    """Quartic coupling where the expected cell count diverges: -t2^2 / 8."""
    t2 = positive_t2(t2, "critical_point")
    return -t2 * t2 / 8


# -- criticality ---------------------------------------------------------------


@dataclass(frozen=True)
class SusceptibilityExpansion:
    """Expansion of d_4(t4) / d_4(critical) in powers of (t4 - critical)^(1/2).

    ``terms`` pairs each half-integer exponent with an exact coefficient in
    Q(sqrt(2)); ``gamma`` is the string susceptibility exponent read off the
    leading half-integer power p as gamma = 1 - p.
    """

    t2: Fraction
    terms: tuple       # ((Fraction exponent, SurdScalar coeff in Q(sqrt 2)), ...)
    gamma: Fraction

    def coefficient(self, exponent) -> SurdScalar:
        e = rat(exponent)
        for exp, coeff in self.terms:
            if exp == e:
                return coeff
        raise KeyError(f"no term with exponent {e}")

    def as_json(self) -> dict:
        return {
            "t2": str(self.t2),
            "gamma": str(self.gamma),
            "terms": [
                {"exponent": str(e), **c.as_json()} for e, c in self.terms
            ],
        }


def susceptibility_expansion(t2, num_terms: int = 4) -> SusceptibilityExpansion:
    """Exact expansion of d_4 / d_4(critical) about the critical coupling.

    Writing u = t4 - critical and v = sqrt(u), the surd collapses to
    sqrt(8) v, so the ratio is a rational function of v with coefficients in
    Q(sqrt 2); dividing the two polynomials exactly yields the series.  The
    leading terms at t2 = 1 are 1, -4 sqrt(2) v, 24 v^2, -64 sqrt(2) v^3.
    """
    t2 = positive_t2(t2, "susceptibility_expansion")
    num_terms = exact_int(num_terms, "num_terms")
    if num_terms < 2:
        raise ValueError("num_terms must be >= 2")
    tc = critical_point(t2)
    two = Fraction(2)
    r = lambda x: SurdScalar.rational(x, two)
    s2 = SurdScalar.s(two)
    zero = r(0)
    # numerator t2^2/2 - 2 sqrt(2) t2 v + 4 v^2, denominator 8 (v^2 + tc)^2 / d4(tc)
    num = [r(t2 * t2 / 2), s2 * (-2 * t2), r(4)] + [zero] * max(0, num_terms - 3)
    den = [r(8 * tc * tc * 4 / (t2 * t2)), zero, r(16 * tc * 4 / (t2 * t2)), zero, r(8 * 4 / (t2 * t2))]
    den += [zero] * max(0, num_terms - len(den))
    inv0 = den[0].inverse()
    series = []
    for k in range(num_terms):
        acc = num[k] if k < len(num) else zero
        for j in range(k):
            acc = acc - series[j] * (den[k - j] if k - j < len(den) else zero)
        series.append(acc * inv0)
    terms = tuple((Fraction(k, 2), series[k]) for k in range(num_terms))
    leading_half = next(
        (e for e, c in terms if e.denominator == 2 and not c.is_zero()), Fraction(1, 2)
    )
    return SusceptibilityExpansion(t2=t2, terms=terms, gamma=1 - leading_half)


# -- exports -------------------------------------------------------------------


def moment_table_rows(point: CouplingPoint):
    """CSV-ready rows (index, degree, a, b, ssq, decimal) of the tabulated moments."""
    yield ("index", "degree", "a", "b", "ssq", "decimal")
    for runs in sorted(_MOMENT_TABLE, key=lambda r: (sum(r), r)):
        c = CanonicalMoment(runs)
        v = moment(c, point)
        yield (c.label(), c.degree, str(v.a), str(v.b), str(v.ssq), v.to_float())


def moment_table_json(point: CouplingPoint) -> list:
    rows = list(moment_table_rows(point))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]
