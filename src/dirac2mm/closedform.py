"""Exact evaluators for the model's closed-form quantities.

The moment table below is the unique solution of the loop-equation
hierarchy inside the quadratic-surd ansatz, under the closure constraint
m_{1,1,1,1} = 0: we call it the *algebraic branch*.  Its entries satisfy
every generated loop equation with exactly zero residual.  The degree-10
values needed by the degree-7-word equations are completed at runtime: that
linear system is 16 t4 times one integer matrix, whose reduction over Q is
stored as a literal (``completion_system``), so each point only forms and
maps a right side.
Note that the algebraic branch is a different object from the
Gaussian-based perturbative expansion computed by ``solver`` /
``mapenum``: the closure constraint is incompatible with the Gaussian
initial data, so the two agree only through low orders; the degree-8 entries of the branch even carry a simple pole at t4 = 0.
``verify_closed_forms`` quantifies the divergence order by order.  Every
closed-form value, a moment or a d_ell, is one integer form read by ``_as_surd``.

On the branch d_4 = 4 / (t2 + s)^2.  At the critical coupling -t2^2 / 8 the
surd vanishes, and s = sqrt(8 (t4 - critical)) makes the leading correction
to d_4 a (t4 - critical)^(1/2) term, so gamma = 1/2
(``susceptibility_expansion``).

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
    float_range,
    positive_t2,
    rat,
    rational_sqrt,
)
from .words import (
    CanonicalMoment,
    _cycle_necklace,
    canonicalize,
    iter_canonical_moments,
    parse_moment_label,
    vanishes_by_parity,
)
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


@lru_cache(maxsize=None, typed=True)   # typed: 2.0 must reach the check, not the entry of 2
def dirac_trace_polynomial(ell: int, signature: Signature) -> tuple:
    """tr D^ell as ((u, v), c): the sum of c tr(u) tr(v) over least rotations u <= v.

    D = sigma3 x (A x 1 + eps1 1 x A^T) + sigma1 x (B x 1 + eps2 1 x B^T).  On
    each letter string w, tr(sigma_w) = 2 (-1)^(pairs with B before A) when both
    letter counts are even, else 0, and tr(X x Y^T) = tr X tr Y, the letters of
    Y read in reverse; the trace of the empty word is N.
    """
    eps = {"A": signature.eps1, "B": signature.eps2}
    poly = Counter()
    for w in itertools.product("AB", repeat=_check_ell(ell)):
        if w.count("A") % 2 == 0:
            sign = 2 * (-1) ** sum(w[:i].count("B") for i, x in enumerate(w) if x == "A")
            for right in itertools.product((False, True), repeat=ell):
                u = "".join(x for x, r in zip(w, right) if not r)
                v = "".join(x for x, r in zip(w, right) if r)[::-1]
                poly[tuple(sorted((_cycle_necklace(u), _cycle_necklace(v))))] += sign * math.prod(eps[x] for x in v)
    return tuple(sorted((pair, c) for pair, c in poly.items() if c))


# Numerator of each branch moment over DEN * t4^q, as monomials
# (coefficient, t2 power, t4 power, s power in {0, 1}).
_PLAIN = lambda c, i, j: (c, i, j, 0)
_SURD = lambda c, i, j: (c, i, j, 1)


def _family(c1, c2, c3, cs1, cs2):
    """(c1 t2^4 + c2 t2^2 t4 + c3 t4^2 - (cs1 t2^3 + cs2 t2 t4) s) / (524288 t4^4)."""
    return (
        4,
        524288,
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
    "m_{8}": _family(49, 396, 408, 49, 200),
    "m_{6,2}": _family(15, 124, 136, 15, 64),
    "m_{4,4}": _family(11, 92, 104, 11, 48),
    "m_{2,2,2,2}": _family(9, 76, 88, 9, 40),
    "m_{4,1,2,1}": _family(5, 44, 56, 5, 24),
    "m_{3,2,1,2}": _family(5, 44, 56, 5, 24),
    "m_{2,1,1,2,1,1}": _family(3, 28, 40, 3, 16),
    "m_{3,1,3,1}": _family(3, 20, 8, 3, 8),
    "m_{3,3,1,1}": _family(3, 20, 8, 3, 8),
    "m_{5,1,1,1}": _family(3, 20, 8, 3, 8),
    "m_{1,1,1,1,1,1,1,1}": _family(3, 20, 8, 3, 8),
    "m_{2,2,1,1,1,1}": _family(1, 4, -8, 1, 0),
}


_MOMENT_TABLE = {parse_moment_label(label).runs: form for label, form in _NAMED_FORMS.items()}
_TABLE_MOMENTS = tuple(CanonicalMoment(runs) for runs in _MOMENT_TABLE)
_ONE = (0, 1, (_PLAIN(1, 0, 0),))
_ZERO = (0, 1, ())

# ell -> the form of d_ell: (s - t2)/(4 t4), (t2^2 + 4 t4 - t2 s)/(8 t4^2) and
# 19 (t2^2 s + 2 t4 s - t2^3 - 6 t2 t4)/(256 t4^3)
_DIRAC_FORMS = {
    2: (1, 4, (_PLAIN(-1, 1, 0), _SURD(1, 0, 0))),
    4: (2, 8, (_PLAIN(1, 2, 0), _PLAIN(4, 0, 1), _SURD(-1, 1, 0))),
    6: _deg6(19 * 128),
}
DIRAC_INDICES = tuple(_DIRAC_FORMS)

MAX_TABLE_DEGREE = 8


class UnknownMoment(KeyError):
    """Requested a moment outside the tabulated closed forms."""


class PoleAtGaussianPoint(ArithmeticError):
    """The branch value is not a power series at t4 = 0."""


@lru_cache(maxsize=16)
def _powers_at(point: CouplingPoint) -> tuple:
    """(powers, scales) at ``point``, in integers, formed once.

    With t2 = n2/m2, t4 = n4/m4 and I, J the largest exponents of the
    moment and Dirac tables, powers[i, j] = t2^i t4^j m2^I m4^J, and
    scales[q] = (m4^q, m2^I m4^J n4^q), so a numerator summed over
    ``powers`` times m4^q over den * scales[q][1] is the form's value.
    """
    forms = [*_MOMENT_TABLE.values(), *_DIRAC_FORMS.values()]
    pairs = {(i, j) for _, _, monomials in forms for _, i, j, _ in monomials}
    qs = {q for q, _, _ in forms}
    (n2, m2), (n4, m4) = point.t2.as_integer_ratio(), point.t4.as_integer_ratio()
    I, J = max(i for i, _ in pairs), max(j for _, j in pairs)
    powers = {(i, j): n2**i * m2 ** (I - i) * n4**j * m4 ** (J - j) for i, j in pairs}
    return powers, {q: (m4**q, m2**I * m4**J * n4**q) for q in qs}


def _as_surd(form, point: CouplingPoint) -> SurdScalar:
    """The value of a (q, den, monomials) form at ``point``."""
    q, den, monomials = form
    powers, scales = _powers_at(point)
    x = y = 0     # plain part, surd part: integers, as the table's coefficients are
    for coef, i, j, sp in monomials:
        if sp:
            y += coef * powers[i, j]
        else:
            x += coef * powers[i, j]
    up, down = scales[q]
    return SurdScalar._from_ints(
        x.numerator * y.denominator * up, y.numerator * x.denominator * up,
        x.denominator * y.denominator * den * down, point.ssq,
    )


def _form(c: CanonicalMoment) -> tuple:
    """The form of c's class: 1 for m_empty, 0 for a parity-odd class, else the table's."""
    if c.is_empty():
        return _ONE
    if vanishes_by_parity(c):
        return _ZERO
    form = _MOMENT_TABLE.get(c.runs)
    if form is not None:
        return form
    beyond = f" (degree {c.degree} > {MAX_TABLE_DEGREE})" if c.degree > MAX_TABLE_DEGREE else ""
    raise UnknownMoment(f"no tabulated closed form for {c.label()}{beyond}")


def moment(c: CanonicalMoment | str, point: CouplingPoint) -> SurdScalar:
    """Exact branch value of a moment of degree <= 8.

    All three signatures share the same leading-order moments.
    """
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    point.require_physical()
    return _as_surd(_form(c), point)


def moment_series(c: CanonicalMoment | str, t2, order: int) -> MomentSeries:
    """Exact Taylor expansion of a branch moment in t4, at fixed t2 > 0.

    The surd is the binomial series s = t2 sqrt(1 + 8 t4 / t2^2), with
    s_0 = t2 and s_n = s_{n-1} (3 - 2n) 4 / (n t2^2); the numerator is summed
    monomial by monomial against it and divided by den t4^q.  Raises
    PoleAtGaussianPoint for entries whose numerator does not vanish to order
    t4^q (all degree-8 branch values have a simple pole).
    """
    t2 = positive_t2(t2, "moment_series")
    order = exact_int(order, "order", 0)
    if not isinstance(c, CanonicalMoment):
        c = canonicalize(c)
    q, den, monomials = _form(c)
    work = order + q
    s = [t2]
    for n in range(1, work + 1):
        s.append(s[-1] * (3 - 2 * n) * 4 / (n * t2 * t2))
    num = [Fraction(0)] * (work + 1)
    for coef, i, j, sp in monomials:
        scale = coef * t2**i
        if sp:
            for k in range(j, work + 1):
                num[k] += scale * s[k - j]
        elif j <= work:
            num[j] += scale
    for k, x in enumerate(num[:q]):
        if x:
            raise PoleAtGaussianPoint(
                f"{c.label()} branch value has a pole at t4 = 0: series has nonzero "
                f"coefficient {x} at order {k}; not divisible by t4^{q}"
            )
    return MomentSeries(t2, [x / den for x in num[q:]])


@dataclass(frozen=True)
class VerifyRecord:
    """Comparison of one solver series against one closed-form expansion."""

    moment: CanonicalMoment
    ok: bool
    first_mismatch: int | None
    solver_coeffs: tuple
    closed_coeffs: tuple | None
    detail: str = ""


def verify_closed_forms(table) -> list[VerifyRecord]:
    """Compare a perturbative solution, a ``solver.MomentTable``, against the closed-form branch.

    Every closed form is Taylor-expanded exactly (the surd by its binomial
    series) at the table's t2 and order, and compared
    coefficient by coefficient with each of the table's moments through its
    degree, or through the closed forms' ``MAX_TABLE_DEGREE`` if
    that is lower.  Mismatches are reported as data, including the first
    diverging order; closed forms that are not power series at t4 = 0 (the
    degree-8 branch values have a simple pole) are flagged as such.
    """
    records = []
    for d in range(2, min(table.max_degree, MAX_TABLE_DEGREE) + 1, 2):
        for c in iter_canonical_moments(d):
            solver_coeffs = tuple(table.series(c).coeffs)
            try:
                closed = moment_series(c, table.t2, table.order)
            except PoleAtGaussianPoint as exc:
                records.append(VerifyRecord(c, False, None, solver_coeffs, None, detail=str(exc)))
                continue
            closed_coeffs = tuple(closed.coeffs)
            pairs = enumerate(zip(solver_coeffs, closed_coeffs))
            mismatch = next((k for k, (a, b) in pairs if a != b), None)
            detail = "" if mismatch is None else (
                f"first divergence at order {mismatch}: "
                f"solver {solver_coeffs[mismatch]} vs closed form {closed_coeffs[mismatch]}"
            )
            records.append(VerifyRecord(c, mismatch is None, mismatch, solver_coeffs, closed_coeffs, detail))
    return records


# -- degree-10 completion ----------------------------------------------------


@dataclass(frozen=True)
class CompletionSystem:
    """The degree-10 completion 16 t4 M x = rhs, reduced over Q.

    Every degree-10 moment enters the degree-7-word loop equations with
    coefficient +-16 t4, so M is one integer matrix (a row per equation, a
    column per unknown) and a point changes only the right side.  Reducing
    [M | I] gives ``solve`` (x = solve rhs / (16 t4), free coordinates 0)
    and the left-null rows ``consistency``, which every right side must
    satisfy.  The reduction does not depend on the point, so it is stored
    as a literal.
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


# The reduction of [M | I] over Q, which the tests re-derive by Gauss-Jordan
# elimination: each unknown's runs with 10 x its row of ``solve`` over the
# ten equations, () for a free coordinate, and 10 x the one left-null row.
_COMPLETION_SOLVE = (
    ((3, 1, 3, 3), (4, 2, -2, 0, 0, 2, -4, 2, 0, 2)),
    ((3, 2, 3, 2), (6, -2, 2, 0, 20, -12, 4, -2, 10, -2)),
    ((4, 1, 2, 3), (-1, 2, -2, 0, -10, 7, -4, 2, 0, 2)),
    ((4, 1, 4, 1), (0, 0, 10, 0, 20, -10, 0, 10, 0, 10)),
    ((5, 1, 1, 3), (1, -2, 2, 0, -10, 3, 4, -2, 0, -2)),
    ((5, 1, 3, 1), (-2, 4, 6, 0, 10, -6, 2, 4, 0, 4)),
    ((5, 2, 1, 2), ()),
    ((6, 1, 2, 1), (-1, 2, -2, 0, 0, -3, 6, -8, 0, 2)),
    ((6, 4), (1, -2, 2, 0, 0, 3, 4, -2, 0, -2)),
    ((7, 1, 1, 1), (0, 0, 0, 0, 0, 0, 0, -10, 0, 0)),
    ((8, 2), ()),
    ((10,), ()),
)
_COMPLETION_CONSISTENCY = ((0, 0, -10, 10, 10, 0, -10, 0, 0, 0),)


@lru_cache(maxsize=None)
def completion_system() -> CompletionSystem:
    """The system of the degree-7-word equations, read off the stored reduction."""
    sparse = lambda row: tuple((j, Fraction(v, 10)) for j, v in enumerate(row) if v)
    return CompletionSystem(
        tuple(eq for eq in generate_system(7) if len(eq.source_word) == 7),
        tuple(CanonicalMoment(runs) for runs, _ in _COMPLETION_SOLVE),
        tuple(sparse(row) for _, row in _COMPLETION_SOLVE),
        tuple(sparse(row) for row in _COMPLETION_CONSISTENCY),
    )


def branch_assignment(point: CouplingPoint) -> dict:
    """Moment values satisfying every loop equation of a word of degree <= 7.

    Degrees <= 8 come from the closed-form table.  The 12 degree-10 moments
    referenced by the degree-7-word equations are completed exactly from
    ``completion_system()``, whose reduction over Q is stored: at each point
    only the right sides are formed, checked against its consistency row and
    mapped to the solution, each as one fused sum of products.  The factor
    1/(16 t4) is folded into the right sides' three coefficients once per
    point, so the rows keep their point-free rational coefficients.  The
    system has rank 9, and its 3 free coordinates are set to zero, which
    any residual check is insensitive to.  The table and that completion
    close the equations of words up to degree 7 and no further: degree 9
    would need degree-12 moments.
    """
    point.require_physical()
    ssq, t2, t4 = point.ssq, point.t2, point.t4
    vals = {m: _as_surd(_MOMENT_TABLE[m.runs], point) for m in _TABLE_MOMENTS}
    system = completion_system()
    # right side over 16 t4: (lhs - 8 t2 m_[WA] - 64 t4 m_2 m_[WA]) / (16 t4)
    scale, c2, bt = 1 / (16 * t4), -t2 / (2 * t4), -4
    value = lambda m: None if m.is_empty() else vals[m]
    rhs = []
    for eq in system.equations:
        terms = [(scale, value(x), value(y)) for x, y in eq.lhs]
        for m, tag in eq.rhs:
            if tag is CoefTag.C2:
                terms.append((c2, vals[m], None))
            elif tag is CoefTag.BT:
                terms.append((bt, vals[M2], vals[m]))
        rhs.append(SurdScalar.sum_of_products(terms, ssq))
    apply = lambda row: SurdScalar.sum_of_products([(v, rhs[j], None) for j, v in row], ssq)
    if any(not apply(row).is_zero() for row in system.consistency):
        raise ArithmeticError("inconsistent completion system")
    for m, row in zip(system.unknowns, system.solve):
        vals[m] = apply(row)
    return vals


# -- Dirac moments ------------------------------------------------------------


def _check_ell(ell: int) -> int:
    ell = exact_int(ell, "ell")
    if ell not in DIRAC_INDICES:
        raise ValueError(f"Dirac moment closed forms exist for ell in {DIRAC_INDICES}, got {ell}")
    return ell


def dirac_moment(ell: int, point: CouplingPoint) -> SurdScalar:
    """Exact closed form of the normalized Dirac trace power d_ell, read off its table form."""
    ell = _check_ell(ell)
    point.require_physical()
    return _as_surd(_DIRAC_FORMS[ell], point)


@lru_cache(maxsize=None)
def _dirac_word_sum(ell: int) -> tuple:
    """(runs, terms) of d_ell's word sum, formed once per ell.

    Each term (c, i, j) is c m_x m_y for the tabulated moments runs[i] and
    runs[j], index -1 standing for m_empty = 1; the pairs of
    ``dirac_trace_polynomial`` are canonicalized and merged, and those
    with a parity-odd moment or a zero coefficient drop out.
    """
    pairs = Counter()
    for (u, v), c in dirac_trace_polynomial(ell, Signature.S20):
        x, y = sorted((canonicalize(u), canonicalize(v)), key=lambda m: m.runs)
        if not (vanishes_by_parity(x) or vanishes_by_parity(y)):
            pairs[x.runs, y.runs] += c
    runs = sorted({r for pair in pairs for r in pair if r})
    index = {r: i for i, r in enumerate(runs)} | {(): -1}
    return tuple(runs), tuple((c, index[x], index[y]) for (x, y), c in pairs.items() if c)


def dirac_from_words(ell: int, point: CouplingPoint) -> SurdScalar:
    """d_ell from word moments: (1/N^2) tr(u) tr(v) -> m_u m_v over ``dirac_trace_polynomial``.

    m_empty = 1; pairs with a parity-odd moment drop out, and with them every
    signature-dependent sign.  E.g. d_4 = 8 m_4 + 16 m_{2,2} - 8 m_{1,1,1,1} + 32 m_2^2.
    At a point the sum is one fused sum of products of table values.
    """
    runs, terms = _dirac_word_sum(_check_ell(ell))
    point.require_physical()
    values = [_as_surd(_MOMENT_TABLE[r], point) for r in runs] + [None]
    return SurdScalar.sum_of_products([(c, values[i], values[j]) for c, i, j in terms], point.ssq)


def rescale_dirac(ell: int, point: CouplingPoint):
    """Evaluate d_ell through the quartic-coupling rescaling identity.

    Returns t4^(-ell/4) * d_ell(t2 / sqrt(t4), 1): exactly (a SurdScalar on
    the same radicand as ``point``) when sqrt(t4) is rational, else as a
    float.  Contract: equals dirac_moment(ell, point).
    """
    ell = _check_ell(ell)
    point.require_physical()
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
    float_range("gaussian_free_energy", both=[("t2^2", t2 * t2)])
    return -5 * math.log(2) + 2 * math.log(math.pi) - 2 * math.log(float(t2))


def _float_point(point: CouplingPoint, who: str) -> tuple[float, float]:
    """(t2, s) as floats, refused outside the range where the free energies evaluate in floats."""
    t2 = positive_t2(point.t2, who)
    float_range(who, both=[("t2^2", t2 * t2)], upper=[("t2^2 + 8 t4", point.ssq)])
    return float(t2), point.s_float()


def free_energy(point: CouplingPoint) -> float:
    """The published planar free-energy formula, evaluated as printed.

    F = -1/2 + t2/(t2 + s) + ln(pi^2 (t2 + s) / (64 t2^2)).

    Caution: this expression does not satisfy dF/dt4 = -d_4 (its t4
    derivative is +d_4) and its t4 -> 0 limit reproduces the Gaussian free
    energy only at t2 = 1.  ``free_energy_consistent`` is the evaluator that
    satisfies both identities; the two coincide nowhere except by accident.
    """
    t2, s = _float_point(point, "free_energy")
    arg = math.pi**2 * (t2 + s) / (64 * t2 * t2)
    return -0.5 + t2 / (t2 + s) + math.log(arg)


def free_energy_consistent(point: CouplingPoint) -> float:
    """Planar free energy integrated from the Gaussian base.

    Defined by F(t2, 0) = gaussian_free_energy(t2) and dF/dt4 = -d_4, which
    integrates in closed form to

        F = -1/2 + s/(t2 + s) + ln(pi^2 / (16 t2 (t2 + s))).
    """
    t2, s = _float_point(point, "free_energy_consistent")
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


def susceptibility_expansion(t2, num_terms: int = 4) -> SusceptibilityExpansion:
    """Exact expansion of d_4 / d_4(critical) about the critical coupling.

    On the branch d_4 = 4 / (t2 + s)^2, and s = 0 at the critical coupling.
    Writing v = sqrt(t4 - critical), s = sqrt(8) v, so the ratio is
    1 / (1 + sqrt(8) v / t2)^2, whose v^n coefficient is
    (n + 1) (-sqrt(8) / t2)^n = (n + 1) (-2 / t2)^n 2^(n/2), in Q(sqrt 2).
    The leading terms at t2 = 1 are 1, -4 sqrt(2) v, 24 v^2, -64 sqrt(2) v^3.
    """
    t2 = positive_t2(t2, "susceptibility_expansion")
    terms = []
    for n in range(exact_int(num_terms, "num_terms", 2)):
        c = (n + 1) * (-2 / t2) ** n * 2 ** (n // 2)
        terms.append((Fraction(n, 2), SurdScalar(0, c, 2) if n % 2 else SurdScalar(c, 0, 2)))
    leading_half = next(
        (e for e, c in terms if e.denominator == 2 and not c.is_zero()), Fraction(1, 2)
    )
    return SusceptibilityExpansion(t2=t2, terms=tuple(terms), gamma=1 - leading_half)


# -- exports -------------------------------------------------------------------


def moment_table_rows(point: CouplingPoint):
    """CSV-ready rows (index, degree, a, b, ssq, decimal) of the tabulated moments.

    An unphysical point is refused before the header row is yielded.
    """
    point.require_physical()
    yield ("index", "degree", "a", "b", "ssq", "decimal")
    for runs in sorted(_MOMENT_TABLE, key=lambda r: (sum(r), r)):
        c = CanonicalMoment(runs)
        v = moment(c, point)
        yield (c.label(), c.degree, str(v.a), str(v.b), str(v.ssq), v.to_float())
