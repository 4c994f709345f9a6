"""Exact arithmetic substrates: rationals, the quadratic surd field, and
truncated power series.

Every closed-form quantity of the quartic 2-matrix model lives in the real
quadratic extension Q(s) with s**2 = t2**2 + 8*t4.  ``SurdScalar`` implements
that field exactly, never approximately: a value a + b*s is kept as integers
(p + q*s)/d over one denominator, and its components a and b read as
Fractions.  Values are combined in integers in one place only, the sum of
products sum of c*x*y (``SurdScalar.sum_of_products``): it is accumulated
in integers and reduced by a single gcd at the end.  ``+``, ``-`` and ``*``
are sums of one or two terms, and loop-equation residuals, the degree-10
completion and the Dirac word sums are each one sum at a point.
``MomentSeries`` holds the coefficients of a power series in the quartic
coupling t4, truncated at some order, at a fixed rational t2: the value in
which the perturbative solver, the map enumerator and the closed forms'
Taylor expansions are compared coefficient by coefficient.  It has no ring
operations; whoever builds a series computes its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Integral, Rational


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats-free input to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"cannot read {x!r} as a rational: its denominator is zero") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def exact_int(x, name: str, low: int | None = None) -> int:
    """An integer argument as int; bools, non-integers and values below ``low`` are refused."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if low is not None and x < low:
        raise ValueError(f"{name} must be >= {low}, got {x}")
    return x


def positive_t2(t2, who: str) -> Fraction:
    """t2 as a Fraction; the model's Gaussian weight needs t2 > 0."""
    t2 = rat(t2)
    if t2 <= 0:
        raise ValueError(f"{who} needs t2 > 0, got {t2}")
    return t2


def float_range(who: str, both=(), upper=()) -> None:
    """Refuse, before any float conversion, a (label, value) of ``both`` outside
    [1e-300, 1e300] or of ``upper`` above 1e300; the message names every bound."""
    if all(Fraction(1, 10**300) <= v <= 10**300 for _, v in both) and all(v <= 10**300 for _, v in upper):
        return
    bounds = [f"1e-300 <= {label} <= 1e300" for label, _ in both] + [f"{label} <= 1e300" for label, _ in upper]
    raise ValueError(f"{who} needs {' and '.join(bounds)} to evaluate in floats")


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    p, d = q.numerator, q.denominator
    rp, rd = math.isqrt(p), math.isqrt(d)
    if rp * rp == p and rd * rd == d:
        return Fraction(rp, rd)
    return None


@dataclass(frozen=True)
class CouplingPoint:
    """A pair of real coupling constants (t2, t4), stored exactly."""

    t2: Fraction
    t4: Fraction

    def __init__(self, t2, t4):
        object.__setattr__(self, "t2", rat(t2))
        object.__setattr__(self, "t4", rat(t4))

    @cached_property     # kept in the instance __dict__, outside the compared fields
    def ssq(self) -> Fraction:
        """Radicand t2**2 + 8*t4 of the surd field attached to this point."""
        return self.t2 * self.t2 + 8 * self.t4

    @cached_property
    def _hash(self) -> int:
        return hash((self.t2, self.t4))

    def __hash__(self):
        """The dataclass hash of (t2, t4), computed once: points key the per-point caches."""
        return self._hash

    def require_real_surd(self) -> None:
        if self.ssq < 0:
            raise ValueError(f"t2^2 + 8 t4 = {self.ssq} < 0: surd is not real")

    def require_physical(self) -> None:
        if self.t2 <= 0 or self.t4 <= 0:
            raise ValueError(f"physical evaluation needs t2 > 0 and t4 > 0, got {self}")

    def s_float(self) -> float:
        self.require_real_surd()
        return math.sqrt(float(self.ssq))

    def __repr__(self):
        return f"CouplingPoint(t2={self.t2}, t4={self.t4})"


class RadicandMismatch(ValueError):
    """Raised when mixing surd values built over different radicands."""


_FLOAT_SAFE_BITS = 512    # |a|, |b|, ssq within 2^(+-512): a + b*s is a normal float
_ROOT_BITS = 130          # isqrt(u v 4^k) carries at least this many bits


class SurdScalar:
    """Exact element a + b*s of Q(s), with s**2 equal to the fixed ``ssq``.

    The value is held as integers (p + q*s)/d over one denominator, reduced
    so that gcd(p, q, d) = 1 and d > 0; ``a``, ``b`` and ``ssq`` read as
    Fractions.  The radicand travels with the value, so scalars built at
    different coupling points cannot be combined silently.  When ``ssq``
    happens to be a perfect rational square the representation is redundant
    ((3, 0) and (0, 1) both denote 3 when ssq = 9); equality and inversion
    reduce to the canonical rational form first.  ``sum_of_products``
    evaluates a whole sum of c*x*y in integers with one gcd at the end; it
    holds the field's only sum and product formulas, and ``+``, ``-`` and
    ``*`` call it with one or two terms.
    """

    __slots__ = ("_p", "_q", "_d", "_ssq", "_u", "_v")

    def __init__(self, a, b, ssq):
        a = a if type(a) is Fraction else rat(a)
        b = b if type(b) is Fraction else rat(b)
        ssq = rat(ssq)
        self._ssq, self._u, self._v = ssq, ssq.numerator, ssq.denominator
        da, db = a.denominator, b.denominator
        self._reduce(a.numerator * db, b.numerator * da, da * db)

    def _reduce(self, p: int, q: int, d: int) -> "SurdScalar":
        g = math.gcd(p, q, d)
        if d < 0:
            g = -g
        if g != 1:
            p, q, d = p // g, q // g, d // g
        self._p, self._q, self._d = p, q, d
        return self

    @classmethod
    def _from_ints(cls, p: int, q: int, d: int, ssq: Fraction) -> "SurdScalar":
        """(p + q*s)/d over the radicand ``ssq``, reduced; d != 0."""
        x = object.__new__(cls)
        x._ssq, x._u, x._v = ssq, ssq.numerator, ssq.denominator
        return x._reduce(p, q, d)

    @classmethod
    def sum_of_products(cls, terms, ssq) -> "SurdScalar":
        """The sum of c*x*y over ``terms`` of (c, x, y), reduced once.

        c is a rational that ``rat`` reads; x and y are SurdScalars over
        ``ssq``, or None for 1.  The sum is accumulated as integers
        (P + Q*s)/D, a denominator multiplied in only where it differs from
        D, and reduced by one gcd at the end, so a term costs a few integer
        products.
        """
        ssq = rat(ssq)
        u, v = ssq.numerator, ssq.denominator
        P, Q, D = 0, 0, 1
        for c, x, y in terms:
            if x is None:
                x, y = y, None
            if type(c) is not int and type(c) is not Fraction:
                c = rat(c)
            if x is None:
                p, q, d = c.numerator, 0, c.denominator
            else:
                if x._ssq is not ssq and x._ssq != ssq:
                    raise RadicandMismatch(f"radicands differ: {ssq} vs {x._ssq}")
                if y is None:
                    p, q, d = x._p, x._q, x._d
                else:
                    if y._ssq is not ssq and y._ssq != ssq:
                        raise RadicandMismatch(f"radicands differ: {ssq} vs {y._ssq}")
                    # the one product formula of the field, with ssq = u/v
                    p1, q1, p2, q2 = x._p, x._q, y._p, y._q
                    p, q, d = p1 * p2 * v + q1 * q2 * u, (p1 * q2 + q1 * p2) * v, x._d * y._d * v
                n = c.numerator
                if n != 1:
                    p, q = p * n, q * n
                d *= c.denominator
            if d == D:
                P, Q = P + p, Q + q
            else:
                P, Q, D = P * d + p * D, Q * d + q * D, D * d
        return cls._from_ints(P, Q, D, ssq)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value, ssq) -> "SurdScalar":
        return cls(value, 0, ssq)

    @classmethod
    def s(cls, ssq) -> "SurdScalar":
        return cls(0, 1, ssq)

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of s."""
        return Fraction(self._q, self._d)

    @property
    def ssq(self) -> Fraction:
        """The radicand s**2."""
        return self._ssq

    # -- canonical form -----------------------------------------------

    def reduced(self) -> "SurdScalar":
        """Fold b*s into the rational part when s itself is rational."""
        if self._q == 0:
            return self
        r = rational_sqrt(self._ssq)
        if r is None:
            return self
        e = r.denominator
        return self._from_ints(self._p * e + self._q * r.numerator, 0, self._d * e, self._ssq)

    def rational_value(self) -> Fraction:
        red = self.reduced()
        if red._q != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(red._p, red._d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        term = (1, other, None) if isinstance(other, SurdScalar) else (other, None, None)
        return SurdScalar.sum_of_products(((1, self, None), term), self._ssq)

    def __neg__(self):
        return self._from_ints(-self._p, -self._q, self._d, self._ssq)

    def __sub__(self, other):
        term = (-1, other, None) if isinstance(other, SurdScalar) else (-rat(other), None, None)
        return SurdScalar.sum_of_products(((1, self, None), term), self._ssq)

    def __mul__(self, other):
        term = (1, self, other) if isinstance(other, SurdScalar) else (other, self, None)
        return SurdScalar.sum_of_products((term,), self._ssq)

    def _norm_numerator(self) -> int:
        return self._p * self._p * self._v - self._q * self._q * self._u

    def norm(self) -> Fraction:
        """Field norm a**2 - b**2 * ssq."""
        return Fraction(self._norm_numerator(), self._d * self._d * self._v)

    def inverse(self) -> "SurdScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd value")
        n = self._norm_numerator()
        if n == 0:
            # only possible when ssq is a rational square; divide in Q
            v = self.rational_value()
            return self._from_ints(v.denominator, 0, v.numerator, self._ssq)
        dv = self._d * self._v
        return self._from_ints(self._p * dv, -self._q * dv, n, self._ssq)

    def __truediv__(self, other):
        """self * other.inverse(); the radicands are compared before the inversion."""
        if not isinstance(other, SurdScalar):
            other = SurdScalar.rational(other, self._ssq)
        elif other._ssq is not self._ssq and other._ssq != self._ssq:
            raise RadicandMismatch(f"radicands differ: {self._ssq} vs {other._ssq}")
        return self * other.inverse()

    # -- comparisons & conversions --------------------------------------

    def is_zero(self) -> bool:
        if self._q == 0:
            return self._p == 0
        red = self.reduced()
        return red._p == 0 and red._q == 0

    def __eq__(self, other):
        """Equality of values.

        A rational value equals the same int, Fraction or rational SurdScalar
        over any radicand; an irrational one equals only itself over an equal
        radicand.  Anything else is NotImplemented, so Python answers False.
        """
        if isinstance(other, SurdScalar):
            y = other.reduced()
        elif isinstance(other, (int, Fraction)):
            y = self._from_ints(other.numerator, 0, other.denominator, self._ssq)
        else:
            return NotImplemented
        x = self.reduced()
        if x._q or y._q:
            return x._q == y._q and x._p == y._p and x._d == y._d and x._ssq == y._ssq
        return x._p == y._p and x._d == y._d

    def __hash__(self):
        red = self.reduced()
        if red._q == 0:
            return hash(Fraction(red._p, red._d))     # as the equal int or Fraction
        return hash((red.a, red.b, self._ssq))

    def to_float(self) -> float:
        """The float nearest a + b*s, within a few ulp.

        When a and b have the same sign and lie, with ssq, well inside the
        float range, this is a + b*sqrt(ssq) in floats.  Otherwise s is
        bracketed by r / (v 2^k) with r = isqrt(u v 4^k) of at least 130
        bits, and when a and b have opposite signs the value is taken as the
        exact norm over the conjugate a - b*s, so nothing cancels; one
        integer division rounds the result.
        """
        p, q, d, u, v = self._p, self._q, self._d, self._u, self._v
        if u < 0:
            raise ValueError("negative radicand has no real value")
        cancels = p * q < 0
        if not cancels and all(
            abs(n.bit_length() - m.bit_length()) < _FLOAT_SAFE_BITS for n, m in ((p, d), (q, d), (u, v)) if n
        ):
            return p / d + q / d * math.sqrt(u / v)
        w = u * v
        k = max(0, _ROOT_BITS - w.bit_length() // 2)
        r, e = math.isqrt(w << 2 * k), v << k        # r/e <= s < (r + 1)/e
        if cancels:
            num, den = self._norm_numerator() << k, d * (p * e - q * r)
        else:
            num, den = p * e + q * r, d * e
        try:
            x = num / den
            if x or not num:
                return x
        except OverflowError:
            pass
        raise ValueError("a nonzero value outside the float range 5e-324 <= |x| <= 1.8e308 has no float")

    def __repr__(self):
        red = self.reduced()
        if red._q == 0:
            return f"{red.a}"
        sign = "+" if red._q >= 0 else "-"
        return f"({red.a} {sign} {abs(red.b)}*sqrt({red._ssq}))"


class TruncationError(ValueError):
    """Raised when a series coefficient beyond its truncation order is asked for."""


@dataclass(frozen=True)
class MomentSeries:
    """Truncated power series sum(coeffs[k] * t4**k, k=0..order) at fixed t2.

    Asking for a coefficient beyond the truncation raises instead of
    silently reporting zero.
    """

    t2: Fraction
    coeffs: tuple
    # order == len(coeffs) - 1; kept explicit for clarity in dumps

    def __init__(self, t2, coeffs):
        object.__setattr__(self, "t2", rat(t2))
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, t2, order: int) -> "MomentSeries":
        return cls(t2, (rat(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, t2, order: int) -> "MomentSeries":
        return cls.constant(0, t2, order)

    def coefficient(self, k: int) -> Fraction:
        if exact_int(k, "k", 0) > self.order:
            raise TruncationError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_json(self) -> dict:
        return {"t2": str(self.t2), "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"MomentSeries(t2={self.t2}; [{terms}])"

