"""Exact arithmetic substrates: rationals, the quadratic surd field, and
truncated power series.

Every closed-form quantity of the quartic 2-matrix model lives in the real
quadratic extension Q(s) with s**2 = t2**2 + 8*t4.  ``SurdScalar`` implements
that field with arbitrary-precision rational components, so equality checks
in the test suite are exact, never approximate.  ``MomentSeries`` holds the
coefficients of a power series in the quartic coupling t4, truncated at some
order, at a fixed rational t2: the value in which the perturbative solver,
the map enumerator and the closed forms' Taylor expansions are compared
coefficient by coefficient.  It has no ring operations; whoever builds a
series computes its coefficients.
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


def exact_int(x, name: str) -> int:
    """Coerce an integer argument to int; bools and non-integral types are refused."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def positive_t2(t2, who: str) -> Fraction:
    """t2 as a Fraction; the model's Gaussian weight needs t2 > 0."""
    t2 = rat(t2)
    if t2 <= 0:
        raise ValueError(f"{who} needs t2 > 0")
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


@dataclass(frozen=True)
class SurdScalar:
    """Exact element a + b*s of Q(s), with s**2 equal to the fixed ``ssq``.

    The radicand travels with the value, so scalars built at different
    coupling points cannot be combined silently.  When ``ssq`` happens to be
    a perfect rational square the representation is redundant ((3, 0) and
    (0, 1) both denote 3 when ssq = 9); equality and inversion reduce to the
    canonical rational form first.
    """

    a: Fraction
    b: Fraction
    ssq: Fraction

    def __init__(self, a, b, ssq):
        object.__setattr__(self, "a", a if type(a) is Fraction else rat(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else rat(b))
        object.__setattr__(self, "ssq", rat(ssq))

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value, ssq) -> "SurdScalar":
        return cls(value, 0, ssq)

    @classmethod
    def s(cls, ssq) -> "SurdScalar":
        return cls(0, 1, ssq)

    # -- canonical form -----------------------------------------------

    def reduced(self) -> "SurdScalar":
        """Fold b*s into the rational part when s itself is rational."""
        if self.b == 0:
            return self
        r = rational_sqrt(self.ssq)
        if r is None:
            return self
        return SurdScalar(self.a + self.b * r, 0, self.ssq)

    def rational_value(self) -> Fraction:
        red = self.reduced()
        if red.b != 0:
            raise ValueError(f"{self} is irrational")
        return red.a

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> "SurdScalar":
        if isinstance(other, SurdScalar):
            if other.ssq != self.ssq:
                raise RadicandMismatch(f"radicands differ: {self.ssq} vs {other.ssq}")
            return other
        return SurdScalar(rat(other), 0, self.ssq)

    def __add__(self, other):
        o = self._check(other)
        return SurdScalar(self.a + o.a, self.b + o.b, self.ssq)

    def __neg__(self):
        return SurdScalar(-self.a, -self.b, self.ssq)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if not isinstance(other, SurdScalar):
            r = rat(other)
            return SurdScalar(self.a * r, self.b * r, self.ssq)
        o = self._check(other)
        return SurdScalar(
            self.a * o.a + self.b * o.b * self.ssq,
            self.a * o.b + self.b * o.a,
            self.ssq,
        )

    def norm(self) -> Fraction:
        """Field norm a**2 - b**2 * ssq."""
        return self.a * self.a - self.b * self.b * self.ssq

    def inverse(self) -> "SurdScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd value")
        n = self.norm()
        if n == 0:
            # only possible when ssq is a rational square; divide in Q
            v = self.rational_value()
            return SurdScalar(1 / v, 0, self.ssq)
        return SurdScalar(self.a / n, -self.b / n, self.ssq)

    def __truediv__(self, other):
        o = self._check(other)
        return self * o.inverse()

    # -- comparisons & conversions --------------------------------------

    def is_zero(self) -> bool:
        red = self.reduced()
        return red.a == 0 and red.b == 0

    def __eq__(self, other):
        if isinstance(other, SurdScalar) and other.ssq != self.ssq:
            return False
        o = self._check(other)
        x, y = self.reduced(), o.reduced()
        return x.a == y.a and x.b == y.b

    def __hash__(self):
        red = self.reduced()
        return hash((red.a, red.b, self.ssq))

    def to_float(self) -> float:
        if self.ssq < 0:
            raise ValueError("negative radicand has no real value")
        return float(self.a) + float(self.b) * math.sqrt(float(self.ssq))

    def __repr__(self):
        red = self.reduced()
        if red.b == 0:
            return f"{red.a}"
        sign = "+" if red.b >= 0 else "-"
        return f"({red.a} {sign} {abs(red.b)}*sqrt({red.ssq}))"


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
        if k > self.order:
            raise TruncationError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_json(self) -> dict:
        return {"t2": str(self.t2), "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"MomentSeries(t2={self.t2}; [{terms}])"

