"""Exact arithmetic substrates: rationals, the quadratic surd field, and
truncated power series.

Every closed-form quantity of the quartic 2-matrix model lives in the real
quadratic extension Q(s) with s**2 = t2**2 + 8*t4.  ``SurdScalar`` implements
that field with arbitrary-precision rational components, so equality checks
in the test suite are exact, never approximate.  ``MomentSeries`` implements
truncated formal power series in the quartic coupling t4 (at a fixed rational
t2), the algebra in which the perturbative solver and the map enumerator
agree coefficient by coefficient.
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
        return Fraction(x)
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

    __radd__ = __add__

    def __neg__(self):
        return SurdScalar(-self.a, -self.b, self.ssq)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

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

    __rmul__ = __mul__

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

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = SurdScalar(1, 0, self.ssq)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def as_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "ssq": str(self.ssq),
            "decimal": self.to_float(),
        }

    def __repr__(self):
        red = self.reduced()
        if red.b == 0:
            return f"{red.a}"
        sign = "+" if red.b >= 0 else "-"
        return f"({red.a} {sign} {abs(red.b)}*sqrt({red.ssq}))"


class TruncationError(ValueError):
    """Raised when a series operation would need coefficients beyond K."""


@dataclass(frozen=True)
class MomentSeries:
    """Truncated power series sum(coeffs[k] * t4**k, k=0..order) at fixed t2.

    Ring operations truncate consistently at the smaller participating
    order; asking for a coefficient beyond the truncation raises instead of
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

    # -- ring operations -------------------------------------------------

    def _align(self, other) -> tuple["MomentSeries", int]:
        if isinstance(other, MomentSeries):
            if other.t2 != self.t2:
                raise ValueError(f"base points differ: t2={self.t2} vs {other.t2}")
            return other, min(self.order, other.order)
        return MomentSeries.constant(rat(other), self.t2, self.order), self.order

    def __add__(self, other):
        o, k = self._align(other)
        return MomentSeries(self.t2, [self.coeffs[i] + o.coeffs[i] for i in range(k + 1)])

    __radd__ = __add__

    def __neg__(self):
        return MomentSeries(self.t2, [-c for c in self.coeffs])

    def __sub__(self, other):
        o, _ = self._align(other)
        return self + (-o)

    def __rsub__(self, other):
        o, _ = self._align(other)
        return o - self

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return MomentSeries(self.t2, [c * other for c in self.coeffs])
        o, k = self._align(other)
        out = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            if self.coeffs[i] == 0:
                continue
            for j in range(k + 1 - i):
                out[i + j] += self.coeffs[i] * o.coeffs[j]
        return MomentSeries(self.t2, out)

    __rmul__ = __mul__

    def shift_mul_t4(self, power: int = 1) -> "MomentSeries":
        """Multiply by t4**power, keeping the truncation order."""
        out = [Fraction(0)] * (self.order + 1)
        for k in range(self.order + 1 - power):
            out[k + power] = self.coeffs[k]
        return MomentSeries(self.t2, out)

    def divide_t4(self, power: int = 1) -> "MomentSeries":
        """Exact division by t4**power; the low coefficients must vanish."""
        for k in range(min(power, self.order + 1)):
            if self.coeffs[k] != 0:
                raise TruncationError(
                    f"series has nonzero coefficient {self.coeffs[k]} at order {k}; "
                    f"not divisible by t4^{power}"
                )
        tail = list(self.coeffs[power:]) or [Fraction(0)]
        return MomentSeries(self.t2, tail)

    def eval(self, t4) -> Fraction:
        """Horner evaluation of the truncated polynomial at rational t4."""
        x = rat(t4)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sqrt(self) -> "MomentSeries":
        """Series g with g*g == self up to the truncation order.

        The constant term must be a positive rational square; the remaining
        coefficients follow from the usual quadratic recursion.
        """
        c0 = self.coeffs[0]
        if c0 <= 0:
            raise ValueError(f"sqrt needs a positive constant term, got {c0}")
        g0 = rational_sqrt(c0)
        if g0 is None:
            raise ValueError(f"constant term {c0} is not a rational square")
        g = [g0]
        for k in range(1, self.order + 1):
            conv = sum(g[j] * g[k - j] for j in range(1, k))
            g.append((self.coeffs[k] - conv) / (2 * g0))
        return MomentSeries(self.t2, g)

    def as_json(self) -> dict:
        return {"t2": str(self.t2), "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"MomentSeries(t2={self.t2}; [{terms}])"


def surd_expansion(point_t2, order: int) -> MomentSeries:
    """sqrt(t2**2 + 8*t4) as a truncated series in t4 at fixed rational t2 > 0."""
    t2 = positive_t2(point_t2, "surd_expansion")
    base = [t2 * t2, Fraction(8)] + [Fraction(0)] * max(0, order - 1)
    return MomentSeries(t2, base[: order + 1]).sqrt()
