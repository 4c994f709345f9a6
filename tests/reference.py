"""Brute-force references that the tests compare the package against.

``SurdScalar`` is the element a + b*s of Q(s) kept as a pair of Fractions,
each operation written out in ``Fraction`` arithmetic: the form
``dirac2mm.algebra.SurdScalar`` had before it moved to integers over one
denominator.  ``test_algebra`` runs both side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from dirac2mm.algebra import RadicandMismatch, rat, rational_sqrt


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
