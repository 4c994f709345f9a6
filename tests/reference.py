"""Brute-force references that the tests compare the package against.

``SurdScalar`` is the element a + b*s of Q(s) kept as a pair of Fractions,
each operation written out in ``Fraction`` arithmetic: the form
``dirac2mm.algebra.SurdScalar`` had before it moved to integers over one
denominator.  ``test_algebra`` runs both side by side.

``residual`` is a loop equation's residual evaluated operation by
operation in ``dirac2mm.algebra.SurdScalar``, each moment looked up and
parity-tested as it is met: the form ``dirac2mm.sde.residual`` had before
it became one fused sum of products.  ``test_sde`` compares the two values.

``least_rotation`` compares every rotation of a string, the ``test_words``
reference for ``dirac2mm.words._necklace``.

``canonical_rep`` is the least string of a word's orbit from the least
rotations of its four variants, only those whose leading run is the longer
one compared: the form ``dirac2mm.words`` had before a string's class was
read off one record of necklace classes.  ``canonical_classes`` enumerates
one degree's classes with one ``canonical_rep`` per even necklace, a
necklace kept as a class when it is its own minimum: the form
``dirac2mm.words._canonical_moments`` had before it took the first necklace
of each orbit as its rep.  ``test_words`` compares the two.

``orbit`` and ``splits_at`` are the brute-force rotation x reversal x swap
orbit of a letter string and its splits at each occurrence of a letter, the
``test_words`` and ``test_sde`` references for the canonical forms and the
left sides of the loop equations.  ``lhs_pairs`` and ``insertions`` are a
word's loop-equation left side from ``splits_at`` and its quartic
insertions, each string canonicalized: the form ``dirac2mm.sde`` had
before ``generate_equation`` read them off ``sde.moment_equations``.

``recipe_words`` and ``recipes_for`` build the solver's determinations of a
moment word by word, each recipe word split by ``lhs_pairs`` and its
insertions canonicalized by ``insertions``: the form
``dirac2mm.solver._recipes_for`` had before it built them from the moment's
A-runs.  ``test_solver`` compares the two.

``gaussian_moment`` is the order-zero moment from the count of
non-crossing colour-matching pairings, the ``test_solver`` and
``test_mapenum`` reference for the recursion's and the enumerator's
order 0.

``dirac_operator`` is the dense 2 N^2 x 2 N^2 Dirac operator, the
``test_montecarlo`` reference for the trace polynomial and the sampler's
letter kernel.

``susceptibility_series`` divides d_4 / d_4(critical), typed in as two
polynomials in v = sqrt(t4 - critical), term by term in
``dirac2mm.algebra.SurdScalar`` over Q(sqrt 2): the form
``dirac2mm.closedform.susceptibility_expansion`` had before it wrote each
coefficient off d_4 = 4 / (t2 + s)^2.  ``test_closedform`` compares the two.

``dirac_moment`` writes d_2, d_4 and d_6 as hand-typed (a + b s) / den in
``Fraction`` arithmetic: the form ``dirac2mm.closedform.dirac_moment`` had
before it read each d_ell off a table form.  ``test_closedform`` compares
the two.

``completion_system`` reduces the degree-10 completion system by
Gauss-Jordan elimination over Q: the form
``dirac2mm.closedform.completion_system`` had before it stored the result
as a literal.  ``test_closedform`` re-derives the literal exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dirac2mm import algebra, words
from dirac2mm.algebra import RadicandMismatch, positive_t2, rat, rational_sqrt
from dirac2mm.closedform import CompletionSystem, Signature
from dirac2mm.sde import M2, CoefTag, MissingMoment, generate_system
from dirac2mm.words import A, B, CanonicalMoment, canonicalize, vanishes_by_parity, word_letters


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
        if isinstance(other, SurdScalar):
            y = other.reduced()
        elif isinstance(other, (int, Fraction)):
            y = SurdScalar(other, 0, self.ssq)
        else:
            return NotImplemented
        x = self.reduced()
        if x.b != 0 or y.b != 0:
            return x.a == y.a and x.b == y.b and x.ssq == y.ssq
        return x.a == y.a

    def __hash__(self):
        red = self.reduced()
        return hash(red.a) if red.b == 0 else hash((red.a, red.b, self.ssq))

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


def recipe_words(c: CanonicalMoment):
    """The distinct words w with [wA] = c, each giving one determination."""
    rep = c.rep_word()
    seen = set()
    for p, letter in enumerate(rep):
        w = rep[p + 1 :] + rep[:p]
        if letter == A and w not in seen:
            seen.add(w)
            yield w


def recipes_for(c: CanonicalMoment, index: dict, with_insertions: bool) -> list[tuple]:
    """One (lhs pairs, +16 t4 insertions, -16 t4 insertions) per word of c.

    Every entry is a row index into the solver's integer table, looked up in
    ``index`` by run tuple; without ``with_insertions`` both insertion tuples
    are empty.
    """
    out = []
    for w in recipe_words(c):
        pairs = tuple((index[x.runs], index[y.runs]) for x, y in lhs_pairs(w))
        terms = insertions(w) if with_insertions else ()
        plus = tuple(index[m.runs] for m, tag in terms if tag is CoefTag.Q)
        minus = tuple(index[m.runs] for m, tag in terms if tag is CoefTag.QNEG)
        out.append((pairs, plus, minus))
    return out


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
        return Fraction(0)
    count = _noncrossing_pairings(c.rep_word())
    return Fraction(count) / (8 * t2) ** (c.degree // 2)


def susceptibility_series(t2, num_terms: int) -> list:
    """The v^k coefficients, k < num_terms, of d_4 / d_4(critical) by long division."""
    t2 = positive_t2(t2, "susceptibility_series")
    tc = -t2 * t2 / 8
    two = Fraction(2)
    r = lambda x: algebra.SurdScalar.rational(x, two)
    zero = r(0)
    # numerator t2^2/2 - 2 sqrt(2) t2 v + 4 v^2, denominator 8 (v^2 + tc)^2 / d4(tc)
    num = [r(t2 * t2 / 2), algebra.SurdScalar.s(two) * (-2 * t2), r(4)] + [zero] * max(0, num_terms - 3)
    den = [r(8 * tc * tc * 4 / (t2 * t2)), zero, r(16 * tc * 4 / (t2 * t2)), zero, r(8 * 4 / (t2 * t2))]
    den += [zero] * max(0, num_terms - len(den))
    inv0 = den[0].inverse()
    series = []
    for k in range(num_terms):
        acc = num[k]
        for j in range(k):
            acc = acc - series[j] * den[k - j]
        series.append(acc * inv0)
    return series


def dirac_moment(ell: int, point) -> algebra.SurdScalar:
    """d_ell = (a + b s) / den at ``point``, for ell in (2, 4, 6)."""
    t2, t4 = point.t2, point.t4
    a, b, den = {
        2: (-t2, 1, 4 * t4),
        4: (t2 * t2 + 4 * t4, -t2, 8 * t4 * t4),
        6: (-19 * (t2**3 + 6 * t2 * t4), 19 * (t2 * t2 + 2 * t4), 256 * t4**3),
    }[ell]
    return algebra.SurdScalar(a / den, b / den, point.ssq)


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


def dirac_operator(A: np.ndarray, B: np.ndarray, sig: Signature) -> np.ndarray:
    """Dense Dirac operator: sigma3 x Phi_A + sigma1 x Phi_B, size 2 N^2.

    Each letter acts by anticommutator when its sign is +1 and commutator
    when it is -1.  O(N^6) to use.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n)

    def rep(M, eps):
        left = np.kron(M, eye)
        right = np.kron(eye, M.T)
        return left + right if eps == 1 else left - right

    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.kron(sigma3, rep(A, sig.eps1)) + np.kron(sigma1, rep(B, sig.eps2))


def _value(assignment, m, one, zero):
    if m.is_empty():
        return one
    if vanishes_by_parity(m):
        return zero
    try:
        v = assignment[m]
    except KeyError:
        raise MissingMoment(f"assignment missing value for {m.label()}") from None
    if isinstance(v, algebra.SurdScalar):
        return v
    return algebra.SurdScalar(v, 0, one.ssq)


def residual(eq, assignment, point):
    """RHS - LHS of the equation in the surd field, one operation at a time.

    The right side is summed per coefficient tag first, so each tag costs
    one product.
    """
    ssq = point.ssq
    one, zero = algebra.SurdScalar(1, 0, ssq), algebra.SurdScalar(0, 0, ssq)
    value = lambda m: _value(assignment, m, one, zero)
    sums = {}
    for m, tag in eq.rhs:
        v = value(m)
        sums[tag] = sums[tag] + v if tag in sums else v
    t2, t4 = point.t2, point.t4
    scale = {CoefTag.C2: 8 * t2, CoefTag.Q: 16 * t4, CoefTag.QNEG: -16 * t4}
    if CoefTag.BT in sums:
        scale[CoefTag.BT] = value(M2) * (64 * t4)
    total = zero
    for tag, v in sums.items():
        total = total + v * scale[tag]
    for x, y in eq.lhs:
        total = total - value(x) * value(y)
    return total


def least_rotation(letters: str) -> str:
    """The least of every rotation of a string (brute force); "" for ""."""
    return min((letters[k:] + letters[:k] for k in range(len(letters))), default="")


def canonical_rep(letters: str) -> str:
    """Least string of the orbit of a letter string; "" for "".

    It is the least of the least rotations of the word, its reverse, its swap
    and its reversed swap.  A swapped variant starts with the word's longest
    B-run, an unswapped one with its longest A-run, and a longer leading run
    of A is lexicographically smaller, so only the variants whose leading
    run is the longer one compete.
    """
    n = len(letters)
    doubled = letters + letters
    top_a = max(map(len, doubled.split(B)))
    top_b = max(map(len, doubled.split(A)))
    if max(top_a, top_b) >= n:
        return A * n
    rev = letters[::-1]
    swap = str.maketrans("AB", "BA")
    candidates = []
    if top_a >= top_b:
        candidates += [words._least_rotation(letters, top_a), words._least_rotation(rev, top_a)]
    if top_b >= top_a:
        candidates += [
            words._least_rotation(letters.translate(swap), top_b),
            words._least_rotation(rev.translate(swap), top_b),
        ]
    return min(candidates)


def canonical_classes(degree: int) -> tuple[list, dict]:
    """(runs of each class, {even necklace: runs of its class}) of one degree >= 1."""
    classes, recorded = [], {}
    for s in words._necklaces(degree):
        a = s.count(A)
        if a % 2 or (degree - a) % 2:
            continue
        rep = canonical_rep(s)
        if rep == s:
            classes.append(words._runs_of(s))
        recorded[s] = words._runs_of(rep)
    return sorted(classes), recorded


def orbit(letters: str) -> set[str]:
    """Full rotation x reversal x swap orbit of a letter string (brute force)."""
    out = set()
    for base in (letters, letters[::-1]):
        for var in (base, base.translate(str.maketrans("AB", "BA"))):
            for k in range(max(1, len(var))):
                out.add(var[k:] + var[:k])
    return out


def splits_at(w: str, letter: str) -> list[tuple[str, str]]:
    """(prefix, suffix) pairs around each occurrence of ``letter`` in w.

    These are the factorized trace pairs on the left side of the loop
    equation of w: one pair per occurrence, in positional order.
    """
    w = word_letters(w)
    if letter not in ("A", "B"):
        raise ValueError(f"letter must be A or B, got {letter!r}")
    return [(w[:p], w[p + 1 :]) for p, c in enumerate(w) if c == letter]


def lhs_pairs(w: str) -> list:
    """(m_[left], m_[right]) of each split of w at an A, in positional order,
    those with a half that vanishes by parity dropped."""
    pairs = [(canonicalize(left), canonicalize(right)) for left, right in splits_at(w, A)]
    return [(x, y) for x, y in pairs if not (vanishes_by_parity(x) or vanishes_by_parity(y))]


def insertions(w: str) -> list:
    """(m_[w insertion], tag) of the four quartic insertions of w, in rendering order."""
    words = (("AAA", CoefTag.Q), ("BAB", CoefTag.QNEG), ("ABB", CoefTag.Q), ("BBA", CoefTag.Q))
    return [(canonicalize(w + insertion), tag) for insertion, tag in words]
