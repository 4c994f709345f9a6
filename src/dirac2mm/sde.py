"""Large-N loop equations of the effective quartic 2-matrix model.

Differentiating the Gaussian-weighted matrix integral by one entry of the
first matrix and inserting the word W produces, after factorization of the
double traces, one equation per word:

    sum over A-positions p of W of  m_[left_p] * m_[right_p]
        =  8 t2 * m_[WA]
         + 16 t4 * ( m_[W AAA] + m_[W ABB] + m_[W BBA] - m_[W BAB] )
         + 64 t4 * m_2 * m_[WA]

where [.] canonicalizes the concatenated cyclic word.  The five insertion
words are the terms of the gradient of the effective potential; the two
double-trace contributions merge into the single 64 t4 m_2 coefficient
because the second moments of the two matrices coincide.

``moment_equations`` gives at once the left sides and insertions of every
word w whose wA is a rotation of one string: the arc between two A's serves
the equations of both, and strings are formed so that equal classes mostly
meet equal strings, which the caller's string map answers with one lookup
each.  It is the one builder of the equations: the solver passes a class's
rep word and a map from each string to its row in the solver's table, and
``generate_equation(w)`` the rotation of wA that starts after its last B and
a map from each string to its class.

An equation's terms are planned once, on its first evaluation: the moments
it reads and its products c*x*y, those that vanish by parity dropped.  At a
point, ``residual`` looks each moment up once and evaluates the plan as one
fused sum of products in Q(s) (``SurdScalar.sum_of_products``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping

from .algebra import CouplingPoint, SurdScalar, exact_int
from .words import A, B, CanonicalMoment, canonicalize, vanishes_by_parity, word_letters

M2 = CanonicalMoment((2,))


class CoefTag(enum.Enum):
    """Symbolic right-hand-side coefficients of a loop equation."""

    C2 = "8*t2"        # quadratic pull-back
    Q = "+16*t4"       # quartic insertions A^3, AB^2, B^2A
    QNEG = "-16*t4"    # quartic insertion BAB (chequered sign)
    BT = "64*t4*m2"    # merged double-trace term, multiplies m_[WA] by m_2

    def __lt__(self, other):
        order = [CoefTag.C2, CoefTag.Q, CoefTag.QNEG, CoefTag.BT]
        return order.index(self) < order.index(other)


# insertion words of the potential gradient, in rendering order
_INSERTIONS = (("AAA", CoefTag.Q), ("BAB", CoefTag.QNEG), ("ABB", CoefTag.Q), ("BBA", CoefTag.Q))


@dataclass(frozen=True)
class SdeEquation:
    """One canonicalized loop equation.

    ``lhs`` is the multiset of factorized moment pairs and ``rhs`` the
    multiset of (moment, tag) entries; construction sorts each pair, the
    pairs and ``rhs`` by (runs, tag), so structural equality compares
    mathematical content.  Terms whose moments vanish by parity are left
    out by the caller.  The source word and ``rhs_display`` are kept for
    display only and excluded from comparison.
    """

    lhs: tuple
    rhs: tuple
    source_word: str = field(compare=False, default="")
    rhs_display: tuple = field(compare=False, default=())   # insertion order, for rendering

    def __post_init__(self):
        pairs = (sorted(pair, key=lambda m: m.runs) for pair in self.lhs)
        lhs = sorted((tuple(p) for p in pairs), key=lambda p: (p[0].runs, p[1].runs))
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs", tuple(sorted(self.rhs, key=lambda e: (e[0].runs, e[1]))))

    def is_trivial(self) -> bool:
        return not self.lhs and not self.rhs

    @cached_property     # kept in the instance __dict__, outside the compared fields
    def _plan(self) -> tuple:
        """(moments, terms) of ``residual``, formed on the first evaluation.

        ``moments`` lists each moment the residual reads, once, in the order
        it is looked up; a term (tag, i, j) is coefficient(tag) times the
        values of moments[i] and moments[j], index -1 standing for 1.  The
        tag None marks a left-side product, subtracted.  Terms with a moment
        that vanishes by parity are left out.
        """
        moments: list[CanonicalMoment] = []

        def index(m: CanonicalMoment) -> int:
            if m.is_empty():
                return -1
            if m not in moments:
                moments.append(m)
            return moments.index(m)

        rhs = [(tag, index(m)) for m, tag in self.rhs if not vanishes_by_parity(m)]
        m2 = index(M2) if any(tag is CoefTag.BT for tag, _ in rhs) else -1    # looked up after the right side's moments
        terms = [(tag, i, m2 if tag is CoefTag.BT else -1) for tag, i in rhs]
        for x, y in self.lhs:
            if not (vanishes_by_parity(x) or vanishes_by_parity(y)):
                terms.append((None, index(x), index(y)))
        return tuple(moments), tuple(terms)

    # -- rendering -------------------------------------------------------

    def _merged_quartic(self, normalized: bool = False) -> list[tuple[CanonicalMoment, int]]:
        """Quartic entries merged per moment, in first-appearance order."""
        entries = self.rhs if normalized or not self.rhs_display else self.rhs_display
        order: list[CanonicalMoment] = []
        total: dict[CanonicalMoment, int] = {}
        for m, tag in entries:
            if tag not in (CoefTag.Q, CoefTag.QNEG):
                continue
            if m not in total:
                total[m] = 0
                order.append(m)
            total[m] += 16 if tag is CoefTag.Q else -16
        return [(m, total[m]) for m in order if total[m] != 0]

    def render_text(self, normalized: bool = False) -> str:
        def prod(pair):
            x, y = pair
            labels = [m.label() for m in (x, y) if not m.is_empty()]
            return " ".join(labels) if labels else "1"

        lhs_terms: list[str] = []
        counts: dict[str, int] = {}
        for p in self.lhs:
            text = prod(p)
            if text not in counts:
                counts[text] = 0
                lhs_terms.append(text)
            counts[text] += 1
        rendered = [t if counts[t] == 1 else f"{counts[t]} {t}" for t in lhs_terms]
        lhs = " + ".join(rendered) if rendered else "0"
        c2 = [m for m, tag in self.rhs if tag is CoefTag.C2]
        bt = [m for m, tag in self.rhs if tag is CoefTag.BT]
        parts = [f"8 t2 {m.label()}" for m in c2]
        quartic = []
        for m, coef in self._merged_quartic(normalized):
            sign = "-" if coef < 0 else "+"
            piece = f"{abs(coef)} {m.label()}"
            quartic.append(f"{sign} {piece}" if quartic else (f"-{piece}" if coef < 0 else piece))
        for m in bt:
            quartic.append(f"+ 64 m_{{2}} {m.label()}" if quartic else f"64 m_{{2}} {m.label()}")
        if quartic:
            parts.append("t4(" + " ".join(quartic) + ")")
        rhs = " + ".join(parts) if parts else "0"
        return f"{lhs} = {rhs}"

    def render_latex(self) -> str:
        return self.render_text().replace("t2", "t_{2}").replace("t4", "t_{4}")

    def as_json(self) -> dict:
        return {
            "word": self.source_word or "1",
            "lhs": [[list(x.runs), list(y.runs)] for x, y in self.lhs],
            "rhs": [{"moment": list(m.runs), "coeff": tag.name} for m, tag in self.rhs],
        }

    def normalized_key(self):
        """Hashable canonical content, for byte-level set comparison."""
        quartic = tuple(sorted(((m.runs, c) for m, c in self._merged_quartic())))
        c2 = tuple(sorted(m.runs for m, tag in self.rhs if tag is CoefTag.C2))
        bt = tuple(sorted(m.runs for m, tag in self.rhs if tag is CoefTag.BT))
        return (tuple(sorted((x.runs, y.runs) for x, y in self.lhs)), c2, quartic, bt)


def moment_equations(rep: str, with_insertions: bool, classes: Mapping) -> list[tuple]:
    """(w, lhs pairs, insertions) of each distinct word w with wA a rotation of rep, in order.

    ``rep`` starts an A-run and ends with B, or is all A's: a class's rep
    word, or another rotation of wA that starts an A-run.  The word of the
    A at p is rep[p+1:] + rep[:p]; A's past the rep's period repeat earlier
    words.  Its pairs are the classes (left, right) of its splits at each A,
    those with a half odd in length or in A dropped: where the word of p
    splits at the A at q, the pair is the classes of the two arcs of rep
    between p and q, each built as the rotation "A"*s + middle (middle the
    letters between the two A-runs), and the word of q gets the pair
    swapped.  A half holds the A's strictly between p and q, an even count
    only when q is an odd number of A's after p, so the split loop steps
    over every other A and then tests the letter count alone.  An insertion
    replaces the A at p in rep, a rotation of w + insertion; insertions are
    (moment, tag) in rendering order, and are left empty without
    ``with_insertions``.  A moment is ``classes[s]`` of its string s: the
    caller's map decides what stands for a class, and answers each string
    with one subscript.
    """
    period = (rep + rep).find(rep, 1)
    # each A as (position, start and end of its A-run)
    sites = [(p, s, e) for s, e in map(re.Match.span, re.finditer("A+", rep)) for p in range(s, e)]

    def arc(x, y):
        (p, _, end), (q, head, _) = x, y
        if head <= p < q:        # q follows p in one run: only A's between
            return A * (q - p - 1)
        middle = rep[end:head] if end <= head else rep[end:] + rep[:head]
        return A * (end - p - 1 + q - head) + middle

    count = rep.count(A, 0, period)    # one word per A before the period
    pairs = [[] for _ in range(count)]
    for i in range(count):
        x = sites[i]
        # rep is even in length and in A, so both arcs are even iff the arc
        # x -> y is: its j - i - 1 A's are even for every other j, and its
        # y[0] - x[0] - 1 letters when y[0] - x[0] is odd
        for j in range(i + 1, len(sites), 2):
            y = sites[j]
            if (y[0] - x[0]) % 2:
                left, right = classes[arc(x, y)], classes[arc(y, x)]
                pairs[i].append((left, right))
                if j < count:
                    pairs[j].append((right, left))
    out = []
    for i in range(count):
        p = sites[i][0]
        before, after = rep[:p], rep[p + 1 :]
        terms = []
        if with_insertions:
            terms = [(classes[before + ins + after], tag) for ins, tag in _INSERTIONS]
        out.append((after + before, pairs[i], terms))
    return out


class _Classes(dict):
    """The class of each string one equation meets, canonicalized on its first lookup."""

    def __missing__(self, s: str) -> CanonicalMoment:
        c = self[s] = canonicalize(s)
        return c


def generate_equation(w: str) -> SdeEquation:
    """The large-N loop equation obtained from the word w.

    It is the entry of ``moment_equations`` at the appended A of wA, rotated
    to start after its last B: the A's before the appended one are w's
    trailing A's, and their count modulo the number of entries gives the
    entry.
    """
    w = word_letters(w)
    wa = canonicalize(w + A)
    # every insertion has the letter parity of wA, and where wA is odd in
    # length or in A so is one half of each split: the equation vanishes
    if vanishes_by_parity(wa):
        return SdeEquation(lhs=(), rhs=(), source_word=w)
    k = w.rfind(B) + 1
    entries = moment_equations(w[k:] + A + w[:k], True, _Classes())
    _, lhs, insertions = entries[(len(w) - k) % len(entries)]
    rhs = ((wa, CoefTag.C2), *insertions, (wa, CoefTag.BT))
    return SdeEquation(lhs=lhs, rhs=rhs, source_word=w, rhs_display=rhs)


def single_block_words(max_degree: int):
    """Words of the form B^a A^b B^c with b odd and a + c even, degree <= max.

    These are the inputs whose equations constitute the canonical system;
    every other word yields either a trivial equation (even A-count) or an
    equation involving moments with more than four runs, outside the
    closed system solved by the model's closed forms.
    """
    for degree in range(1, max_degree + 1, 2):
        for b in range(1, degree + 1, 2):
            rest = degree - b
            for a in range(rest + 1):
                yield B * a + A * b + B * (rest - a)


def generate_system(max_word_degree: int) -> list[SdeEquation]:
    """Deduplicated loop equations for the canonical word family.

    Words related by rotations that fix the appended-letter position give
    structurally identical equations; those duplicates are merged.  Ordered
    by source-word degree, then by canonical content.  Each degree's system
    is built once per process; every call returns a fresh list of the same
    (immutable) equations.
    """
    return list(_system(exact_int(max_word_degree, "max_word_degree", 1)))


@lru_cache(maxsize=16)
def _system(max_word_degree: int) -> tuple:
    seen = {}
    for w in single_block_words(max_word_degree):
        eq = generate_equation(w)
        key = eq.normalized_key()
        if key not in seen:
            seen[key] = eq
    return tuple(sorted(seen.values(), key=lambda e: (len(e.source_word), e.normalized_key())))


class MissingMoment(KeyError):
    """An equation referenced a moment absent from the assignment."""


@lru_cache(maxsize=16)
def _coefficients(point: CouplingPoint) -> dict:
    """Each tag's coefficient at ``point``, formed once; None, a left-side product, is -1."""
    t2, t4 = point.t2, point.t4
    return {CoefTag.C2: 8 * t2, CoefTag.Q: 16 * t4, CoefTag.QNEG: -16 * t4, CoefTag.BT: 64 * t4, None: -1}


def residual(eq: SdeEquation, assignment: Mapping[CanonicalMoment, SurdScalar], point: CouplingPoint) -> SurdScalar:
    """RHS - LHS of the equation, evaluated exactly in the surd field.

    The equation's terms are planned once (``SdeEquation._plan``); here each
    moment is looked up once, an int or Fraction value taken as rational,
    and the terms are summed as one fused sum of products.
    """
    ssq = point.ssq
    moments, terms = eq._plan
    values = []
    for m in moments:
        try:
            v = assignment[m]
        except KeyError:
            raise MissingMoment(f"assignment missing value for {m.label()}") from None
        values.append(v if isinstance(v, SurdScalar) else SurdScalar(v, 0, ssq))
    values.append(None)      # index -1: the empty moment, 1
    coefficient = _coefficients(point)
    return SurdScalar.sum_of_products([(coefficient[tag], values[i], values[j]) for tag, i, j in terms], ssq)
