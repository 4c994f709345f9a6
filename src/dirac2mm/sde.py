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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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

    @property
    def moments(self) -> set:
        out = set()
        for x, y in self.lhs:
            out.add(x)
            out.add(y)
        for m, tag in self.rhs:
            out.add(m)
            if tag is CoefTag.BT:
                out.add(M2)
        out.discard(CanonicalMoment(()))
        return out

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
        return (self.lhs_key(), c2, quartic, bt)

    def lhs_key(self):
        return tuple(sorted((x.runs, y.runs) for x, y in self.lhs))


def _odd(letters: str) -> bool:
    """True iff the word's moment vanishes by parity (an odd letter count)."""
    return len(letters) % 2 != 0 or letters.count(A) % 2 != 0


def lhs_pairs(w: str) -> list:
    """Factorized pairs (m_[left], m_[right]) of w split at each A, parity zeros dropped."""
    lhs = []
    p = w.find(A)
    while p >= 0:
        left, right = w[:p], w[p + 1 :]
        if not (_odd(left) or _odd(right)):
            lhs.append((canonicalize(left), canonicalize(right)))
        p = w.find(A, p + 1)
    return lhs


def insertions(w: str) -> list:
    """(m_[w insertion], tag) of the quartic insertions of w, in rendering order."""
    return [(canonicalize(w + insertion), tag) for insertion, tag in _INSERTIONS]


def generate_equation(w: str) -> SdeEquation:
    """The large-N loop equation obtained from the word w."""
    w = word_letters(w)
    rhs = ()
    # every insertion has the letter parity of a single A, so the whole
    # right side vanishes together with m_[wA]
    if not _odd(w + A):
        wa = canonicalize(w + A)
        rhs = ((wa, CoefTag.C2), *insertions(w), (wa, CoefTag.BT))
    return SdeEquation(lhs=lhs_pairs(w), rhs=rhs, source_word=w, rhs_display=rhs)


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
            if rest % 2 != 0:
                continue
            for a in range(rest + 1):
                yield B * a + A * b + B * (rest - a)


def generate_system(max_word_degree: int) -> list[SdeEquation]:
    """Deduplicated loop equations for the canonical word family.

    Words related by rotations that fix the appended-letter position give
    structurally identical equations; those duplicates are merged.  Ordered
    by source-word degree, then by canonical content.
    """
    max_word_degree = exact_int(max_word_degree, "max_word_degree")
    if max_word_degree < 1:
        raise ValueError("max_word_degree must be >= 1")
    seen = {}
    for w in single_block_words(max_word_degree):
        eq = generate_equation(w)
        if eq.is_trivial():
            continue
        key = eq.normalized_key()
        if key not in seen:
            seen[key] = eq
    return sorted(seen.values(), key=lambda e: (len(e.source_word), e.normalized_key()))


class MissingMoment(KeyError):
    """An equation referenced a moment absent from the assignment."""


def _value(assignment, m: CanonicalMoment, ssq) -> SurdScalar:
    if m.is_empty():
        return SurdScalar(1, 0, ssq)
    if vanishes_by_parity(m):
        return SurdScalar(0, 0, ssq)
    try:
        v = assignment[m]
    except KeyError:
        raise MissingMoment(f"assignment missing value for {m.label()}") from None
    if isinstance(v, SurdScalar):
        return v
    return SurdScalar(v, 0, ssq)


def residual(eq: SdeEquation, assignment: Mapping[CanonicalMoment, SurdScalar], point: CouplingPoint) -> SurdScalar:
    """RHS - LHS of the equation, evaluated exactly in the surd field."""
    ssq = point.ssq
    total = SurdScalar(0, 0, ssq)
    c2, q = 8 * point.t2, 16 * point.t4
    bt = None
    if any(tag is CoefTag.BT for _m, tag in eq.rhs):
        bt = _value(assignment, M2, ssq) * (64 * point.t4)
    for m, tag in eq.rhs:
        v = _value(assignment, m, ssq)
        if tag is CoefTag.C2:
            total = total + v * c2
        elif tag is CoefTag.Q:
            total = total + v * q
        elif tag is CoefTag.QNEG:
            total = total - v * q
        elif tag is CoefTag.BT:
            total = total + bt * v
    for x, y in eq.lhs:
        total = total - _value(assignment, x, ssq) * _value(assignment, y, ssq)
    return total
