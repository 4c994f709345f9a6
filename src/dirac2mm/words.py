"""Noncommutative words in the alphabet {A, B} and their cyclic canonical forms.

A mixed moment is indexed by a word only up to cyclic rotation (trace
invariance), whole-word reversal (moments of Hermitian matrices are real) and
the global A<->B swap (the potential is symmetric in the two matrices).
``CanonicalMoment`` is the quotient object: the lexicographically least
letter string over the full orbit, stored as its alternating run lengths
(l1, l2, ..., lq), i.e. the index of m_{l1,...,lq}.  This module alone
decides that form, so any runs of a class build the same object.

The least string of an orbit is the least of four least rotations, one each
of the word, its reverse, its swap and its reversed swap; no orbit set is
built.  Booth ("Lexicographically least circular substrings", 1980) finds a
least rotation in linear time, but for words of about twenty letters it is
faster in Python to compare only the rotations that start at a longest run
of A, found with ``str.find`` on the doubled word.  That one least rotation
(``_necklace``) serves every cyclic word of the package: the gluing count's
cycles, the trace polynomial's and the estimators' words go through a
bounded cache of it.

The classes of one degree are enumerated without visiting all 2^d strings.
The FKM algorithm (Fredricksen, Kessler and Maiorana; Ruskey, Savage and
Wang 1992) lists the binary necklaces, the strings that are their own least
rotation, in lexicographic order.  An orbit holds at most four necklaces,
those of the word, its reverse, its swap and its reversed swap, and its
least string is the least of them, so the first of an orbit's necklaces
listed is its class's rep, as in Sawada's bracelet generation (SIAM J.
Comput. 2001); that class is recorded for the other three at once, and
the pass skips each of them when it meets it later.

A word is a plain ``str`` of A's and B's, "" the empty word.  ``word_letters``
validates and upper-cases one at each public entry point, and ``canonicalize``
a string the first time it sees it.  The loop equations meet each necklace
in many rotations, so a new string costs only its least rotation: its class
was recorded when its degree was enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import exact_int

A = "A"
B = "B"
_SWAP = str.maketrans("AB", "BA")


def word_letters(w) -> str:
    """The upper-cased letter string of a word; refuses any letter but A and B."""
    letters = str(w).upper()
    if not set(letters) <= {A, B}:
        raise ValueError(f"word must use letters A/B only, got {w!r}")
    return letters


def _least_rotation(letters: str, top: int) -> str:
    """Least rotation of a word that has both letters and longest A-run ``top``.

    The least rotation starts at a longest cyclic run of A, so only those
    starts are compared.
    """
    n = len(letters)
    doubled = letters + letters
    key = B + A * top
    rotations = []
    i = doubled.find(key)
    while 0 <= i < n:
        rotations.append(doubled[i + 1 : i + 1 + n])
        i = doubled.find(key, i + 1)
    return min(rotations)


def _canonical_rep(letters: str) -> str:
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
    candidates = []
    if top_a >= top_b:
        candidates += [_least_rotation(letters, top_a), _least_rotation(rev, top_a)]
    if top_b >= top_a:
        candidates += [
            _least_rotation(letters.translate(_SWAP), top_b),
            _least_rotation(rev.translate(_SWAP), top_b),
        ]
    return min(candidates)


def _runs_of(rep: str) -> tuple[int, ...]:
    """Alternating run lengths of the canonical representative string.

    The representative of a mixed word starts with its maximal A-run and ends
    with a B (minimality of the lexicographic rotation), so plain linear
    run-length encoding is cyclically faithful.
    """
    if not rep:
        return ()
    runs = []
    current, count = rep[0], 1
    for c in rep[1:]:
        if c == current:
            count += 1
        else:
            runs.append(count)
            current, count = c, 1
    runs.append(count)
    return tuple(runs)


def _necklace(letters: str) -> str:
    """Least rotation of a letter string; the string itself when it lacks A or B."""
    if A not in letters or B not in letters:
        return letters
    return _least_rotation(letters, max(map(len, (letters + letters).split(B))))


_cycle_necklace = lru_cache(maxsize=1 << 12)(_necklace)   # gluings, traces and estimators repeat few cycles

# The class of each even necklace of every degree enumerated so far, filled
# by _canonical_moments alone, so a lookup never enumerates a degree.
_NECKLACE_CLASSES: dict = {}


# Both caches are bounded so that deep solves keep a fixed footprint.
# solve_series(8, 4) canonicalizes 5,195 distinct strings, and the necklace
# of each has a recorded class, so neither cache evicts there and only a
# necklace of a degree not enumerated pays for its orbit minimum here.
@lru_cache(maxsize=1 << 16)
def _canonical_from_string(letters: str) -> "CanonicalMoment":
    letters = word_letters(letters)   # validated once per distinct string
    necklace = _necklace(letters)
    c = _NECKLACE_CLASSES.get(necklace)
    return c if c is not None else _canonical_from_necklace(necklace)


@lru_cache(maxsize=1 << 15)
def _canonical_from_necklace(necklace: str) -> "CanonicalMoment":
    return CanonicalMoment._of(_runs_of(_canonical_rep(necklace)))


@dataclass(frozen=True)
class CanonicalMoment:
    """Equivalence class of a cyclic word; the index of a moment m_{l1,...,lq}.

    runs == () encodes the empty word (moment value 1); a single run encodes
    a pure power tr A^l.  For q >= 2 the runs alternate A, B, A, B, ... in the
    canonical representative, so q is even.  Any runs of the class build it,
    as (2, 4) builds m_{4,2}: ``runs`` are always the canonical ones.
    """

    runs: tuple

    def __init__(self, runs=()):
        runs = tuple(runs)
        if not all(type(r) is int for r in runs):    # floats, bools and strings are refused
            runs = tuple(exact_int(r, "run length") for r in runs)
        if any(r <= 0 for r in runs):
            raise ValueError(f"run lengths must be positive, got {runs}")
        if len(runs) > 1 and len(runs) % 2 != 0:
            raise ValueError(f"alternating cyclic runs need even q, got {runs}")
        if len(runs) > 1:    # the class's own runs, whichever of its words ``runs`` spell
            runs = _canonical_from_string(CanonicalMoment._of(runs).rep_word()).runs
        object.__setattr__(self, "runs", runs)

    @classmethod
    def _of(cls, runs: tuple) -> "CanonicalMoment":
        """The class of runs that this module derived as canonical, built unchecked."""
        c = object.__new__(cls)
        object.__setattr__(c, "runs", runs)
        return c

    @property
    def degree(self) -> int:
        return sum(self.runs)

    @property
    def a_degree(self) -> int:
        return sum(self.runs[0::2])

    @property
    def b_degree(self) -> int:
        return sum(self.runs[1::2])

    def rep_word(self) -> str:
        """The canonical representative word of this class."""
        return "".join((A if i % 2 == 0 else B) * r for i, r in enumerate(self.runs))

    def is_empty(self) -> bool:
        return not self.runs

    def label(self) -> str:
        if not self.runs:
            return "m_0"
        return "m_{" + ",".join(str(r) for r in self.runs) + "}"

    def __repr__(self):
        return self.label()


def canonicalize(w: str) -> CanonicalMoment:
    """Orbit-minimal moment index of a word; deterministic.

    A word is validated on its first canonicalization only, so the cached
    lookup stays cheap inside the loop-equation recursion.
    """
    try:
        return _canonical_from_string(w)
    except TypeError:    # unhashable, such as a list of letters
        pass
    return _canonical_from_string(word_letters(w))


def vanishes_by_parity(c: CanonicalMoment) -> bool:
    """True iff the moment is odd in A or in B and hence identically zero.

    The quartic potential is invariant under A -> -A and under B -> -B
    separately, so any word with an odd letter count has vanishing moment.
    """
    return c.a_degree % 2 != 0 or c.b_degree % 2 != 0


def _necklaces(n: int):
    """Binary necklaces of length n >= 1 in lexicographic order (FKM).

    Each prenecklace's successor is the periodic extension of its prefix up
    to the last A, with that A raised to B; it is a necklace exactly when
    the period divides n.
    """
    s = A * n
    yield s
    while True:
        i = s.rfind(A)
        if i < 0:
            return
        period = i + 1
        s = ((s[:i] + B) * (n // period + 1))[:n]
        if n % period == 0:
            yield s


@lru_cache(maxsize=64)   # one entry per degree in use
def _canonical_moments(degree: int) -> tuple:
    """The classes of one degree, recording the class of each even necklace.

    An even necklace not seen yet in this pass is the first of its orbit
    listed, so its class's rep; the class is recorded for the orbit's other
    necklaces, which the pass then skips.
    """
    if degree == 0:
        return (CanonicalMoment._of(()),)
    out = []
    seen = set()
    for s in _necklaces(degree):
        a = s.count(A)
        if a % 2 or (degree - a) % 2 or s in seen:
            continue
        c = _NECKLACE_CLASSES[s] = CanonicalMoment._of(_runs_of(s))
        out.append(c)
        rev = s[::-1]
        for variant in (rev, s.translate(_SWAP), rev.translate(_SWAP)):
            v = _necklace(variant)
            seen.add(v)
            _NECKLACE_CLASSES[v] = c
    return tuple(sorted(out, key=lambda c: c.runs))


def iter_canonical_moments(degree: int) -> list:
    """Canonical moment classes of the exact given degree with even A- and
    B-degree (the ones parity does not kill), sorted."""
    return list(_canonical_moments(exact_int(degree, "degree", 0)))


def parse_moment_label(text: str) -> CanonicalMoment:
    """Parse 'm_{3,1,1,1}', '3,1,1,1' or a plain word like 'AABB'.

    Run lengths must be positive integers; the single run '0' (as in 'm_0',
    the label of the empty word) denotes the constant moment.  The runs
    alternate A, B, A, B, ..., so an odd number of them other than one is
    refused, as ``CanonicalMoment`` refuses it.
    """
    t = text.strip()
    if t.startswith("m_"):
        t = t[2:].strip("{}")
    if t.isalpha() or not t:
        return canonicalize(t)
    if t == "0":
        return CanonicalMoment(())
    parts = [x.strip() for x in t.split(",")]
    if not all(x.isdecimal() and int(x) > 0 for x in parts):
        raise ValueError(f"moment label {text!r}: run lengths must be positive integers")
    return CanonicalMoment(map(int, parts))
