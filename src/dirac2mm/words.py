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
validates and upper-cases one at each public entry point, ``canonicalize``
on every call, which then reads the class recorded for the string's least
rotation.  Only a necklace not recorded forms its orbit (``_orbit``, as the
enumeration does) and records it.
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
    starts are compared, keeping the least met so far; most words have one.
    """
    n = len(letters)
    doubled = letters + letters
    key = B + A * top
    i = doubled.find(key)
    least = doubled[i + 1 : i + 1 + n]
    i = doubled.find(key, i + 1)
    while 0 <= i < n:
        rotation = doubled[i + 1 : i + 1 + n]
        if rotation < least:
            least = rotation
        i = doubled.find(key, i + 1)
    return least


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

# The class of each necklace met: the one store between a string and its
# class.  An enumeration records each even necklace of its degree, a lookup
# miss the necklaces of one orbit.  Past _CLASSES_CAP (solve_series(10, 6, 1)
# records 131,942) it is emptied whole, never during an enumeration; a degree
# still in _canonical_moments' cache is then not recorded again, and its
# necklaces take the miss path, which records their orbits again.
_NECKLACE_CLASSES: dict = {}
_CLASSES_CAP = 1 << 18


def _orbit(s: str, top_a: int, top_b: int) -> tuple:
    """Least rotations of the reverse, the swap and the reversed swap of s.

    s has both letters, and its longest cyclic runs of A and B are top_a and top_b.
    """
    rev = s[::-1]
    return (
        _least_rotation(rev, top_a),
        _least_rotation(s.translate(_SWAP), top_b),
        _least_rotation(rev.translate(_SWAP), top_b),
    )


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
            runs = canonicalize(CanonicalMoment._of(runs).rep_word()).runs
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

    The word is validated on every call.  Its class is the one recorded for
    its necklace; on a miss, the class of the least necklace of its orbit,
    recorded for each necklace of that orbit.
    """
    necklace = _necklace(word_letters(w))
    c = _NECKLACE_CLASSES.get(necklace)
    if c is not None:
        return c
    if A not in necklace or B not in necklace:    # the pure power or the empty word
        return CanonicalMoment._of((len(necklace),) if necklace else ())
    doubled = necklace + necklace
    orbit = (necklace, *_orbit(necklace, max(map(len, doubled.split(B))), max(map(len, doubled.split(A)))))
    c = CanonicalMoment._of(_runs_of(min(orbit)))
    if len(_NECKLACE_CLASSES) > _CLASSES_CAP:
        _NECKLACE_CLASSES.clear()
    for v in orbit:
        _NECKLACE_CLASSES[v] = c
    return c


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
    necklaces, which the pass then skips.  Those are ``_orbit``'s least
    rotations of the rep's reverse, swap and reversed swap, whose longest
    runs are read off the rep's runs: its first, since a necklace starts
    with its longest A-run, and the longest of its B-runs.  The orbit of the
    pure power holds A*degree and B*degree alone.
    """
    if len(_NECKLACE_CLASSES) > _CLASSES_CAP:
        _NECKLACE_CLASSES.clear()
    if degree == 0:
        return (CanonicalMoment._of(()),)
    if degree % 2:    # every word is odd in A or in B
        return ()
    power = _NECKLACE_CLASSES[A * degree] = _NECKLACE_CLASSES[B * degree] = CanonicalMoment._of((degree,))
    out = [power]
    seen = {A * degree, B * degree}
    for s in _necklaces(degree):
        if s in seen or s.count(A) % 2:
            continue
        runs = _runs_of(s)
        c = _NECKLACE_CLASSES[s] = CanonicalMoment._of(runs)
        out.append(c)
        for v in _orbit(s, runs[0], max(runs[1::2])):
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
