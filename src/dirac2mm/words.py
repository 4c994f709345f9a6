"""Noncommutative words in the alphabet {A, B} and their cyclic canonical forms.

A mixed moment is indexed by a word only up to cyclic rotation (trace
invariance), whole-word reversal (moments of Hermitian matrices are real) and
the global A<->B swap (the potential is symmetric in the two matrices).
``CanonicalMoment`` is the quotient object: the lexicographically least
letter string over the full orbit, stored as its alternating run lengths
(l1, l2, ..., lq), i.e. the index of m_{l1,...,lq}.

The least string of an orbit is the least of four least rotations, one each
of the word, its reverse, its swap and its reversed swap; no orbit set is
built.  Booth ("Lexicographically least circular substrings", 1980) finds a
least rotation in linear time, but for words of about twenty letters it is
faster in Python to compare only the rotations that start at a longest run
of A, found with ``str.find`` on the doubled word.

The classes of one degree are enumerated without visiting all 2^d strings.
The FKM algorithm (Fredricksen, Kessler and Maiorana; Ruskey, Savage and
Wang 1992) lists the binary necklaces, the strings that are their own least
rotation, and a necklace is kept when neither reversal nor the swap gives a
smaller string, as in Sawada's bracelet generation (SIAM J. Comput. 2001).

The loop-equation and solver modules work on plain letter strings; ``Word``
validates input at the public entry points, and ``canonicalize`` validates
a string the first time it sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import exact_int

A = "A"
B = "B"
_SWAP = str.maketrans("AB", "BA")


@dataclass(frozen=True)
class Word:
    """A finite word over {A, B}; possibly empty."""

    letters: str

    def __init__(self, letters=""):
        if isinstance(letters, Word):
            letters = letters.letters
        s = str(letters).upper()
        if not set(s) <= {A, B}:
            raise ValueError(f"word must use letters A/B only, got {letters!r}")
        object.__setattr__(self, "letters", s)

    @property
    def degree(self) -> int:
        return len(self.letters)

    @property
    def a_degree(self) -> int:
        return self.letters.count(A)

    @property
    def b_degree(self) -> int:
        return self.letters.count(B)

    def rotate(self, k: int = 1) -> "Word":
        if not self.letters:
            return self
        k %= len(self.letters)
        return Word(self.letters[k:] + self.letters[:k])

    def reverse(self) -> "Word":
        return Word(self.letters[::-1])

    def swap(self) -> "Word":
        return Word(self.letters.translate(_SWAP))

    def __add__(self, other) -> "Word":
        return Word(self.letters + Word(other).letters)

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters or "1"

    def __repr__(self):
        return f"Word({self.letters!r})"


def orbit(letters: str) -> set[str]:
    """Full rotation x reversal x swap orbit of a letter string (brute force)."""
    out = set()
    for base in (letters, letters[::-1]):
        for var in (base, base.translate(_SWAP)):
            for k in range(max(1, len(var))):
                out.add(var[k:] + var[:k])
    return out


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
    """Least string of the orbit of a nonempty letter string.

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


# Bounded so that deep solves keep a fixed footprint.  solve_series(8, 4)
# canonicalizes about 39k distinct strings, so its hit ratio is unchanged.
@lru_cache(maxsize=1 << 16)
def _canonical_from_string(letters: str) -> "CanonicalMoment":
    letters = Word(letters).letters   # validated once per distinct string
    if not letters:
        return CanonicalMoment(())
    return CanonicalMoment(_runs_of(_canonical_rep(letters)))


@dataclass(frozen=True)
class CanonicalMoment:
    """Equivalence class of a cyclic word; the index of a moment m_{l1,...,lq}.

    runs == () encodes the empty word (moment value 1); a single run encodes
    a pure power tr A^l.  For q >= 2 the runs alternate A, B, A, B, ... in the
    canonical representative, so q is even.
    """

    runs: tuple

    def __init__(self, runs=()):
        runs = tuple(int(r) for r in runs)
        if any(r <= 0 for r in runs):
            raise ValueError(f"run lengths must be positive, got {runs}")
        if len(runs) > 1 and len(runs) % 2 != 0:
            raise ValueError(f"alternating cyclic runs need even q, got {runs}")
        object.__setattr__(self, "runs", runs)

    @property
    def degree(self) -> int:
        return sum(self.runs)

    @property
    def q(self) -> int:
        return len(self.runs)

    @property
    def a_degree(self) -> int:
        return sum(self.runs[0::2])

    @property
    def b_degree(self) -> int:
        return sum(self.runs[1::2])

    def rep_word(self) -> Word:
        """The canonical representative word of this class."""
        out = []
        for i, r in enumerate(self.runs):
            out.append((A if i % 2 == 0 else B) * r)
        return Word("".join(out))

    def is_empty(self) -> bool:
        return not self.runs

    def label(self) -> str:
        if not self.runs:
            return "m_0"
        return "m_{" + ",".join(str(r) for r in self.runs) + "}"

    def as_json(self) -> list:
        return list(self.runs)

    def __repr__(self):
        return self.label()


def canonicalize(w: Word | str) -> CanonicalMoment:
    """Orbit-minimal moment index of a word or letter string; deterministic.

    A string is validated on its first canonicalization only, so plain
    strings are the cheap input inside the loop-equation recursion.
    """
    return _canonical_from_string(w if isinstance(w, str) else Word(w).letters)


def splits_at(w: Word | str, letter: str) -> list[tuple[Word, Word]]:
    """(prefix, suffix) pairs around each occurrence of ``letter`` in w.

    These are the factorized trace pairs on the left side of the loop
    equation of w: one pair per occurrence, in positional order.
    """
    w = Word(w)
    if letter not in (A, B):
        raise ValueError(f"letter must be A or B, got {letter!r}")
    out = []
    for p, c in enumerate(w.letters):
        if c == letter:
            out.append((Word(w.letters[:p]), Word(w.letters[p + 1 :])))
    return out


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


@lru_cache(maxsize=64)   # one entry per (degree, even_only) in use
def _canonical_moments(degree: int, even_only: bool) -> tuple:
    if degree == 0:
        return (CanonicalMoment(()),)
    out = []
    for s in _necklaces(degree):
        if s != _canonical_rep(s):
            continue
        a = s.count(A)
        if even_only and (a % 2 or (degree - a) % 2):
            continue
        out.append(CanonicalMoment(_runs_of(s)))
    return tuple(sorted(out, key=lambda c: c.runs))


def iter_canonical_moments(degree: int, even_only: bool = True) -> list:
    """All canonical moment classes of the exact given degree, sorted.

    With even_only, only classes with even A- and B-degree (the ones not
    killed by parity) are produced.
    """
    degree = exact_int(degree, "degree")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return list(_canonical_moments(degree, bool(even_only)))


def parse_moment_label(text: str) -> CanonicalMoment:
    """Parse 'm_{3,1,1,1}', '3,1,1,1' or a plain word like 'AABB'.

    Run lengths must be positive integers; the single run '0' (as in 'm_0',
    the label of the empty word) denotes the constant moment.
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
    return canonicalize("".join((A if i % 2 == 0 else B) * int(r) for i, r in enumerate(parts)))
