"""Enumeration of 2-colored unstable map gluings.

A moment's expansion coefficient at order t4^k is a sum over gluings of the
rooted word polygon with k additional 2-cells drawn from the seven kinds the
quartic potential produces (four quadrangles and three cylinders), glued by
a colour-respecting perfect matching of half-edges.  Cell weights are read
off the potential itself: each cell of a trace term with coefficient c in
the action contributes a factor -c (so the chequered quadrangle, which
enters the action negatively, is the one positive-weight cell), identical
cells carry the usual 1/n! of the exponential expansion, and every glued
edge carries the propagator weight 1/(8 t2).

Half-edges are fully labelled, exactly as in the underlying Wick expansion,
so no automorphism factors ever appear: two matchings are the same map only
if they are the same matching.  Genus is read off the closed surface: each
cylinder is two discs joined by a branch (a tube), so chi = V - E + F -
2 (cylinders), the pieces are the components of the glued edges and the
branches together, and genus = pieces - chi / 2.  A gluing contributes at
leading order iff it is one piece, rooted at the word polygon, of genus 0.

Planar gluings are built dart by dart.  ``_cell_multisets`` yields the
feasible cell multisets of an order.  The partial surface S' (the polygons
glued along the edges matched so far, each cylinder one annulus) is a tuple
of components, each a tuple of the boundary cycles of its open darts, and
``_moves`` glues the first open dart to each open dart of its colour: on
the same cycle the cycle splits, in another component the two merge.  A
gluing is planar exactly when the finished surface is one sphere: with n
components of Euler characteristic chi_i joined by c cylinders into one
piece, chi = sum chi_i - 2c <= 2n - 2(n - 1) = 2, with equality iff every
chi_i = 2 and the branch graph is a tree (Guionnet & Maurel-Segala, ALEA 1,
2006).  So ``_moves`` skips two moves:

- a handle: gluing two darts of one component that lie on different
  boundary cycles raises its genus, and genus never falls again;
- a closed piece: a component left with no open dart while another exists
  can never join the rest (nor can any piece with no word polygon to root
  it, which ``_planar_count`` refuses).

Every other move keeps each component planar, so every leaf it reaches is
planar.  The number of planar leaves below a node depends only on the
colour words of the open cycles (a blue dart spelled A, a red one B, so
``words._necklace`` rotates them), whatever the word or cell multiset it
came from.  So the count never labels a dart: ``_planar_count`` starts from
the word's colour necklace beside each cell's component, read off
``_CELL_COMPONENTS``, and ``_count`` makes the moves on colour words,
memoised in one module-level dict that every call shares.  Moves that
leave equal states, into equal free components or cycles or at the
equivalent darts of a periodic cycle, are made once and weighted by their
number.  ``moment_coefficient`` and ``cancellation_report`` sum the cell
weights times these counts.  The memo is emptied, between two cell
multisets and never inside a recursion, once it holds more than 2^16
states.  ``_planar_matchings`` makes the same moves on the dart labels of
a ``_Layout`` for the labelled planar maps of ``enumerate --dump``.
``_matchings`` is the plain brute force that ``enumerate_gluings`` lists
every matching from.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import exact_int, positive_t2
from .words import _cycle_necklace, word_letters

RED = "R"     # colour of A half-edges
BLUE = "B"    # colour of B half-edges


class CellKind(enum.Enum):
    RED_QUAD = "red-quadrangle"
    BLUE_QUAD = "blue-quadrangle"
    ADJACENT_QUAD = "adjacent-quadrangle"
    CHEQUERED_QUAD = "chequered-quadrangle"
    RED_CYLINDER = "red-cylinder"
    BLUE_CYLINDER = "blue-cylinder"
    OPPOSITE_CYLINDER = "opposite-cylinder"


@dataclass(frozen=True)
class TwoCell:
    """A glueable 2-cell: one or two cyclic boundaries of coloured half-edges."""

    kind: CellKind
    boundaries: tuple
    factor: Fraction   # coefficient of t4 contributed by one such cell


# factor = -(coefficient of the trace term in the quartic potential) / t4
CELLS = {
    CellKind.RED_QUAD: TwoCell(CellKind.RED_QUAD, ((RED, RED, RED, RED),), Fraction(-4)),
    CellKind.BLUE_QUAD: TwoCell(CellKind.BLUE_QUAD, ((BLUE, BLUE, BLUE, BLUE),), Fraction(-4)),
    CellKind.ADJACENT_QUAD: TwoCell(
        CellKind.ADJACENT_QUAD, ((RED, RED, BLUE, BLUE),), Fraction(-16)
    ),
    CellKind.CHEQUERED_QUAD: TwoCell(
        CellKind.CHEQUERED_QUAD, ((RED, BLUE, RED, BLUE),), Fraction(8)
    ),
    CellKind.RED_CYLINDER: TwoCell(
        CellKind.RED_CYLINDER, ((RED, RED), (RED, RED)), Fraction(-12)
    ),
    CellKind.BLUE_CYLINDER: TwoCell(
        CellKind.BLUE_CYLINDER, ((BLUE, BLUE), (BLUE, BLUE)), Fraction(-12)
    ),
    CellKind.OPPOSITE_CYLINDER: TwoCell(
        CellKind.OPPOSITE_CYLINDER, ((RED, RED), (BLUE, BLUE)), Fraction(-8)
    ),
}

_DISTINGUISHED = (CellKind.CHEQUERED_QUAD, CellKind.OPPOSITE_CYLINDER)


@dataclass(frozen=True)
class UnstableMap:
    """One labelled gluing: the rooted word polygon plus ``cells``, matched."""

    word: str
    cells: tuple                 # CellKind multiset, in slot order
    pairing: tuple               # ((dart, dart), ...) with dart < partner
    genus: int
    planar: bool                 # leading order: connected and genus 0
    connected: bool              # every cell reachable from the root polygon
    weight: Fraction             # coefficient of t4^k incl. sign and 1/n_i!

    def as_json(self) -> dict:
        return {
            "word": self.word or "1",
            "cells": [c.value for c in self.cells],
            "pairing": [list(p) for p in self.pairing],
            "genus": self.genus,
            "planar": self.planar,
            "connected": self.connected,
            "weight": str(self.weight),
        }


# A colour word spells a blue dart A and a red one B (blue first, as "B" < "R").
_SPELLING = {BLUE: "A", RED: "B"}
_WORD_COLOURS = str.maketrans("AB", "BA")   # a word's letter A is a red half-edge


class _Layout:
    """Dart numbering for a word polygon plus a sequence of cells."""

    def __init__(self, word: str, kinds: tuple):
        word_polygon = tuple(RED if c == "A" else BLUE for c in word)
        cells = [CELLS[kind].boundaries for kind in kinds]
        self.word, self.kinds = word, kinds
        self.colors, self.nxt, self.polygon_of, self.branches = [], [], [], []
        self.components = []                  # S' before any gluing; a dart's label is chr(dart)
        n_poly = 0
        for boundaries in ([(word_polygon,)] if word_polygon else []) + cells:
            if len(boundaries) == 2:          # a cylinder: its two discs joined by a branch
                self.branches.append((n_poly, n_poly + 1))
            cycles = []
            for boundary in boundaries:
                start, m = len(self.colors), len(boundary)
                cycles.append("".join(map(chr, range(start, start + m))))
                self.colors.extend(boundary)
                self.nxt.extend(start + (i + 1) % m for i in range(m))
                self.polygon_of.extend([n_poly] * m)
                n_poly += 1
            self.components.append(tuple(cycles))
        self.colour = {d: _SPELLING[c] for d, c in enumerate(self.colors)}   # for str.translate
        self.n_polygons = n_poly
        self.reds = [i for i, c in enumerate(self.colors) if c == RED]
        self.blues = [i for i, c in enumerate(self.colors) if c == BLUE]


@lru_cache(maxsize=1 << 12)
def _weight(kinds: tuple) -> Fraction:
    """Product of the cells' factors over the 1/n! of each repeated kind."""
    sym = prod(factorial(kinds.count(kind)) for kind in set(kinds))
    return prod((CELLS[kind].factor for kind in kinds), start=Fraction(1, sym))


_REDS = {kind: sum(b.count(RED) for b in cell.boundaries) for kind, cell in CELLS.items()}


def _cell_multisets(w: str, k: int):
    """Each k-cell multiset whose colour counts with the word's are both even.

    The counts are read off the kinds: every cell has four darts, so its
    blues have the parity of its reds.
    """
    reds = w.count("A")
    blues = len(w) - reds
    for kinds in itertools.combinations_with_replacement(list(CellKind), exact_int(k, "order k", 0)):
        cell_reds = sum(_REDS[kind] for kind in kinds)
        if (reds + cell_reds) % 2 == 0 and (blues + cell_reds) % 2 == 0:
            yield kinds


def _matchings(layout: _Layout):
    """One partner array per colour-respecting perfect matching of the darts.

    The lowest open red dart, or the lowest open blue one once every red is
    matched, is glued to each open dart of its colour above it in turn.
    """
    n_red, darts = len(layout.reds), layout.reds + layout.blues
    n = len(darts)
    partner = [-1] * n

    def walk(i):
        while i < n and partner[darts[i]] >= 0:
            i += 1
        if i == n:
            yield partner[:]
            return
        a = darts[i]
        for b in darts[i + 1 : n_red if i < n_red else n]:
            if partner[b] < 0:
                partner[a], partner[b] = b, a
                yield from walk(i + 1)
                partner[a] = partner[b] = -1

    return walk(0)


def _moves(state: tuple, colour: dict | None = None) -> list:
    """(partner, cycles, rest, n) for each planar gluing of the first open dart.

    ``state`` is S' as a tuple of components, each a tuple of its nonempty
    open cycles.  The cycles are colour words, or dart labels that
    ``colour`` translates to them.  ``cycles`` are the new component's,
    empty ones included, and ``rest`` the other components.  Moves that
    leave equal states are made once, and ``n`` is how many they are: into
    one of a run of equal neighbours in ``rest`` or in a component, or at
    one dart of each period of a periodic cycle.  Only colour words repeat,
    so with dart labels every ``n`` is 1.
    """
    (cycle, *others), rest = state[0], state[1:]
    first, tail = cycle[0], cycle[1:]
    if colour is not None:
        first = first.translate(colour)
    moves = [
        (tail[j], others + [tail[:j], tail[j + 1 :]], rest, 1)
        for j, c in enumerate(tail if colour is None else tail.translate(colour)) if c == first
    ]
    for i, comp in enumerate(rest):   # never another cycle of this component: a handle
        if i and comp == rest[i - 1]:
            continue
        n, left = rest.count(comp), rest[:i] + rest[i + 1 :]
        for m, other in enumerate(comp):
            spelled = other if colour is None else other.translate(colour)
            if first not in spelled or m and other == comp[m - 1]:
                continue
            period = (other + other).find(other, 1)
            same = n * comp.count(other) * (len(other) // period)
            kept = others + list(comp[:m] + comp[m + 1 :])
            moves += [
                (other[j], kept + [tail + other[j + 1 :] + other[:j]], left, same)
                for j, c in enumerate(spelled[:period]) if c == first
            ]
    return [move for move in moves if any(move[1]) or not move[2]]   # no closed piece


def _component(cycles) -> tuple:
    """A component of S' as the sorted least rotations of its open cycles."""
    return tuple(sorted(map(_cycle_necklace, filter(None, cycles))))


# The component of each cell kind, before any gluing.
_CELL_COMPONENTS = {
    kind: _component("".join(map(_SPELLING.get, b)) for b in cell.boundaries)
    for kind, cell in CELLS.items()
}

# Planar completions of each canonical state met so far, shared by every
# call.  One moment_coefficient("AA", 7, 1) alone meets 164,568 states, so an
# evicting cache would drop live states mid-recursion; this one is emptied
# whole, only between cell multisets, once it exceeds _MEMO_CAP.
_PLANAR_COUNTS: dict = {}
_MEMO_CAP = 1 << 16


def _planar_count(w: str, kinds: tuple) -> int:
    """The number of planar matchings of the word w with the cells ``kinds``.

    The completions of a partial surface depend only on its components and
    the colour words of their open boundary cycles, so ``_count`` recurses
    over that canonical state, memoised in ``_PLANAR_COUNTS``.  The start
    state is the word's colour necklace beside each cell's component; no
    dart is labelled.
    """
    if len(_PLANAR_COUNTS) > _MEMO_CAP:
        _PLANAR_COUNTS.clear()
    if not w:                 # nothing is rooted: only the empty gluing counts
        return int(not kinds)
    root = (_cycle_necklace(w.translate(_WORD_COLOURS)),)
    return _count(tuple(sorted((root, *map(_CELL_COMPONENTS.get, kinds)))))


def _count(state: tuple) -> int:
    """Planar completions of a sorted tuple of ``_component``s."""
    memo = _PLANAR_COUNTS
    total = memo.get(state)
    if total is not None:
        return total
    total = 0
    for _, cycles, rest, n in _moves(state):
        comp = _component(cycles)     # none left: the gluing is complete
        total += n * _count(tuple(sorted((*rest, comp)))) if comp else n
    memo[state] = total
    return total


def _planar_matchings(layout: _Layout) -> list:
    """The partner arrays of the planar matchings of ``layout``, in ``_matchings``'s order."""
    partner, found = [-1] * len(layout.colors), []

    def walk(state):          # every dart is matched again on the way to the next leaf
        if not state:
            found.append(partner[:])
            return
        a = ord(state[0][0][0])
        for b, cycles, rest, _ in _moves(state, layout.colour):
            partner[a], partner[ord(b)] = ord(b), a
            comp = tuple(c for c in cycles if c)
            walk((comp, *rest) if comp else rest)

    if _planar_count(layout.word, layout.kinds):   # also refuses the layouts with no word to root them
        walk(tuple(layout.components))
    darts = layout.reds + layout.blues
    return sorted(found, key=lambda p: [p[d] for d in darts])


def _components(layout: _Layout, partner: list[int], links=()) -> list[int]:
    """Root of each polygon's component in the graph of glued edges and ``links``."""
    polygon_of = layout.polygon_of
    parent = list(range(layout.n_polygons))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = ((polygon_of[h], polygon_of[partner[h]]) for h in range(len(polygon_of)))
    for pa, pb in itertools.chain(edges, links):
        a, b = find(pa), find(pb)
        if a != b:
            parent[a] = b
    return [find(p) for p in range(layout.n_polygons)]


def _analyze(layout: _Layout, partner: list[int]):
    """(genus, planar, connected) of one complete matching.

    Each cylinder is two discs joined by a tube, so the closed surface has
    chi = V - E + F - 2 (cylinders), and its pieces are the components of
    the glued edges and the branches together; genus = pieces - chi / 2.
    """
    n_darts = len(layout.colors)
    nxt = layout.nxt
    verts = 0
    visited = bytearray(n_darts)
    for h0 in range(n_darts):
        if not visited[h0]:
            verts += 1
            h = h0
            while not visited[h]:
                visited[h] = 1
                h = nxt[partner[h]]
    chi = verts - n_darts // 2 + layout.n_polygons - 2 * len(layout.branches)
    if chi % 2 != 0:
        raise AssertionError("odd Euler characteristic: gluing bookkeeping broken")
    pieces = len(set(_components(layout, partner, layout.branches)))
    # with no word polygon nothing is rooted: only the empty gluing counts
    connected = pieces == 1 if layout.word else not pieces
    genus = pieces - chi // 2
    return genus, connected and genus == 0, connected


def _gluings(w: str, k: int, planar: bool):
    """The labelled gluings of (w, k); with ``planar`` only the planar ones."""
    for kinds in _cell_multisets(w, k):
        layout = _Layout(w, kinds)
        for partner in _planar_matchings(layout) if planar else _matchings(layout):
            genus, is_planar, connected = _analyze(layout, partner)
            yield UnstableMap(
                word=layout.word,
                cells=layout.kinds,
                pairing=tuple((h, p) for h, p in enumerate(partner) if h < p),
                genus=genus,
                planar=is_planar,
                connected=connected,
                weight=_weight(kinds),
            )


def enumerate_gluings(w: str, k: int):
    """Every colour-respecting gluing of the rooted w-polygon with k cells.

    Yields all matchings, planar or not, connected or not, each labelled;
    callers filter on the flags.  Cells are instance-labelled, so multisets
    with repeated kinds appear once per distinct matching of the labelled
    half-edges, with the 1/n! absorbed into the weight.
    """
    yield from _gluings(word_letters(w), k, planar=False)


def moment_coefficient(w: str, k: int, t2) -> Fraction:
    """Coefficient of t4^k in the genus-0 moment of w, by the planar count.

    Planar connected gluings only; each contributes its signed cell weight
    times the propagator factor (8 t2)^(-edges), and every gluing of (w, k)
    has (deg w + 4k) / 2 edges.  Each cell multiset's planar count is a
    recursion over colour words, with no labelled dart, and comes from the
    module's one memo, which later calls reuse.
    """
    w = word_letters(w)
    t2 = positive_t2(t2, "moment_coefficient")
    scale = (8 * t2) ** ((len(w) + 4 * exact_int(k, "order k", 0)) // 2)
    return sum(_weight(kinds) * _planar_count(w, kinds) for kinds in _cell_multisets(w, k)) / scale


@dataclass(frozen=True)
class CancellationReport:
    """Signed census of the planar gluings of the alternating 4-letter word."""

    k: int
    positive_weight_count: int
    negative_weight_count: int
    signed_sum: Fraction        # sum of cell weights over planar gluings
    all_have_distinguished_cell: bool           # every planar gluing holds a chequered quad
                                # or an opposite cylinder
    paired: bool                # cancellation: signed_sum == 0


def cancellation_report(k: int) -> CancellationReport:
    """Census of planar ABAB gluings at order k.

    Checks two separable claims: that every planar gluing contains at least
    one chequered quadrangle or opposite cylinder, and that the signed cell
    weights sum to zero.  The first holds; the second does not (the positive
    chequered-quadrangle gluings outnumber their would-be cylinder partners,
    whose branch closes a handle and leaves planarity).  The uncancelled
    planar maps themselves are listed by ``enumerate --dump``.
    """
    counts = [(kinds, _weight(kinds), _planar_count("ABAB", kinds)) for kinds in _cell_multisets("ABAB", k)]
    signed = sum((weight * n for _, weight, n in counts), Fraction(0))
    return CancellationReport(
        k=k,
        positive_weight_count=sum(n for _, weight, n in counts if weight > 0),
        negative_weight_count=sum(n for _, weight, n in counts if weight < 0),
        signed_sum=signed,
        all_have_distinguished_cell=all(
            any(c in _DISTINGUISHED for c in kinds) for kinds, _, n in counts if n
        ),
        paired=(signed == 0),
    )


def branch_graph_dot(m: UnstableMap) -> str:
    """DOT rendering of the component/branch structure of one gluing."""
    layout = _Layout(m.word, m.cells)
    partner = [0] * len(layout.colors)
    for a, b in m.pairing:
        partner[a], partner[b] = b, a
    comp_of = _components(layout, partner)
    lines = ["graph branches {"]
    for c in sorted(set(comp_of)):
        root_mark = " (root)" if m.word and comp_of[0] == c else ""
        lines.append(f'  c{c} [label="component {c}{root_mark}"];')
    for pa, pb in layout.branches:
        lines.append(f"  c{comp_of[pa]} -- c{comp_of[pb]};")
    lines.append("}")
    return "\n".join(lines)


def dump_maps_json(maps) -> str:
    return json.dumps([m.as_json() for m in maps], indent=2)
