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

One walk serves every entry point: ``_layouts`` yields the feasible cell
multisets of an order, and ``_matchings`` glues the darts of one of them
dart by dart, keeping the partial surface S' (the polygons glued along the
edges matched so far, each cylinder one annulus), its components and the
boundary cycles of their open darts.  A gluing is planar exactly when the
finished surface is one sphere: with n components of Euler characteristic
chi_i joined by c cylinders into one piece, chi = sum chi_i - 2c <= 2n -
2(n - 1) = 2, with equality iff every chi_i = 2 and the branch graph is a
tree (Guionnet & Maurel-Segala, ALEA 1, 2006).  So the planar walk, which
``moment_coefficient`` and ``cancellation_report`` use, skips two moves:

- a handle: gluing two darts of one component that lie on different
  boundary cycles raises its genus, and genus never falls again;
- a closed piece: a component left with no open dart while another exists,
  or with no word polygon to root it, can never join the rest.

Every other move keeps each component planar, so every leaf it reaches is
planar.  ``enumerate_gluings`` walks without the cuts and yields every
matching, in the same order.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .algebra import exact_int, positive_t2
from .words import word_letters

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


class _Layout:
    """Dart numbering for a word polygon plus a sequence of cells."""

    def __init__(self, word: str, kinds: tuple):
        word_polygon = tuple(RED if c == "A" else BLUE for c in word)
        cells = [CELLS[kind].boundaries for kind in kinds]
        self.word, self.kinds = word, kinds
        self.colors, self.nxt, self.polygon_of, self.branches = [], [], [], []
        n_poly = 0
        for boundaries in ([(word_polygon,)] if word_polygon else []) + cells:
            if len(boundaries) == 2:          # a cylinder: its two discs joined by a branch
                self.branches.append((n_poly, n_poly + 1))
            for boundary in boundaries:
                start, m = len(self.colors), len(boundary)
                self.colors.extend(boundary)
                self.nxt.extend(start + (i + 1) % m for i in range(m))
                self.polygon_of.extend([n_poly] * m)
                n_poly += 1
        self.n_polygons = n_poly
        self.reds = [i for i, c in enumerate(self.colors) if c == RED]
        self.blues = [i for i, c in enumerate(self.colors) if c == BLUE]
        sym = prod(factorial(kinds.count(kind)) for kind in set(kinds))
        self.weight = prod((CELLS[kind].factor for kind in kinds), start=Fraction(1, sym))


def _layouts(w: str, k: int):
    """The layout of each k-cell multiset whose colour counts are both even."""
    k = exact_int(k, "order k")
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    for kinds in itertools.combinations_with_replacement(list(CellKind), k):
        layout = _Layout(w, kinds)
        if len(layout.reds) % 2 == 0 and len(layout.blues) % 2 == 0:
            yield layout


def _matchings(layout: _Layout, planar: bool):
    """One partner array per colour-respecting perfect matching of the darts.

    The lowest open red dart, or the lowest open blue one once every red is
    matched, is glued to each open dart of its colour above it in turn.
    With ``planar`` a gluing that adds a handle or closes off a piece is
    skipped, so only the planar matchings are reached.
    """
    nxt, poly_of, n_red = layout.nxt, layout.polygon_of, len(layout.reds)
    darts = layout.reds + layout.blues
    n = len(darts)
    partner = [-1] * n
    succ, pred = nxt[:], [0] * n            # boundary cycles of S' over its open darts
    for h in range(n):
        pred[nxt[h]] = h
    comp = list(range(layout.n_polygons))   # component of each polygon in S'
    for pa, pb in layout.branches:
        comp[pb] = pa                       # a cylinder is one annulus face
    open_in = [sum(comp[p] == c for p in poly_of) for c in range(layout.n_polygons)]
    pieces = layout.n_polygons - len(layout.branches)
    rooted = bool(layout.word)

    def cut(a, b):
        ca, cb = comp[poly_of[a]], comp[poly_of[b]]
        if ca == cb:
            u = succ[a]
            while u != a and u != b:
                u = succ[u]
            if u == a:                      # b lies on another boundary cycle: a handle
                return True
        left = open_in[ca] + (open_in[cb] if ca != cb else 0) - 2
        return left == 0 and (pieces - (ca != cb) > 1 or not rooted)   # a closed piece

    def glue(a, b):
        nonlocal pieces
        saved = succ[:], pred[:], comp[:], open_in[:], pieces
        for x, y in ((a, b), (b, a)):       # the boundary that reached x leaves after y
            p, s = pred[x], succ[y]
            succ[p], pred[s] = s, p
        ca, cb = comp[poly_of[a]], comp[poly_of[b]]
        if ca != cb:
            comp[:] = [ca if c == cb else c for c in comp]
            open_in[ca] += open_in[cb]
            pieces -= 1
        open_in[ca] -= 2
        return saved

    def walk(i):
        nonlocal pieces
        while i < n and partner[darts[i]] >= 0:
            i += 1
        if i == n:
            yield partner[:]
            return
        a = darts[i]
        for b in darts[i + 1 : n_red if i < n_red else n]:
            if partner[b] >= 0 or (planar and cut(a, b)):
                continue
            partner[a], partner[b] = b, a
            saved = glue(a, b) if planar else None   # only the cuts read S'
            yield from walk(i + 1)
            partner[a] = partner[b] = -1
            if saved:
                succ[:], pred[:], comp[:], open_in[:], pieces = saved

    return walk(0)


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
    for layout in _layouts(w, k):
        for partner in _matchings(layout, planar):
            genus, is_planar, connected = _analyze(layout, partner)
            yield UnstableMap(
                word=w,
                cells=layout.kinds,
                pairing=tuple((h, p) for h, p in enumerate(partner) if h < p),
                genus=genus,
                planar=is_planar,
                connected=connected,
                weight=layout.weight,
            )


def enumerate_gluings(w: str, k: int):
    """Every colour-respecting gluing of the rooted w-polygon with k cells.

    Yields all matchings, planar or not, connected or not, each labelled;
    callers filter on the flags.  Cells are instance-labelled, so multisets
    with repeated kinds appear once per distinct matching of the labelled
    half-edges, with the 1/n! absorbed into the weight.
    """
    yield from _gluings(word_letters(w), k, planar=False)


def _edge_scale(w: str, k: int, t2) -> Fraction:
    """(8 t2)^edges: every gluing of (w, k) has (deg w + 4k) / 2 edges."""
    t2 = positive_t2(t2, "moment_coefficient")
    return (8 * t2) ** ((len(w) + 4 * exact_int(k, "order k")) // 2)


def moment_coefficient(w: str, k: int, t2) -> Fraction:
    """Coefficient of t4^k in the genus-0 moment of w, by the planar walk.

    Planar connected gluings only; each contributes its signed cell weight
    times the propagator factor (8 t2)^(-edges).
    """
    w = word_letters(w)
    scale = _edge_scale(w, k, t2)
    total = Fraction(0)
    for layout in _layouts(w, k):
        total += layout.weight * sum(1 for _ in _matchings(layout, True))
    return total / scale


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
    witnesses: tuple = ()       # planar maps left uncancelled, JSON-ready


def cancellation_report(k: int) -> CancellationReport:
    """Census of planar ABAB gluings at order k.

    Checks two separable claims: that every planar gluing contains at least
    one chequered quadrangle or opposite cylinder, and that the signed cell
    weights sum to zero.  The first holds; the second does not (the positive
    chequered-quadrangle gluings outnumber their would-be cylinder partners,
    whose branch closes a handle and leaves planarity), so the report keeps
    explicit witnesses: the first eight planar gluings.
    """
    pos = neg = 0
    signed = Fraction(0)
    distinguished_ok = True
    witnesses = []
    for m in _gluings("ABAB", k, planar=True):
        if m.weight > 0:
            pos += 1
        elif m.weight < 0:
            neg += 1
        signed += m.weight
        if not any(c in _DISTINGUISHED for c in m.cells):
            distinguished_ok = False
        if len(witnesses) < 8:
            witnesses.append(m.as_json())
    return CancellationReport(
        k=k,
        positive_weight_count=pos,
        negative_weight_count=neg,
        signed_sum=signed,
        all_have_distinguished_cell=distinguished_ok,
        paired=(signed == 0),
        witnesses=tuple(witnesses),
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
        root_mark = " (root)" if comp_of[0] == c else ""
        lines.append(f'  c{c} [label="component {c}{root_mark}"];')
    for pa, pb in layout.branches:
        lines.append(f"  c{comp_of[pa]} -- c{comp_of[pb]};")
    lines.append("}")
    return "\n".join(lines)


def dump_maps_json(maps) -> str:
    return json.dumps([m.as_json() for m in maps], indent=2)
