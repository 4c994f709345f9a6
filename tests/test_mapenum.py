import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction as F

import pytest

from dirac2mm.mapenum import (
    CELLS,
    CellKind,
    _analyze,
    _layouts,
    _matchings,
    branch_graph_dot,
    cancellation_report,
    dump_maps_json,
    enumerate_gluings,
    moment_coefficient,
)
from dirac2mm.solver import gaussian_moment, solve_series
from dirac2mm.words import canonicalize, iter_canonical_moments


class TestCells:
    def test_half_edge_counts(self):
        for cell in CELLS.values():
            assert sum(len(b) for b in cell.boundaries) == 4

    def test_boundary_colour_patterns(self):
        assert CELLS[CellKind.ADJACENT_QUAD].boundaries == (("R", "R", "B", "B"),)
        assert CELLS[CellKind.CHEQUERED_QUAD].boundaries == (("R", "B", "R", "B"),)
        assert CELLS[CellKind.OPPOSITE_CYLINDER].boundaries == (("R", "R"), ("B", "B"))

    def test_only_chequered_weight_is_positive(self):
        signs = {kind: cell.factor > 0 for kind, cell in CELLS.items()}
        assert signs.pop(CellKind.CHEQUERED_QUAD) is True
        assert not any(signs.values())


class TestEnumerateGluings:
    def test_bare_two_gon(self):
        maps = list(enumerate_gluings("AA", 0))
        assert len(maps) == 1
        (m,) = maps
        assert m.planar and m.connected and m.genus == 0
        assert m.pairing == ((0, 1),)

    def test_bare_alternating_square_is_a_torus(self):
        maps = list(enumerate_gluings("ABAB", 0))
        assert len(maps) == 1
        assert maps[0].genus == 1 and not maps[0].planar

    def test_pure_square_gluings(self):
        maps = list(enumerate_gluings("AAAA", 0))
        assert len(maps) == 3
        assert sorted(m.genus for m in maps) == [0, 0, 1]

    def test_colour_conservation(self):
        for m in enumerate_gluings("AABB", 1):
            layout_colors = ["R", "R", "B", "B"]
            for kind in m.cells:
                for boundary in CELLS[kind].boundaries:
                    layout_colors.extend(boundary)
            for a, b in m.pairing:
                assert layout_colors[a] == layout_colors[b]

    def test_alternating_square_order_one_census(self):
        planar = [m for m in enumerate_gluings("ABAB", 1) if m.planar]
        assert len(planar) == 2
        assert {m.cells for m in planar} == {(CellKind.CHEQUERED_QUAD,)}
        assert all(m.weight == 8 for m in planar)

    def test_genus_independent_of_cell_ordering(self):
        # the same multiset listed in any order yields the same census
        def census(kinds):
            out = {}
            for m in enumerate_gluings("AABB", 2):
                if sorted(c.value for c in m.cells) == sorted(k.value for k in kinds):
                    key = (m.genus, m.planar)
                    out[key] = out.get(key, 0) + 1
            return out

        kinds = (CellKind.RED_QUAD, CellKind.OPPOSITE_CYLINDER)
        assert census(kinds) == census(tuple(reversed(kinds)))

    def test_disconnected_gluings_are_flagged(self):
        flags = [(m.connected, m.planar) for m in enumerate_gluings("AA", 1)]
        assert (False, False) in flags  # cell glued to itself, detached from the root


class TestMomentCoefficient:
    def test_leading_orders_of_second_moment(self):
        assert moment_coefficient("AA", 0, 1) == F(1, 8)
        assert moment_coefficient("AA", 1, 1) == F(-1, 4)

    def test_alternating_moment_census(self):
        assert moment_coefficient("ABAB", 0, 1) == 0
        assert moment_coefficient("ABAB", 1, 1) == F(1, 256)
        assert moment_coefficient("ABAB", 2, 1) == F(-9, 256)

    def test_order_zero_is_gaussian(self):
        for letters in ("AA", "AAAA", "AABB", "ABAB", "AABAAB", "AAAABB"):
            assert moment_coefficient(letters, 0, 1) == gaussian_moment(letters, 1)
            assert moment_coefficient(letters, 0, F(1, 3)) == gaussian_moment(letters, F(1, 3))

    def test_agreement_with_recursion_to_degree_four(self):
        table = solve_series(D=4, K=2, t2=1)
        for letters in ("AA", "AAAA", "AABB", "ABAB"):
            c = canonicalize(letters)
            for k in range(3):
                assert moment_coefficient(letters, k, 1) == table.series(c).coefficient(k)

    def test_t2_dependence(self):
        table = solve_series(D=2, K=1, t2=F(5, 2))
        assert moment_coefficient("AA", 1, F(5, 2)) == table.series("AA").coefficient(1)


def _assert_walk_is_planar_subsequence(degree, k):
    for c in iter_canonical_moments(degree):
        for layout in _layouts(c.rep_word(), k):
            every = list(_matchings(layout, False))
            planar = [p for p in every if _analyze(layout, p)[1]]
            assert list(_matchings(layout, True)) == planar, (c.label(), layout.kinds)


class TestPlanarWalk:
    @pytest.mark.parametrize("degree, k", [(d, k) for d in (0, 2, 4) for k in range(3)] + [(6, 0), (6, 1)])
    def test_cuts_keep_exactly_the_planar_matchings(self, degree, k):
        _assert_walk_is_planar_subsequence(degree, k)

    @pytest.mark.slow
    def test_cuts_keep_exactly_the_planar_matchings_degree_six_order_two(self):
        _assert_walk_is_planar_subsequence(6, 2)

    def test_alternating_moment_at_order_three(self):
        assert moment_coefficient("ABAB", 3, 1) == F(141, 512)

    @pytest.mark.slow
    def test_agreement_with_recursion_at_order_three(self):
        table = solve_series(D=4, K=3, t2=1)
        for degree in (2, 4):
            for c in iter_canonical_moments(degree):
                assert moment_coefficient(c.rep_word(), 3, 1) == table.series(c).coefficient(3)


class TestEmptyWord:
    def test_moment_is_one(self):
        assert moment_coefficient("", 0, F(3, 2)) == 1
        assert [moment_coefficient("", k, 1) for k in (1, 2)] == [0, 0]

    def test_empty_gluing_is_planar_and_connected(self):
        (m,) = enumerate_gluings("", 0)
        assert m.planar and m.connected and m.genus == 0 and m.pairing == ()

    def test_cell_only_gluings_are_vacuum_pieces(self):
        maps = list(enumerate_gluings("", 1))
        assert maps and not any(m.planar or m.connected for m in maps)

    @pytest.mark.parametrize("k, census", [(1, {0: 8, 1: 7}), (2, {0: 221, 1: 485, 2: 194})])
    def test_genus_census_is_pinned(self, k, census):
        # genus of the word-less gluings, whose pieces are all disconnected
        # from any root; frozen from the per-component Euler characteristics
        maps = list(enumerate_gluings("", k))
        assert not any(m.connected for m in maps)
        assert Counter(m.genus for m in maps) == census


class TestDomain:
    @pytest.mark.parametrize("k", [-1, True, 1.0, F(1)])
    def test_every_entry_point_rejects_a_bad_order(self, k):
        with pytest.raises(ValueError, match="order k"):
            moment_coefficient("AA", k, 1)
        with pytest.raises(ValueError, match="order k"):
            list(enumerate_gluings("AB", k))
        with pytest.raises(ValueError, match="order k"):
            cancellation_report(k)

    @pytest.mark.parametrize("t2", [0, -1])
    def test_nonpositive_t2_raises(self, t2):
        # at t2 = 0 the propagator 1/(8 t2) is undefined, even for words with no gluing
        for letters in ("AA", "AB"):
            with pytest.raises(ValueError, match="t2 > 0"):
                moment_coefficient(letters, 1, t2)


class TestCancellation:
    def test_vacuous_at_order_zero(self):
        r = cancellation_report(0)
        assert (r.positive_weight_count, r.negative_weight_count) == (0, 0)
        assert r.paired and r.all_have_distinguished_cell

    def test_order_one_census(self):
        r = cancellation_report(1)
        assert (r.positive_weight_count, r.negative_weight_count) == (2, 0)
        assert r.signed_sum == 16
        assert r.all_have_distinguished_cell and not r.paired
        assert len(r.witnesses) == 2

    def test_order_two_census(self):
        r = cancellation_report(2)
        assert (r.positive_weight_count, r.negative_weight_count) == (0, 136)
        assert r.signed_sum == -9216
        assert r.all_have_distinguished_cell and not r.paired

    def test_census_matches_moment_coefficient(self):
        # sum of signed cell weights / (8 t2)^edges must equal the coefficient
        for k in (1, 2):
            r = cancellation_report(k)
            edges = (4 + 4 * k) // 2
            assert r.signed_sum / F(8) ** edges == moment_coefficient("ABAB", k, 1)


class TestExports:
    def test_dot_and_json(self):
        maps = [m for m in enumerate_gluings("AA", 1) if m.planar]
        assert maps, "expected planar gluings of the two-gon with one cell"
        dot = branch_graph_dot(maps[0])
        assert dot.startswith("graph branches {") and dot.endswith("}")
        payload = dump_maps_json(maps[:2])
        assert '"word": "AA"' in payload


def _pinned_cases():
    for degree in range(1, 5):
        for letters in itertools.product("AB", repeat=degree):
            for k in (0, 1):
                yield "".join(letters), k
    for letters in ("AA", "AABB", "ABAB"):
        yield letters, 2


def test_gluings_are_pinned():
    # SHA-256 of the JSON of every gluing, the DOT of every planar one and
    # the coefficient at t2 = 3/2, for every non-empty word of degree <= 4
    # at k <= 1 and three words at k = 2, frozen from the brute-force
    # matching loop before the planar cuts (the empty word is TestEmptyWord's)
    digest = hashlib.sha256()
    count = 0
    for letters, k in _pinned_cases():
        digest.update(f"{letters} {k}\n".encode())
        for m in enumerate_gluings(letters, k):
            count += 1
            digest.update(json.dumps(m.as_json(), sort_keys=True).encode() + b"\n")
            if m.planar:
                digest.update(branch_graph_dot(m).encode() + b"\n")
        digest.update(f"{moment_coefficient(letters, k, F(3, 2))}\n".encode())
    assert count == 29_072
    assert digest.hexdigest() == "8768c5cda101e22230f5098adbf9ef8aa58228da0b673be11a2997483ddebe94"
