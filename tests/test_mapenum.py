import hashlib
import io
import itertools
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from dirac2mm import cli, mapenum
from dirac2mm.mapenum import (
    CELLS,
    CellKind,
    _Layout,
    _analyze,
    _cell_multisets,
    _matchings,
    _planar_count,
    _planar_matchings,
    branch_graph_dot,
    cancellation_report,
    dump_maps_json,
    enumerate_gluings,
    moment_coefficient,
)
from dirac2mm.solver import solve_series
from dirac2mm.words import canonicalize, iter_canonical_moments
from reference import gaussian_moment


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


def _layouts(w, k):
    return [_Layout(w, kinds) for kinds in _cell_multisets(w, k)]


def _assert_walk_is_planar_subsequence(degree, k):
    for c in iter_canonical_moments(degree):
        for layout in _layouts(c.rep_word(), k):
            planar = [p for p in _matchings(layout) if _analyze(layout, p)[1]]
            assert _planar_matchings(layout) == planar, (c.label(), layout.kinds)


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


def _assert_count_equals_walk(degree, k):
    # the oracle is the brute-force filter: the count and the planar walk share _moves
    for c in iter_canonical_moments(degree):
        for layout in _layouts(c.rep_word(), k):
            leaves = sum(1 for p in _matchings(layout) if _analyze(layout, p)[1])
            assert _planar_count(layout.word, layout.kinds) == leaves, (c.label(), layout.kinds)


class TestPlanarCount:
    @pytest.mark.parametrize("degree, k", [(d, k) for d in (0, 2, 4) for k in range(3)] + [(6, 0), (6, 1)])
    def test_count_equals_the_planar_walk(self, degree, k):
        _assert_count_equals_walk(degree, k)

    @pytest.mark.slow
    def test_count_equals_the_planar_walk_degree_six_order_two(self):
        _assert_count_equals_walk(6, 2)

    @pytest.mark.slow
    def test_agreement_with_recursion_at_order_four(self):
        table = solve_series(D=4, K=4, t2=1)
        for degree in (0, 2, 4):
            for c in iter_canonical_moments(degree):
                assert moment_coefficient(c.rep_word(), 4, 1) == table.series(c).coefficient(4)


def _words(max_degree):
    return ["".join(w) for d in range(max_degree + 1) for w in itertools.product("AB", repeat=d)]


def _cold(w, kinds):
    """(planar count, states met) of one cell multiset counted from an empty memo."""
    mapenum._PLANAR_COUNTS.clear()
    return _planar_count(w, kinds), len(mapenum._PLANAR_COUNTS)


class TestPlanarMemo:
    CASES = [(w, k) for w in _words(6) for k in range(3)]

    @pytest.fixture(scope="class")
    def cold(self):
        values = {}
        for w, k in self.CASES:
            mapenum._PLANAR_COUNTS.clear()
            values[w, k] = moment_coefficient(w, k, 1)
        return values

    def test_warm_memo_gives_the_cold_values_in_either_order(self, cold):
        for cases in (self.CASES, self.CASES[::-1]):
            mapenum._PLANAR_COUNTS.clear()
            assert {(w, k): moment_coefficient(w, k, 1) for w, k in cases} == cold

    @pytest.mark.parametrize("k", range(3))
    def test_cancellation_report_is_the_same_cold_or_warm(self, k):
        mapenum._PLANAR_COUNTS.clear()
        report = cancellation_report(k)
        for w, j in self.CASES:
            moment_coefficient(w, j, 1)
        assert cancellation_report(k) == report

    def test_small_cap_keeps_the_memo_bounded_and_the_values(self, cold, monkeypatch):
        # emptied only between layouts: each layout starts from at most the
        # cap and adds at most the states it meets on its own
        states = {}
        for w, k in self.CASES:
            for kinds in _cell_multisets(w, k):
                states[w, kinds] = _cold(w, kinds)[1]
        cap, count, sizes, over = 40, mapenum._planar_count, [], []

        def spy(w, kinds):
            over.append(len(mapenum._PLANAR_COUNTS) > cap)
            n = count(w, kinds)
            sizes.append(len(mapenum._PLANAR_COUNTS) - states[w, kinds])
            return n

        monkeypatch.setattr(mapenum, "_MEMO_CAP", cap)
        monkeypatch.setattr(mapenum, "_planar_count", spy)
        mapenum._PLANAR_COUNTS.clear()
        assert {(w, k): moment_coefficient(w, k, 1) for w, k in self.CASES} == cold
        assert len(sizes) == len(states) and max(sizes) <= cap
        assert sum(over) > 1      # the memo was emptied along the way

    def test_verify_meets_1000_states(self):
        # blue darts are spelled A and sort before red ones, spelled B;
        # spelling red A instead makes verify meet 1,288 states
        mapenum._PLANAR_COUNTS.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0
        assert len(mapenum._PLANAR_COUNTS) == 1000

    @pytest.mark.slow
    def test_memo_stays_bounded_after_order_six(self):
        # AA at k = 6 leaves 42,346 states and AAAA at k = 5 50,370; ABAB at
        # k = 5 then passes 2^16 and empties the memo between two layouts
        mapenum._PLANAR_COUNTS.clear()
        moment_coefficient("AA", 6, 1)
        assert len(mapenum._PLANAR_COUNTS) == 42_346
        moment_coefficient("AAAA", 5, 1)
        assert len(mapenum._PLANAR_COUNTS) == 50_370
        warm = moment_coefficient("ABAB", 5, 1)
        size = len(mapenum._PLANAR_COUNTS)
        assert size < 50_370
        cold = [(kinds, *_cold("ABAB", kinds)) for kinds in _cell_multisets("ABAB", 5)]
        assert size <= mapenum._MEMO_CAP + max(n for _, _, n in cold)
        assert warm == sum(mapenum._weight(kinds) * count for kinds, count, _ in cold) / F(8) ** 12

    def test_layouts_are_filtered_before_they_are_built(self):
        # the parity read off the kinds keeps what building every layout and
        # counting its darts keeps; a word of odd length keeps nothing
        for w in _words(7):
            for k in range(4):
                built = (mapenum._Layout(w, kinds) for kinds in itertools.combinations_with_replacement(list(CellKind), k))
                want = [layout.kinds for layout in built if len(layout.reds) % 2 == 0 and len(layout.blues) % 2 == 0]
                got = list(_cell_multisets(w, k))
                assert got == want, (w, k)
                assert not (len(w) % 2 and got)


class TestColourWordCount:
    def test_count_builds_no_labelled_layout(self, monkeypatch):
        # the count starts from the word's colour necklace and each cell
        # kind's component, so refusing to label darts changes no value
        cases = [(w, k) for w in _words(4) for k in range(3)]

        def run():
            mapenum._PLANAR_COUNTS.clear()
            return [moment_coefficient(w, k, 1) for w, k in cases], [cancellation_report(k) for k in range(3)]

        want = run()

        def refuse(*_):
            raise AssertionError("the planar count built a labelled layout")

        monkeypatch.setattr(mapenum, "_Layout", refuse)
        assert run() == want

    @pytest.mark.slow
    def test_runs_of_identical_cells_at_order_three(self):
        # three cells of which two or three are alike leave runs of equal free
        # components, each glued into once and counted by its multiplicity
        repeated = 0
        for w in _words(4):
            for layout in _layouts(w, 3):
                repeated += len(set(layout.kinds)) < 3
                assert _planar_count(w, layout.kinds) == len(_planar_matchings(layout)), (w, layout.kinds)
        assert repeated == 539


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
        assert len(list(itertools.islice(mapenum._gluings("ABAB", 1, True), 8))) == 2

    def test_order_two_census(self):
        r = cancellation_report(2)
        assert (r.positive_weight_count, r.negative_weight_count) == (0, 136)
        assert r.signed_sum == -9216
        assert r.all_have_distinguished_cell and not r.paired

    @pytest.mark.parametrize("k, digest", [
        (1, "05d97abfd8dd7bbcad17b401c9fc25b42ff5e9a508e33c19a08bd8e5ce339184"),
        (2, "65d3ea8036799344770fc3facd4dc31313dc459237fff95ae5899a860fa602ab"),
        (3, "e94af631b2df2902cea509322da1d5aa42965a2afce2751f69fb0663b01e1a2a"),
    ])
    def test_witnesses_are_pinned(self, k, digest):
        # SHA-256 of the first eight planar maps of ABAB in order, frozen from
        # the dart-by-dart walk with its own cuts, before the walk shared the
        # count's moves
        witnesses = json.dumps(
            [m.as_json() for m in itertools.islice(mapenum._gluings("ABAB", k, True), 8)], sort_keys=True
        )
        assert hashlib.sha256(witnesses.encode()).hexdigest() == digest

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

    def test_dot_marks_no_root_without_a_word_polygon(self):
        # a vacuum gluing has no root edge; a word's polygon carries it
        assert "(root)" not in branch_graph_dot(next(enumerate_gluings("", 1)))
        assert "(root)" in branch_graph_dot(next(m for m in enumerate_gluings("AA", 1) if m.planar))


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
