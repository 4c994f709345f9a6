import hashlib
import json
from fractions import Fraction as F

import pytest

from dirac2mm.sde import CoefTag, _Classes, moment_equations
from dirac2mm.solver import (
    InconsistentSystem,
    _recipes_for,
    _Rows,
    solve_series,
)
from dirac2mm.closedform import verify_closed_forms
from dirac2mm.words import (
    CanonicalMoment,
    canonicalize,
    iter_canonical_moments,
    parse_moment_label,
)
from reference import gaussian_moment, recipe_words, recipes_for

M1111 = CanonicalMoment((1, 1, 1, 1))


class TestGaussianMoment:
    def test_catalan_pure_powers(self):
        for d, pairings in ((2, 1), (4, 2), (6, 5), (8, 14)):
            assert gaussian_moment("A" * d, 1) == F(pairings, 8 ** (d // 2))

    def test_colored_counts(self):
        assert gaussian_moment("AA", 2) == F(1, 16)
        assert gaussian_moment("AAAA", 1) == F(2, 64)
        assert gaussian_moment("AABB", 1) == F(1, 64)
        assert gaussian_moment("ABAB", 1) == 0      # the only colour match crosses
        assert gaussian_moment("AABAAB", 1) == F(1, 512)
        assert gaussian_moment("AAABAB", 1) == 0

    def test_parity_and_empty(self):
        assert gaussian_moment("AAB", 1) == 0
        assert gaussian_moment("", 1) == 1

    def test_t2_scaling(self):
        assert gaussian_moment("AAAA", F(1, 2)) == F(2) / 16

    @pytest.mark.parametrize("word, t2", [("AA", -1), ("AA", 0), ("", 0), ("AAB", -1)])
    def test_nonpositive_t2_refused(self, word, t2):
        with pytest.raises(ValueError, match=r"gaussian_moment needs t2 > 0"):
            gaussian_moment(word, t2)


@pytest.fixture(scope="module")
def table():
    return solve_series(D=6, K=3, t2=1)


class TestSolveSeries:
    def test_second_moment_series(self, table):
        # orders 0..1 verified by hand Wick counting; orders 2..3 frozen from
        # the exact agreement with the independent gluing enumeration
        assert table.series("AA").coeffs == (F(1, 8), F(-1, 4), F(33, 32), F(-173, 32))

    def test_fourth_moments(self, table):
        assert table.series("AAAA").coeffs[:2] == (F(1, 32), F(-33, 256))
        assert table.series("AABB").coeffs[:2] == (F(1, 64), F(-17, 256))

    def test_alternating_moment_is_not_zero(self, table):
        assert table.series(M1111).coeffs == (F(0), F(1, 256), F(-9, 256), F(141, 512))

    def test_enforced_variant_pins_alternating_moment(self):
        table = solve_series(D=4, K=2, t2=1, enforce_vanishing_alternating=True)
        assert table.series(M1111).is_zero()
        # enforcement feeds back into the second moment at order 2
        assert table.series("AA").coeffs == (F(1, 8), F(-1, 4), F(131, 128))
        # and makes the pinned system visibly overdetermined
        assert table.enforcement_conflicts
        assert solve_series(D=4, K=2, t2=1).enforcement_conflicts == ()
        # the recorded conflicts, frozen from the Fraction recursion
        pinned = solve_series(D=4, K=2, t2=F(3, 2), enforce_vanishing_alternating=True)
        assert pinned.enforcement_conflicts == (
            (CanonicalMoment((3, 1, 1, 1)), 1, (F(1, 15552), F(0), F(1, 15552), F(1, 7776))),
        )
        deep = solve_series(D=6, K=3, t2=1, enforce_vanishing_alternating=True).enforcement_conflicts
        assert len(deep) == 26
        assert hashlib.sha256(repr(deep).encode()).hexdigest() == (
            "d4ea4ecc286590714633c478f1c2e0d90f639e17f2c8b6fe84bf1452464a7efb"
        )

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_enforcement_flag_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match=r"enforce_vanishing_alternating must be True or False"):
            solve_series(4, 2, 1, enforce_vanishing_alternating=flag)

    def test_general_t2(self):
        table = solve_series(D=2, K=1, t2=2)
        assert table.series("AA").coeffs == (F(1, 16), F(-1, 32))

    def test_parity_and_empty_series(self, table):
        assert table.series("AAB").is_zero()
        assert table.series("").coeffs == (F(1), F(0), F(0), F(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_series(D=3, K=1, t2=1)
        with pytest.raises(ValueError):
            solve_series(D=2, K=1, t2=0)

    @pytest.mark.parametrize("D", [3, 0, -2, 7])
    def test_odd_or_small_degree_is_named(self, D):
        with pytest.raises(ValueError, match=rf"^D must be an even integer >= 2, got {D}$"):
            solve_series(D, 1, 1)

    @pytest.mark.parametrize("D, K", [(4, True), (True, 1), (4.0, 1), (4, 1.0), (4, -1), (-2, 1), ("4", 1)])
    def test_bad_degree_or_order_rejected(self, D, K):
        with pytest.raises(ValueError, match="D must|K must"):
            solve_series(D, K, 1)

    def test_moment_above_the_table_degree_is_named(self, table):
        for word, degree in (("AAAAAAAA", 8), ("AABBAABB", 8), ("AAAAAAAAAA", 10)):
            label = canonicalize(word).label()
            with pytest.raises(KeyError) as info:
                table.series(word)
            assert info.value.args == (f"{label} has degree {degree}, above the table's D = 6",)

    def test_moment_built_from_other_runs_of_its_class(self, table):
        # (1, 1, 1, 3) spells m_{3,1,1,1}, (2, 4) spells m_{4,2}
        for runs, label in (((1, 1, 1, 3), "m_{3,1,1,1}"), ((2, 4), "m_{4,2}")):
            assert table.series(CanonicalMoment(runs)) is table.moments[parse_moment_label(label)]
            assert table.moments[CanonicalMoment(runs)] is table.moments[parse_moment_label(label)]

    def test_all_degrees_present(self, table):
        for d in (2, 4, 6):
            for c in iter_canonical_moments(d):
                assert table.series(c).order == 3

    def test_json_and_csv(self, table):
        payload = table.as_json()
        assert payload["moments"]["m_{2}"][0] == "1/8"
        rows = list(table.csv_rows())
        assert rows[0] == ("moment", "degree", "order", "coefficient")
        assert ("m_{2}", 2, 1, "-1/4") in rows


class TestDeterminationConsistency:
    def test_richer_degrees_run_clean(self):
        # every moment of degree <= 8 is reachable from several words; the
        # recursion asserts all determinations agree, so plain completion is
        # already the consistency test
        table = solve_series(D=8, K=2, t2=F(3, 2))
        assert table.series("AAAAAAAA").coefficient(0) == F(14) / (8 * F(3, 2)) ** 4

    def test_order_zero_is_gaussian(self):
        # order 0 is the loop equation's left side alone; its 2,869 moments of
        # degree <= 18 (D + 2K of the (8, 5) digest) are the non-crossing counts
        table = solve_series(D=18, K=0, t2=1)
        assert len(table.moments) == 2869
        for c, series in table.moments.items():
            assert series.coefficient(0) == gaussian_moment(c, 1), c.label()

    def test_disagreement_at_order_zero_is_caught(self, monkeypatch):
        # dropping the (m_0, m_{2}) pair of the word ABB makes its order-0
        # determination of m_{2,2} differ from BBA's
        import dirac2mm.solver as solver_mod

        true_equations = solver_mod.moment_equations

        def tampered(c, with_insertions, classes):
            out = []
            for w, pairs, terms in true_equations(c, with_insertions, classes):
                if w == "ABB":
                    pairs = [p for p in pairs if p != (classes[""], classes["BB"])]
                out.append((w, pairs, terms))
            return out

        monkeypatch.setattr(solver_mod, "moment_equations", tampered)
        message = "order 0 of m_{2,2}: determinations disagree: [Fraction(0, 1), Fraction(1, 64)]"
        with pytest.raises(InconsistentSystem) as caught:
            solver_mod.solve_series(D=4, K=0, t2=1)
        assert str(caught.value) == message

    def test_disagreement_at_order_k_is_caught(self, monkeypatch):
        # dropping the +16 t4 insertions of the word ABB leaves order 0 intact
        # and makes its determination of m_{2,2} at order 1 differ from BBA's
        import dirac2mm.solver as solver_mod

        true_equations = solver_mod.moment_equations

        def tampered(c, with_insertions, classes):
            out = []
            for w, pairs, terms in true_equations(c, with_insertions, classes):
                if w == "ABB":
                    terms = [entry for entry in terms if entry[1] is not CoefTag.Q]
                out.append((w, pairs, terms))
            return out

        monkeypatch.setattr(solver_mod, "moment_equations", tampered)
        message = "order 1 of m_{2,2}: determinations disagree: [Fraction(-1, 108), Fraction(-17, 1296)]"
        with pytest.raises(InconsistentSystem) as caught:
            solver_mod.solve_series(D=4, K=1, t2=F(3, 2))
        assert str(caught.value) == message

    def test_disagreement_at_order_2_is_caught(self, monkeypatch):
        # the split (m_{2,2}, m_{2,2}) of the word AABBAAABB, replaced by
        # (m_{2}, m_{2,1,2,1}): the two products agree at orders 0 and 1 and
        # differ at order 2, so only there do the determinations of m_{3,2,3,2}
        # part, while every other split of the same pair keeps its true value
        import dirac2mm.solver as solver_mod

        true_equations = solver_mod.moment_equations

        def tampered(c, with_insertions, classes):
            m22 = classes["AABB"]
            swapped = (classes["AA"], classes["AABAAB"])
            out = []
            for w, pairs, terms in true_equations(c, with_insertions, classes):
                if w == "AABBAAABB":
                    pairs = [swapped if p == (m22, m22) else p for p in pairs]
                out.append((w, pairs, terms))
            return out

        monkeypatch.setattr(solver_mod, "moment_equations", tampered)
        message = (
            "order 2 of m_{3,2,3,2}: determinations disagree: "
            "[Fraction(667, 1679616), Fraction(4001, 10077696), Fraction(4001, 10077696)]"
        )
        with pytest.raises(InconsistentSystem) as caught:
            solver_mod.solve_series(D=10, K=2, t2=F(3, 2))
        assert str(caught.value) == message


# the classes of degree <= 16, whose insertions close those of degree <= 14,
# and the row of each in a solver's table
_MOMENTS = [CanonicalMoment(())] + [c for d in range(2, 17, 2) for c in iter_canonical_moments(d)]
_INDEX = {c.runs: i for i, c in enumerate(_MOMENTS)}
_UP_TO_14 = [c for c in _MOMENTS[1:] if c.degree <= 14]


class TestRecipes:
    def test_match_the_word_by_word_reference(self):
        # every moment of degree <= 14: the same recipe words in the same
        # order, each with the same multiset of pairs and of insertions
        rows = _Rows(_INDEX)
        checked = 0
        for c in _UP_TO_14:
            assert [w for w, _, _ in moment_equations(c.rep_word(), True, rows)] == list(recipe_words(c)), c.label()
            got, want = _recipes_for(c, rows, True), recipes_for(c, _INDEX, True)
            assert [tuple(map(sorted, r)) for r in got] == [tuple(map(sorted, r)) for r in want], c.label()
            checked += len(got)
        assert checked == 2175

    def test_row_map_reads_the_rows_of_the_class_map(self):
        # the same words, and each pair and insertion in the same place, as
        # the classes of the same strings followed by their rows
        rows = _Rows(_INDEX)
        for c in _UP_TO_14:
            rep = c.rep_word()
            want = [
                (w, [(_INDEX[x.runs], _INDEX[y.runs]) for x, y in pairs], [(_INDEX[m.runs], tag) for m, tag in terms])
                for w, pairs, terms in moment_equations(rep, True, _Classes())
            ]
            assert moment_equations(rep, True, rows) == want, c.label()

    def test_top_band_has_no_insertions(self):
        rep = canonicalize("AABAAB").rep_word()
        assert all(terms == [] for _, _, terms in moment_equations(rep, False, _Classes()))
        assert [pairs for _, pairs, _ in moment_equations(rep, False, _Classes())] == [
            pairs for _, pairs, _ in moment_equations(rep, True, _Classes())
        ]


class TestRowMap:
    def test_small_cap_keeps_the_map_bounded_and_the_table(self, monkeypatch):
        # emptied only between classes: each class starts from at most the
        # cap and adds at most the strings it meets on its own
        import dirac2mm.solver as solver_mod

        uncapped = solve_series(8, 3, F(3, 2)).moments
        cap, recipes, before, over = 40, solver_mod._recipes_for, [], []

        def spy(c, rows, with_insertions):
            before.append(len(rows))
            own = recipes(c, rows, with_insertions)
            alone = _Rows(rows.index)
            recipes(c, alone, with_insertions)
            over.append(len(rows) - len(alone))
            return own

        monkeypatch.setattr(solver_mod, "_ROWS_CAP", cap)
        monkeypatch.setattr(solver_mod, "_recipes_for", spy)
        assert solve_series(8, 3, F(3, 2)).moments == uncapped
        assert max(before) <= cap and max(over) <= cap
        assert before.count(0) > 1      # the map was emptied along the way

    def test_each_string_is_canonicalized_once_per_solve(self, monkeypatch):
        import dirac2mm.solver as solver_mod

        met, canonical = [], solver_mod.canonicalize

        def spy(s):
            met.append(s)
            return canonical(s)

        monkeypatch.setattr(solver_mod, "canonicalize", spy)
        solve_series(8, 4, F(3, 2))
        assert len(met) == len(set(met)) == 5195


class TestVerifyClosedForms:
    def test_divergence_is_reported_not_raised(self):
        records = verify_closed_forms(solve_series(4, 2, 1))
        by_label = {r.moment.label(): r for r in records}
        assert not by_label["m_{2}"].ok and by_label["m_{2}"].first_mismatch == 2
        assert not by_label["m_{4}"].ok and by_label["m_{4}"].first_mismatch == 1
        assert not by_label["m_{1,1,1,1}"].ok and by_label["m_{1,1,1,1}"].first_mismatch == 1

    def test_order_zero_degree_four_agrees(self):
        records = verify_closed_forms(solve_series(4, 0, 1))
        for r in records:
            assert r.ok, r.moment.label()

    def test_closed_forms_are_expanded_at_the_tables_t2(self):
        # D, K and t2 come from the table, so the closed forms are expanded at t2 = 3/2 through order 2
        records = verify_closed_forms(solve_series(4, 2, F(3, 2)))
        first = {r.moment.label(): r.first_mismatch for r in records}
        assert first == {"m_{2}": 2, "m_{4}": 1, "m_{2,2}": 1, "m_{1,1,1,1}": 1}
        assert all(len(r.closed_coeffs) == 3 for r in records)

    def test_a_table_above_the_closed_forms_degree_stops_at_it(self):
        # the closed forms end at degree 8, so a degree-10 table is compared through degree 8
        assert verify_closed_forms(solve_series(10, 1, 1)) == verify_closed_forms(solve_series(8, 1, 1))

    def test_denominator_corruption_detected(self):
        # writing the degree-6 denominator with its doubled misprint makes
        # the first reported divergence move to order 0 for m_6
        import dirac2mm.closedform as cf

        runs = (6,)
        original = cf._MOMENT_TABLE[runs]
        corrupted = (original[0], 3276832768, original[2])
        try:
            cf._MOMENT_TABLE[runs] = corrupted
            records = verify_closed_forms(solve_series(6, 1, 1))
            bad = {r.moment.label(): r for r in records}["m_{6}"]
            assert not bad.ok and bad.first_mismatch == 0
            assert bad.closed_coeffs[0] == F(19 * 16, 3276832768)
        finally:
            cf._MOMENT_TABLE[runs] = original


# SHA-256 of json.dumps(solve_series(8, K, t2).as_json(), sort_keys=True),
# frozen from the orbit-set canonicalization with its 2^d enumeration.
SERIES_DIGESTS = {
    (3, F(1)): "67fd28e8349ee7aa1f63f6eb6af6c47cce615e603f53acc17ba88fa302989752",
    (3, F(3, 2)): "5713f9cdf70a3f0c903bab7716c6bfef08e2fdce0eba64016ea63670a563c099",
    (5, F(1)): "6dcd6269398fdddd08646b58b4a08f9cd435ab36870affa7028c04d5309aa4c5",
}


@pytest.mark.parametrize("K, t2", [
    (3, F(1)),
    (3, F(3, 2)),
    pytest.param(5, F(1), marks=pytest.mark.slow),
])
def test_series_matches_frozen_digest(K, t2):
    payload = json.dumps(solve_series(8, K, t2).as_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == SERIES_DIGESTS[(K, t2)]


@pytest.mark.slow
def test_deep_series_past_the_string_map_cap_matches_frozen_digest():
    # about 6 s: solve_series(10, 6, 1) meets more than 2^16 strings, so its
    # string map is emptied between classes; the digest was frozen before
    # the solver had a string map
    payload = json.dumps(solve_series(10, 6, 1).as_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "c14a5d6244a45350f12ae504b89231f8de68261f89c17abcbe86d4e94dbc734d"
    )
