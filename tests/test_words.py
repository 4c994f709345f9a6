import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import groupby, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac2mm import cli, mapenum, montecarlo, sde, words
from dirac2mm.words import (
    CanonicalMoment,
    canonicalize,
    iter_canonical_moments,
    parse_moment_label,
    vanishes_by_parity,
    word_letters,
)
from reference import canonical_classes, least_rotation, orbit, splits_at

word_strings = st.text(alphabet="AB", min_size=0, max_size=12)


def _cli_verb(verb, *argv):
    """The CLI verb reading ``--word``; its error message raised as ValueError."""
    def run(w):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([verb, "--word", w, *argv])
        if code:
            raise ValueError(err.getvalue())
        return out.getvalue()
    return run


_rng = np.random.default_rng(0)
_a, _b = (x + x.swapaxes(-1, -2) for x in _rng.normal(size=(2, 3, 2, 4, 4)))
_SAMPLES = SimpleNamespace(samples_a=_a, samples_b=_b, config=SimpleNamespace(n=4))

# every public function that takes a word, each reduced to a comparable value
WORD_ENTRY_POINTS = {
    "canonicalize": canonicalize,
    "splits_at": lambda w: splits_at(w, "A"),
    "generate_equation": lambda w: sde.generate_equation(w).as_json(),
    "enumerate_gluings": lambda w: [m.as_json() for m in mapenum.enumerate_gluings(w, 1)],
    "moment_coefficient": lambda w: mapenum.moment_coefficient(w, 1, 1),
    "word_trace_series": lambda w: montecarlo.word_trace_series(_SAMPLES, w).tolist(),
    "cli sde": _cli_verb("sde"),
    "cli enumerate": _cli_verb("enumerate", "--order", "1"),
}


def exhaustive_orbit_minimum(letters: str) -> str:
    """Independent oracle: the smallest string over the brute-forced orbit."""
    out = set()
    for base in (letters, letters[::-1]):
        for var in (base, base.translate(str.maketrans("AB", "BA"))):
            for k in range(max(1, len(var))):
                out.add(var[k:] + var[:k])
    return min(out)


class TestCanonicalize:
    def test_alternating_word(self):
        assert canonicalize("ABAB").runs == (1, 1, 1, 1)

    def test_swap_rotation_example(self):
        # ABBBAB lands in the class of AAABAB
        assert canonicalize("ABBBAB").runs == (3, 1, 1, 1)
        assert canonicalize("ABBBAB") == canonicalize("AAABAB")

    def test_reversal_identification(self):
        # the two printed spellings of one degree-8 class coincide
        assert canonicalize("AAABABBB") == canonicalize("AAABBBAB")
        assert parse_moment_label("m_{3,1,1,3}") == parse_moment_label("m_{3,3,1,1}")

    def test_empty_and_pure_runs(self):
        assert canonicalize("").runs == ()
        assert canonicalize("AAAA").runs == (4,)
        assert canonicalize("BBB").runs == (3,)   # swap maps pure B to pure A

    @given(word_strings)
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle(self, letters):
        c = canonicalize(letters)
        assert c.rep_word() == exhaustive_orbit_minimum(letters)

    @given(word_strings, st.integers(0, 11), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_constant_on_orbits(self, letters, rot, flip, swap):
        k = rot % max(1, len(letters))
        v = letters[k:] + letters[:k]
        if flip:
            v = v[::-1]
        if swap:
            v = v.translate(str.maketrans("AB", "BA"))
        assert canonicalize(v) == canonicalize(letters)

    @given(word_strings)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, letters):
        c = canonicalize(letters)
        assert canonicalize(c.rep_word()) == c

    def test_runs_reconstruct_orbit(self):
        rng = random.Random(0)
        for _ in range(100):
            letters = "".join(rng.choice("AB") for _ in range(rng.randint(0, 10)))
            c = canonicalize(letters)
            assert c.rep_word() in orbit(letters) or letters == ""

    def test_degree_counts(self):
        assert [len(iter_canonical_moments(d)) for d in (2, 4, 6, 8)] == [1, 3, 4, 12]

    def test_every_word_through_length_12_matches_exhaustive_oracle(self):
        # all 8,191 strings, with both caches cold: the first string of each
        # necklace builds its class and its rotations reuse it
        words._canonical_from_string.cache_clear()
        words._canonical_from_necklace.cache_clear()
        strings = ["".join(p) for n in range(13) for p in product("AB", repeat=n)]
        assert len(strings) == 8191
        for letters in strings:
            assert words._necklace(letters) == least_rotation(letters), letters
            assert canonicalize(letters).rep_word() == exhaustive_orbit_minimum(letters), letters


class TestNecklaceClasses:
    def test_recorded_class_of_every_even_necklace(self):
        # degrees <= 16: each even necklace's recorded class is that of its
        # orbit minimum
        for d in range(2, 17, 2):
            iter_canonical_moments(d)
            even = [s for s in words._necklaces(d) if s.count("A") % 2 == 0]
            assert even and all(s in words._NECKLACE_CLASSES for s in even), d
            for s in even:
                rep = words._canonical_rep(s)
                assert words._NECKLACE_CLASSES[s].rep_word() == rep, s
                assert words._NECKLACE_CLASSES[s].runs == words._runs_of(rep), s

    @pytest.mark.parametrize("degree", [
        *range(2, 19, 2), pytest.param(20, marks=pytest.mark.slow), pytest.param(22, marks=pytest.mark.slow),
    ])
    def test_first_of_each_orbit_matches_one_orbit_minimum_per_necklace(self, degree):
        # solve_series(10, 6) enumerates every even degree up to 22
        classes, recorded = canonical_classes(degree)
        assert [c.runs for c in iter_canonical_moments(degree)] == classes
        assert {s: c.runs for s, c in words._NECKLACE_CLASSES.items() if len(s) == degree} == recorded

    def test_a_degree_enumerated_again_lists_the_same_classes(self):
        # the necklaces recorded by the first pass do not shorten the second
        first = iter_canonical_moments(12)
        words._canonical_moments.cache_clear()
        assert iter_canonical_moments(12) == first
        assert [c.runs for c in first] == brute_force_classes(12)

    def test_a_long_word_enumerates_nothing(self):
        # its class comes from its own orbit minimum, one necklace-cache miss
        enumerated = words._canonical_moments.cache_info()
        recorded = len(words._NECKLACE_CLASSES)
        misses = words._canonical_from_necklace.cache_info().misses
        letters = "AB" * 7 + "A" * 12 + "BBA" * 4 + "BA"
        assert len(letters) == 40
        assert canonicalize(letters).rep_word() == exhaustive_orbit_minimum(letters)
        assert words._canonical_moments.cache_info() == enumerated
        assert len(words._NECKLACE_CLASSES) == recorded
        assert words._canonical_from_necklace.cache_info().misses == misses + 1


def brute_force_classes(degree: int) -> list:
    """Run lengths of every orbit minimum with even letter counts over all 2^degree strings, sorted."""
    out = set()
    for mask in range(1 << degree):
        letters = "".join("AB"[(mask >> i) & 1] for i in range(degree))
        rep = exhaustive_orbit_minimum(letters)
        if rep.count("A") % 2 or rep.count("B") % 2:
            continue
        out.add(tuple(len(list(g)) for _, g in groupby(rep)))
    return sorted(out)


class TestEnumeration:
    def test_matches_brute_force(self):
        for d in range(15):
            got = [c.runs for c in iter_canonical_moments(d)]
            assert got == brute_force_classes(d), d

    def test_returns_fresh_list(self):
        first = iter_canonical_moments(6)
        first.clear()
        assert len(iter_canonical_moments(6)) == 4

    @pytest.mark.parametrize("degree", [-2, 3.0, True, "4", None])
    def test_bad_degree_rejected(self, degree):
        with pytest.raises(ValueError, match="degree"):
            iter_canonical_moments(degree)


class TestSplits:
    def test_pure_power(self):
        assert splits_at("AAA", "A") == [("", "AA"), ("A", "A"), ("AA", "")]

    def test_single_occurrence(self):
        assert splits_at("BAB", "A") == [("B", "B")]

    def test_absent_letter(self):
        assert splits_at("BB", "A") == []

    @given(word_strings)
    @settings(max_examples=200, deadline=None)
    def test_count_and_reconstruction(self, letters):
        pairs = splits_at(letters, "A")
        assert len(pairs) == letters.count("A")
        for left, right in pairs:
            assert left + "A" + right == letters


class TestParity:
    def test_examples(self):
        assert vanishes_by_parity(canonicalize("A")) is True
        assert vanishes_by_parity(canonicalize("AB")) is True
        assert vanishes_by_parity(canonicalize("ABAB")) is False

    @given(word_strings)
    @settings(max_examples=200, deadline=None)
    def test_definition(self, letters):
        c = canonicalize(letters)
        assert vanishes_by_parity(c) == (letters.count("A") % 2 == 1 or letters.count("B") % 2 == 1)


class TestTypes:
    def test_word_validation(self):
        with pytest.raises(ValueError, match=re.escape("word must use letters A/B only, got 'AXB'")):
            word_letters("AXB")
        assert word_letters("abA") == "ABA"

    def test_a_list_of_letters_is_not_a_word(self):
        with pytest.raises(ValueError, match=re.escape("word must use letters A/B only, got ['A', 'B']")):
            canonicalize(["A", "B"])

    @pytest.mark.parametrize("entry", sorted(WORD_ENTRY_POINTS))
    def test_every_entry_point_validates_words(self, entry):
        read = WORD_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=re.escape("word must use letters A/B only, got 'AXB'")):
            read("AXB")
        assert read("abA") == read("ABA")

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            CanonicalMoment((1, 2, 3))
        with pytest.raises(ValueError):
            CanonicalMoment((0, 1))

    @pytest.mark.parametrize("runs, bad", [((2.7, 1.2), "2.7"), ((True, True), "True"), (("3", "1"), "'3'")])
    def test_non_integer_runs_are_refused(self, runs, bad):
        # int() used to truncate or reinterpret these into m_{2,1}, m_{1,1} and m_{3,1}
        with pytest.raises(ValueError, match=re.escape(f"run length must be an integer, got {bad}")):
            CanonicalMoment(runs)

    def test_any_runs_of_a_class_build_it(self):
        # (2, 4) spells AABBBB, a swap and rotation of AAAABB
        assert CanonicalMoment((2, 4)) == CanonicalMoment((4, 2))
        assert hash(CanonicalMoment((2, 4))) == hash(CanonicalMoment((4, 2)))
        assert len({CanonicalMoment((2, 4)), CanonicalMoment((4, 2))}) == 1
        assert CanonicalMoment((2, 4)).label() == "m_{4,2}"
        assert CanonicalMoment((1, 1, 1, 3)).runs == (3, 1, 1, 1)
        assert parse_moment_label("m_{3,3,1,1}") == parse_moment_label("m_{3,1,1,3}")

    def test_labels_and_parsing(self):
        c = parse_moment_label("m_{3,1,1,1}")
        assert c.label() == "m_{3,1,1,1}"
        assert c.runs == (3, 1, 1, 1)
        assert parse_moment_label("2").runs == (2,)
        assert parse_moment_label("AABB").runs == (2, 2)

    def test_empty_label_round_trips(self):
        empty = CanonicalMoment(())
        assert parse_moment_label(empty.label()) == empty
        assert parse_moment_label("m_{}") == empty

    @pytest.mark.parametrize("label", ["m_{0,2}", "2,0", "m_{-1,3}", "m_{2,2,}", "m_{,2}", "m_{2,x}", "m_{-2}"])
    def test_bad_run_lengths_rejected(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            parse_moment_label(label)

    @pytest.mark.parametrize("label, runs", [
        ("3,1,1", (3, 1, 1)), ("m_{2,1,1}", (2, 1, 1)), ("1,1,1,1,1", (1, 1, 1, 1, 1)),
    ])
    def test_odd_run_count_is_refused(self, label, runs):
        # 3,1,1 used to read as AAABA, of class m_{4,1}
        with pytest.raises(ValueError) as info:
            parse_moment_label(label)
        assert str(info.value) == f"alternating cyclic runs need even q, got {runs}"

    def test_degrees(self):
        c = parse_moment_label("m_{3,1,1,1}")
        assert (c.degree, c.a_degree, c.b_degree) == (6, 4, 2)
