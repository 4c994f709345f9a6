import random
import re
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from dirac2mm.words import (
    CanonicalMoment,
    Word,
    canonicalize,
    iter_canonical_moments,
    orbit,
    parse_moment_label,
    splits_at,
    vanishes_by_parity,
)

word_strings = st.text(alphabet="AB", min_size=0, max_size=12)


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
        rep = c.rep_word().letters
        assert rep == exhaustive_orbit_minimum(letters)

    @given(word_strings, st.integers(0, 11), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_constant_on_orbits(self, letters, rot, flip, swap):
        w = Word(letters)
        v = w.rotate(rot)
        if flip:
            v = v.reverse()
        if swap:
            v = v.swap()
        assert canonicalize(v) == canonicalize(w)

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
            assert c.rep_word().letters in orbit(letters) or letters == ""

    def test_degree_counts(self):
        assert [len(iter_canonical_moments(d)) for d in (2, 4, 6, 8)] == [1, 3, 4, 12]


def brute_force_classes(degree: int, even_only: bool) -> list:
    """Run lengths of every orbit minimum over all 2^degree strings, sorted."""
    out = set()
    for mask in range(1 << degree):
        letters = "".join("AB"[(mask >> i) & 1] for i in range(degree))
        rep = exhaustive_orbit_minimum(letters)
        if even_only and (rep.count("A") % 2 or rep.count("B") % 2):
            continue
        out.add(tuple(len(list(g)) for _, g in groupby(rep)))
    return sorted(out)


class TestEnumeration:
    @pytest.mark.parametrize("even_only", [True, False])
    def test_matches_brute_force(self, even_only):
        for d in range(15):
            got = [c.runs for c in iter_canonical_moments(d, even_only)]
            assert got == brute_force_classes(d, even_only), d

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
        pairs = splits_at("AAA", "A")
        assert [(str(l), str(r)) for l, r in pairs] == [("1", "AA"), ("A", "A"), ("AA", "1")]

    def test_single_occurrence(self):
        pairs = splits_at("BAB", "A")
        assert [(str(l), str(r)) for l, r in pairs] == [("B", "B")]

    def test_absent_letter(self):
        assert splits_at("BB", "A") == []

    @given(word_strings)
    @settings(max_examples=200, deadline=None)
    def test_count_and_reconstruction(self, letters):
        w = Word(letters)
        pairs = splits_at(w, "A")
        assert len(pairs) == w.a_degree
        for left, right in pairs:
            assert left.letters + "A" + right.letters == w.letters


class TestParity:
    def test_examples(self):
        assert vanishes_by_parity(canonicalize("A")) is True
        assert vanishes_by_parity(canonicalize("AB")) is True
        assert vanishes_by_parity(canonicalize("ABAB")) is False

    @given(word_strings)
    @settings(max_examples=200, deadline=None)
    def test_definition(self, letters):
        w = Word(letters)
        c = canonicalize(w)
        assert vanishes_by_parity(c) == (w.a_degree % 2 == 1 or w.b_degree % 2 == 1)


class TestTypes:
    def test_word_validation(self):
        with pytest.raises(ValueError):
            Word("AXB")
        assert Word("abA").letters == "ABA"

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            CanonicalMoment((1, 2, 3))
        with pytest.raises(ValueError):
            CanonicalMoment((0, 1))

    def test_labels_and_parsing(self):
        c = parse_moment_label("m_{3,1,1,1}")
        assert c.label() == "m_{3,1,1,1}"
        assert c.as_json() == [3, 1, 1, 1]
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

    def test_degrees(self):
        c = parse_moment_label("m_{3,1,1,1}")
        assert (c.degree, c.a_degree, c.b_degree, c.q) == (6, 4, 2, 4)
