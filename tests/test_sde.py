import collections
import hashlib
import json
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from dirac2mm.algebra import CouplingPoint, RadicandMismatch, SurdScalar
from dirac2mm.sde import (
    M2,
    CoefTag,
    MissingMoment,
    generate_equation,
    generate_system,
    residual,
    single_block_words,
)
from dirac2mm.words import CanonicalMoment, canonicalize
from dirac2mm import closedform
from reference import big_points, lhs_pairs, residual as reference_residual, splits_at


def rhs_map(eq):
    out = {}
    for m, tag in eq.rhs:
        out.setdefault(tag, []).append(m.runs)
    return out


class TestGenerateEquation:
    def test_first_word(self):
        eq = generate_equation("A")
        assert eq.lhs == (((), ()),) or eq.lhs == ((canonicalize(""), canonicalize("")),)
        assert (
            eq.render_text()
            == "1 = 8 t2 m_{2} + t4(16 m_{4} - 16 m_{1,1,1,1} + 32 m_{2,2} + 64 m_{2} m_{2})"
        )

    def test_alternating_word(self):
        eq = generate_equation("BAB")
        assert eq.render_text() == (
            "0 = 8 t2 m_{1,1,1,1} + t4(48 m_{3,1,1,1} - 16 m_{2,1,2,1}"
            " + 64 m_{2} m_{1,1,1,1})"
        )
        m = rhs_map(eq)
        assert m[CoefTag.QNEG] == [(2, 1, 2, 1)]
        assert sorted(m[CoefTag.Q]) == [(3, 1, 1, 1)] * 3

    def test_mixed_word(self):
        eq = generate_equation("ABB")
        m = rhs_map(eq)
        assert m[CoefTag.C2] == [(2, 2)]
        assert m[CoefTag.BT] == [(2, 2)]
        assert sorted(m[CoefTag.Q]) == [(2, 1, 2, 1), (4, 2), (4, 2)]
        assert m[CoefTag.QNEG] == [(3, 1, 1, 1)]

    def test_rotation_fixing_appended_letter_gives_same_equation(self):
        assert generate_equation("ABB") == generate_equation("BBA")
        assert generate_equation("ABB") != generate_equation("BAB")

    def test_swap_covariance(self):
        # differentiating the swapped word in the second letter reproduces
        # the original equation once every moment is canonicalized
        from dirac2mm.words import vanishes_by_parity

        def b_derivative_equation(v: str):
            lhs = []
            for left, right in splits_at(v, "B"):
                cl, cr = canonicalize(left), canonicalize(right)
                if vanishes_by_parity(cl) or vanishes_by_parity(cr):
                    continue
                pair = (cl, cr) if cl.runs <= cr.runs else (cr, cl)
                lhs.append(pair)
            lhs.sort(key=lambda p: (p[0].runs, p[1].runs))
            vb = canonicalize(v + "B")
            rhs = []
            if not vanishes_by_parity(vb):
                rhs = [(vb, CoefTag.C2), (vb, CoefTag.BT)]
                for ins, tag in (("BBB", CoefTag.Q), ("ABA", CoefTag.QNEG), ("BAA", CoefTag.Q), ("AAB", CoefTag.Q)):
                    m = canonicalize(v + ins)
                    if not vanishes_by_parity(m):
                        rhs.append((m, tag))
            rhs.sort(key=lambda e: (e[0].runs, e[1]))
            return tuple(lhs), tuple(rhs)

        rng = random.Random(1)
        for _ in range(40):
            letters = "".join(rng.choice("AB") for _ in range(rng.randint(1, 7)))
            eq = generate_equation(letters)
            lhs, rhs = b_derivative_equation(letters.translate(str.maketrans("AB", "BA")))
            assert lhs == eq.lhs and rhs == eq.rhs

    def test_degree_bookkeeping(self):
        rng = random.Random(2)
        for _ in range(50):
            letters = "".join(rng.choice("AB") for _ in range(rng.randint(1, 9)))
            eq = generate_equation(letters)
            for m, tag in eq.rhs:
                if tag in (CoefTag.C2, CoefTag.BT):
                    assert m.degree == len(letters) + 1
                else:
                    assert m.degree == len(letters) + 3
            for x, y in eq.lhs:
                assert x.degree + y.degree == len(letters) - 1

    def test_lhs_pairs_match_brute_force_splits(self):
        # every word of length <= 11, beyond the words of EQUATION_DIGESTS:
        # the splits at each A, less those with a half that vanishes by
        # parity, each pair and the pairs sorted
        def runs(pair):
            return tuple(sorted(m.runs for m in pair))

        for n in range(12):
            for letters in map("".join, product("AB", repeat=n)):
                expected = sorted(map(runs, lhs_pairs(letters)))
                assert list(map(runs, generate_equation(letters).lhs)) == expected, letters

    def test_even_a_count_trivializes(self):
        assert generate_equation("AAB").is_trivial()

    def test_json_shape(self):
        payload = json.loads(json.dumps(generate_equation("A").as_json()))
        assert payload["word"] == "A"
        assert payload["lhs"] == [[[], []]]
        assert {entry["coeff"] for entry in payload["rhs"]} == {"C2", "Q", "QNEG", "BT"}


class TestGenerateSystem:
    def test_counts(self):
        assert len(generate_system(1)) == 1
        assert len(generate_system(3)) == 4
        assert len(generate_system(5)) == 10
        assert len(generate_system(7)) == 20

    def test_no_single_block_word_gives_a_trivial_equation(self):
        # each has an odd A-count, so m_[wA] does not vanish by parity
        words = list(single_block_words(11))
        assert len(words) == 91
        assert not any(generate_equation(w).is_trivial() for w in words)

    def test_words_of_degree_one(self):
        (eq,) = generate_system(1)
        assert eq.source_word == "A"

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_system(0)
        for max_word_degree in (2.5, True):
            with pytest.raises(ValueError, match="max_word_degree must be an integer"):
                generate_system(max_word_degree)


class TestResidual:
    def test_closed_forms_solve_equation_of_first_word(self):
        p = CouplingPoint(1, 1)
        vals = closedform.branch_assignment(p)
        assert residual(generate_equation("A"), vals, p).is_zero()

    def test_assignment_keyed_by_other_runs_of_each_class(self):
        # reversed runs spell the reversed swap of the word: the same class
        p = CouplingPoint(1, 1)
        vals = {CanonicalMoment(m.runs[::-1]): v for m, v in closedform.branch_assignment(p).items()}
        assert CanonicalMoment((2, 4)) in vals
        assert all(residual(eq, vals, p).is_zero() for eq in generate_system(7))

    def test_homogeneous_equation_with_zero_assignment(self):
        p = CouplingPoint(1, 1)
        zero = SurdScalar(0, 0, p.ssq)
        vals = collections.defaultdict(lambda: zero)
        assert residual(generate_equation("BAB"), vals, p).is_zero()

    def test_sensitivity_to_perturbation(self):
        p = CouplingPoint(1, 1)
        vals = dict(closedform.branch_assignment(p))
        vals[M2] = vals[M2] + SurdScalar.rational(1, p.ssq)
        assert not residual(generate_equation("A"), vals, p).is_zero()

    def test_missing_moment_raises(self):
        p = CouplingPoint(1, 1)
        with pytest.raises(MissingMoment):
            residual(generate_equation("A"), {}, p)

    def test_parity_moments_default_to_zero(self):
        # equation of AAB is trivial, so empty assignment suffices
        p = CouplingPoint(1, 1)
        assert residual(generate_equation("AAB"), {}, p).is_zero()

    def test_missing_moment_names_the_first_one_looked_up(self):
        p = CouplingPoint(1, 1)
        with pytest.raises(MissingMoment, match=re.escape("assignment missing value for m_{1,1,1,1}")):
            residual(generate_equation("A"), {}, p)
        vals = closedform.branch_assignment(p)
        partial = {m: v for m, v in vals.items() if m != M2}
        with pytest.raises(MissingMoment, match=re.escape("assignment missing value for m_{2}")):
            residual(generate_equation("A"), partial, p)
        partial = {m: v for m, v in vals.items() if m.runs != (3, 1, 1, 1)}
        with pytest.raises(MissingMoment, match=re.escape("assignment missing value for m_{3,1,1,1}")):
            residual(generate_equation("AAA"), partial, p)

    def test_values_over_another_radicand_are_refused(self):
        p = CouplingPoint(1, 1)
        other = {m: SurdScalar(v.a, v.b, 5) for m, v in closedform.branch_assignment(p).items()}
        for word in ("A", "BAB", "AAAAA"):
            with pytest.raises(RadicandMismatch, match=r"^radicands differ: 9 vs 5$"):
                residual(generate_equation(word), other, p)

    def test_int_and_fraction_values_are_accepted(self):
        p = CouplingPoint(1, F(1, 2))      # ssq = 5
        rng = random.Random(4)
        for eq in generate_system(5):
            plain = {}
            for pair in eq.lhs:
                plain.update((m, rng.choice([rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 9))])) for m in pair)
            for m, _tag in eq.rhs:
                plain[m] = rng.choice([rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 9))])
            plain[M2] = F(rng.randint(1, 9), rng.randint(1, 9))
            surd = {m: SurdScalar(v, 0, p.ssq) for m, v in plain.items()}
            got, want = residual(eq, plain, p), residual(eq, surd, p)
            assert (got.a, got.b, got.ssq) == (want.a, want.b, want.ssq), eq.source_word
            assert type(got) is SurdScalar


def test_residual_values_equal_the_term_by_term_reference():
    # the fused sum against tests/reference.residual on perturbed branch
    # values: every residual of the 20 equations, component by component;
    # (3/2, 7/32) and (1, 3) have the square radicands 4 and 25
    rng = random.Random(23)
    points = [CouplingPoint(F(rng.randint(1, 25), rng.randint(1, 5)), F(rng.randint(1, 25), rng.randint(1, 5)))
              for _ in range(22)] + [CouplingPoint(F(3, 2), F(7, 32)), CouplingPoint(1, 3)]
    equations = generate_system(7)
    nonzero = 0
    for p in points:
        vals = dict(closedform.branch_assignment(p))
        for m in rng.sample(sorted(vals, key=lambda m: m.runs), rng.randint(1, 6)):
            shift = SurdScalar(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)), p.ssq)
            vals[m] = vals[m] + shift
        for eq in equations:
            got, want = residual(eq, vals, p), reference_residual(eq, vals, p)
            assert (got.a, got.b, got.ssq, type(got)) == (want.a, want.b, want.ssq, type(want)), (p, eq.source_word)
            assert got == want and hash(got) == hash(want)
            nonzero += not want.is_zero()
    assert nonzero > len(points) * 5


def test_residual_values_equal_the_reference_at_big_integer_points():
    # t2 and t4 with numerators and denominators of 40 to 64 bits, so the
    # coefficients' numerators and their denominator m2 m4 are big integers
    rng = random.Random(35)
    equations = generate_system(7)
    nonzero = 0
    for p in big_points():
        vals = dict(closedform.branch_assignment(p))
        for eq in equations:
            assert residual(eq, vals, p).is_zero(), (p, eq.source_word)
        for m in rng.sample(sorted(vals, key=lambda m: m.runs), 4):
            vals[m] = vals[m] + SurdScalar(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(1, 9), 7), p.ssq)
        for eq in equations:
            got, want = residual(eq, vals, p), reference_residual(eq, vals, p)
            assert (got.a, got.b, got.ssq, type(got)) == (want.a, want.b, want.ssq, type(want)), (p, eq.source_word)
            nonzero += not want.is_zero()
    assert nonzero > 5 * 5


def test_render_latex():
    text = generate_equation("A").render_latex()
    assert "t_{2}" in text and "t_{4}" in text


def test_reference_transcription_consistency():
    # each reference line must already be satisfied by the branch values,
    # independent of the generator (guards the transcription itself)
    from dirac2mm.verification import reference_equations

    p = CouplingPoint(F(3, 2), F(1, 2))
    vals = closedform.branch_assignment(p)
    # degree-10 completion is generator-ordered, so restrict to words <= 5
    for eq in reference_equations():
        if len(eq.source_word) <= 5:
            assert residual(eq, vals, p).is_zero(), eq.source_word


# SHA-256 of the JSON list of every word's equation, words of one length in
# binary-counting order (A = 0), each as_json() plus its rhs in insertion
# order; frozen from the orbit-set canonicalization.
EQUATION_DIGESTS = {
    0: "759e3f5fa88e4bebf0a641f0b41fc7314c0093019c2d8063ae80bb0b8cb0ba96",
    1: "6846fbb7d51f4364ef7f261890cd441e8871eb352ad7fa26897cefd71f5ce653",
    2: "c49198cc7a8a0d2a4531e01b2ccd4af178907f80647250e32500fa39d7288ab3",
    3: "8591ec122021d1f771b014cf31bcda8e1860a65d3a7e42a101b7c667e4dfb007",
    4: "26b9b41862fccfa63b08f11a07eb2a3628adcdfbefff49a4cbc73518030b3210",
    5: "ea2ce63c11dbe2cd4b1af8f035912f9337562b8a800f13ad365e81b7e92cdb92",
    6: "b8f23d7be7b11d8a71b3a1ca4249991dbbb0b5afa6849ed36f2675b87af23025",
    7: "0f7f09d382af289aecac2acaf3d57231f1ba80d2663bc68653256559f9daaf08",
    8: "f72f48143deee098584175c670834209143bcb4f264712ef968627230fb08b28",
    9: "7be38d48d8fe8f25200429ad9e17a21eaed5b2341ef163e666797f016e5f0de9",
}


@pytest.mark.parametrize("length", sorted(EQUATION_DIGESTS))
def test_equations_match_frozen_digests(length):
    records = []
    for mask in range(1 << length):
        w = "".join("AB"[(mask >> i) & 1] for i in range(length))
        eq = generate_equation(w)
        assert eq.source_word == w and eq.as_json()["word"] == (w or "1")
        record = eq.as_json()
        record["display"] = [[list(m.runs), tag.name] for m, tag in eq.rhs_display]
        records.append(record)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == EQUATION_DIGESTS[length]
