import hashlib
import math
import random
import re
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from dirac2mm.algebra import CouplingPoint, SurdScalar
from dirac2mm.sde import M2, CoefTag, generate_system, residual
from dirac2mm.words import CanonicalMoment, canonicalize, parse_moment_label
from dirac2mm import closedform as cf
import reference

P11 = CouplingPoint(1, 1)


def random_points(count, seed=5, hi=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t2 = F(rng.randint(1, 5 * hi), rng.randint(1, 5))
        t4 = F(rng.randint(1, 5 * hi), rng.randint(1, 5))
        if t2 <= hi and t4 <= hi:
            out.append(CouplingPoint(t2, t4))
    return out


class TestMoment:
    def test_pinned_values(self):
        assert cf.moment("AA", P11).rational_value() == F(1, 16)
        assert cf.moment("AAAA", P11).rational_value() == F(1, 128)
        assert cf.moment("AABB", P11).rational_value() == F(1, 256)
        assert cf.moment("ABAB", P11).is_zero()

    def test_parity_and_empty(self):
        assert cf.moment("AAB", P11).is_zero()
        assert cf.moment("", P11).rational_value() == 1

    def test_label_aliases_resolve(self):
        a = cf.moment(parse_moment_label("m_{3,3,1,1}"), P11)
        b = cf.moment(parse_moment_label("m_{3,1,1,3}"), P11)
        assert a == b

    def test_table_has_one_class_per_label(self):
        # no two labels name the same class, so no form is silently overwritten
        assert len(cf._NAMED_FORMS) == len(cf._MOMENT_TABLE) == 20
        assert set(cf._MOMENT_TABLE) == {parse_moment_label(label).runs for label in cf._NAMED_FORMS}

    def test_unknown_degree_raises(self):
        with pytest.raises(cf.UnknownMoment):
            cf.moment(parse_moment_label("m_{10}"), P11)

    def test_moment_built_from_other_runs_of_its_class(self):
        # (2, 4) spells m_{4,2} and (1, 1, 1, 3) spells m_{3,1,1,1}; a class
        # beyond the table names its degree
        assert cf.moment(CanonicalMoment((2, 4)), P11) == cf.moment(parse_moment_label("m_{4,2}"), P11)
        assert cf.moment(CanonicalMoment((1, 1, 1, 3)), P11) == cf.moment("AAABAB", P11)
        with pytest.raises(cf.UnknownMoment) as info:
            cf.moment(CanonicalMoment((2, 8)), P11)
        assert info.value.args == ("no tabulated closed form for m_{8,2} (degree 10 > 8)",)

    def test_branch_assignment_is_keyed_by_class(self):
        # (2, 4) builds m_{4,2} and (1, 3, 3, 3) the degree-10 m_{3,1,3,3}
        values = cf.branch_assignment(P11)
        assert values[CanonicalMoment((2, 4))] == cf.moment(parse_moment_label("m_{4,2}"), P11)
        assert values[CanonicalMoment((1, 3, 3, 3))] is values[parse_moment_label("m_{3,1,3,3}")]

    @pytest.mark.parametrize("first", [False, True])
    def test_a_fraction_coefficient_is_folded_into_the_denominator(self, monkeypatch, first):
        # (1/3) t2^3 t4 s: a coefficient with denominator 3 on the pair (3, 1),
        # which no table form uses, after or before the int monomials; the
        # patched entry is read as it stands, and the original one again once
        # the patch is undone
        m = parse_moment_label("m_{4,2}")
        q, den, monomials = form = cf._MOMENT_TABLE[m.runs]
        extra = ((F(1, 3), 3, 1, 1),)
        tampered = (q, den, extra + monomials if first else monomials + extra)

        def by_fractions(form, p):
            q, den, monomials = form
            part = lambda e: sum(F(c) * p.t2**i * p.t4**j for c, i, j, x in monomials if x == e)
            return part(0) / (den * p.t4**q), part(1) / (den * p.t4**q)

        for p in random_points(10, seed=11) + reference.big_points():
            with monkeypatch.context() as patch:
                patch.setitem(cf._MOMENT_TABLE, m.runs, tampered)
                got = cf.moment(m, p)
            assert (got.a, got.b) == by_fractions(tampered, p) and got.ssq == p.ssq, p
            assert by_fractions(tampered, p) != by_fractions(form, p)
            back = cf.moment(m, p)
            assert (back.a, back.b) == by_fractions(form, p) and back.ssq == p.ssq, p

    def test_nonpositive_t4_raises(self):
        with pytest.raises(ValueError):
            cf.moment("AA", CouplingPoint(1, 0))

    @pytest.mark.parametrize("t2", [0, -1, F(-1, 2)])
    def test_nonpositive_t2_raises(self, t2):
        with pytest.raises(ValueError, match="t2 > 0"):
            cf.moment("AA", CouplingPoint(t2, 1))

    def test_exact_identities_at_random_points(self):
        for p in random_points(8):
            m4 = cf.moment("AAAA", p)
            m22 = cf.moment("AABB", p)
            assert m4 == m22 * 2
            quartet = {
                cf.moment(parse_moment_label(lbl), p)
                for lbl in ("m_{3,1,3,1}", "m_{3,3,1,1}", "m_{5,1,1,1}", "m_{1,1,1,1,1,1,1,1}")
            }
            assert len(quartet) == 1

    def test_quadratic_constraint(self):
        # eliminating the degree-4 moments from the first equation leaves
        # 128 t4 m2^2 + 8 t2 m2 - 1 = 0
        for p in random_points(8, seed=9):
            m2 = cf.moment("AA", p)
            lhs = m2 * m2 * (128 * p.t4) + m2 * (8 * p.t2) - SurdScalar.rational(1, p.ssq)
            assert lhs.is_zero()

    def test_positivity(self):
        for p in random_points(8, seed=13):
            assert cf.moment("AA", p).to_float() > 0
            assert cf.moment("AAAA", p).to_float() > 0

    def test_residuals_vanish_for_full_system(self):
        for p in random_points(3, seed=21):
            vals = cf.branch_assignment(p)
            for eq in generate_system(7):
                assert residual(eq, vals, p).is_zero(), eq.source_word


def _solve_surd_linear(rows, rhs, ncols, ssq):
    """Pivot solution of a rectangular exact linear system over Q(s)."""
    zero = SurdScalar(0, 0, ssq)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(aug)
    pivots = []
    prow = 0
    for c in range(ncols):
        sel = next((r for r in range(prow, n) if not aug[r][c].is_zero()), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = aug[prow][c].inverse()
        aug[prow] = [v * inv for v in aug[prow]]
        for r in range(n):
            if r != prow and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(c)
        prow += 1
        if prow == n:
            break
    for r in range(prow, n):
        if all(aug[r][c].is_zero() for c in range(ncols)) and not aug[r][ncols].is_zero():
            raise ArithmeticError("inconsistent completion system")
    x = [zero] * ncols
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        acc = aug[i][ncols]
        for cc in range(c + 1, ncols):
            if not aug[i][cc].is_zero():
                acc = acc - aug[i][cc] * x[cc]
        x[c] = acc
    return x


def brute_force_assignment(p):
    """The degree-10 completion by Gauss-Jordan elimination in Q(s) at the point."""
    table = (CanonicalMoment(runs) for runs in cf._MOMENT_TABLE)
    vals = {m: cf.moment(m, p) for m in table}
    ssq = p.ssq
    t2s, t4s = SurdScalar.rational(p.t2, ssq), SurdScalar.rational(p.t4, ssq)
    zero, one = SurdScalar(0, 0, ssq), SurdScalar(1, 0, ssq)
    eqs = [eq for eq in generate_system(7) if len(eq.source_word) == 7]
    unknowns = sorted({m for eq in eqs for m, _t in eq.rhs if m.degree == 10}, key=lambda m: m.runs)
    col = {m: i for i, m in enumerate(unknowns)}
    rows, rhs = [], []
    for eq in eqs:
        row = [zero] * len(unknowns)
        const = zero
        for m, tag in eq.rhs:
            if m in col:
                row[col[m]] = row[col[m]] + t4s * (16 if tag is CoefTag.Q else -16)
            elif tag is CoefTag.C2:
                const = const + t2s * 8 * vals[m]
            elif tag is CoefTag.BT:
                const = const + t4s * 64 * vals[M2] * vals[m]
        lhs = sum(((one if x.is_empty() else vals[x]) * (one if y.is_empty() else vals[y])
                   for x, y in eq.lhs), zero)
        rows.append(row)
        rhs.append(lhs - const)
    vals.update(zip(unknowns, _solve_surd_linear(rows, rhs, len(unknowns), ssq)))
    return vals


# (1, 1), (1, 3) and (3/2, 7/32) have ssq = 9, 25 and 4, rational squares.
COMPLETION_POINTS = random_points(30, seed=31) + [
    CouplingPoint(1, 1), CouplingPoint(1, 3), CouplingPoint(F(3, 2), F(7, 32))]

# SHA-256 of "label a b" lines of every value at COMPLETION_POINTS, frozen
# from the per-point elimination in Q(s) that the one-time reduction replaced.
COMPLETION_DIGEST = "22ab94945accad2981974ddd6c3afbc0e39bf58f74262e755256ce86438c9926"


class TestCompletion:
    def test_system_shape_is_pinned(self):
        system = cf.completion_system()
        assert [m.label() for m in system.unknowns] == [
            "m_{3,1,3,3}", "m_{3,2,3,2}", "m_{4,1,2,3}", "m_{4,1,4,1}", "m_{5,1,1,3}", "m_{5,1,3,1}",
            "m_{5,2,1,2}", "m_{6,1,2,1}", "m_{6,4}", "m_{7,1,1,1}", "m_{8,2}", "m_{10}"]
        assert len(system.equations) == 10
        assert (system.rank, system.kernel_dim, len(system.consistency)) == (9, 3, 1)
        assert cf.completion_system() is system

    def test_stored_reduction_is_the_elimination_over_q(self):
        # the literal equals Gauss-Jordan on [M | I] row for row, with every
        # entry the same Fraction
        assert cf.completion_system() == reference.completion_system()

    def test_equals_elimination_in_surd_field_component_by_component(self):
        for p in COMPLETION_POINTS:
            got, want = cf.branch_assignment(p), brute_force_assignment(p)
            assert got.keys() == want.keys()
            for m, v in want.items():
                assert (got[m].a, got[m].b, got[m].ssq) == (v.a, v.b, v.ssq), (p, m.label())

    def test_equals_elimination_at_big_integer_points(self):
        # t2 and t4 with numerators and denominators of 40 to 64 bits
        for p in reference.big_points():
            got, want = cf.branch_assignment(p), brute_force_assignment(p)
            assert got.keys() == want.keys()
            for m, v in want.items():
                assert (got[m].a, got[m].b, got[m].ssq) == (v.a, v.b, v.ssq), (p, m.label())

    def test_values_are_pinned(self):
        digest = hashlib.sha256()
        for p in COMPLETION_POINTS:
            vals = cf.branch_assignment(p)
            assert len(vals) == 32
            for m in sorted(vals, key=lambda m: m.runs):
                digest.update(f"{m.label()} {vals[m].a} {vals[m].b}\n".encode())
        assert digest.hexdigest() == COMPLETION_DIGEST

    def test_right_side_outside_the_image_is_refused(self, monkeypatch):
        # the consistency row combines the equations of BAAAAAB and AAAAABB
        # less those of BABBBBB and ABBBBBB: their degree-8 moments cancel in
        # pairs, and m_{4,2} + m_2 (m_4 + m_{2,2}) - m_6 = 0 is what it tests
        runs = parse_moment_label("m_{4,2}").runs
        q, den, monomials = cf._MOMENT_TABLE[runs]
        monkeypatch.setitem(cf._MOMENT_TABLE, runs, (q, den, monomials + ((F(1), 3, 0, 0),)))
        with pytest.raises(ArithmeticError, match="^inconsistent completion system$"):
            cf.branch_assignment(CouplingPoint(2, 1))

    @pytest.mark.parametrize("t2, t4", [(1, -1), (-1, 1), (0, 1), (1, 0)])
    def test_unphysical_point_refused(self, t2, t4):
        with pytest.raises(ValueError, match="physical evaluation needs t2 > 0 and t4 > 0"):
            cf.branch_assignment(CouplingPoint(t2, t4))


class TestMomentSeries:
    def test_low_degree_expansions(self):
        s = cf.moment_series("AA", 1, 3)
        assert s.coeffs == (F(1, 8), F(-1, 4), F(1), F(-5))
        s4 = cf.moment_series("AAAA", 1, 1)
        assert s4.coeffs == (F(1, 32), F(-1, 8))

    def test_moment_built_from_other_runs_of_its_class(self):
        assert cf.moment_series(CanonicalMoment((2, 4)), F(3, 2), 3) == cf.moment_series("AAAABB", F(3, 2), 3)
        with pytest.raises(cf.UnknownMoment) as info:
            cf.moment_series(CanonicalMoment((2, 8)), 1, 2)
        assert info.value.args == ("no tabulated closed form for m_{8,2} (degree 10 > 8)",)

    def test_degree_eight_pole_is_flagged(self):
        with pytest.raises(cf.PoleAtGaussianPoint):
            cf.moment_series("AAAAAAAA", 1, 2)

    @pytest.mark.parametrize("word, t2", [("AA", -1), ("AB", -1), ("", 0), ("AAB", F(-1, 2))])
    def test_nonpositive_t2_refused_before_shortcuts(self, word, t2):
        with pytest.raises(ValueError, match="moment_series needs t2 > 0"):
            cf.moment_series(word, t2, 2)

    @pytest.mark.parametrize("word", ["", "AB", "AA", "AAAA", "ABAB"])
    @pytest.mark.parametrize("order, text", [
        (-1, "order must be >= 0, got -1"), (-3, "order must be >= 0, got -3"),
        (True, "order must be an integer, got True"), (2.0, "order must be an integer, got 2.0"),
        ("2", "order must be an integer, got '2'"),
    ])
    def test_bad_order_refused_before_shortcuts(self, word, order, text):
        with pytest.raises(ValueError) as info:
            cf.moment_series(word, 1, order)
        assert str(info.value) == text

    def test_expansions_are_pinned(self):
        # SHA-256 of the repr (or the pole message) of every table entry, the
        # empty moment, m_{1,1,1,1} and one parity-zero moment at four t2 and
        # orders 0-8, frozen from the truncated-series ring expansion
        moments = [CanonicalMoment(runs) for runs in sorted(cf._MOMENT_TABLE)]
        moments += [CanonicalMoment(()), CanonicalMoment((1, 1, 1, 1)), canonicalize("AAAB")]
        digest = hashlib.sha256()
        poles = 0
        for c in moments:
            for t2 in (F(1), F(3, 2), F(2), F(1, 7)):
                for order in range(9):
                    try:
                        line = repr(cf.moment_series(c, t2, order))
                    except cf.PoleAtGaussianPoint as exc:
                        line = f"pole: {exc}"
                        poles += 1
                    digest.update(f"{c.label()} {t2} {order}: {line}\n".encode())
        assert (len(moments), poles) == (23, 432)
        assert digest.hexdigest() == "0a29f770f374560126b22b17ac5a5a9935d2239834d26c58f0fa1383779e95d8"

    def test_surd_squares_back_to_radicand(self):
        # m_2 = (s - t2) / (32 t4), so (t2 + 32 t4 m_2)^2 = t2^2 + 8 t4
        for t2 in (F(1), F(3, 2), F(2)):
            m2 = cf.moment_series("AA", t2, 8).coeffs
            s = [t2] + [32 * c for c in m2[:8]]
            square = [sum(s[i] * s[k - i] for i in range(k + 1)) for k in range(9)]
            assert square == [t2 * t2, 8] + [0] * 7


class TestDirac:
    def test_values(self):
        assert cf.dirac_moment(2, P11).rational_value() == F(1, 2)
        assert cf.dirac_moment(4, P11).rational_value() == F(1, 4)
        assert cf.dirac_moment(6, P11).rational_value() == F(19, 128)
        p13 = CouplingPoint(1, 3)
        assert cf.dirac_moment(2, p13).rational_value() == F(1, 3)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cf.dirac_moment(3, P11)
        with pytest.raises(ValueError):
            cf.dirac_moment(8, P11)

    def test_forms_equal_the_hand_typed_closed_forms(self):
        # a seeded grid, (3/2, 7/32) where ssq = 4 and s is rational, and (2, 3)
        points = random_points(20, seed=11) + [CouplingPoint(F(3, 2), F(7, 32)), CouplingPoint(2, 3)]
        for p in points:
            for ell in cf.DIRAC_INDICES:
                got, want = cf.dirac_moment(ell, p), reference.dirac_moment(ell, p)
                assert (got.a, got.b, got.ssq) == (want.a, want.b, want.ssq), (ell, p)
        assert cf.DIRAC_INDICES == (2, 4, 6)

    def test_from_words_equals_closed_form(self):
        for p in random_points(10, seed=3):
            for ell in (2, 4, 6):
                assert cf.dirac_from_words(ell, p) == cf.dirac_moment(ell, p)

    def test_from_words_equals_closed_form_at_big_integer_points(self):
        for p in reference.big_points():
            for ell in (2, 4):
                got, want = cf.dirac_from_words(ell, p), cf.dirac_moment(ell, p)
                assert (got.a, got.b, got.ssq) == (want.a, want.b, want.ssq), (ell, p)
            for ell in cf.DIRAC_INDICES:
                got, want = cf.dirac_moment(ell, p), reference.dirac_moment(ell, p)
                assert (got.a, got.b, got.ssq) == (want.a, want.b, want.ssq), (ell, p)

    def test_from_words_rejects_invalid_index(self):
        for ell in (3, 8, 2.5):
            with pytest.raises(ValueError, match="ell"):
                cf.dirac_from_words(ell, P11)

    @pytest.mark.parametrize("ell", [2.5, True])
    def test_non_integer_index_is_refused(self, ell):
        for evaluate in (cf.dirac_moment, cf.dirac_from_words, cf.rescale_dirac):
            with pytest.raises(ValueError, match="ell must be an integer"):
                evaluate(ell, P11)
        with pytest.raises(ValueError, match="ell must be an integer"):
            cf.dirac_trace_polynomial(ell, cf.Signature.S20)

    def test_trace_polynomial_of_fourth_power(self):
        # tr D^4 as hand-derived: 4N(tr A^4 + tr B^4 + 4 tr A^2B^2 - 2 tr ABAB)
        # + 16 e1 trA^3 trA + 16 e2 trB^3 trB + 12 (trA^2)^2 + 12 (trB^2)^2
        # + 16 e1 trAB^2 trA + 16 e2 trBA^2 trB + 8 trA^2 trB^2 + 16 e1 e2 (trAB)^2
        for sig in cf.Signature:
            e1, e2 = sig.eps1, sig.eps2
            want = {
                ("", "AAAA"): 4, ("", "BBBB"): 4, ("", "AABB"): 16, ("", "ABAB"): -8,
                ("A", "AAA"): 16 * e1, ("B", "BBB"): 16 * e2, ("AA", "AA"): 12, ("BB", "BB"): 12,
                ("A", "ABB"): 16 * e1, ("AAB", "B"): 16 * e2, ("AA", "BB"): 8, ("AB", "AB"): 16 * e1 * e2,
            }
            assert dict(cf.dirac_trace_polynomial(4, sig)) == want
            assert dict(cf.dirac_trace_polynomial(2, sig)) == {
                ("", "AA"): 4, ("", "BB"): 4, ("A", "A"): 4 * e1, ("B", "B"): 4 * e2,
            }

    @pytest.mark.parametrize("t2", [0, -1])
    def test_nonpositive_t2_raises(self, t2):
        for ell in (2, 4, 6):
            with pytest.raises(ValueError, match="t2 > 0"):
                cf.dirac_moment(ell, CouplingPoint(t2, 1))


def _isqrt_bracket(ssq, bits=100):
    """(lo, hi) with lo <= sqrt(ssq) < hi, hi - lo under 2^-bits of sqrt(ssq)."""
    u, v = ssq.numerator, ssq.denominator
    k = max(0, bits + 2 - (u * v).bit_length() // 2)
    r = math.isqrt(u * v << 2 * k)
    assert r.bit_length() > bits
    return F(r, v << k), F(r + 1, v << k)


@pytest.mark.parametrize("ratio", [F(1, 10**4), F(1, 10**8), F(1, 10**12), F(1, 10**30)])
@pytest.mark.parametrize("t2", [F(1), F(3, 2)])
def test_to_float_near_the_gaussian_point(t2, ratio):
    # a + b s cancels to about t4/t2^2 of its parts here; to_float must not
    p = CouplingPoint(t2, ratio * t2 * t2)
    lo, hi = _isqrt_bracket(p.ssq)
    values = [cf.moment(CanonicalMoment(runs), p) for runs in cf._MOMENT_TABLE]
    values += [cf.dirac_moment(ell, p) for ell in cf.DIRAC_INDICES]
    for x in values:
        f = x.to_float()
        ends = sorted((x.a + x.b * lo, x.a + x.b * hi))
        slack = 4 * F(math.ulp(f))
        assert ends[0] - slack <= F(f) <= ends[1] + slack, (x, f, float(ends[0]))


class TestRescaling:
    def test_exact_when_root_is_rational(self):
        for t2, t4 in ((2, 16), (1, 16), (F(1, 2), 81), (3, F(1, 16)), (2, F(9, 4))):
            p = CouplingPoint(t2, t4)
            for ell in (2, 4, 6):
                scaled = cf.rescale_dirac(ell, p)
                assert isinstance(scaled, SurdScalar)
                assert scaled == cf.dirac_moment(ell, p)

    def test_float_fallback(self):
        p = CouplingPoint(1, 5)
        for ell in (2, 4, 6):
            got = cf.rescale_dirac(ell, p)
            want = cf.dirac_moment(ell, p).to_float()
            assert isinstance(got, float)
            assert abs(got - want) / abs(want) < 1e-12

    def test_identity_at_unit_quartic(self):
        p = CouplingPoint(2, 1)
        assert cf.rescale_dirac(2, p) == cf.dirac_moment(2, p)

    @pytest.mark.parametrize("t2, t4", [(0, 4), (-3, 4), (-1, 2), (1, 0), (1, -1)])
    def test_unphysical_point_is_reported_as_given(self, t2, t4):
        # t2 <= 0 used to reach dirac_moment at (t2 / sqrt(t4), 1), and name that point
        p = CouplingPoint(t2, t4)
        with pytest.raises(ValueError) as info:
            cf.rescale_dirac(4, p)
        assert str(info.value) == f"physical evaluation needs t2 > 0 and t4 > 0, got {p!r}"


class TestFreeEnergy:
    @pytest.mark.parametrize("t2", ["1e-400", "1e200"])
    @pytest.mark.parametrize("name", ["free_energy", "free_energy_consistent"])
    def test_refuses_t2_outside_the_float_range(self, name, t2):
        # 1e-400 is 0.0 as a float, and the square of 1e200 overflows
        message = f"{name} needs 1e-300 <= t2^2 <= 1e300 and t2^2 + 8 t4 <= 1e300 to evaluate in floats"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(cf, name)(CouplingPoint(F(t2), 1))

    @pytest.mark.parametrize("t2", ["1e-400", "1e400"])
    def test_gaussian_refuses_t2_outside_the_float_range(self, t2):
        # the same guard as the other two free energies, before log(float(t2)) fails
        message = "gaussian_free_energy needs 1e-300 <= t2^2 <= 1e300 to evaluate in floats"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cf.gaussian_free_energy(F(t2))

    def test_printed_value_pin(self):
        assert cf.free_energy(P11) == pytest.approx(-0.25 + math.log(math.pi**2 / 16), abs=1e-12)

    def test_small_quartic_limits(self):
        small = CouplingPoint(1, F(1, 10**8))
        g = cf.gaussian_free_energy(1)
        assert abs(cf.free_energy(small) - g) < 1e-6
        assert abs(cf.free_energy_consistent(small) - g) < 1e-6

    def test_consistent_evaluator_satisfies_derivative_identity(self):
        h = F(1, 10**6)
        d = (cf.free_energy_consistent(CouplingPoint(1, 1 + h)) -
             cf.free_energy_consistent(CouplingPoint(1, 1 - h))) / (2 * float(h))
        assert d == pytest.approx(-cf.dirac_moment(4, P11).to_float(), abs=1e-8)

    def test_printed_formula_violates_derivative_identity(self):
        # characterization of the published expression: its slope is +d4
        h = F(1, 10**6)
        d = (cf.free_energy(CouplingPoint(1, 1 + h)) -
             cf.free_energy(CouplingPoint(1, 1 - h))) / (2 * float(h))
        assert d == pytest.approx(+0.25, abs=1e-8)

    def test_consistent_evaluator_matches_quadrature(self):
        # independent oracle: integrate -d4 from the gaussian baseline
        for t2, t4 in ((2, 1), (1, F(1, 2))):
            target = cf.gaussian_free_energy(t2) - quad(
                lambda u: cf.dirac_moment(4, CouplingPoint(t2, F(u).limit_denominator(10**9))).to_float(),
                1e-12,
                float(t4),
                limit=200,
            )[0]
            assert cf.free_energy_consistent(CouplingPoint(t2, t4)) == pytest.approx(target, abs=1e-9)

    def test_gaussian_values(self):
        assert cf.gaussian_free_energy(1) == pytest.approx(-5 * math.log(2) + 2 * math.log(math.pi), abs=1e-14)
        assert cf.gaussian_free_energy(2) == pytest.approx(
            -5 * math.log(2) + 2 * math.log(math.pi) - 2 * math.log(2), abs=1e-14
        )

    def test_gaussian_slope(self):
        # d/dt2 of the quadratic free energy is -2/t2
        h = 1e-7
        for t2 in (1.0, 3.0):
            d = (cf.gaussian_free_energy(F(t2 + h).limit_denominator(10**12))
                 - cf.gaussian_free_energy(F(t2 - h).limit_denominator(10**12))) / (2 * h)
            assert d == pytest.approx(-2 / t2, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cf.gaussian_free_energy(0)
        with pytest.raises(ValueError):
            cf.free_energy(CouplingPoint(-1, 1))


class TestCriticality:
    def test_critical_point(self):
        assert cf.critical_point(1) == F(-1, 8)
        assert cf.critical_point(2) == F(-1, 2)
        assert cf.critical_point(F(1, 2)) == F(-1, 32)

    def test_expansion_terms(self):
        exp = cf.susceptibility_expansion(1, 5)
        assert exp.coefficient(0) == SurdScalar.rational(1, 2)
        assert exp.coefficient(F(1, 2)) == SurdScalar(0, -4, 2)
        assert exp.coefficient(1) == SurdScalar.rational(24, 2)
        assert exp.coefficient(F(3, 2)) == SurdScalar(0, -64, 2)
        assert exp.gamma == F(1, 2)
        assert exp.coefficient(F(1, 2)).to_float() == pytest.approx(-4 * math.sqrt(2), rel=1e-12)

    def test_general_t2_keeps_leading_structure(self):
        exp = cf.susceptibility_expansion(2, 3)
        assert exp.coefficient(0) == SurdScalar.rational(1, 2)
        assert exp.gamma == F(1, 2)

    def test_expansion_matches_ratio_numerically(self):
        # oracle: evaluate d4/d4(critical) just above the critical coupling
        exp = cf.susceptibility_expansion(1, 6)
        tc = cf.critical_point(1)
        for u in (F(1, 10**4), F(1, 10**5)):
            t4 = tc + u
            p = CouplingPoint(1, t4)
            s = math.sqrt(float(p.ssq))
            d4 = (1 - s + 4 * float(t4)) / (8 * float(t4) ** 2)
            d4c = 4.0
            series_val = sum(c.to_float() * float(u) ** (float(e)) for e, c in exp.terms)
            assert d4 / d4c == pytest.approx(series_val, abs=1e4 * float(u) ** 3)

    @pytest.mark.parametrize("point", random_points(12, seed=27) + [CouplingPoint(F(3, 2), F(7, 32))])
    def test_d4_is_four_over_t2_plus_s_squared(self, point):
        # exactly, in Q(s); at (3/2, 7/32) the radicand is 4 and s = 2 is rational
        ssq = point.ssq
        root = SurdScalar.rational(point.t2, ssq) + SurdScalar.s(ssq)
        assert cf.dirac_moment(4, point) == SurdScalar.rational(4, ssq) / (root * root)

    @pytest.mark.parametrize("num_terms", range(2, 10))
    @pytest.mark.parametrize("t2", [1, F(3, 2), F(2, 7), 5])
    def test_expansion_matches_the_long_division(self, t2, num_terms):
        exp = cf.susceptibility_expansion(t2, num_terms)
        want = reference.susceptibility_series(t2, num_terms)
        assert [e for e, _ in exp.terms] == [F(k, 2) for k in range(num_terms)]
        for (_, got), ref in zip(exp.terms, want):
            assert (got.a, got.b, got.ssq) == (ref.a, ref.b, ref.ssq)

    def test_validation(self):
        with pytest.raises(ValueError):
            cf.susceptibility_expansion(1, 1)
        for num_terms in (4.0, True):
            with pytest.raises(ValueError, match="num_terms must be an integer"):
                cf.susceptibility_expansion(1, num_terms)
        with pytest.raises(ValueError):
            cf.critical_point(0)


class TestSignature:
    def test_parse(self):
        assert cf.Signature.parse("2,0") is cf.Signature.S20
        assert cf.Signature.parse("(1,1)") is cf.Signature.S11
        assert cf.Signature.parse("02") is cf.Signature.S02
        with pytest.raises(ValueError):
            cf.Signature.parse("3,1")

    def test_signs(self):
        assert (cf.Signature.S20.eps1, cf.Signature.S20.eps2) == (1, 1)
        assert (cf.Signature.S11.eps1, cf.Signature.S11.eps2) == (1, -1)
        assert (cf.Signature.S02.eps1, cf.Signature.S02.eps2) == (-1, -1)


class TestExports:
    def test_table_rows(self):
        rows = list(cf.moment_table_rows(P11))
        assert rows[0] == ("index", "degree", "a", "b", "ssq", "decimal")
        assert len(rows) == 21
        body = {r[0]: r for r in rows[1:]}
        assert body["m_{2}"][5] == pytest.approx(1 / 16)
