import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from dirac2mm.algebra import CouplingPoint, SurdScalar
from dirac2mm.sde import M2, CoefTag, generate_system, residual
from dirac2mm.words import CanonicalMoment, parse_moment_label
from dirac2mm import closedform as cf

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

    def test_unknown_degree_raises(self):
        with pytest.raises(cf.UnknownMoment):
            cf.moment(parse_moment_label("m_{10}"), P11)

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

    def test_equals_elimination_in_surd_field_component_by_component(self):
        for p in COMPLETION_POINTS:
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

    def test_degree_eight_pole_is_flagged(self):
        with pytest.raises(cf.PoleAtGaussianPoint):
            cf.moment_series("AAAAAAAA", 1, 2)

    @pytest.mark.parametrize("word, t2", [("AA", -1), ("AB", -1), ("", 0), ("AAB", F(-1, 2))])
    def test_nonpositive_t2_refused_before_shortcuts(self, word, t2):
        with pytest.raises(ValueError, match="moment_series needs t2 > 0"):
            cf.moment_series(word, t2, 2)


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

    def test_from_words_equals_closed_form(self):
        for p in random_points(10, seed=3):
            for ell in (2, 4, 6):
                assert cf.dirac_from_words(ell, p) == cf.dirac_moment(ell, p)

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


class TestFreeEnergy:
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

    def test_table_json(self):
        payload = cf.moment_table_json(P11)
        assert {row["index"] for row in payload} >= {"m_{2}", "m_{8}", "m_{4,4}"}
