import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dirac2mm.algebra import (
    CouplingPoint,
    MomentSeries,
    RadicandMismatch,
    SurdScalar,
    TruncationError,
    rational_sqrt,
    surd_expansion,
)

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=20
)
nonsquare_ssq = st.sampled_from([F(2), F(3), F(5), F(7), F(17, 4), F(33, 2)])


def s9(a, b):
    return SurdScalar(a, b, 9)


class TestSurdScalar:
    def test_identity_and_square(self):
        one = s9(1, 0)
        s = s9(0, 1)
        assert one * s == s
        assert s * s == s9(9, 0)

    def test_second_moment_components_at_unit_couplings(self):
        # (s - t2) / (32 t4) at t2 = t4 = 1: components (-1/32, 1/32), value 1/16
        p = CouplingPoint(1, 1)
        m2 = (SurdScalar.s(p.ssq) - SurdScalar.rational(1, p.ssq)) / SurdScalar.rational(32, p.ssq)
        assert (m2.a, m2.b) == (F(-1, 32), F(1, 32))
        assert m2.rational_value() == F(1, 16)

    def test_radicand_mismatch_rejected(self):
        with pytest.raises(RadicandMismatch):
            SurdScalar(1, 1, 9) + SurdScalar(1, 1, 17)

    def test_rational_scaling(self):
        x = SurdScalar(F(2, 3), F(-5, 7), 17)
        for r in (3, F(-4, 9)):
            y = x * r
            z = x * SurdScalar.rational(r, 17)
            assert (y.a, y.b, y.ssq) == (z.a, z.b, z.ssq) == (x.a * r, x.b * r, x.ssq)
            assert r * x == y
        with pytest.raises(TypeError):
            x * 0.5

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SurdScalar(1, 0, 17) / SurdScalar(0, 0, 17)

    def test_division_with_square_radicand_zero_norm(self):
        # (3 - s) at ssq = 9 has zero norm but nonzero representations divide fine
        x = s9(3, 1)   # value 6
        assert (s9(12, 0) / x).rational_value() == 2

    @given(a=rationals, b=rationals, c=rationals, d=rationals, e=rationals, f=rationals, ssq=nonsquare_ssq)
    @settings(max_examples=150, deadline=None)
    def test_field_axioms(self, a, b, c, d, e, f, ssq):
        x, y, z = SurdScalar(a, b, ssq), SurdScalar(c, d, ssq), SurdScalar(e, f, ssq)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == SurdScalar(1, 0, ssq)

    @given(a=rationals, b=rationals)
    @settings(max_examples=100, deadline=None)
    def test_float_bridge(self, a, b):
        t2 = abs(a) + F(1, 3)
        t4 = abs(b) + F(1, 7)
        p = CouplingPoint(t2, t4)
        x = SurdScalar(a, b, p.ssq)
        exact = float(a) + float(b) * math.sqrt(float(p.ssq))
        assert x.to_float() == pytest.approx(exact, rel=1e-12)

    def test_json(self):
        j = s9(-1, F(1, 3)).as_json()
        assert j == {"a": "-1", "b": "1/3", "ssq": "9", "decimal": 0.0}


class TestCouplingPoint:
    def test_ssq(self):
        assert CouplingPoint(1, 1).ssq == 9
        assert CouplingPoint(1, 3).ssq == 25

    def test_ssq_is_computed_once_and_not_compared(self):
        p, q = CouplingPoint(1, 3), CouplingPoint(F(2, 2), 3)
        assert p.ssq is p.ssq
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q) == "CouplingPoint(t2=1, t4=3)"
        assert p != CouplingPoint(3, 2)   # same ssq, another point

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            CouplingPoint(1, -1).require_real_surd()

    def test_physical_guard(self):
        with pytest.raises(ValueError):
            CouplingPoint(1, F(-1, 100)).require_physical()


class TestMomentSeries:
    def test_ring_product(self):
        one_plus = MomentSeries(1, [1, 1, 0])
        one_minus = MomentSeries(1, [1, -1, 0])
        assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1))

    def test_mixed_base_point_rejected(self):
        with pytest.raises(ValueError):
            MomentSeries(1, [1]) + MomentSeries(2, [1])

    def test_truncation_is_loud(self):
        f = MomentSeries(1, [1, 2])
        with pytest.raises(TruncationError):
            f.coefficient(5)
        with pytest.raises(TruncationError):
            f.divide_t4()

    def test_sqrt_example(self):
        # sqrt(1 + 8 t4) to order 3; oracle: square the result and compare
        f = MomentSeries(1, [1, 8, 0, 0])
        g = f.sqrt()
        assert g.coeffs == (F(1), F(4), F(-8), F(32))
        assert (g * g).coeffs == f.coeffs

    def test_sqrt_constant(self):
        assert MomentSeries(1, [4, 0]).sqrt().coeffs == (F(2), F(0))
        assert MomentSeries(1, [1]).sqrt().coeffs == (F(1),)

    def test_sqrt_rejects_non_square(self):
        with pytest.raises(ValueError):
            MomentSeries(1, [2, 1]).sqrt()
        with pytest.raises(ValueError):
            MomentSeries(1, [0, 1]).sqrt()

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=6),
        c0=st.sampled_from([F(1), F(4), F(9, 4), F(1, 16)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_sqrt_squares_back(self, coeffs, c0):
        f = MomentSeries(1, [c0] + coeffs)
        g = f.sqrt()
        assert (g * g).coeffs == f.coeffs

    def test_eval_is_horner_exact(self):
        f = MomentSeries(1, [F(1, 8), F(-1, 4), 1])
        assert f.eval(0) == F(1, 8)
        assert f.eval(F(1, 100)) == F(1, 8) - F(1, 400) + F(1, 10000)
        assert f.eval(F(-1, 100)) == F(1, 8) + F(1, 400) + F(1, 10000)

    def test_surd_expansion_squares_to_radicand(self):
        for t2 in (1, 2, F(3, 2)):
            s = surd_expansion(t2, 6)
            sq = s * s
            expect = [F(t2) ** 2, F(8)] + [F(0)] * 5
            assert list(sq.coeffs) == expect


def _t2_entry_points():
    from dirac2mm import closedform, mapenum, solver

    return {
        "gaussian_moment": lambda t2: solver.gaussian_moment("AA", t2),
        "solve_series": lambda t2: solver.solve_series(2, 1, t2),
        "moment_coefficient": lambda t2: mapenum.moment_coefficient("AA", 1, t2),
        "moment_series": lambda t2: closedform.moment_series("AA", t2, 2),
        "gaussian_free_energy": closedform.gaussian_free_energy,
        "free_energy": lambda t2: closedform.free_energy(CouplingPoint(t2, 1)),
        "free_energy_consistent": lambda t2: closedform.free_energy_consistent(CouplingPoint(t2, 1)),
        "critical_point": closedform.critical_point,
        "susceptibility_expansion": closedform.susceptibility_expansion,
        "surd_expansion": lambda t2: surd_expansion(t2, 3),
    }


@pytest.mark.parametrize("t2", [0, -1])
@pytest.mark.parametrize("name", sorted(_t2_entry_points()))
def test_nonpositive_t2_is_refused_by_name(name, t2):
    with pytest.raises(ValueError, match=rf"^{name} needs t2 > 0$"):
        _t2_entry_points()[name](t2)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(-4)) is None
