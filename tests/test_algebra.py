import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dirac2mm.algebra import (
    CouplingPoint,
    MomentSeries,
    RadicandMismatch,
    SurdScalar,
    TruncationError,
    rat,
    rational_sqrt,
)
from reference import SurdScalar as ReferenceSurd

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
        with pytest.raises(TypeError):
            x * 0.5

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SurdScalar(1, 0, 17) / SurdScalar(0, 0, 17)

    @pytest.mark.parametrize("op, other, error, text", [
        (operator.truediv, SurdScalar(0, 0, 3), RadicandMismatch, "radicands differ: 2 vs 3"),
        (operator.truediv, 0, ZeroDivisionError, "inverse of zero surd value"),
        (operator.mul, 0.5, TypeError, "cannot interpret 0.5 as an exact rational"),
        (operator.add, SurdScalar(1, 1, 3), RadicandMismatch, "radicands differ: 2 vs 3"),
    ])
    def test_operator_refusals_are_pinned(self, op, other, error, text):
        # the radicand is checked before the divisor is inverted
        with pytest.raises(error) as info:
            op(SurdScalar(1, 1, 2), other)
        assert type(info.value) is error and str(info.value) == text

    def test_adding_a_rational_string(self):
        assert repr(SurdScalar(1, 1, 2) + "1/2") == "(3/2 + 1*sqrt(2))"

    def test_division_with_square_radicand_zero_norm(self):
        # (3 - s) at ssq = 9 has zero norm but nonzero representations divide fine
        x = s9(3, 1)   # value 6
        assert (s9(12, 0) / x).rational_value() == 2

    @pytest.mark.parametrize("other", [None, 0.5, "abc", "1", 1.0, [1]])
    def test_equality_with_a_non_rational_is_false(self, other):
        # not an int, a Fraction or a SurdScalar: NotImplemented, so == answers False and != True
        x = SurdScalar(1, 0, 2)
        assert (x == other, x != other, other == x) == (False, True, False)
        assert x in [other, x] and other not in [x]

    def test_rational_values_are_equal_across_radicands(self):
        one2, one3 = SurdScalar(1, 0, 2), SurdScalar(1, 0, 3)
        assert one2 == 1 and one3 == 1 and one2 == one3 and one2 == F(1) and F(1) == one3
        assert s9(0, 1) == SurdScalar(3, 0, 2) == 3      # s = 3 when ssq = 9
        assert SurdScalar(F(1, 2), 0, 5) != SurdScalar(F(1, 3), 0, 5)

    def test_irrational_values_need_an_equal_radicand(self):
        assert SurdScalar(1, 1, 2) == SurdScalar(1, 1, F(4, 2))
        assert SurdScalar(1, 1, 2) != SurdScalar(1, 1, 3)
        assert SurdScalar(1, 1, 2) != 1 and SurdScalar(0, 1, 2) != SurdScalar(0, 0, 2)

    def test_rational_values_hash_as_their_fraction(self):
        assert SurdScalar(1, 0, 2) in {1}
        assert hash(SurdScalar(F(1, 2), 0, 7)) == hash(F(1, 2)) == hash(SurdScalar(F(1, 2), 0, 3))
        assert hash(s9(0, 1)) == hash(3)
        assert len({SurdScalar(1, 0, 2), SurdScalar(1, 0, 3), F(1), 1}) == 1
        assert len({SurdScalar(1, 1, 2), SurdScalar(1, 1, 3)}) == 2

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


# irrational and perfect-square radicands; the squares make (a, b) redundant
DIFFERENTIAL_RADICANDS = (F(2), F(3), F(17, 4), F(33, 2), F(4), F(9), F(25, 4))


def _components(x):
    return (x.a, x.b, x.ssq, type(x.a), type(x.b), type(x.ssq))


def _outcome(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


class TestAgainstReference:
    """The integer SurdScalar against the Fraction-pair one of tests/reference.py."""

    ARITHMETIC = {
        "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "neg": lambda x, _: -x, "inverse": lambda x, _: x.inverse(), "reduced": lambda x, _: x.reduced(),
    }
    QUERIES = {
        "norm": lambda x, _: (x.norm(), type(x.norm())), "==": operator.eq, "hash": lambda x, _: hash(x),
        "is_zero": lambda x, _: x.is_zero(), "rational_value": lambda x, _: x.rational_value(),
        "repr": lambda x, _: repr(x),
    }
    OPS = sorted(ARITHMETIC) + sorted(QUERIES) + ["to_float", "roundtrip"]

    def test_seeded_operations_match(self):
        rng = random.Random(20261019)

        def fresh(ssq):
            part = lambda: F(0) if rng.random() < 0.25 else F(rng.randint(-40, 40), rng.randint(1, 12))
            a, b = part(), part()
            return SurdScalar(a, b, ssq), ReferenceSurd(a, b, ssq)

        count = dict.fromkeys(self.OPS, 0)
        for _ in range(200):
            ssq = rng.choice(DIFFERENTIAL_RADICANDS)
            pool = [fresh(ssq) for _ in range(6)]
            for _ in range(50):
                op = rng.choice(self.OPS)
                count[op] += 1
                (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
                if rng.random() < 0.3:
                    y = ry = rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))])
                if op in self.ARITHMETIC:
                    f = self.ARITHMETIC[op]
                    got, want = _outcome(f, x, y), _outcome(f, rx, ry)
                    if isinstance(want, type):
                        assert got is want, (op, rx, ry)
                        continue
                    assert _components(got) == _components(want), (op, rx, ry)
                    if max(c.numerator.bit_length() + c.denominator.bit_length() for c in (want.a, want.b)) < 400:
                        pool[rng.randrange(len(pool))] = (got, want)
                elif op in self.QUERIES:
                    f = self.QUERIES[op]
                    assert _outcome(f, x, y) == _outcome(f, rx, ry), (op, rx, ry)
                elif op == "to_float":
                    # the reference cancels: its error is a few ulp of |a| + |b| s
                    scale = abs(float(rx.a)) + abs(float(rx.b)) * math.sqrt(float(rx.ssq))
                    assert abs(x.to_float() - rx.to_float()) <= 4 * math.ulp(scale), rx
                elif ry != 0:
                    # one value reached by two paths: equal, with one hash and one reduced form
                    z, rz = (x * y) / y, (rx * ry) / ry
                    assert (z == x, z - x == 0, hash(z) == hash(x), rz == rx) == (True, True, True, True)
                    assert _components(z.reduced()) == _components(rz.reduced())
                if rng.random() < 0.1:
                    pool[rng.randrange(len(pool))] = fresh(ssq)
        assert sum(count.values()) == 10_000 and min(count.values()) > 400, count

    def test_radicand_is_compared_by_value(self):
        x, y = SurdScalar(1, 2, F(17, 4)), SurdScalar(3, -1, F(34, 8))
        assert x.ssq is not y.ssq
        assert _components(x * y) == _components(ReferenceSurd(1, 2, F(17, 4)) * ReferenceSurd(3, -1, F(17, 4)))
        with pytest.raises(RadicandMismatch, match=r"^radicands differ: 17/4 vs 5$"):
            x - SurdScalar(0, 1, 5)
        assert x != SurdScalar(1, 2, 5)


class TestSumOfProducts:
    """The fused sum of c*x*y against the term-by-term sum of tests/reference.py."""

    def test_seeded_term_lists_match(self):
        rng = random.Random(20261020)

        def operand(ssq):
            if rng.random() < 0.25:
                return None, None
            part = lambda: F(0) if rng.random() < 0.25 else F(rng.randint(-40, 40), rng.randint(1, 12))
            a, b = part(), part()
            return SurdScalar(a, b, ssq), ReferenceSurd(a, b, ssq)

        refused = 0
        for _ in range(10_000):
            ssq = rng.choice(DIFFERENTIAL_RADICANDS)
            terms, want = [], ReferenceSurd(0, 0, ssq)
            for _ in range(rng.randint(0, 6)):
                c = rng.choice([rng.randint(-9, 9), F(rng.randint(-40, 40), rng.randint(1, 12))])
                (x, rx), (y, ry) = operand(ssq), operand(ssq)
                terms.append((c, x, y))
                want = want + ReferenceSurd(c, 0, ssq) * (rx if rx is not None else 1) * (ry if ry is not None else 1)
            got = SurdScalar.sum_of_products(terms, ssq)
            assert _components(got) == _components(want), terms
            assert got == SurdScalar(want.a, want.b, ssq) and hash(got) == hash(want), terms
            if terms and rng.random() < 0.05:
                other = ssq + rng.randint(1, 3)
                c, x, y = terms[rng.randrange(len(terms))]
                terms.append((c, SurdScalar(1, 1, other), y) if rng.random() < 0.5 else (c, x, SurdScalar(1, 1, other)))
                with pytest.raises(RadicandMismatch, match=rf"^radicands differ: {ssq} vs {other}$"):
                    SurdScalar.sum_of_products(terms, ssq)
                refused += 1
        assert refused > 300

    def test_empty_sum_and_constant_terms(self):
        zero = SurdScalar.sum_of_products([], 2)
        assert _components(zero) == (F(0), F(0), F(2), F, F, F)
        assert SurdScalar.sum_of_products([(3, None, None), (F(1, 2), None, None)], 2) == F(7, 2)
        with pytest.raises(TypeError):
            SurdScalar.sum_of_products([(0.5, None, None)], 2)


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
    def test_truncation_is_loud(self):
        f = MomentSeries(1, [1, 2])
        with pytest.raises(TruncationError):
            f.coefficient(5)

    @pytest.mark.parametrize("k, text", [
        (-1, "k must be >= 0, got -1"), (-4, "k must be >= 0, got -4"),
        (1.0, "k must be an integer, got 1.0"), (True, "k must be an integer, got True"),
        (F(1), "k must be an integer, got Fraction(1, 1)"),
    ])
    def test_negative_or_non_integer_index_is_refused(self, k, text):
        # -1 used to read the top coefficient, -4 an IndexError, 1.0 a TypeError
        with pytest.raises(ValueError) as info:
            MomentSeries(1, [1, 2]).coefficient(k)
        assert type(info.value) is ValueError and str(info.value) == text


def _t2_entry_points():
    from dirac2mm import closedform, mapenum, solver
    import reference

    return {
        "gaussian_moment": lambda t2: reference.gaussian_moment("AA", t2),
        "solve_series": lambda t2: solver.solve_series(2, 1, t2),
        "moment_coefficient": lambda t2: mapenum.moment_coefficient("AA", 1, t2),
        "moment_series": lambda t2: closedform.moment_series("AA", t2, 2),
        "gaussian_free_energy": closedform.gaussian_free_energy,
        "free_energy": lambda t2: closedform.free_energy(CouplingPoint(t2, 1)),
        "free_energy_consistent": lambda t2: closedform.free_energy_consistent(CouplingPoint(t2, 1)),
        "critical_point": closedform.critical_point,
        "susceptibility_expansion": closedform.susceptibility_expansion,
    }


@pytest.mark.parametrize("t2", [0, -1])
@pytest.mark.parametrize("name", sorted(_t2_entry_points()))
def test_nonpositive_t2_is_refused_by_name(name, t2):
    with pytest.raises(ValueError, match=rf"^{name} needs t2 > 0, got {t2}$"):
        _t2_entry_points()[name](t2)


def _floor_entry_points():
    from dirac2mm import closedform, mapenum, montecarlo, sde, solver, words

    p11 = CouplingPoint(1, 1)
    config = lambda field: lambda x: montecarlo.SamplerConfig(n=4, point=p11, **{field: x})
    # name -> (call with the argument, the argument's name, its floor)
    return {
        "MomentSeries.coefficient": (MomentSeries(1, [1, 2]).coefficient, "k", 0),
        "moment_series": (lambda x: closedform.moment_series("AA", 1, x), "order", 0),
        "susceptibility_expansion": (lambda x: closedform.susceptibility_expansion(1, x), "num_terms", 2),
        "generate_system": (sde.generate_system, "max_word_degree", 1),
        "solve_series": (lambda x: solver.solve_series(2, x, 1), "K", 0),
        "iter_canonical_moments": (words.iter_canonical_moments, "degree", 0),
        "moment_coefficient": (lambda x: mapenum.moment_coefficient("AA", x, 1), "order k", 0),
        "cancellation_report": (mapenum.cancellation_report, "order k", 0),
        "n1_marginal_ks": (lambda x: montecarlo.n1_marginal_ks(p11, samples=x), "samples", 1),
        "SamplerConfig.n": (lambda x: montecarlo.SamplerConfig(n=x, point=p11), "n", 1),
        "SamplerConfig.thinning": (config("thinning"), "thinning", 1),
        "SamplerConfig.chains": (config("chains"), "chains", 1),
        "SamplerConfig.seed": (config("seed"), "seed", 0),
    }


@pytest.mark.parametrize("bad", [True, 2.5, "3", "floor"])
@pytest.mark.parametrize("entry", sorted(_floor_entry_points()))
def test_integer_arguments_are_refused_in_one_form(entry, bad):
    call, name, low = _floor_entry_points()[entry]
    if bad == "floor":
        bad, text = low - 1, f"{name} must be >= {low}, got {low - 1}"
    else:
        text = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is ValueError and str(info.value) == text


@pytest.mark.parametrize("text", ["1/0", "-3/0"])
def test_rat_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match=f"^cannot read '{text}' as a rational: its denominator is zero$"):
        rat(text)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(-4)) is None
