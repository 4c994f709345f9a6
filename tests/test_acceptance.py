"""Acceptance suite.

One test per numbered criterion (split into named sub-checks).  Four
sub-claims are implemented exactly as stated and marked strict-xfail: they
assert properties of the published closed forms that provably cannot hold
together with the Gaussian initial data (see README, 'Two solutions, one
system').  Everything else must pass at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -rxX` to see one line per
criterion including the expected failures.
"""

import math
import time
from fractions import Fraction as F

import pytest

from dirac2mm.algebra import CouplingPoint
from dirac2mm.words import CanonicalMoment
from dirac2mm import closedform as cf
from dirac2mm import mapenum, solver, verification

DISCREPANCY_NOTE = (
    "published expectation; incompatible with the Gaussian initial data of the "
    "perturbative expansion -- see README section 'Two solutions, one system'"
)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_exact_moment_values():
    start = time.monotonic()
    result = verification.check_exact_moments()
    assert result.passed, "\n".join(result.lines)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_system_structure():
    start = time.monotonic()
    result = verification.check_system_structure()
    assert result.passed, result.detail
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_exact_residuals():
    start = time.monotonic()
    result = verification.check_exact_residuals()
    assert result.passed, "\n".join(result.lines)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------- criterion 4


@pytest.fixture(scope="module")
def solver_table():
    return solver.solve_series(D=8, K=3, t2=1)


@pytest.fixture(scope="module")
def verify_records(solver_table):
    return cf.verify_closed_forms(solver_table)


def test_criterion_4_runtime_bound(solver_table):
    start = time.monotonic()
    solver.solve_series(D=8, K=3, t2=1)
    assert time.monotonic() - start < 60.0


@pytest.mark.xfail(strict=True, reason="solver == closed forms: " + DISCREPANCY_NOTE)
def test_criterion_4_solver_matches_all_twenty_closed_forms(verify_records):
    assert all(r.ok for r in verify_records), "; ".join(
        f"{r.moment.label()}@{r.first_mismatch}" for r in verify_records if not r.ok
    )


@pytest.mark.xfail(strict=True, reason="alternating moment regenerates zero: " + DISCREPANCY_NOTE)
def test_criterion_4_alternating_moment_regenerates_zero(solver_table):
    assert solver_table.series(CanonicalMoment((1, 1, 1, 1))).is_zero()


def test_criterion_4_alternating_moment_matches_independent_enumeration(solver_table):
    # what the recursion actually produces, pinned by the gluing oracle
    assert tuple(solver_table.series(CanonicalMoment((1, 1, 1, 1))).coeffs) == (
        verification.ALTERNATING_SERIES_T21
    )


def test_criterion_4_degree_six_denominator_resolves():
    from dirac2mm.words import parse_moment_label

    for label in ("m_{6}", "m_{4,2}", "m_{2,1,2,1}", "m_{3,1,1,1}"):
        q, den, _terms = cf._MOMENT_TABLE[parse_moment_label(label).runs]
        assert (q, den) == (3, 32768)


def test_criterion_4_divergence_structure_is_exact(verify_records):
    record = verification.check_oracle_triangle()
    assert record.passed, "\n".join(record.lines)


# ---------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def map_check():
    start = time.monotonic()
    result = verification.check_map_agreement()
    return result, time.monotonic() - start


def test_criterion_5_enumeration_equals_recursion(map_check):
    result, elapsed = map_check
    assert result.passed, "\n".join(result.lines)
    assert elapsed < 120.0


def test_criterion_5_every_planar_gluing_has_distinguished_cell(map_check):
    # exhaustive at k <= 2
    for k in (0, 1, 2):
        assert mapenum.cancellation_report(k).all_have_distinguished_cell


@pytest.mark.xfail(strict=True, reason="signed gluing weights cancel: " + DISCREPANCY_NOTE)
def test_criterion_5_signed_sums_cancel():
    for k in (1, 2):
        assert mapenum.cancellation_report(k).paired


def test_criterion_5_census_values_are_reproducible():
    r1 = mapenum.cancellation_report(1)
    assert (r1.positive_weight_count, r1.negative_weight_count, r1.signed_sum) == (2, 0, F(16))
    r2 = mapenum.cancellation_report(2)
    assert (r2.positive_weight_count, r2.negative_weight_count, r2.signed_sum) == (0, 136, F(-9216))


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_value_pins():
    start = time.monotonic()
    p = CouplingPoint(1, 1)
    assert cf.free_energy(p) == pytest.approx(-0.25 + math.log(math.pi**2 / 16), abs=1e-10)
    small = CouplingPoint(1, F(1, 10**8))
    gauss = cf.gaussian_free_energy(1)
    assert abs(cf.free_energy(small) - gauss) < 1e-6
    assert time.monotonic() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="central difference of the published formula equals -1/4: its slope is +d4; " + DISCREPANCY_NOTE,
)
def test_criterion_6_derivative_identity_printed_formula():
    h = F(1, 10**6)
    d = (cf.free_energy(CouplingPoint(1, 1 + h)) - cf.free_energy(CouplingPoint(1, 1 - h))) / (
        2 * float(h)
    )
    assert d == pytest.approx(-0.25, abs=1e-8)


def test_criterion_6_derivative_identity_consistent_evaluator():
    h = F(1, 10**6)
    d = (
        cf.free_energy_consistent(CouplingPoint(1, 1 + h))
        - cf.free_energy_consistent(CouplingPoint(1, 1 - h))
    ) / (2 * float(h))
    assert d == pytest.approx(-0.25, abs=1e-8)
    assert abs(cf.free_energy_consistent(CouplingPoint(1, F(1, 10**8))) - cf.gaussian_free_energy(1)) < 1e-6


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_susceptibility():
    start = time.monotonic()
    result = verification.check_criticality()
    assert result.passed, "\n".join(result.lines)
    exp = cf.susceptibility_expansion(1, 4)
    assert exp.coefficient(F(1, 2)).to_float() == pytest.approx(-4 * math.sqrt(2), rel=1e-10)
    assert exp.coefficient(1).rational_value() == 24
    assert exp.gamma == F(1, 2)
    assert abs(exp.coefficient(F(3, 2)).to_float()) == pytest.approx(64 * math.sqrt(2), rel=1e-10)
    assert exp.coefficient(F(3, 2)).to_float() < 0  # derived sign, recorded
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_rescaling_identity():
    start = time.monotonic()
    result = verification.check_rescaling()
    assert result.passed, result.detail
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------- criterion 9


@pytest.fixture(scope="module")
def mc_scan():
    from dirac2mm import montecarlo

    start = time.monotonic()
    scan = montecarlo.signature_scan(CouplingPoint(1, 1))
    elapsed = time.monotonic() - start
    return scan, elapsed


@pytest.mark.slow
def test_criterion_9_m2_within_five_percent(mc_scan):
    scan, elapsed = mc_scan
    target = 1 / 16
    for sig, data in scan.items():
        assert data["proposals"] >= 2_000_000
        rel = abs(data["m2"].mean - target) / target
        assert rel < 0.05, f"{sig}: {data['m2'].mean} vs {target} ({rel:.2%})"
    assert elapsed < 3 * 300.0, "budget: five minutes per signature"


@pytest.mark.slow
def test_criterion_9_signatures_mutually_consistent(mc_scan):
    scan, _ = mc_scan
    sigs = list(scan)
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            a, b = scan[sigs[i]]["m2"], scan[sigs[j]]["m2"]
            gap = abs(a.mean - b.mean)
            bound = 3 * math.hypot(a.std_error, b.std_error)
            assert gap <= bound, f"{sigs[i]} vs {sigs[j]}: {gap:.2e} > {bound:.2e}"


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="alternating-word average consistent with 0 at 3 sigma: the finite-size "
    "value is positive (exact genus-one term ~ 1/(64 N^2) plus the nonzero "
    "leading-order coefficient both exact oracles produce); " + DISCREPANCY_NOTE,
)
def test_criterion_9_alternating_word_consistent_with_zero(mc_scan):
    scan, _ = mc_scan
    for sig, data in scan.items():
        assert data["abab"].agrees_with(0.0), f"{sig}: {data['abab'].as_json()}"


@pytest.mark.slow
def test_criterion_9_alternating_word_matches_finite_size_expectation(mc_scan):
    # the measurement is the planar value at t4 = 1 (about 2.05e-4, above the
    # t4 = 0 torus term 1/(64 N^2) = 1.56e-4) less a signature-dependent
    # 1/N^2 correction: positive, and within 0.3-4 x 1/(64 N^2)
    scan, _ = mc_scan
    torus_term = 1 / (64 * 100)
    for sig, data in scan.items():
        est = data["abab"]
        assert est.mean > 0
        assert 0.3 * torus_term < est.mean < 4 * torus_term


@pytest.mark.slow
def test_criterion_9_n1_marginal_ks():
    from dirac2mm import montecarlo

    dist, n = montecarlo.n1_marginal_ks(CouplingPoint(1, 1), samples=100_000, seed=11)
    assert n >= 100_000
    assert dist < 0.02
