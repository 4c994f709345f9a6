import hashlib
import json
from fractions import Fraction as F

import pytest

from dirac2mm.solver import (
    InconsistentSystem,
    gaussian_moment,
    solve_series,
    verify_closed_forms,
)
from dirac2mm.words import CanonicalMoment, _canonical_from_string, canonicalize, iter_canonical_moments

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

    @pytest.mark.parametrize("D, K", [(4, True), (True, 1), (4.0, 1), (4, 1.0), (4, -1), (-2, 1), ("4", 1)])
    def test_bad_degree_or_order_rejected(self, D, K):
        with pytest.raises(ValueError, match="D must|K must"):
            solve_series(D, K, 1)

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

    def test_tampered_base_is_caught(self, monkeypatch):
        import dirac2mm.solver as solver_mod

        true_gauss = solver_mod.gaussian_moment

        def corrupted(c, t2):
            c = canonicalize(c) if not isinstance(c, CanonicalMoment) else c
            value = true_gauss(c, t2)
            if c.runs == (2, 2):
                return value + 1
            return value

        monkeypatch.setattr(solver_mod, "gaussian_moment", corrupted)
        with pytest.raises(InconsistentSystem):
            solver_mod.solve_series(D=4, K=1, t2=1)


class TestVerifyClosedForms:
    def test_divergence_is_reported_not_raised(self):
        records = verify_closed_forms(D=4, K=2, t2=1)
        by_label = {r.moment.label(): r for r in records}
        assert not by_label["m_{2}"].ok and by_label["m_{2}"].first_mismatch == 2
        assert not by_label["m_{4}"].ok and by_label["m_{4}"].first_mismatch == 1
        assert not by_label["m_{1,1,1,1}"].ok and by_label["m_{1,1,1,1}"].first_mismatch == 1

    def test_order_zero_degree_four_agrees(self):
        records = verify_closed_forms(D=4, K=0, t2=1)
        for r in records:
            assert r.ok, r.moment.label()

    def test_denominator_corruption_detected(self):
        # writing the degree-6 denominator with its doubled misprint makes
        # the first reported divergence move to order 0 for m_6
        import dirac2mm.closedform as cf

        runs = (6,)
        original = cf._MOMENT_TABLE[runs]
        corrupted = (original[0], 3276832768, original[2])
        try:
            cf._MOMENT_TABLE[runs] = corrupted
            records = verify_closed_forms(D=6, K=1, t2=1)
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


def test_canonical_cache_is_bounded():
    solve_series(8, 4, 1)
    info = _canonical_from_string.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
