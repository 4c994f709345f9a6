import hashlib
import json

import pytest

from dirac2mm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_single_index(self, capsys):
        code, out, _ = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", "2")
        assert code == 0
        assert "m_{2} = 1/16 = 0.0625" in out

    def test_word_index(self, capsys):
        code, out, _ = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", "AABB")
        assert code == 0
        assert "1/256" in out

    def test_table(self, capsys):
        code, out, _ = run(capsys, "moments", "--t2", "1", "--t4", "1", "--all")
        assert code == 0
        assert out.splitlines()[0] == "index,degree,a,b,ssq,decimal"
        assert len(out.splitlines()) == 21

    @pytest.mark.parametrize("point", [("--t2", "1", "--t4=-1/5"), ("--t2=0", "--t4", "1")])
    def test_table_at_an_unphysical_point_writes_nothing(self, capsys, point):
        code, out, err = run(capsys, "moments", *point, "--all")
        assert (code, out) == (1, "")
        assert "t2 > 0 and t4 > 0" in err

    def test_table_with_a_decimal_outside_the_float_range_prints_nothing(self, capsys):
        # the degree-6 decimals near 1e297 pass, a later one overflows: no row is written
        code, out, err = run(capsys, "moments", "--all", "--t2", "1e-100", "--t4", "1e-300")
        assert (code, out) == (1, "")
        assert err == "error: a nonzero value outside the float range 5e-324 <= |x| <= 1.8e308 has no float\n"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "moments", "--t2", "1", "--t4", "0", "--index", "2")
        assert code == 1
        assert "error" in err

    def test_overflow_exit_code(self, capsys):
        code, out, err = run(capsys, "moments", "--index", "2", "--t2", "1e400", "--t4", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_nonpositive_t2_exit_code(self, capsys):
        code, out, err = run(capsys, "moments", "--t2", "-1", "--t4", "1", "--index", "2")
        assert code == 1
        assert out == ""
        assert "t2 > 0" in err

    def test_zero_denominator_exit_code(self, capsys):
        code, out, err = run(capsys, "moments", "--t2", "1/0", "--t4", "1", "--index", "2")
        assert (code, out) == (1, "")
        assert err == "error: cannot read '1/0' as a rational: its denominator is zero\n"

    def test_untabulated_moment_message_has_no_quotes(self, capsys):
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", "m_{10}")
        assert (code, out) == (1, "")
        assert err == "error: no tabulated closed form for m_{10} (degree 10 > 8)\n"

    @pytest.mark.parametrize("t4, index, decimal", [("1e-30", "2", "0.125"), ("1e-300", "4", "0.03125")])
    def test_decimal_near_the_gaussian_point(self, capsys, t4, index, decimal):
        # a and b s cancel to 30 and 300 digits; the decimal is the limit at t4 = 0
        code, out, _ = run(capsys, "moments", "--t2", "1", "--t4", t4, "--index", index)
        assert code == 0
        assert out.endswith(f" = {decimal}\n")

    def test_value_outside_the_float_range_names_it(self, capsys):
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1e400", "--index", "4")
        assert (code, out) == (1, "")
        assert err == "error: a nonzero value outside the float range 5e-324 <= |x| <= 1.8e308 has no float\n"

    @pytest.mark.parametrize("label", ["m_{0,2}", "2,0", "m_{-1,3}", "m_{2,2,}"])
    def test_bad_run_lengths_exit_code(self, capsys, label):
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", label)
        assert code == 1
        assert out == ""
        assert label in err and "positive" in err

    def test_odd_run_count_exit_code(self, capsys):
        # used to print m_{4,1} = 0
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", "3,1,1")
        assert (code, out) == (1, "")
        assert err == "error: alternating cyclic runs need even q, got (3, 1, 1)\n"


class TestDirac:
    def test_ell_choices_are_the_closed_forms_indices(self, capsys):
        code, out, err = run(capsys, "dirac", "--ell", "8", "--t2", "1", "--t4", "1")
        assert (code, out) == (1, "")
        assert "invalid choice: 8 (choose from 2, 4, 6)" in err

    def test_value_and_cross_check(self, capsys):
        code, out, _ = run(capsys, "dirac", "--ell", "4", "--t2", "1", "--t4", "1")
        assert code == 0
        assert "d_4 = 1/4" in out
        assert "from word moments" in out

    def test_sixth_moment_from_words(self, capsys):
        code, out, _ = run(capsys, "dirac", "--ell", "6", "--t2", "1", "--t4", "1")
        assert code == 0
        assert "d_6 = 19/128" in out
        assert "d_6 (from word moments) = 19/128" in out

    def test_sixth_moment_near_the_gaussian_point(self, capsys):
        code, out, _ = run(capsys, "dirac", "--ell", "6", "--t2", "1", "--t4", "1/100000000")
        assert code == 0
        assert [line.rsplit(" = ", 1)[1] for line in out.splitlines()] == ["1.18749992875"] * 2

    @pytest.mark.parametrize("t2, t4, digest", [
        ("1", "1", "152c683f704827aabc63937dd249392819d66eab4c9e068903a0cc45d05138f4"),
        ("3/2", "7/32", "824cf510869da9edd0791a003a908fff8bd8c6c5493f5d73c88811820b3518a6"),
        ("2", "3", "3c51563fec56695b725cb0399a162d40ff577537729236399071925456992d9f"),
    ])
    def test_stdout_is_pinned(self, capsys, t2, t4, digest):
        # SHA-256 of the stdout of ell = 2, 4, 6 in turn, closed form and
        # word sum, frozen from the term-by-term word sum in Q(s)
        out = ""
        for ell in ("2", "4", "6"):
            code, text, _ = run(capsys, "dirac", "--ell", ell, "--t2", t2, "--t4", t4)
            assert code == 0
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("t2", ["-1", "0"])
    def test_nonpositive_t2_exit_code(self, capsys, t2):
        code, out, err = run(capsys, "dirac", "--ell", "6", "--t2", t2, "--t4", "1")
        assert code == 1
        assert out == ""
        assert "t2 > 0" in err


class TestFreeEnergy:
    def test_negative_coupling_with_equals_sign(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--t2", "1", "--t4=-1/16")
        assert code == 0 and "as-printed formula" in out

    @pytest.mark.parametrize("t2", ["1e-400", "1e200"])
    def test_refuses_t2_outside_the_float_range(self, capsys, t2):
        code, _, err = run(capsys, "free-energy", "--t2", t2, "--t4", "1")
        assert code != 0 and "free_energy needs 1e-300 <= t2^2 <= 1e300" in err

    def test_help_shows_negative_coupling_hint(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--help")
        assert code == 0 and "--t4=-1/16" in out


class TestSde:
    def test_single_word_text(self, capsys):
        code, out, _ = run(capsys, "sde", "--word", "A")
        assert code == 0
        assert out.strip() == (
            "1 = 8 t2 m_{2} + t4(16 m_{4} - 16 m_{1,1,1,1} + 32 m_{2,2} + 64 m_{2} m_{2})"
        )

    def test_system_json(self, capsys):
        code, out, _ = run(capsys, "sde", "--max-degree", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4

    def test_empty_word(self, capsys):
        # m_[A] vanishes by parity and no A splits the empty word
        assert run(capsys, "sde", "--word", "") == (0, "0 = 0\n", "")

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "sde", "--word", "BAB", "--format", "latex")
        assert code == 0
        assert "t_{2}" in out


class TestSeries:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "2", "--order", "2")
        assert code == 0
        assert "m_{2},2,2,33/32" in out.replace('"', "")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "2", "--order", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["moments"]["m_{2}"] == ["1/8", "-1/4"]
        assert code == 0


class TestEnumerate:
    def test_coefficient(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--word", "AA", "--order", "1")
        assert code == 0
        assert "-1/4" in out

    def test_cancellation_report(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--word", "ABAB", "--order", "1", "--report-cancellation")
        assert code == 0
        payload = json.loads(out)
        assert payload["positive_weight_count"] == 2
        assert payload["every_planar_map_has_distinguished_cell"] is True
        assert payload["signed_sum_cancels"] is False

    @pytest.mark.parametrize("word, k, digest", [
        ("ABAB", 2, "13b81757f4e6468d6c5dd93019c00af413c90194005be11e9db2ca59055d94c0"),
        ("AABB", 2, "5d1ba03a173f9a6c3533a157ce28d9378799ab84da6b32516ab9e4ea02b43fdd"),
        ("AAAAAA", 1, "7d44dedc63ac1ff42c397d9766af5a06341651faef96455244c7bad379a9c6b9"),
    ])
    def test_dump_is_pinned(self, capsys, word, k, digest):
        # SHA-256 of the whole stdout, the maps in order, frozen from the
        # dart-by-dart walk with its own cuts
        code, out, _ = run(capsys, "enumerate", "--word", word, "--order", str(k), "--dump")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cancellation_report_refuses_another_word(self, capsys):
        code, out, err = run(capsys, "enumerate", "--word", "AA", "--order", "1", "--report-cancellation")
        assert (code, out) == (1, "")
        assert "--report-cancellation" in err
        code, _, _ = run(capsys, "enumerate", "--word", "BABA", "--order", "1", "--report-cancellation")
        assert code == 0

    def test_cancellation_report_refuses_dump(self, capsys):
        code, out, err = run(capsys, "enumerate", "--word", "ABAB", "--order", "1",
                             "--report-cancellation", "--dump")
        assert (code, out) == (1, "")
        assert "--report-cancellation" in err and "--dump" in err

    @pytest.mark.parametrize("t2", ["1", "-7"])
    def test_cancellation_report_refuses_t2(self, capsys, t2):
        code, out, err = run(capsys, "enumerate", "--word", "ABAB", "--order", "1",
                             "--report-cancellation", "--t2", t2)
        assert (code, out) == (1, "")
        assert "--t2" in err and "--report-cancellation" in err

    def test_coefficient_defaults_to_unit_t2(self, capsys):
        default = run(capsys, "enumerate", "--word", "AABB", "--order", "2")
        assert default == run(capsys, "enumerate", "--word", "AABB", "--order", "2", "--t2", "1")
        assert default != run(capsys, "enumerate", "--word", "AABB", "--order", "2", "--t2", "2")

    def test_all_maps_refuses_to_run_without_dump(self, capsys):
        code, out, err = run(capsys, "enumerate", "--word", "AA", "--order", "1", "--all-maps")
        assert (code, out) == (1, "")
        assert "--all-maps" in err

    @pytest.mark.parametrize("extra", [[], ["--dump"], ["--report-cancellation"]])
    def test_negative_order_exit_code(self, capsys, extra):
        code, out, err = run(capsys, "enumerate", "--word", "AB", "--order", "-1", *extra)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: order k must be >= 0, got -1"

    @pytest.mark.parametrize("extra", [[], ["--report-cancellation"]])
    @pytest.mark.parametrize("order", ["true", "1.5", "x"])
    def test_non_integer_order_exit_code(self, capsys, extra, order):
        code, out, err = run(capsys, "enumerate", "--word", "ABAB", "--order", order, *extra)
        assert (code, out) == (1, "")
        assert f"argument --order: invalid int value: '{order}'" in err


class TestMc:
    def test_summary_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "mc", "--n", "4", "--steps", "3000", "--burn-in", "1000",
            "--thinning", "20", "--chains", "2", "--seed", "3", "--trace", str(trace),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["proposals"] == 6000
        assert "m2" in payload["estimates"]
        header = trace.read_text().splitlines()[0]
        assert header == "sample,tr_A2,tr_D2,tr_D4,acceptance"

    def test_unwritable_trace_fails_before_the_chain(self, capsys, tmp_path):
        trace = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "mc", "--n", "2", "--steps", "2000", "--burn-in", "1000",
                             "--trace", str(trace))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(trace) in err
        assert not trace.parent.exists()

    def test_bad_signature(self, capsys):
        code, _, err = run(capsys, "mc", "--signature", "9,9", "--steps", "100", "--burn-in", "10")
        assert code == 1
        assert "signature" in err

    def test_refuses_a_commutator_letter_at_n_1(self, capsys):
        code, out, err = run(capsys, "mc", "--n", "1", "--signature", "1,1", "--steps", "3000",
                             "--burn-in", "1000", "--thinning", "10", "--chains", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: n = 1 drops the commutator letter B out of D")

    @pytest.mark.parametrize("t2", ["1e-400", "1e400"])
    def test_refuses_t2_outside_the_float_range(self, capsys, t2):
        code, out, err = run(capsys, "mc", "--n", "2", "--t2", t2, "--steps", "200", "--burn-in", "100")
        assert (code, out) == (1, "")
        assert err.startswith("error: sampler needs 1e-300 <= t2 <= 1e300")


class TestCritical:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "critical", "--t2", "1", "--terms", "4")
        assert code == 0
        assert "gamma = 1/2" in out
        assert "-1/8" in out

    @pytest.mark.parametrize("argv", [
        ("--t2", "1e-170", "--terms", "2"),    # t_c underflows; its decimal printed as -0
        ("--t2", "1e-170", "--terms", "4"),    # a coefficient overflows after three lines
        ("--t2", "1e-400"),
        ("--t2", "1e200"),                     # t_c overflows in float()
    ])
    def test_decimal_outside_the_float_range_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, "critical", *argv)
        assert (code, out) == (1, "")
        assert err == "error: a nonzero value outside the float range 5e-324 <= |x| <= 1.8e308 has no float\n"


class TestVerifyDispatch:
    @pytest.fixture
    def canned_report(self, monkeypatch):
        from dirac2mm import verification

        def fake_run_all(include_monte_carlo=False):
            return [
                verification.CheckResult("alpha", passed=True),
                verification.CheckResult("beta", passed=True, discrepancy=True, detail="documented"),
            ]

        monkeypatch.setattr("dirac2mm.verification.run_all", fake_run_all)

    def test_documented_discrepancies_pass_by_default(self, capsys, canned_report):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "[PASS*] beta" in out

    def test_strict_counts_discrepancies_as_failures(self, capsys, canned_report):
        assert run(capsys, "verify", "--strict")[0] == 2


class TestVerifyReportsFailure:
    """One value under each exact check tampered: the check reports FAIL and verify exits 2."""

    @pytest.mark.parametrize("label, detail, end", [
        ("m_{2,1,2,1}", "        - nonzero residuals at ", ""),
        # the degree-10 completion is then inconsistent, and branch_assignment raises
        ("m_{4,2}", "        - no branch values at ", ": ArithmeticError('inconsistent completion system')"),
    ])
    def test_a_wrong_closed_form_fails_check_3(self, capsys, monkeypatch, label, detail, end):
        # the table entry of one degree-6 moment given the named form of m_{6}
        from dirac2mm import closedform
        from dirac2mm.words import parse_moment_label

        runs = parse_moment_label(label).runs
        monkeypatch.setitem(closedform._MOMENT_TABLE, runs, closedform._NAMED_FORMS["m_{6}"])
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == ["[FAIL] 3 closed-form branch solves every equation exactly"]
        details = [line for line in out.splitlines() if line.startswith(detail)]
        assert details and all(line.endswith(end) for line in details)

    def test_a_wrong_series_coefficient_fails_check_4(self, capsys, monkeypatch):
        # the order-3 coefficient of m_{1,1,1,1} in the (8, 3) table, off by 1
        from dirac2mm import solver
        from dirac2mm.algebra import MomentSeries
        from dirac2mm.words import CanonicalMoment

        true_solve = solver.solve_series

        def tampered(D, K, t2):
            table = true_solve(D, K, t2)
            c = CanonicalMoment((1, 1, 1, 1))
            if K == 3:
                coeffs = table.moments[c].coeffs
                table.moments[c] = MomentSeries(table.t2, coeffs[:3] + (coeffs[3] + 1,))
            return table

        monkeypatch.setattr(solver, "solve_series", tampered)
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == ["[FAIL] 4 oracle triangle: solver vs closed forms"]
        assert "matches frozen oracle value: False)" in out

    def test_a_wrong_gluing_count_fails_check_5(self, capsys, monkeypatch):
        # the order-2 coefficient of m_{2,2} from the planar count, 91/256, off by 1
        from dirac2mm import mapenum

        true_coefficient = mapenum.moment_coefficient

        def tampered(w, k, t2):
            return true_coefficient(w, k, t2) + (w == "AABB" and k == 2)

        monkeypatch.setattr(mapenum, "moment_coefficient", tampered)
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == ["[FAIL] 5 map enumeration agreement + cancellation census"]
        assert "        - m_{2,2} k=2: maps 347/256 != solver 91/256" in out.splitlines()


# SHA-256 of the whole stdout of `dirac2mm verify` (55 lines): every number
# and every line of wording the exact checks print.
VERIFY_STDOUT_SHA256 = "d720626068d48290d4be5c1a2e01b81f8083c3549419778bc4395408bb7b8492"


def test_verify_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert len(out.splitlines()) == 55
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256


class TestParsing:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "moments", "--t2", "1")[0] == 1
