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

    def test_untabulated_moment_message_has_no_quotes(self, capsys):
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", "m_{10}")
        assert (code, out) == (1, "")
        assert err == "error: no tabulated closed form for m_{10} (degree 10 > 8)\n"

    @pytest.mark.parametrize("label", ["m_{0,2}", "2,0", "m_{-1,3}", "m_{2,2,}"])
    def test_bad_run_lengths_exit_code(self, capsys, label):
        code, out, err = run(capsys, "moments", "--t2", "1", "--t4", "1", "--index", label)
        assert code == 1
        assert out == ""
        assert label in err and "positive" in err


class TestDirac:
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

    @pytest.mark.parametrize("extra", [[], ["--dump"], ["--report-cancellation"]])
    def test_negative_order_exit_code(self, capsys, extra):
        code, out, err = run(capsys, "enumerate", "--word", "AB", "--order", "-1", *extra)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: order k must be >= 0, got -1"


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


class TestCritical:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "critical", "--t2", "1", "--terms", "4")
        assert code == 0
        assert "gamma = 1/2" in out
        assert "-1/8" in out


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
