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

    def test_threads_flag(self, capsys):
        code, out, _ = run(capsys, "--threads", "2", "enumerate", "--word", "AABB", "--order", "1")
        assert code == 0
        assert "m_{2,2}" in out


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

        def fake_run_all(include_monte_carlo=False, strict=False):
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


class TestParsing:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "moments", "--t2", "1")[0] == 1

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRAC2MM_THREADS", "3")
        from dirac2mm.cli import build_parser

        args = build_parser().parse_args(["critical", "--t2", "1"])
        assert args.threads == 3
