"""The checks bite: a deliberately wrong reference gives failed_frac > 0."""

import copy
import json
from fractions import Fraction

from dirac2mm import solver, verification
from perfbench import workloads
from perfbench.workloads import Tally


def failed_frac(tally: Tally) -> float:
    return tally.failed / tally.attempted


def test_frozen_series_table_is_this_commit_output_byte_for_byte():
    table = solver.solve_series(workloads.SERIES_D, workloads.SERIES_K, 1)
    frozen = (workloads.REFERENCE_DIR / workloads.REFERENCES["series"]).read_text()
    assert json.dumps(table.as_json(), indent=2) + "\n" == frozen


def test_series_pass_scales_the_t2_one_table_and_catches_a_wrong_one():
    small = {"D": 4, "K": 2, "t2": Fraction(3, 2)}
    reference = solver.solve_series(4, 2, 1).as_json()
    right = Tally()
    workloads.run_pass("series", small, right, reference)
    assert right.attempted == sum(len(c) for c in reference["moments"].values())
    assert right.failed == 0

    wrong_reference = copy.deepcopy(reference)
    wrong_reference["moments"]["m_{2}"][1] = "-1/5"
    wrong = Tally()
    workloads.run_pass("series", small, wrong, wrong_reference)
    assert wrong.failed == 1 and failed_frac(wrong) > 0


def _report(statuses):
    results = [
        verification.CheckResult(f"{n} check", passed=s != "FAIL", discrepancy=s == "PASS*")
        for n, s in statuses.items()
    ]
    return verification.format_report(results)


def test_verify_pattern_check():
    frozen = workloads.load_reference("verify")
    right = Tally()
    workloads.check_verify(_report(frozen["statuses"]), 0, frozen, right)
    assert right.attempted == 9 and right.failed == 0

    wrong_reference = copy.deepcopy(frozen)
    wrong_reference["statuses"]["4"] = "PASS"
    wrong = Tally()
    workloads.check_verify(_report(frozen["statuses"]), 0, wrong_reference, wrong)
    assert wrong.failed == 1 and failed_frac(wrong) > 0

    failing_exit = Tally()
    workloads.check_verify(_report(frozen["statuses"]), 2, frozen, failing_exit)
    assert failing_exit.failed == 1

    later_check = Tally()
    workloads.check_verify(_report({**frozen["statuses"], "9": "FAIL"}), 0, frozen, later_check)
    assert later_check.failed == 1


def test_branch_pass_catches_a_wrong_residual_count():
    inputs = {"points": workloads.make_inputs("branch", 7)["points"][:2]}
    right = Tally()
    workloads.run_pass("branch", inputs, right)
    assert right.attempted == 1 + 2 * (20 + 2) and right.failed == 0

    wrong = Tally()
    workloads.run_pass("branch", inputs, wrong, {**workloads.load_reference("branch"),
                                                 "residuals_per_point": 19})
    assert wrong.failed == 1 and failed_frac(wrong) > 0


def test_mc_check_bounds():
    right = Tally()
    workloads.check_mc("(2,0)", {"m2": 0.0630, "d2": 0.502}, [0.4] * 8, right)
    assert right.attempted == 10 and right.failed == 0
    wrong = Tally()
    workloads.check_mc("(2,0)", {"m2": 0.070, "d2": 0.502}, [0.4] * 7 + [0.75], wrong)
    assert wrong.failed == 2


def test_inputs_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    assert workloads.make_inputs("branch", 3) != workloads.make_inputs("branch", 4)
    assert workloads.make_inputs("series", 3)["t2"] != 1
    assert workloads.make_inputs("mc", 3, 0)["seed"] != workloads.make_inputs("mc", 3, 1)["seed"]
