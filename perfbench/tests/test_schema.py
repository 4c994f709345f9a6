"""BENCHMARK.json, the metric tables in the code and the printed result agree."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run, workloads

ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_benchmark_json_lists_exactly_the_metrics_the_run_reports():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == layers.PER_LAYER


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,spec", [(0, run.END_TO_END), (1, layers.PER_LAYER)])
def test_result_line(trace, spec):
    out = bench(ROOT, "--workload", "branch", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == list(spec)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == spec[name][0]
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        record = json.loads((run.OUT / "run-branch-seed3-trace1.json").read_text())
        env = record["env"]
        assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "git_commit"} <= set(env)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer_self = sum(v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 1)
        assert layer_self == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["closedform.branch_assignment.calls"] == workloads.BRANCH_POINTS


def test_without_the_source_tree_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(tmp_path, "--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
