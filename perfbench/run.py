"""Benchmark of dirac2mm's three oracles and its algebraic branch.

    python3 perfbench/run.py --workload {series,verify,branch,mc} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source tree.  Passes of the workload run one after
another, each in a fresh process, as long as one more fits in ``--seconds``
(at least one pass).  Every pass checks its outputs.  With ``--trace 0`` the
last line printed is the end-to-end result: median wall time of a pass,
median set-up time and median peak RSS.  With ``--trace 1``
untraced and traced passes alternate and the last line holds the per-layer
metrics of the traced pass with the median wall time.  The run's full record
(environment, every pass, every span) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, speed  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = 1          # single-process workloads; steadier than a shared pool
SETUP_SAMPLES = 7         # fresh processes timed for setup_s, pass processes included
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("DIRAC2MM_THREADS", None)
    return env


def spawn(workload: str, seed: int, mode: str, pass_index: int = 0, spans: Path | None = None):
    """Run one worker process; return (normalized set-up seconds, its JSON report)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(OUT / "worker-stderr.log", "w+") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=err, text=True) as proc:
            try:
                first = proc.stdout.readline()
                setup = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or first.strip() != "ready":
            err.seek(0)
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{err.read()[-3000:]}")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_raw_s"] = setup
    return speed.normalized(setup, report["setup_probe_s"]), report


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    _, warm = spawn(workload, seed, "setup")   # compiles bytecode, fills the page cache
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": {**warm["env"], "git_commit": git_commit()}}
    setups, plain, traced, rounds = [], [], [], []
    start = time.perf_counter()
    i = 0
    # another round only if one more, as long as the median so far, still fits
    while i == 0 or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        setup, rep = spawn(workload, seed, "pass", i)
        setups.append(setup)
        plain.append(rep)
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{i}.npz"
            setup, rep = spawn(workload, seed, "traced", i, spans)
            setups.append(setup)
            traced.append(rep)
        rounds.append(time.perf_counter() - t0)
        i += 1
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")[0])

    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    walls = [r["wall_s"] for r in plain]
    record.update({
        "passes": plain, "traced_passes": traced, "setup_s": setups,
        "wall_s": quartiles(walls), "failures": [f for r in reports for f in r["failures"]],
    })
    if trace:
        by_wall = sorted(traced, key=lambda r: r["wall_s"])
        mid = by_wall[(len(by_wall) - 1) // 2]
        metrics = dict(mid["layers"])
        metrics.update({
            "speed.wall_raw_s": statistics.median(r["wall_raw_s"] for r in plain),
            "speed.probe_us": 1e6 * statistics.median(r["probe_s"] for r in plain),
            "trace.wall_s": mid["trace_wall_s"],
            "trace.spans": mid["spans"],
            "trace.overhead_frac": statistics.median(r["wall_s"] for r in traced)
            / statistics.median(walls) - 1.0,
            "checks.attempted": attempted,
            "checks.failed_frac": failed / attempted,
        })
        spec = layers.PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        spec = END_TO_END
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]} for name in spec},
    }
    name = f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=2))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dirac2mm" / "__init__.py").is_file():
        print(f"no dirac2mm source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = record["env"]
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()) + f", seed={args.seed}")
    wall = record["wall_s"]
    print(f"{args.workload}: {wall['n']} passes, wall_s median {wall['median']:.4f} "
          f"(q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f})")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
