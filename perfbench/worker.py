"""One fresh benchmark process: set up, say "ready", run one pass, report.

    python3 -m perfbench.worker --workload W --seed S [--pass-index I]
                                [--mode setup|pass|traced] [--spans PATH]

Set-up is importing ``dirac2mm`` and generating the pass's inputs; the
parent times it from spawning this process to the "ready" line and
normalizes it by the CPU speed sampled just after.  The pass's wall time is
reported raw and normalized to the CPU speed sampled beside it
(``speed.py``).  The last line of output is one JSON object.  Every pass
runs in its own process, so each starts with the package's caches as cold
as a user's first call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0, dest="pass_index")
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    ap.add_argument("--spans", help="write the traced pass's spans to this .npz file")
    args = ap.parse_args(argv)

    import dirac2mm

    if Path(dirac2mm.__file__).resolve().parent != SRC / "dirac2mm":
        print(f"dirac2mm imported from {dirac2mm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import speed, workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    print("ready", flush=True)
    # the CPU speed just after set-up, to normalize the parent's set-up time
    report = {"setup_probe_s": speed.sample()}
    if args.mode == "setup":
        report["env"] = environment()
        print(json.dumps(report))
        return 0

    tally = workloads.Tally()
    if args.mode == "traced":
        from perfbench import layers
        from perfbench.tracer import Tracer

        counters = layers.Counters()
        tracer = Tracer(counters.observers())
        tracer.calibrate()
        tracer.install()
        try:
            with speed.SpeedProbe() as probe, tracer.root():
                extras = workloads.run_pass(args.workload, inputs, tally)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        report["layers"] = layers.layer_metrics(
            summary, counters.counts, layers.canon_cache_info(), extras)
        report["trace_wall_s"] = summary["bench.pass"]["s"]
        report["spans"] = len(tracer.start)
        report["span_overhead_s"] = tracer.overhead
        if args.spans:
            tracer.save(args.spans)
    else:
        with speed.SpeedProbe() as probe:
            extras = workloads.run_pass(args.workload, inputs, tally)

    report.update({
        "wall_s": probe.normalized(extras["wall_s"]),
        "wall_raw_s": extras["wall_s"],
        "probe_s": probe.mean(),
        "probe_samples": len(probe.samples),
        "means": extras.get("means"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
