"""The four workloads: inputs from a seed, one pass, and its checks.

``make_inputs`` uses the standard library only; ``run_pass`` imports
``dirac2mm`` and returns the pass's wall time with its check tally.  Every
check is one counted operation: ``attempted`` grows by one, ``failed`` by
one more when the program's output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import mcstats

WORKLOADS = ("series", "verify", "branch", "mc")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SERIES_D, SERIES_K = 8, 4
BRANCH_POINTS = 100
BRANCH_ELLS = (2, 4, 6)
BRANCH_WORD_ELLS = (2, 4)
MC = {
    "n": 10, "chains": 8, "steps": 12000, "burn_in": 3000, "thinning": 10,
    "t2": 1, "t4": 1, "dirac_samples": 96,
}
MC_TARGETS = {"m2": Fraction(1, 16), "d2": Fraction(1, 2)}
MC_REL_TOL = 0.05
MC_ACCEPTANCE = (0.2, 0.7)


# frozen from the commit that added the benchmark
REFERENCES = {
    "series": "series_t2_1_D8_K4.json",   # `dirac2mm series --degree 8 --order 4 --t2 1 --format json`
    "verify": "verify_pattern.json",      # PASS / PASS* of each `dirac2mm verify` check
    "branch": "branch_residuals.json",    # loop equations evaluated at each point
}


def load_reference(workload: str):
    name = REFERENCES.get(workload)
    return json.loads((REFERENCE_DIR / name).read_text()) if name else None


class Tally:
    """Counted check operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- inputs ---------------------------------------------------------------


def _rational_points(rng: random.Random, count: int, hi: int = 5) -> list[tuple[Fraction, Fraction]]:
    out = []
    while len(out) < count:
        t2 = Fraction(rng.randint(1, 5 * hi), rng.randint(1, 5))
        t4 = Fraction(rng.randint(1, 5 * hi), rng.randint(1, 5))
        if t2 <= hi and t4 <= hi:
            out.append((t2, t4))
    return out


def make_inputs(workload: str, seed: int, pass_index: int = 0) -> dict:
    """Inputs of one pass; the same (workload, seed, pass_index) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        t2 = Fraction(1)
        while t2 == 1:
            t2 = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        return {"D": SERIES_D, "K": SERIES_K, "t2": t2}
    if workload == "verify":
        return {"argv": ["verify"]}
    if workload == "branch":
        return {"points": _rational_points(rng, BRANCH_POINTS)}
    if workload == "mc":
        # one chain seed per pass, so repeated passes pool fresh samples
        return {**MC, "seed": rng.randrange(2**31) + pass_index}
    raise ValueError(f"unknown workload {workload!r}")


# -- passes ---------------------------------------------------------------


def run_pass(workload: str, inputs: dict, tally: Tally, reference=None) -> dict:
    """Run one pass, check it against the frozen reference (or the one given)
    and return {"wall_s": ..., plus workload extras}."""
    if reference is None:
        reference = load_reference(workload)
    return _PASSES[workload](inputs, tally, reference)


def _series_pass(inp: dict, tally: Tally, reference: dict) -> dict:
    from dirac2mm import solver

    t0 = time.perf_counter()
    table = solver.solve_series(inp["D"], inp["K"], inp["t2"])
    observed = table.as_json()
    check_series(observed, inp["t2"], reference, tally)
    return {"wall_s": time.perf_counter() - t0}


def check_series(observed: dict, t2: Fraction, reference: dict, tally: Tally) -> None:
    """Every coefficient equals the t2 = 1 table times t2^(-deg/2 - 2k).

    By homogeneity m_c(t2, t4) = t2^(-deg/2) m_c(1, t4/t2^2); the reference
    is the exact t2 = 1 table, so the check is exact.
    """
    want, got = reference["moments"], observed["moments"]
    for label in sorted(set(got) - set(want)):
        tally.check(False, f"unexpected moment {label}")
    for label, coeffs in want.items():
        degree = sum(int(r) for r in label[len("m_{"):-1].split(","))
        have = got.get(label, [])
        for k, c in enumerate(coeffs):
            expected = Fraction(c) * Fraction(t2) ** (-(degree // 2) - 2 * k)
            ok = k < len(have) and Fraction(have[k]) == expected
            tally.check(ok, f"{label} order {k}: {have[k] if k < len(have) else None} != {expected}")


def _verify_pass(inp: dict, tally: Tally, reference: dict) -> dict:
    from dirac2mm import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(inp["argv"]))
    check_verify(buf.getvalue(), rc, reference, tally)
    return {"wall_s": time.perf_counter() - t0}


def check_verify(report: str, rc: int, reference: dict, tally: Tally) -> None:
    """Statuses of the frozen checks match; any later check must not FAIL."""
    statuses = {}
    for line in report.splitlines():
        if line.startswith("[") and "] " in line:
            status, rest = line[1:].split("] ", 1)
            statuses[rest.split(" ", 1)[0]] = status
    tally.check(rc == 0, f"verify exit code {rc}")
    for number, want in reference["statuses"].items():
        tally.check(statuses.get(number) == want, f"check {number}: {statuses.get(number)} != {want}")
    for number in sorted(set(statuses) - set(reference["statuses"])):
        tally.check(statuses[number] != "FAIL", f"check {number}: FAIL")


def _branch_pass(inp: dict, tally: Tally, reference: dict) -> dict:
    from dirac2mm import closedform, sde
    from dirac2mm.algebra import CouplingPoint

    t0 = time.perf_counter()
    equations = sde.generate_system(reference["max_word_degree"])
    tally.check(len(equations) == reference["residuals_per_point"],
                f"{len(equations)} loop equations, want {reference['residuals_per_point']}")
    for t2, t4 in inp["points"]:
        point = CouplingPoint(t2, t4)
        values = closedform.branch_assignment(point)
        for eq in equations:
            tally.check(sde.residual(eq, values, point).is_zero(),
                        f"residual of {eq.source_word} at {point}")
        exact = {ell: closedform.dirac_moment(ell, point) for ell in BRANCH_ELLS}
        for ell in BRANCH_WORD_ELLS:
            tally.check(closedform.dirac_from_words(ell, point) == exact[ell],
                        f"d_{ell} from words at {point}")
    return {"wall_s": time.perf_counter() - t0}


def _mc_pass(inp: dict, tally: Tally, _reference: None) -> dict:
    from dirac2mm import closedform, montecarlo
    from dirac2mm.algebra import CouplingPoint

    point = CouplingPoint(inp["t2"], inp["t4"])
    series, acceptance, means = [], [], {}
    t0 = time.perf_counter()
    for sig in closedform.Signature:
        cfg = montecarlo.SamplerConfig(
            n=inp["n"], point=point, signature=sig, steps=inp["steps"],
            burn_in=inp["burn_in"], thinning=inp["thinning"], seed=inp["seed"],
            chains=inp["chains"],
        )
        result = montecarlo.run_chain(cfg)
        estimates = {
            "m2": montecarlo.estimate_moment(result, "AA"),
            "abab": montecarlo.estimate_moment(result, "ABAB"),
            "d2": montecarlo.estimate_dirac(result, 2, max_samples=inp["dirac_samples"]),
            "d4": montecarlo.estimate_dirac(result, 4, max_samples=inp["dirac_samples"]),
        }
        means[str(sig)] = {k: estimates[k].mean for k in MC_TARGETS}
        check_mc(str(sig), means[str(sig)], result.acceptance, tally)
        series.append(m2_series(result.samples_a))
        acceptance.extend(float(a) for a in result.acceptance)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "acceptance": acceptance, "means": means, **chain_statistics(series)}


def check_mc(sig: str, means: dict, acceptance, tally: Tally) -> None:
    """m2 and d2 within 5 % of 1/16 and 1/2; every chain's acceptance in (0.2, 0.7)."""
    for name, target in MC_TARGETS.items():
        rel = abs(means[name] - float(target)) / float(target)
        tally.check(rel < MC_REL_TOL, f"{sig} {name} = {means[name]:.5f}, {rel:.1%} from {target}")
    lo, hi = MC_ACCEPTANCE
    for c, a in enumerate(acceptance):
        tally.check(lo < a < hi, f"{sig} chain {c} acceptance {a:.3f}")


def m2_series(samples_a: np.ndarray) -> np.ndarray:
    """(T, C) series of (1/N) tr A^2 = (1/N) sum |A_ij|^2 of Hermitian samples."""
    n = samples_a.shape[-1]
    return np.einsum("tcij,tcij->tc", samples_a, samples_a.conj()).real / n


def chain_statistics(series) -> dict:
    """tau_int, pooled ESS and split-R-hat of (T, C) series, one per signature."""
    taus = [mcstats.tau_int(x) for x in series]
    return {
        "ess": sum(x.size / t for x, t in zip(series, taus)),
        "tau_int": float(np.mean(taus)),
        "rhat": max(mcstats.split_rhat(x) for x in series),
    }


_PASSES = {
    "series": _series_pass,
    "verify": _verify_pass,
    "branch": _branch_pass,
    "mc": _mc_pass,
}
