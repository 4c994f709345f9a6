"""Per-layer metrics of a traced pass: counters at the layer boundaries and
the span summary, reduced to the named metrics of ``PER_LAYER``.

A layer is one ``dirac2mm`` module.  Counters are taken by observers that
the tracer calls with the arguments and result of a wrapped function, so
they are measured where the work happens without touching the package.
"""

from __future__ import annotations

import itertools
import math

LAYERS = ("words", "sde", "solver", "algebra", "closedform", "mapenum",
          "montecarlo", "verification", "cli")

# verify's checks in run order, named by the function that runs each
VERIFY_CHECKS = (
    "check_exact_moments", "check_system_structure", "check_exact_residuals",
    "check_oracle_triangle", "check_map_agreement", "check_free_energy",
    "check_criticality", "check_rescaling",
)

SURD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
            "__truediv__", "__rtruediv__", "__pow__", "inverse")
SERIES_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
              "shift_mul_t4", "divide_t4", "truncate", "eval", "sqrt")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "trace.self_s": ("s", "lower"),
    "words.calls": ("count", "lower"),
    "words.iter_canonical_moments.calls": ("count", "lower"),
    "words.iter_canonical_moments.self_s": ("s", "lower"),
    "words.canonicalize.calls": ("count", "lower"),
    "words.canon_cache.hit_ratio": ("ratio", "higher"),
    "words.canon_cache.entries": ("count", "lower"),
    "sde.generate_equation.calls": ("count", "lower"),
    "sde.generate_system.calls": ("count", "lower"),
    "sde.residual.calls": ("count", "lower"),
    "sde.residual.self_s": ("s", "lower"),
    "solver.coeffs": ("count", "higher"),
    "solver.gaussian_moment.calls": ("count", "lower"),
    "algebra.surd_ops": ("count", "lower"),
    "algebra.surd_inverse.calls": ("count", "lower"),
    "algebra.series_ops": ("count", "lower"),
    "closedform.branch_assignment.calls": ("count", "lower"),
    "closedform.branch_assignment.self_s": ("s", "lower"),
    "closedform.completion_unknowns": ("count", "lower"),
    "closedform.moment_series.calls": ("count", "lower"),
    "mapenum.moment_coefficient.calls": ("count", "lower"),
    "mapenum.matchings": ("count", "lower"),
    "mapenum.us_per_matching": ("us", "lower"),
    "mapenum.cancellation_report.self_s": ("s", "lower"),
    "montecarlo.run_chain.self_s": ("s", "lower"),
    "montecarlo.proposals": ("count", "higher"),
    "montecarlo.us_per_proposal": ("us", "lower"),
    "montecarlo.acceptance": ("ratio", "higher"),
    "montecarlo.acceptance_min": ("ratio", "higher"),
    "montecarlo.acceptance_max": ("ratio", "lower"),
    "montecarlo.tau_int_m2": ("samples", "lower"),
    "montecarlo.ess_m2": ("samples", "higher"),
    "montecarlo.ess_per_s": ("1/s", "higher"),
    "montecarlo.rhat_m2": ("ratio", "lower"),
    "montecarlo.estimate_moment.self_s": ("s", "lower"),
    "montecarlo.estimate_dirac.self_s": ("s", "lower"),
    "montecarlo.us_per_dirac_sample": ("us", "lower"),
    **{f"verification.check_{i}.s": ("s", "lower") for i in range(1, len(VERIFY_CHECKS) + 1)},
    "speed.wall_raw_s": ("s", "lower"),
    "speed.probe_us": ("us", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "checks.attempted": ("count", "higher"),
    "checks.failed_frac": ("ratio", "lower"),
}


# -- counters ---------------------------------------------------------------


def _double_factorial_odd(n: int) -> int:
    """(n)!! for odd n >= -1, with (-1)!! = 1."""
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def search_space(word, k: int) -> int:
    """Colour-respecting matchings ``mapenum`` visits for (word, k).

    Sum over the feasible multisets of k cells of (r-1)!! (b-1)!!, with r
    and b the red (A) and blue (B) half-edges of the word polygon plus the
    cells; a multiset with an odd colour count has no matching.
    """
    from dirac2mm.mapenum import BLUE, CELLS, RED

    letters = getattr(word, "letters", word).upper()
    r0, b0 = letters.count("A"), letters.count("B")
    total = 0
    for kinds in itertools.combinations_with_replacement(list(CELLS), k):
        darts = [c for kind in kinds for boundary in CELLS[kind].boundaries for c in boundary]
        r, b = r0 + darts.count(RED), b0 + darts.count(BLUE)
        if r % 2 == 0 and b % 2 == 0:
            total += _double_factorial_odd(r - 1) * _double_factorial_odd(b - 1)
    return total


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Counters:
    """Counts taken at layer boundaries during a traced pass."""

    def __init__(self):
        self.counts = {"matchings": 0, "coeffs": 0, "completion_unknowns": 0,
                       "proposals": 0, "dirac_samples": 0}

    def observers(self) -> dict:
        def gluings(args, kwargs, _out):
            word, k = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 1, "k")
            self.counts["matchings"] += search_space(word, k)

        def coeffs(_args, _kwargs, table):
            self.counts["coeffs"] += sum(len(s.coeffs) for s in table.moments.values())

        def completion(_args, _kwargs, values):
            from dirac2mm.closedform import MAX_TABLE_DEGREE
            self.counts["completion_unknowns"] += sum(1 for m in values if m.degree > MAX_TABLE_DEGREE)

        def proposals(args, kwargs, _result):
            self.counts["proposals"] += _arg(args, kwargs, 0, "cfg").proposals

        def dirac_samples(_args, _kwargs, series):
            self.counts["dirac_samples"] += int(series.size)

        return {
            "mapenum.moment_coefficient": gluings,
            "mapenum.enumerate_gluings": gluings,
            "solver.solve_series": coeffs,
            "closedform.branch_assignment": completion,
            "montecarlo.run_chain": proposals,
            "montecarlo.dirac_trace_series": dirac_samples,
        }


def canon_cache_info():
    """(hits, misses, entries) of the word canonicalization cache, or None."""
    from dirac2mm import words

    cached = getattr(words, "_canonical_from_string", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses, ci.currsize


# -- reduction --------------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict, cache, mc: dict | None) -> dict:
    """Named per-layer metrics (values only) from one traced pass.

    ``summary`` maps span names to calls / s / self_s, ``counts`` are the
    boundary counters, ``cache`` the canonicalization cache's (hits,
    misses, entries) and ``mc`` what the pass returned (chain statistics
    on ``mc``).
    A layer the workload does not run reports 0.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def layer_sum(layer, key):
        return sum(s[key] for n, s in summary.items() if n.split(".", 1)[0] == layer)

    out = {f"{layer}.self_s": layer_sum(layer, "self_s") for layer in LAYERS + ("bench", "trace")}
    hits, misses, entries = cache if cache is not None else (0, 0, 0)
    out.update({
        "words.calls": layer_sum("words", "calls"),
        "words.iter_canonical_moments.calls": calls("words.iter_canonical_moments"),
        "words.iter_canonical_moments.self_s": total("words.iter_canonical_moments", "self_s"),
        "words.canonicalize.calls": calls("words.canonicalize"),
        "words.canon_cache.hit_ratio": _ratio(hits, hits + misses),
        "words.canon_cache.entries": entries,
        "sde.generate_equation.calls": calls("sde.generate_equation"),
        "sde.generate_system.calls": calls("sde.generate_system"),
        "sde.residual.calls": calls("sde.residual"),
        "sde.residual.self_s": total("sde.residual", "self_s"),
        "solver.coeffs": counts["coeffs"],
        "solver.gaussian_moment.calls": calls("solver.gaussian_moment"),
        "algebra.surd_ops": sum(calls(f"algebra.SurdScalar.{op}") for op in SURD_OPS),
        "algebra.surd_inverse.calls": calls("algebra.SurdScalar.inverse"),
        "algebra.series_ops": sum(calls(f"algebra.MomentSeries.{op}") for op in SERIES_OPS),
        "closedform.branch_assignment.calls": calls("closedform.branch_assignment"),
        "closedform.branch_assignment.self_s": total("closedform.branch_assignment", "self_s"),
        "closedform.completion_unknowns": counts["completion_unknowns"],
        "closedform.moment_series.calls": calls("closedform.moment_series"),
        "mapenum.moment_coefficient.calls": calls("mapenum.moment_coefficient"),
        "mapenum.matchings": counts["matchings"],
        "mapenum.us_per_matching": _ratio(layer_sum("mapenum", "self_s"), counts["matchings"], 1e6),
        "mapenum.cancellation_report.self_s": total("mapenum.cancellation_report", "self_s"),
        "montecarlo.run_chain.self_s": total("montecarlo.run_chain", "self_s"),
        "montecarlo.proposals": counts["proposals"],
        "montecarlo.us_per_proposal": _ratio(total("montecarlo.run_chain"), counts["proposals"], 1e6),
        "montecarlo.estimate_moment.self_s": total("montecarlo.estimate_moment", "self_s"),
        "montecarlo.estimate_dirac.self_s": total("montecarlo.estimate_dirac", "self_s"),
        "montecarlo.us_per_dirac_sample": _ratio(
            total("montecarlo.estimate_dirac"), counts["dirac_samples"], 1e6),
    })
    mc = mc or {}
    acc = mc.get("acceptance") or [0.0]
    out.update({
        "montecarlo.acceptance": sum(acc) / len(acc),
        "montecarlo.acceptance_min": min(acc),
        "montecarlo.acceptance_max": max(acc),
        "montecarlo.tau_int_m2": mc.get("tau_int", 0.0),
        "montecarlo.ess_m2": mc.get("ess", 0.0),
        "montecarlo.ess_per_s": _ratio(mc.get("ess", 0.0), mc.get("wall_s", 0.0)),
        "montecarlo.rhat_m2": mc.get("rhat", 0.0),
    })
    for i, check in enumerate(VERIFY_CHECKS, start=1):
        out[f"verification.check_{i}.s"] = total(f"verification.{check}")
    return out
