from fractions import Fraction

import numpy as np
import pytest

import dirac2mm
from dirac2mm import algebra, cli, closedform, mapenum, sde, solver, words
from perfbench import layers
from perfbench.tracer import Tracer


@pytest.fixture
def traced():
    counters = layers.Counters()
    tracer = Tracer(counters.observers())
    tracer.calibrate(calls=2000, repeats=2)
    tracer.install()
    try:
        with tracer.root():
            solver.solve_series(4, 1, Fraction(3, 2))
            closedform.branch_assignment(algebra.CouplingPoint(2, 1))
            gluings = mapenum.enumerate_gluings("ABAB", 1)
            next(gluings)
            for _ in gluings:
                pass
    finally:
        tracer.uninstall()
    return tracer, counters


def test_every_binding_of_a_public_function_is_wrapped_and_restored():
    original = words.canonicalize
    tracer = Tracer()
    tracer.install()
    try:
        bindings = (words.canonicalize, sde.canonicalize, solver.canonicalize,
                    cli.canonicalize, dirac2mm.canonicalize)
        assert all(b is bindings[0] and b.__wrapped__ is original for b in bindings)
        assert algebra.SurdScalar.__mul__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert words.canonicalize is original and sde.canonicalize is original
    assert not hasattr(algebra.SurdScalar.__mul__, "__wrapped__")


def test_spans_nest_inside_their_parents(traced):
    tracer, _ = traced
    a = tracer.arrays()
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert (parent < np.flatnonzero(child)).all()
    assert (a["start"][child] >= a["start"][parent]).all()
    assert (a["end"][child] <= a["end"][parent]).all()
    assert (a["dur"] >= 0).all()
    assert (a["parent"] == -1).sum() == 1          # one root: the traced pass


def test_self_times_sum_to_the_traced_wall_time(traced):
    tracer, counters = traced
    summary = tracer.summary()
    wall = summary["bench.pass"]["s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(wall, rel=1e-9)
    metrics = layers.layer_metrics(summary, counters.counts, None, None)
    per_layer = {k: v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1}
    assert sum(per_layer.values()) == pytest.approx(wall, rel=1e-9)
    for layer in ("words", "sde", "solver", "algebra", "closedform", "mapenum"):
        assert per_layer[f"{layer}.self_s"] > 0


def test_generator_spans_and_counters(traced):
    tracer, counters = traced
    summary = tracer.summary()
    maps = sum(1 for _ in mapenum.enumerate_gluings("ABAB", 1))
    assert summary["mapenum.enumerate_gluings"]["calls"] == maps + 1   # one per resumption
    assert counters.counts["matchings"] == layers.search_space("ABAB", 1) == maps
    assert counters.counts["completion_unknowns"] == 12
    assert counters.counts["coeffs"] == 2 * len(solver.solve_series(4, 1, 1).moments)
    assert summary["words.canonicalize"]["calls"] > 0
