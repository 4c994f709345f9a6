import os
import subprocess
import sys
from pathlib import Path

import dirac2mm


def test_every_export_resolves():
    missing = [name for name in dirac2mm.__all__ if not hasattr(dirac2mm, name)]
    assert missing == []
    assert len(set(dirac2mm.__all__)) == len(dirac2mm.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from dirac2mm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dirac2mm.__all__)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(dirac2mm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_runs_without_scipy():
    # scipy is a test dependency only: blocking its import must not matter to
    # the exact checks or to the N = 1 detailed-balance check
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from dirac2mm import CouplingPoint, cli, montecarlo\n"
        "assert cli.main(['verify']) == 0\n"
        "montecarlo.n1_marginal_ks(CouplingPoint(1, 1), samples=2000, seed=1)\n"
    )
    _run_fresh(code)


def test_exact_layers_leave_numpy_unloaded():
    # only the sampler needs numpy: the package import and the exact
    # verification suite load none of it, and a sampler name loads it
    code = (
        "import sys, dirac2mm\n"
        "assert 'numpy' not in sys.modules, 'import dirac2mm'\n"
        "from dirac2mm import cli\n"
        "assert cli.main(['verify']) == 0\n"
        "assert 'numpy' not in sys.modules, 'dirac2mm verify'\n"
        "dirac2mm.SamplerConfig\n"
        "assert 'numpy' in sys.modules\n"
    )
    _run_fresh(code)


def test_every_store_that_grows_is_capped():
    # a cold verify, a series solve and a planar count in one fresh process:
    # each module-level dict, list or set of the package that grows is a
    # named store with a cap, holding at most its cap plus the most one
    # call adds between two checks of the cap; every lru_cache has a maxsize
    # but the ones whose arguments range over a finite domain
    code = '''
import importlib, pkgutil
from fractions import Fraction
import dirac2mm
from dirac2mm import cli, mapenum, solver, words

modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules(dirac2mm.__path__, "dirac2mm.")]
caches = {
    f"{m.__name__}.{name}": f for m in modules for name, f in vars(m).items()
    if hasattr(f, "cache_info") and f.__module__ == m.__name__
}
stores = lambda: {
    f"{m.__name__}.{name}": len(v) for m in modules for name, v in vars(m).items()
    if not name.startswith("__") and isinstance(v, (dict, list, set))
}
# store: (module, cap, the call that adds most between two checks of the cap,
# the most any other call adds); the growth of each tracked call is measured
capped = {
    "dirac2mm.mapenum._PLANAR_COUNTS": (mapenum, "_MEMO_CAP", "_planar_count", 0),
    "dirac2mm.words._NECKLACE_CLASSES": (words, "_CLASSES_CAP", "_canonical_moments", 4),  # 4: one lookup miss
}
step = dict.fromkeys(capped, 0)
for name, (module, _, call, _) in capped.items():
    store, f = getattr(module, name.rpartition(".")[2]), getattr(module, call)
    def tracked(*args, name=name, store=store, f=f):
        before = len(store)
        out = f(*args)
        step[name] = max(step[name], len(store) - before)
        return out
    setattr(module, call, tracked)

before = stores()
assert cli.main(["verify"]) == 0
solver.solve_series(8, 4, Fraction(3, 2))
mapenum.moment_coefficient("AA", 5, 1)
for name, size in stores().items():
    if size == before[name]:
        continue
    assert name in capped, f"{name} grew from {before[name]} to {size} and is not a capped store"
    module, cap, _, other = capped[name]
    assert hasattr(module, cap), f"{name} grew from {before[name]} to {size} and has no cap"
    assert size <= getattr(module, cap) + step[name] + other, (name, size)

finite = {  # each cache's domain
    "dirac2mm.closedform.dirac_trace_polynomial": 3 * 3,   # ell in DIRAC_INDICES, 3 signatures
    "dirac2mm.closedform.completion_system": 1,            # no argument
    "dirac2mm.closedform._dirac_word_sum": 3,              # ell in DIRAC_INDICES
    "dirac2mm.montecarlo._trace_plan": 4 * 3,              # (2,), (4,), (6,) or (2, 4); 3 signatures
    "dirac2mm.montecarlo._action_plan": 3 * 2,             # 3 signatures, letter A or B
}
assert set(finite) <= set(caches), set(finite) - set(caches)
for name, f in caches.items():
    info = f.cache_info()
    bound = info.maxsize if info.maxsize is not None else finite.get(name)
    assert bound is not None, f"{name} is an lru_cache with no maxsize"
    assert info.currsize <= bound, (name, info)
'''
    _run_fresh(code)
