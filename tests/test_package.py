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
