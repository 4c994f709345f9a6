"""Quartic bi-tracial 2-matrix ensembles.

Exact arithmetic for the model's loop equations, closed-form moments and
free energy; a Gaussian-based perturbative solver; an exhaustive planar-map
enumerator; and a finite-size Metropolis sampler of the convergent
ensembles.  See README for the relationship between the closed-form branch
and the perturbative expansion.
"""

from .algebra import (
    CouplingPoint,
    MomentSeries,
    SurdScalar,
    rat,
)
from .words import (
    CanonicalMoment,
    canonicalize,
    parse_moment_label,
    vanishes_by_parity,
)
from .sde import SdeEquation, CoefTag, generate_equation, generate_system, residual
from .solver import MomentTable, solve_series
from .mapenum import (
    CancellationReport,
    CellKind,
    UnstableMap,
    cancellation_report,
    enumerate_gluings,
    moment_coefficient,
)
from .closedform import (
    Signature,
    branch_assignment,
    critical_point,
    dirac_from_words,
    dirac_moment,
    free_energy,
    free_energy_consistent,
    gaussian_free_energy,
    moment,
    moment_series,
    rescale_dirac,
    susceptibility_expansion,
    verify_closed_forms,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingPoint", "MomentSeries", "SurdScalar", "rat",
    "CanonicalMoment", "canonicalize", "parse_moment_label", "vanishes_by_parity",
    "SdeEquation", "CoefTag", "generate_equation", "generate_system", "residual",
    "MomentTable", "solve_series",
    "CancellationReport", "CellKind", "UnstableMap", "cancellation_report",
    "enumerate_gluings", "moment_coefficient",
    "Signature", "branch_assignment", "critical_point", "dirac_from_words",
    "dirac_moment", "free_energy", "free_energy_consistent", "gaussian_free_energy",
    "moment", "moment_series", "rescale_dirac", "susceptibility_expansion",
    "verify_closed_forms",
    "ChainResult", "EstimateWithError", "SamplerConfig", "estimate_dirac",
    "estimate_moment", "run_chain",
]

# The sampler is the only layer that needs numpy, so it is imported on first
# use of one of its names (PEP 562) and the exact layers load without numpy.
_SAMPLER_NAMES = frozenset({
    "ChainResult", "EstimateWithError", "SamplerConfig", "estimate_dirac", "estimate_moment", "run_chain",
})


def __getattr__(name):
    if name in _SAMPLER_NAMES:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
