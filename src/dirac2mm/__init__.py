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
    splits_at,
    vanishes_by_parity,
)
from .sde import SdeEquation, CoefTag, generate_equation, generate_system, residual
from .solver import MomentTable, gaussian_moment, solve_series, verify_closed_forms
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
)
from .montecarlo import (
    ChainResult,
    EstimateWithError,
    SamplerConfig,
    estimate_dirac,
    estimate_moment,
    run_chain,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingPoint", "MomentSeries", "SurdScalar", "rat",
    "CanonicalMoment", "canonicalize", "parse_moment_label",
    "splits_at", "vanishes_by_parity",
    "SdeEquation", "CoefTag", "generate_equation", "generate_system", "residual",
    "MomentTable", "gaussian_moment", "solve_series", "verify_closed_forms",
    "CancellationReport", "CellKind", "UnstableMap", "cancellation_report",
    "enumerate_gluings", "moment_coefficient",
    "Signature", "branch_assignment", "critical_point", "dirac_from_words",
    "dirac_moment", "free_energy", "free_energy_consistent", "gaussian_free_energy",
    "moment", "moment_series", "rescale_dirac", "susceptibility_expansion",
    "ChainResult", "EstimateWithError", "SamplerConfig", "estimate_dirac",
    "estimate_moment", "run_chain",
]
