"""Simulation calibration by root finding on signed discrepancies.

Builds kriging or stochastic-kriging surrogates of an aggregated residual,
searches them with root-finding acquisition functions, optionally narrows
the search box to sign-changing subregions, and ships the benchmark
simulators plus a reproducible experiment runner.
"""

from .acqopt import optimize
from .acquisition import (
    AcqKind,
    Family,
    Incumbent,
    Mode,
    acq_gradient,
    acq_value,
    design_posteriors,
    select_incumbent,
)
from .core import (
    ObservationSummary,
    ParameterBox,
    RngStream,
    aggregate_signed,
    aggregate_squared,
    summarize,
)
from .diagnostics import (
    GapReport,
    aggregate_variance,
    chain_check,
    spatial_variability,
    validate_gradients,
)
from .engine import (
    OBS_KEY,
    CalibrationTrace,
    IterationRecord,
    RunConfig,
    evaluate_point,
    initial_design,
    macro_sweep,
    post_evaluate,
    rootless_differences,
    rootless_table,
    run_calibration,
)
from .metamodel import GpModel, Posterior, fit, posterior, posterior_grad
from .rss import Subregion, rss_deterministic, rss_stochastic, sign_change_prob
from .simulators import (
    Himmelblau2D,
    Mm1Queue,
    RootlessQuadratic,
    SimulationModel,
    StochasticSir,
    make_model,
)

__version__ = "0.1.0"

__all__ = [
    "AcqKind",
    "CalibrationTrace",
    "Family",
    "GapReport",
    "GpModel",
    "Himmelblau2D",
    "Incumbent",
    "IterationRecord",
    "Mm1Queue",
    "Mode",
    "OBS_KEY",
    "ObservationSummary",
    "ParameterBox",
    "Posterior",
    "RngStream",
    "RootlessQuadratic",
    "RunConfig",
    "SimulationModel",
    "StochasticSir",
    "Subregion",
    "acq_gradient",
    "acq_value",
    "aggregate_signed",
    "aggregate_squared",
    "aggregate_variance",
    "chain_check",
    "design_posteriors",
    "evaluate_point",
    "fit",
    "initial_design",
    "macro_sweep",
    "make_model",
    "optimize",
    "post_evaluate",
    "posterior",
    "posterior_grad",
    "rootless_differences",
    "rootless_table",
    "rss_deterministic",
    "rss_stochastic",
    "run_calibration",
    "select_incumbent",
    "sign_change_prob",
    "spatial_variability",
    "summarize",
    "validate_gradients",
]
