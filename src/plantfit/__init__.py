"""Reverse-engineer thermal plant parameters from observed production.

The inner problem is a single-plant unit commitment solved exactly over a
discretized power grid; the outer problem minimizes the squared error
between the optimal schedule and observed output by differential evolution
followed by compass search.
"""
import os
import sys

# One OpenBLAS thread: an idle extra one spins through set-up, and plantfit's
# only BLAS calls are 1-D dots, whose sum above 10000 elements depends on the
# thread count. A value set before start, or a numpy loaded first, wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .domain import (
    DataError,
    MarketSeries,
    ObservedProduction,
    PARAM_NAMES,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SearchBounds,
    SolverError,
    params_to_vector,
    validate_parameters,
    vector_to_params,
)
from .ingest import (
    RawSeries,
    SeriesTable,
    align,
    load_series,
    make_grid,
    synthesize,
)
from .objective import (
    FitContext,
    FitnessRecord,
    evaluate_candidate,
    landscape_slice,
    sse,
)
from .search import (
    CompassConfig,
    DeConfig,
    FitResult,
    SearchResult,
    compass_search,
    differential_evolution,
    fit,
)
from .uc import (
    SolverOptions,
    UcGraph,
    UcInstance,
    Violation,
    marginal_values,
    schedule_profit,
    solve_uc,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "CompassConfig",
    "DataError",
    "DeConfig",
    "FitContext",
    "FitResult",
    "FitnessRecord",
    "MarketSeries",
    "ObservedProduction",
    "PARAM_NAMES",
    "ParameterError",
    "PlantDynamics",
    "PlantParameters",
    "RawSeries",
    "Schedule",
    "SearchBounds",
    "SearchResult",
    "SeriesTable",
    "SolverError",
    "SolverOptions",
    "UcGraph",
    "UcInstance",
    "Violation",
    "align",
    "compass_search",
    "differential_evolution",
    "evaluate_candidate",
    "fit",
    "landscape_slice",
    "load_series",
    "make_grid",
    "marginal_values",
    "params_to_vector",
    "schedule_profit",
    "solve_uc",
    "sse",
    "synthesize",
    "validate_parameters",
    "validate_schedule",
    "vector_to_params",
]
