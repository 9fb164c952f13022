"""Reverse-engineer thermal plant parameters from observed production.

The inner problem is a single-plant unit commitment solved exactly over a
discretized power grid; the outer problem minimizes the squared error
between the optimal schedule and observed output by differential evolution
followed by compass search.
"""

from .domain import (
    DataError,
    FitResult,
    MarketSeries,
    NormalizedCosts,
    ObservedProduction,
    PARAM_NAMES,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SearchBounds,
    SolverError,
    normalize_costs,
    params_to_vector,
    validate_parameters,
    vector_to_params,
)
from .ingest import (
    AlignedDataset,
    ColumnSpec,
    RawSeries,
    align,
    load_series,
    make_grid,
    synthesize,
)
from .objective import (
    FitContext,
    FitnessRecord,
    LandscapeSlice,
    evaluate_candidate,
    landscape_slice,
    rms,
    sse,
)
from .search import (
    CompassConfig,
    DeConfig,
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
    solve_uc_batch,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedDataset",
    "ColumnSpec",
    "CompassConfig",
    "DataError",
    "DeConfig",
    "FitContext",
    "FitResult",
    "FitnessRecord",
    "LandscapeSlice",
    "MarketSeries",
    "NormalizedCosts",
    "ObservedProduction",
    "PARAM_NAMES",
    "ParameterError",
    "PlantDynamics",
    "PlantParameters",
    "RawSeries",
    "Schedule",
    "SearchBounds",
    "SearchResult",
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
    "normalize_costs",
    "params_to_vector",
    "rms",
    "schedule_profit",
    "solve_uc",
    "solve_uc_batch",
    "sse",
    "synthesize",
    "validate_parameters",
    "validate_schedule",
    "vector_to_params",
]
