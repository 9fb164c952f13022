"""Outer-level error evaluation: squared error against observed production.

An evaluation solves the inner unit-commitment problem for one candidate
parameter set and scores the resulting schedule against observed output.
Evaluations are pure functions of their inputs: a batch of candidates is
solved in one DP sweep against one shared read-only context, and scores do
not depend on how the batch is split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    DataError,
    MarketSeries,
    ObservedProduction,
    PARAM_NAMES,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    params_to_vector,
    vector_to_params,
)
from .uc import (
    CANDIDATE_ERRORS,
    SolverOptions,
    UcGraph,
    UcInstance,
    solve_uc,
    solve_uc_batch,
)


def _power_of(series) -> np.ndarray:
    power = getattr(series, "power", series)
    return np.asarray(power, dtype=float)


def sse(predicted, observed) -> float:
    """Sum of squared per-period differences [MW^2 * periods]."""
    a = _power_of(predicted)
    b = _power_of(observed)
    if len(a) != len(b):
        raise DataError("predicted and observed length mismatch")
    d = a - b
    return float(np.dot(d, d))


def rms(predicted, observed) -> float:
    """Root-mean-square production error [MW]."""
    a = _power_of(predicted)
    if len(a) == 0:
        raise DataError("empty horizon")
    return math.sqrt(sse(predicted, observed) / len(a))


@dataclass(frozen=True, eq=False)
class FitnessRecord:
    """One outer-objective evaluation."""

    params: PlantParameters
    sse: float          # MW^2 * periods
    rms: float          # MW
    schedule: Schedule  # inner optimum at these parameters


@dataclass(frozen=True, eq=False)
class LandscapeSlice:
    """RMS error over a 2-D grid through the parameter space."""

    axis1_name: str
    axis1_values: np.ndarray
    axis2_name: str
    axis2_values: np.ndarray
    fixed: PlantParameters      # supplies the two non-axis parameters
    errors: np.ndarray          # rms [MW], shape (len(axis1), len(axis2))


@dataclass(eq=False)
class FitContext:
    """Shared read-only context for evaluating candidate parameters.

    The initial commitment state defaults to what the first observed value
    implies: committed exactly when production starts positive. The state
    graph compiled for a given solver option set is cached and reused by
    every evaluation against this context.
    """

    dynamics: PlantDynamics
    market: MarketSeries
    observed: ObservedProduction
    epsilon: float  # emission factor, fixed during fitting
    initial_committed: bool
    initial_power: float
    _graphs: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_observed(
        cls,
        dynamics: PlantDynamics,
        market: MarketSeries,
        observed: ObservedProduction,
        epsilon: float,
        initial_committed: bool | None = None,
        initial_power: float | None = None,
    ) -> "FitContext":
        if market.horizon == 0 or observed.horizon == 0:
            raise DataError("empty horizon")
        if observed.horizon != market.horizon:
            raise DataError("observed and market series length mismatch")
        if len(dynamics.mel) != market.horizon:
            raise DataError("dynamics and market series length mismatch")
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ParameterError("epsilon must be finite and non-negative")
        if initial_committed is None:
            initial_committed = bool(observed.power[0] > 0)
        if initial_power is None:
            initial_power = float(observed.power[0]) if initial_committed else 0.0
        return cls(dynamics, market, observed, float(epsilon),
                   initial_committed, initial_power)

    def graph(self, opts: SolverOptions) -> UcGraph:
        if opts not in self._graphs:
            self._graphs[opts] = UcGraph(self.dynamics, self.market.dt, opts,
                                         self.initial_committed, self.initial_power)
        return self._graphs[opts]

    def instance(self, params: PlantParameters) -> UcInstance:
        return UcInstance(
            params=params,
            dynamics=self.dynamics,
            market=self.market,
            initial_committed=self.initial_committed,
            initial_power=self.initial_power,
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_graphs"] = {}  # compiled graphs are rebuilt per process
        return state


def evaluate_candidate(params: PlantParameters, context: FitContext,
                       opts: SolverOptions | None = None) -> FitnessRecord:
    """Solve the inner problem at ``params`` and score it against observed."""
    opts = opts or SolverOptions()
    schedule = solve_uc(context.instance(params), opts, graph=context.graph(opts))
    err = sse(schedule, context.observed)
    return FitnessRecord(
        params=params,
        sse=err,
        rms=math.sqrt(err / context.market.horizon),
        schedule=schedule,
    )


# -- batched candidate scoring --------------------------------------------

_WORKER: tuple | None = None


def _pool_init(context: FitContext, opts: SolverOptions):
    # the graph is compiled at the first block, so an error building it
    # reaches the caller as itself rather than as a broken pool
    global _WORKER
    _WORKER = (context, opts)


def _pool_score(vecs) -> list[float]:
    context, opts = _WORKER
    return _score_block(vecs, context, opts)


def _score_block(vecs, context: FitContext, opts: SolverOptions) -> list[float]:
    """Scores of a block of parameter vectors, solved in one DP sweep."""
    instances = [context.instance(vector_to_params(v, context.epsilon)) for v in vecs]
    scores = []
    for result in solve_uc_batch(instances, opts, graph=context.graph(opts)):
        if isinstance(result, CANDIDATE_ERRORS):
            scores.append(math.inf)  # infeasible corners score worst instead of aborting
            continue
        scores.append(sse(result, context.observed))
    return scores


class CandidateEvaluator:
    """Maps parameter vectors to outer-objective scores, a batch at a time.

    Each batch is solved in one DP sweep; with ``jobs`` > 1 it is cut into
    that many contiguous blocks, one per worker process (None runs serially,
    and a value below 1 is refused). Expected failures of one candidate (an
    infeasible parameter set) score +inf; an error of the problem every
    candidate shares, or any other error, propagates.
    Results come back in submission order and do not depend on the worker
    count, so a fixed seed gives identical runs. A vector scored before is
    served from its stored score, not solved again.
    """

    def __init__(self, context: FitContext, opts: SolverOptions, jobs: int | None = None):
        self.context = context
        self.opts = opts
        if jobs is not None and jobs < 1:
            raise ParameterError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs or 1
        self._pool = None
        self._scored: dict[bytes, float] = {}  # float64 vector bytes -> score

    def __enter__(self):
        if self.jobs > 1:
            # imported here, so a serial run never loads the pool machinery
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_init,
                initargs=(self.context, self.opts),
            )
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        return False

    def scores(self, vecs) -> list[float]:
        vecs = np.array(vecs, dtype=float)
        keys = [vec.tobytes() for vec in vecs]
        new = {}  # each vector not scored before, in first-seen order
        for key, vec in zip(keys, vecs):
            if key not in self._scored:
                new.setdefault(key, vec)
        if new:
            self._scored.update(zip(new, self._solve(np.array(list(new.values())))))
        return [self._scored[key] for key in keys]

    def _solve(self, vecs: np.ndarray) -> list[float]:
        if self._pool is None:
            return _score_block(vecs, self.context, self.opts)
        size = -(-len(vecs) // self.jobs)
        blocks = [vecs[i:i + size] for i in range(0, len(vecs), size)]
        return [s for block in self._pool.map(_pool_score, blocks) for s in block]


def landscape_slice(
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    fixed: PlantParameters,
    context: FitContext,
    opts: SolverOptions | None = None,
    jobs: int | None = None,
) -> LandscapeSlice:
    """RMS error at every point of a 2-D parameter grid.

    ``axis1`` and ``axis2`` are (parameter name, grid values) pairs over two
    distinct members of (eta, sigma, phi, nu); ``fixed`` supplies the rest.
    Entry (i, j) of the result matrix is the rms at (axis1[i], axis2[j]).
    """
    opts = opts or SolverOptions()
    name1, values1 = axis1[0], np.asarray(axis1[1], dtype=float)
    name2, values2 = axis2[0], np.asarray(axis2[1], dtype=float)
    for name in (name1, name2):
        if name not in PARAM_NAMES:
            raise ParameterError(f"unknown parameter axis: {name}")
    if name1 == name2:
        raise ParameterError("axes must differ")
    if len(values1) == 0 or len(values2) == 0:
        raise ParameterError("axis grids must be non-empty")

    candidates = [
        params_to_vector(replace(fixed, **{name1: float(v1), name2: float(v2)}))
        for v1 in values1
        for v2 in values2
    ]
    T = context.market.horizon
    with CandidateEvaluator(context, opts, jobs) as ev:
        scores = ev.scores(candidates)
    errors = np.sqrt(np.array(scores, dtype=float).reshape(len(values1), len(values2)) / T)
    return LandscapeSlice(
        axis1_name=name1,
        axis1_values=values1,
        axis2_name=name2,
        axis2_values=values2,
        fixed=fixed,
        errors=errors,
    )
