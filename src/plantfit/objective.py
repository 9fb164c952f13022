"""Outer-level error evaluation: squared error against observed production.

An evaluation solves the inner unit-commitment problem for one candidate
parameter set and scores the resulting schedule against observed output.
Evaluations are pure functions of their inputs. A batch of candidates is
scored against one shared read-only context in one DP sweep that carries
each path's squared error and builds no schedule, so its memory is a few
rows of states per candidate. A score equals, bit for bit, the SSE of the
candidate's lone-solved schedule, and does not depend on how the batch is
split; a candidate that is invalid, or whose margins overflow, scores +inf.
A problem with no feasible schedule raises when its graph is built.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

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
from .uc import SolverOptions, UcGraph, UcInstance, optimal_sse, solve_uc


def _power_of(series) -> np.ndarray:
    power = getattr(series, "power", series)
    return np.asarray(power, dtype=float)


def sse(predicted, observed) -> float:
    """Sum of squared per-period differences [MW^2 * periods], added in
    period order as the DP adds a path's squared error."""
    a = _power_of(predicted)
    b = _power_of(observed)
    if len(a) != len(b):
        raise DataError("predicted and observed length mismatch")
    d = a - b
    with np.errstate(over="ignore"):  # a difference above about 1e154 MW squares to inf
        return float(np.add.accumulate(d * d)[-1]) if len(d) else 0.0


@dataclass(frozen=True, eq=False)
class FitnessRecord:
    """One outer-objective evaluation."""

    sse: float          # MW^2 * periods
    rms: float          # MW
    schedule: Schedule  # inner optimum at these parameters


@dataclass(eq=False)
class FitContext:
    """Shared read-only context for evaluating candidate parameters.

    The initial commitment state defaults to what the first observed value
    implies: committed exactly when production starts positive. The state
    graph compiled for a given solver option set is cached and reused by
    every evaluation against this context, and pickled with it.
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
        if market.horizon == 0 or len(observed.power) == 0:
            raise DataError("empty horizon")
        if len(observed.power) != market.horizon:
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


def evaluate_candidate(params: PlantParameters, context: FitContext,
                       opts: SolverOptions = SolverOptions()) -> FitnessRecord:
    """Solve the inner problem at ``params`` and score it against observed."""
    schedule = solve_uc(context.graph(opts), context.market, params)
    err = sse(schedule, context.observed)
    return FitnessRecord(
        sse=err,
        rms=math.sqrt(err / context.market.horizon),
        schedule=schedule,
    )


# -- batched candidate scoring --------------------------------------------

_WORKER: tuple | None = None


def _pool_init(context: FitContext, opts: SolverOptions):
    global _WORKER
    _WORKER = (context, opts)


def _pool_score(vecs) -> list[float]:
    context, opts = _WORKER
    return _score_vectors(vecs, context, opts)


def _score_vectors(vecs, context: FitContext, opts: SolverOptions) -> list[float]:
    """Scores of parameter vectors (a batch, or one worker's part of it).

    The parameter sets are scored on the context's graph and market in one
    sweep of ``uc.optimal_sse``, which builds no schedule and scores +inf a
    set that is invalid or whose margins overflow.
    """
    params = [vector_to_params(v, context.epsilon) for v in vecs]
    return optimal_sse(context.graph(opts), context.market, params, context.observed.power)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CandidateEvaluator:
    """Maps parameter vectors to outer-objective scores, a batch at a time.

    ``jobs`` is the most worker processes to use (1 runs serially, and a
    value below 1 is refused); no more are started than there are usable
    CPUs, and ``.jobs`` is the count in use. With more than one, a batch is
    cut into that many contiguous parts, one per worker. Each part is
    scored in one DP sweep that builds no schedule; a score is the SSE of
    the candidate's lone-solved schedule, bit for bit. Expected failures of
    one candidate (an invalid parameter set, margins that overflow) score
    +inf; any other error propagates. The graph is built before any worker
    starts, so a shared problem's error (no feasible schedule, say) raises
    here. Results come back in submission order and do not depend on
    the worker count, so a fixed seed gives identical runs. Every vector
    given is scored, a repeated one again: the evaluator keeps no state
    beyond its pool.
    """

    def __init__(self, context: FitContext, opts: SolverOptions, jobs: int = 1):
        self.context = context
        self.opts = opts
        if jobs < 1:
            raise ParameterError(f"jobs must be at least 1, got {jobs}")
        self.jobs = min(jobs, _usable_cpus())
        context.graph(opts)
        self._pool = None

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
        if self._pool is None:
            return _score_vectors(vecs, self.context, self.opts)
        size = max(1, -(-len(vecs) // self.jobs))  # an empty batch maps no part
        parts = self._pool.map(_pool_score, [vecs[i:i + size] for i in range(0, len(vecs), size)])
        return [score for part in parts for score in part]


def landscape_slice(
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    fixed: PlantParameters,
    context: FitContext,
    opts: SolverOptions = SolverOptions(),
    jobs: int = 1,
) -> np.ndarray:
    """RMS error [MW] at every point of a 2-D parameter grid.

    ``axis1`` and ``axis2`` are (parameter name, grid values) pairs over two
    distinct members of (eta, sigma, phi, nu); ``fixed`` supplies the rest.
    Returns the array of shape (len(axis1[1]), len(axis2[1])) whose entry
    (i, j) is the rms at the i-th axis1 value and the j-th axis2 value.
    """
    name1, values1 = axis1[0], np.asarray(axis1[1], dtype=float)
    name2, values2 = axis2[0], np.asarray(axis2[1], dtype=float)
    for name in (name1, name2):
        if name not in PARAM_NAMES:
            raise ParameterError(f"unknown parameter axis: {name}")
    if name1 == name2:
        raise ParameterError("axes must differ")
    if len(values1) == 0 or len(values2) == 0:
        raise ParameterError("axis grids must be non-empty")

    # row i * len(values2) + j: values1[i] and values2[j] over the fixed parameters
    candidates = np.tile(params_to_vector(fixed), (len(values1) * len(values2), 1))
    candidates[:, PARAM_NAMES.index(name1)] = np.repeat(values1, len(values2))
    candidates[:, PARAM_NAMES.index(name2)] = np.tile(values2, len(values1))
    with CandidateEvaluator(context, opts, jobs) as ev:
        scores = ev.scores(candidates)
    return np.sqrt(np.array(scores).reshape(len(values1), len(values2))
                   / context.market.horizon)
