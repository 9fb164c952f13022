"""Derivative-free outer search: differential evolution, then compass search.

Differential evolution explores the parameter box globally; compass search
refines the best member locally. Both treat the objective as a black box:
a batch scorer, ``score(vecs) -> scores``, called once per generation or
poll. A score of +inf marks an infeasible candidate, which loses to every
finite one. An exception from the scorer propagates, and a NaN score raises
``ValueError``. The drivers own all mutable state and are bit-reproducible
for a fixed seed, so results do not depend on how the scorer spreads a
batch over workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DataError,
    FitResult,
    ParameterError,
    SearchBounds,
    normalize_costs,
    vector_to_params,
)
from .objective import CandidateEvaluator, FitContext, evaluate_candidate
from .uc import SolverOptions


@dataclass(frozen=True)
class DeConfig:
    """DE/rand/1/bin settings."""

    population: int = 32
    weight: float = 0.8      # differential weight F
    crossover: float = 0.9   # crossover rate CR
    generations: int = 150
    seed: int = 0
    target: float = 0.0      # stop once the best score is at or below this

    def __post_init__(self):
        if self.population < 4:
            raise ParameterError("population must be at least 4 (mutation draws three distinct others)")
        if not 0.0 < self.weight <= 2.0:
            raise ParameterError("differential weight must be in (0, 2]")
        if not 0.0 <= self.crossover <= 1.0:
            raise ParameterError("crossover rate must be in [0, 1]")
        if self.generations < 0:
            raise ParameterError("generations must be non-negative")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


@dataclass(frozen=True)
class CompassConfig:
    """Coordinate-polling settings; None steps default to fractions of the box."""

    initial_step: tuple | None = None  # per-dimension; default 10% of range
    contraction: float = 0.5
    min_step: tuple | None = None      # per-dimension; default 1e-3 of range
    max_iterations: int = 150

    def __post_init__(self):
        if not 0.0 < self.contraction < 1.0:
            raise ParameterError("contraction must be in (0, 1)")
        if self.max_iterations < 0:
            raise ParameterError("max_iterations must be non-negative")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best point found plus the full evaluation record."""

    best: np.ndarray
    score: float
    history: list        # best score per generation / iteration
    trace: list          # (vector, score) per evaluation, in order
    evaluations: int


def _scores(score, vecs) -> np.ndarray:
    """``score(vecs)`` as floats, refusing a NaN: it marks a scorer bug, not
    an infeasible candidate."""
    scores = np.array(score(vecs), dtype=float)
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise ValueError(f"the scorer returned NaN for candidate {nan[0]} of its batch")
    return scores


def differential_evolution(score, bounds: SearchBounds,
                           cfg: DeConfig | None = None) -> SearchResult:
    """Global search with DE/rand/1/bin.

    Per generation each member i receives a trial built from three distinct
    random others as a + F*(b - c), binomially crossed with rate CR (one
    coordinate always taken from the mutant), clipped to the bounds, and
    keeps its place unless the trial scores at least as well; ties move so
    the population can drift across plateaus.
    """
    cfg = cfg or DeConfig()
    rng = np.random.default_rng(cfg.seed)
    lower, upper = bounds.lower, bounds.upper
    dim = bounds.dim
    npop = cfg.population

    pop = lower + rng.random((npop, dim)) * (upper - lower)
    scores = _scores(score, pop)
    trace = [(pop[i].copy(), float(scores[i])) for i in range(npop)]
    history = [float(scores.min())]

    for _ in range(cfg.generations):
        if history[-1] <= cfg.target:
            break
        trials = np.empty_like(pop)
        for i in range(npop):
            picks = rng.choice(npop - 1, size=3, replace=False)
            picks[picks >= i] += 1
            a, b, c = pop[picks]
            mutant = a + cfg.weight * (b - c)
            cross = rng.random(dim) < cfg.crossover
            cross[rng.integers(dim)] = True
            trials[i] = np.clip(np.where(cross, mutant, pop[i]), lower, upper)
        trial_scores = _scores(score, trials)
        for i in range(npop):
            trace.append((trials[i].copy(), float(trial_scores[i])))
            if trial_scores[i] <= scores[i]:
                pop[i] = trials[i]
                scores[i] = trial_scores[i]
        history.append(float(scores.min()))

    best = int(np.argmin(scores))
    return SearchResult(
        best=pop[best].copy(),
        score=float(scores[best]),
        history=history,
        trace=trace,
        evaluations=len(trace),
    )


def compass_search(score, start, bounds: SearchBounds,
                   cfg: CompassConfig | None = None) -> SearchResult:
    """Local refinement by coordinate polling with step contraction.

    Polls +/-step along each coordinate (clipped to the bounds) and moves to
    the first improving poll; when none improves, every step contracts. Stops
    once all steps fall below the minimum step. Never returns a point scoring
    worse than the start.
    """
    cfg = cfg or CompassConfig()
    lower, upper = bounds.lower, bounds.upper
    dim = bounds.dim
    x = np.asarray(start, dtype=float).copy()
    if not bounds.contains(x):
        raise ParameterError("start point lies outside the bounds")

    span = upper - lower
    step = np.array(cfg.initial_step, dtype=float) if cfg.initial_step is not None else 0.1 * span
    min_step = np.array(cfg.min_step, dtype=float) if cfg.min_step is not None else 1e-3 * span
    if np.any(step <= 0) or np.any(min_step <= 0):
        raise ParameterError("steps must be positive")

    fx = _scores(score, [x])[0]
    trace = [(x.copy(), float(fx))]
    history = [float(fx)]

    for _ in range(cfg.max_iterations):
        if np.all(step < min_step):
            break
        polls = []
        for d in range(dim):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[d] = min(max(cand[d] + sign * step[d], lower[d]), upper[d])
                if abs(cand[d] - x[d]) > 0.0:
                    polls.append(cand)
        poll_scores = _scores(score, polls)
        trace.extend((polls[i].copy(), float(poll_scores[i])) for i in range(len(polls)))
        moved = False
        for cand, value in zip(polls, poll_scores):
            if value < fx:
                x, fx = cand, value
                moved = True
                break
        if not moved:
            step = step * cfg.contraction
        history.append(float(fx))

    return SearchResult(best=x.copy(), score=float(fx), history=history,
                        trace=trace, evaluations=len(trace))


def fit(
    context: FitContext,
    bounds: SearchBounds | None = None,
    de_cfg: DeConfig | None = None,
    compass_cfg: CompassConfig | None = None,
    opts: SolverOptions | None = None,
    jobs: int | None = None,
) -> FitResult:
    """Full bilevel fit: DE exploration, compass refinement, one verification.

    Returns the best parameters with the outer objective re-evaluated at
    them, the schedule that re-evaluation solved, the per-MW(cap) cost
    report, and the complete evaluation trace.
    """
    opts = opts or SolverOptions()
    de_cfg = de_cfg or DeConfig()
    compass_cfg = compass_cfg or CompassConfig()
    if context.observed.horizon == 0:
        raise DataError("observed series is empty")
    capacity = context.dynamics.capacity
    bounds = bounds or SearchBounds.for_plant(capacity)

    with CandidateEvaluator(context, opts, jobs) as ev:
        de = differential_evolution(ev.scores, bounds, de_cfg)
        local = compass_search(ev.scores, de.best, bounds, compass_cfg)

    best_params = vector_to_params(local.best, context.epsilon)
    final = evaluate_candidate(best_params, context, opts)
    trace = tuple(
        (vector_to_params(vec, context.epsilon), score)
        for vec, score in de.trace + local.trace
    )
    return FitResult(
        best=best_params,
        sse=final.sse,
        rms=final.rms,
        evaluations=len(trace),
        trace=trace,
        normalized_report=normalize_costs(best_params, capacity),
        schedule=final.schedule,
    )
