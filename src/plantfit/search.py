"""Derivative-free outer search: differential evolution, then compass search.

Differential evolution explores the parameter box globally; compass search
refines the best member locally. Both treat the objective as a black box:
a batch scorer, ``score(vecs) -> scores``, called once per DE generation and
once per batch of compass polls, which may hold the polls of several coming
contraction levels. A score of +inf marks an infeasible candidate, which
loses to every finite one. An exception from the scorer propagates, and a
NaN score raises ``ValueError``. The drivers own all mutable state and are
bit-reproducible for a fixed seed, so results do not depend on how the
scorer spreads a batch over workers. DE draws only
``random.Random(seed).random()``, a stream Python keeps the same in every
version (numpy promises none for its ``Generator`` methods), so a fit never
imports ``numpy.random``. A search records every point it scores and the
score, as two arrays; a fit keeps both searches' results.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .domain import (
    ParameterError,
    PlantParameters,
    Schedule,
    SearchBounds,
    SolverError,
    vector_to_params,
)
from .objective import CandidateEvaluator, FitContext, evaluate_candidate
from .uc import SolverOptions


@dataclass(frozen=True)
class DeConfig:
    """DE/rand/1/bin settings. Every random draw is a
    ``random.Random(seed).random()``: the initial population row by row,
    then per member its three others (by rejection), its crossover mask
    and its forced coordinate."""

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
    """Coordinate-polling settings. The first step is 10% of the box along
    each coordinate; a None minimum step defaults to 0.1% of it."""

    contraction: float = 0.5
    min_step: tuple | None = None      # per-dimension; default 1e-3 of range
    max_iterations: int = 150

    def __post_init__(self):
        if not 0.0 < self.contraction < 1.0:
            raise ParameterError("contraction must be in (0, 1)")
        if self.max_iterations < 0:
            raise ParameterError("max_iterations must be non-negative")


# Polls that one compass batch may hold: one DE generation's width, at which
# a sweep costs little more than one of a single level's polls
_LOOKAHEAD_POLLS = 32


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best point found plus the full evaluation record, in scoring order."""

    best: np.ndarray
    score: float
    history: list        # best score per generation / iteration
    points: np.ndarray   # (evaluations, dim): each vector scored
    scores: np.ndarray   # (evaluations,): its score

    @property
    def evaluations(self) -> int:
        return len(self.scores)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a bilevel fit: the best parameters re-evaluated, and the
    two searches that found them, DE and then compass search from its best."""

    best: PlantParameters
    sse: float                 # outer objective at best, MW^2 * periods
    rms: float                 # MW
    schedule: Schedule         # inner optimum at best, the one scored as sse
    de: SearchResult
    compass: SearchResult

    @property
    def evaluations(self) -> int:
        return self.de.evaluations + self.compass.evaluations


def _scores(score, vecs) -> np.ndarray:
    """``score(vecs)`` as floats, refusing a NaN: it marks a scorer bug, not
    an infeasible candidate."""
    scores = np.array(score(vecs), dtype=float)
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise ValueError(f"the scorer returned NaN for candidate {nan[0]} of its batch")
    return scores


def differential_evolution(score, bounds: SearchBounds,
                           cfg: DeConfig = DeConfig()) -> SearchResult:
    """Global search with DE/rand/1/bin.

    Per generation each member i receives a trial built from three distinct
    random others as a + F*(b - c), binomially crossed with rate CR (one
    coordinate always taken from the mutant), clipped to the bounds, and
    keeps its place unless the trial scores at least as well; ties move so
    the population can drift across plateaus.
    """
    rng = random.Random(cfg.seed)
    lower, upper = bounds.lower, bounds.upper
    dim = bounds.dim
    npop = cfg.population

    pop = lower + np.array([[rng.random() for _ in range(dim)]
                            for _ in range(npop)]) * (upper - lower)
    scores = _scores(score, pop)
    points, values = [pop.copy()], [scores.copy()]
    history = [float(scores.min())]

    for _ in range(cfg.generations):
        if history[-1] <= cfg.target:
            break
        trials = np.empty_like(pop)
        for i in range(npop):
            picks = []
            while len(picks) < 3:
                pick = int(rng.random() * (npop - 1))
                if pick not in picks:
                    picks.append(pick)
            picks = np.array(picks)
            picks[picks >= i] += 1
            a, b, c = pop[picks]
            mutant = a + cfg.weight * (b - c)
            cross = np.array([rng.random() < cfg.crossover for _ in range(dim)])
            cross[int(rng.random() * dim)] = True
            trials[i] = np.clip(np.where(cross, mutant, pop[i]), lower, upper)
        trial_scores = _scores(score, trials)
        points.append(trials)
        values.append(trial_scores)
        keep = trial_scores <= scores
        pop[keep], scores[keep] = trials[keep], trial_scores[keep]
        history.append(float(scores.min()))

    best = int(np.argmin(scores))
    return SearchResult(best=pop[best].copy(), score=float(scores[best]), history=history,
                        points=np.concatenate(points), scores=np.concatenate(values))


def compass_search(score, start, bounds: SearchBounds,
                   cfg: CompassConfig = CompassConfig()) -> SearchResult:
    """Local refinement by coordinate polling with step contraction.

    Polls +/-step along each coordinate (clipped to the bounds) and moves to
    the first improving poll; when none improves, every step contracts. Stops
    once all steps fall below the minimum step. Never returns a point scoring
    worse than the start.

    Unless the last iteration moved, one scorer call also takes the polls of
    the contractions that may follow, up to ``_LOOKAHEAD_POLLS`` polls; a
    move drops those left. The result, record included, is that of one call
    per iteration.
    """
    lower, upper = bounds.lower, bounds.upper
    dim = bounds.dim
    x = np.asarray(start, dtype=float).copy()
    if not bounds.contains(x):
        raise ParameterError("start point lies outside the bounds")

    span = upper - lower
    step = 0.1 * span
    min_step = (np.array(cfg.min_step, dtype=float).ravel() if cfg.min_step is not None
                else 1e-3 * span)
    if len(min_step) != dim:
        raise ParameterError(f"min_step has {len(min_step)} entries, but the box has "
                             f"{dim} dimensions")
    if np.any(step <= 0) or np.any(min_step <= 0):
        raise ParameterError("steps must be positive")

    fx = _scores(score, [x])[0]
    points, values = [x[None]], [np.array([fx])]
    history = [float(fx)]

    levels: list = []  # (polls, scores) of the coming contraction levels
    moved = False
    for i in range(cfg.max_iterations):
        if np.all(step < min_step):
            break
        if not levels:  # this step's polls, and those of the steps it may contract to
            batch, ahead = [_polls(x, step, lower, upper)], step * cfg.contraction
            while not (moved or len(batch) == cfg.max_iterations - i or np.all(ahead < min_step)):
                polls = _polls(x, ahead, lower, upper)
                if sum(map(len, batch)) + len(polls) > _LOOKAHEAD_POLLS:
                    break
                batch.append(polls)
                ahead = ahead * cfg.contraction
            scores = _scores(score, np.concatenate(batch))
            ends = np.cumsum([len(polls) for polls in batch])
            levels = list(zip(batch, np.split(scores, ends[:-1])))
        polls, poll_scores = levels.pop(0)
        points.append(polls)
        values.append(poll_scores)
        moved = False
        for cand, value in zip(polls, poll_scores):
            if value < fx:
                x, fx = cand, value
                moved = True
                break
        if moved:
            levels = []  # polled around the point just left
        else:
            step = step * cfg.contraction
        history.append(float(fx))

    return SearchResult(best=x.copy(), score=float(fx), history=history,
                        points=np.concatenate(points), scores=np.concatenate(values))


def _polls(x, step, lower, upper) -> np.ndarray:
    """+/-step along each coordinate from ``x``, clipped to the bounds, one
    poll a row; a poll that clipping leaves at ``x`` is dropped."""
    polls = []
    for d in range(len(x)):
        for sign in (1.0, -1.0):
            cand = x.copy()
            cand[d] = min(max(cand[d] + sign * step[d], lower[d]), upper[d])
            if abs(cand[d] - x[d]) > 0.0:
                polls.append(cand)
    return np.reshape(polls, (-1, len(x)))


def fit(
    context: FitContext,
    bounds: SearchBounds | None = None,
    de_cfg: DeConfig = DeConfig(),
    compass_cfg: CompassConfig = CompassConfig(),
    opts: SolverOptions = SolverOptions(),
    jobs: int = 1,
) -> FitResult:
    """Full bilevel fit: DE exploration, compass refinement, one verification.

    Returns the best parameters with the outer objective re-evaluated at
    them, the schedule that re-evaluation solved, and both searches'
    results. The re-evaluation's SSE must equal the search's best score
    bit for bit, or ``SolverError`` raises.
    """
    bounds = bounds or SearchBounds.for_plant(context.dynamics.capacity)

    with CandidateEvaluator(context, opts, jobs) as ev:
        de = differential_evolution(ev.scores, bounds, de_cfg)
        local = compass_search(ev.scores, de.best, bounds, compass_cfg)

    best_params = vector_to_params(local.best, context.epsilon)
    final = evaluate_candidate(best_params, context, opts)
    # a search score carries no schedule to check, so its fault shows here
    if final.sse != local.score:
        raise SolverError(f"the search scored its best parameters {local.score!r}, but "
                          f"their final solve scores {final.sse!r}")
    return FitResult(best=best_params, sse=final.sse, rms=final.rms,
                     schedule=final.schedule, de=de, compass=local)
