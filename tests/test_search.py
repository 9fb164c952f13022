"""Derivative-free search: DE, compass, and the bilevel fit driver."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantfit import (
    CompassConfig,
    DataError,
    DeConfig,
    FitContext,
    ParameterError,
    SearchBounds,
    compass_search,
    differential_evolution,
    evaluate_candidate,
    fit,
)
from plantfit import SolverOptions
from plantfit.objective import CandidateEvaluator
from plantfit.search import _LOOKAHEAD_POLLS, _scores
from conftest import EPSILON, solve
from test_objective import small_context


def box(lo, hi, dim):
    return SearchBounds(np.full(dim, float(lo)), np.full(dim, float(hi)))


def batched(f):
    """The batch scorer of a function of one vector."""
    return lambda vs: [f(v) for v in vs]


def sphere(x):
    return float(np.dot(x, x))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestDifferentialEvolution:
    def test_sphere_reaches_target(self):
        result = differential_evolution(
            batched(sphere), box(-5, 5, 4),
            DeConfig(population=32, generations=200, seed=7, target=-1.0))
        assert result.score <= 1e-4

    def test_constant_fitness_flat_history(self):
        bounds = box(-2, 2, 3)
        result = differential_evolution(
            batched(lambda x: 4.25), bounds,
            DeConfig(population=8, generations=20, seed=1, target=-1.0))
        assert result.score == 4.25
        assert bounds.contains(result.best)
        assert set(result.history) == {4.25}

    def test_rosenbrock(self):
        result = differential_evolution(
            batched(rosenbrock), box(-2, 2, 2),
            DeConfig(population=32, generations=300, seed=3, target=-1.0))
        assert result.score <= 1e-2

    def test_small_population_rejected(self):
        with pytest.raises(ParameterError, match="population"):
            DeConfig(population=3)

    def test_seed_reproducibility(self):
        cfg = DeConfig(population=16, generations=40, seed=42, target=-1.0)
        a = differential_evolution(batched(sphere), box(-5, 5, 4), cfg)
        b = differential_evolution(batched(sphere), box(-5, 5, 4), cfg)
        assert np.array_equal(a.best, b.best)
        assert a.score == b.score
        assert a.history == b.history
        assert np.array_equal(a.points, b.points) and np.array_equal(a.scores, b.scores)

    def test_every_candidate_within_bounds(self):
        bounds = box(-1, 1, 3)
        result = differential_evolution(
            batched(sphere), bounds,
            DeConfig(population=12, generations=30, seed=5, target=-1.0))
        for vec in result.points:
            assert bounds.contains(vec)

    def test_target_stops_early(self):
        cfg = DeConfig(population=16, generations=500, seed=9, target=1e-2)
        result = differential_evolution(batched(sphere), box(-5, 5, 2), cfg)
        assert result.score <= 1e-2
        assert len(result.history) < 501

    def test_running_best_non_increasing(self):
        result = differential_evolution(
            batched(sphere), box(-5, 5, 3),
            DeConfig(population=12, generations=50, seed=8, target=-1.0))
        assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))


class TestScorerContract:
    def test_infinite_scores_steer_de_away(self):
        spiky = batched(lambda x: math.inf if x[0] > 0 else sphere(x))
        result = differential_evolution(
            spiky, box(-5, 5, 2), DeConfig(population=10, generations=30, seed=2, target=-1.0))
        assert np.isfinite(result.score)
        assert result.best[0] <= 0

    def test_scorer_error_propagates_from_both_drivers(self):
        def broken(vecs):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            differential_evolution(broken, box(-5, 5, 2), DeConfig(population=8, seed=2))
        with pytest.raises(RuntimeError, match="boom"):
            compass_search(broken, np.zeros(2), box(-5, 5, 2))

    def test_nan_score_raises_from_both_drivers(self):
        # NaN for the third candidate of any batch that has one
        def nan_third(vecs):
            return [math.nan if i == 2 else sphere(v) for i, v in enumerate(vecs)]

        with pytest.raises(ValueError, match="NaN for candidate 2 "):
            differential_evolution(nan_third, box(-5, 5, 2), DeConfig(population=8, seed=2))
        # the start is scored alone; the first batch of polls has a third
        with pytest.raises(ValueError, match="NaN for candidate 2 "):
            compass_search(nan_third, np.ones(2), box(-5, 5, 2))


class TestCompassSearch:
    def test_one_dimensional_quadratic(self):
        result = compass_search(batched(lambda x: (x[0] - 3.0) ** 2), np.array([0.0]),
                                box(-10, 10, 1),
                                CompassConfig(min_step=(1e-4,), max_iterations=500))
        assert abs(result.best[0] - 3.0) <= 1e-3

    def test_start_at_minimizer_returns_start(self):
        result = compass_search(batched(sphere), np.zeros(2), box(-5, 5, 2),
                                CompassConfig(max_iterations=200))
        assert np.array_equal(result.best, np.zeros(2))
        assert result.score == 0.0

    def test_two_dimensional_quadratic(self):
        f = lambda x: (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 2.0) ** 2
        result = compass_search(batched(f), np.zeros(2), box(-5, 5, 2),
                                CompassConfig(min_step=(1e-5, 1e-5), max_iterations=1000))
        assert abs(result.best[0] - 1.0) <= 1e-3
        assert abs(result.best[1] + 2.0) <= 1e-3

    def test_start_out_of_bounds_rejected(self):
        with pytest.raises(ParameterError, match="outside"):
            compass_search(batched(sphere), np.array([9.0, 0.0]), box(-5, 5, 2))

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            start = rng.uniform(-5, 5, 3)
            result = compass_search(batched(sphere), start, box(-5, 5, 3),
                                    CompassConfig(max_iterations=25))
            assert result.score <= sphere(start) + 1e-15

    def test_contraction_must_shrink(self):
        with pytest.raises(ParameterError):
            CompassConfig(contraction=1.0)

    @pytest.mark.parametrize("bounds, cfg", [
        (box(-5, 5, 2), CompassConfig(min_step=(1e-3, 0.0))),
        (box(0.0, 5e-324, 1), CompassConfig(min_step=(1e-3,))),  # a tenth of it is 0
    ], ids=["zero minimum step", "first step underflows"])
    def test_steps_must_be_positive(self, bounds, cfg):
        with pytest.raises(ParameterError, match="steps must be positive"):
            compass_search(batched(sphere), bounds.lower.copy(), bounds, cfg)


def reference_compass_search(score, start, bounds, cfg):
    """Compass search as one scorer call per iteration: the loop the
    lookahead must reproduce, trace and all."""
    lower, upper = bounds.lower, bounds.upper
    x = np.asarray(start, dtype=float).copy()
    span = upper - lower
    step = 0.1 * span
    min_step = np.array(cfg.min_step, dtype=float) if cfg.min_step is not None else 1e-3 * span
    fx = _scores(score, [x])[0]
    trace = [(x.copy(), float(fx))]
    history = [float(fx)]
    for _ in range(cfg.max_iterations):
        if np.all(step < min_step):
            break
        polls = []
        for d in range(bounds.dim):
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
    return x, float(fx), history, trace


def recorded(f):
    """The batch scorer of ``f`` and the list of the batches it was given."""
    calls = []

    def score(vecs):
        calls.append([np.array(v, dtype=float) for v in vecs])
        return [f(v) for v in vecs]

    return score, calls


@st.composite
def plateau_problems(draw):
    """A floored quadratic (flat plateaus, so most polls tie) on a random box,
    a start inside it or on its faces, and compass settings."""
    dim = draw(st.integers(1, 4))
    lower = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)))
    span = np.array(draw(st.lists(st.floats(1e-2, 100.0), min_size=dim, max_size=dim)))
    upper = lower + span
    where = draw(st.lists(st.sampled_from([0.0, 1.0, None]), min_size=dim, max_size=dim))
    start = np.array([draw(st.floats(0.0, 1.0)) if w is None else w for w in where])
    start = np.clip(lower + start * span, lower, upper)
    # the minimum may lie outside the box, so polls press against its faces
    centre = lower + span * np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=dim,
                                                   max_size=dim)))
    weight = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim)))
    quantum = 10.0 ** draw(st.floats(-6.0, 0.0)) * float(np.dot(weight, span ** 2))
    min_step = draw(st.none() | st.lists(st.floats(1e-6, 0.2), min_size=dim, max_size=dim))
    cfg = CompassConfig(
        contraction=draw(st.floats(0.05, 0.95)),
        min_step=None if min_step is None else tuple(np.array(min_step) * span),
        max_iterations=draw(st.integers(0, 60)))

    def f(x):
        return math.floor(float(np.dot(weight, (x - centre) ** 2)) / quantum)

    return f, start, SearchBounds(lower, upper), cfg


def reference_differential_evolution(score, bounds, cfg):
    """DE with one selection test per member: the loop the masked selection
    step must reproduce, ties moving, record and all. Its draws are the
    driver's, in the driver's order."""
    rng = random.Random(cfg.seed)
    lower, upper = bounds.lower, bounds.upper
    dim, npop = bounds.dim, cfg.population
    pop = np.empty((npop, dim))
    for i in range(npop):
        for d in range(dim):
            pop[i, d] = lower[d] + rng.random() * (upper[d] - lower[d])
    scores = _scores(score, pop)
    trace = [(pop[i].copy(), float(scores[i])) for i in range(npop)]
    history = [float(scores.min())]
    for _ in range(cfg.generations):
        if history[-1] <= cfg.target:
            break
        trials = np.empty_like(pop)
        for i in range(npop):
            others = []
            while len(others) < 3:
                k = int(rng.random() * (npop - 1))
                if k not in others:
                    others.append(k)
            a, b, c = (pop[k + (k >= i)] for k in others)
            mutant = a + cfg.weight * (b - c)
            cross = [rng.random() < cfg.crossover for _ in range(dim)]
            cross[int(rng.random() * dim)] = True
            trials[i] = np.clip(np.where(cross, mutant, pop[i]), lower, upper)
        trial_scores = _scores(score, trials)
        for i in range(npop):
            trace.append((trials[i].copy(), float(trial_scores[i])))
            if trial_scores[i] <= scores[i]:
                pop[i] = trials[i]
                scores[i] = trial_scores[i]
        history.append(float(scores.min()))
    best = int(np.argmin(scores))
    return pop[best].copy(), float(scores[best]), history, trace


class TestDeSelection:
    @settings(max_examples=100, deadline=None)
    @given(plateau_problems(), st.integers(4, 12), st.integers(0, 15),
           st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.integers(0, 2**16),
           st.sampled_from([-1.0, 0.0, 3.0]))
    def test_matches_one_test_per_member(self, problem, population, generations, weight,
                                         crossover, seed, target):
        # the floored quadratic ties most trials with their members: a tie moves
        f, _, bounds, _ = problem
        cfg = DeConfig(population=population, weight=weight, crossover=crossover,
                       generations=generations, seed=seed, target=target)
        best, score, history, trace = reference_differential_evolution(batched(f), bounds, cfg)
        got = differential_evolution(batched(f), bounds, cfg)

        assert np.array_equal(got.best, best) and got.score == score
        assert got.history == history
        assert got.points.shape == (len(trace), bounds.dim) and got.scores.shape == (len(trace),)
        for vec, value, (ref_vec, ref_value) in zip(got.points, got.scores, trace):
            assert np.array_equal(vec, ref_vec) and value == ref_value

    def test_ties_move_the_population(self):
        # every trial ties its member, so each moves: the best is the first trial
        result = differential_evolution(
            batched(lambda x: 1.0), box(-1, 1, 2),
            DeConfig(population=4, generations=1, seed=0, target=-1.0))
        assert np.array_equal(result.best, result.points[4])
        assert not np.array_equal(result.best, result.points[0])


class TestCompassLookahead:
    @settings(max_examples=150, deadline=None)
    @given(plateau_problems())
    def test_matches_one_call_per_iteration(self, problem):
        f, start, bounds, cfg = problem
        ref_score, ref_calls = recorded(f)
        best, score, history, trace = reference_compass_search(ref_score, start, bounds, cfg)
        new_score, calls = recorded(f)
        got = compass_search(new_score, start, bounds, cfg)

        assert np.array_equal(got.best, best) and got.score == score
        assert got.history == history
        assert len(got.points) == len(got.scores) == len(trace) == got.evaluations
        for vec, value, (ref_vec, ref_value) in zip(got.points, got.scores, trace):
            assert np.array_equal(vec, ref_vec) and value == ref_value

        # the reference's calls are the start, then one level per iteration
        levels = ref_calls[1:]
        moved = [b < a for a, b in zip(history, history[1:])]
        assert all(levels) and len(calls[0]) == 1
        assert all(len(batch) <= _LOOKAHEAD_POLLS for batch in calls)
        # each iteration's level is the next slice of the current batch; a new
        # batch starts after a move, holding that level alone, or once used up
        call, used = 0, 0
        for k, level in enumerate(levels):
            if k == 0 or moved[k - 1] or used == len(calls[call]):
                call, used = call + 1, 0
            if k > 0 and moved[k - 1]:
                assert len(calls[call]) == len(level)
            batch = calls[call][used:used + len(level)]
            assert len(batch) == len(level)
            assert all(np.array_equal(a, b) for a, b in zip(batch, level))
            used += len(level)
        assert call == len(calls) - 1

    @pytest.mark.parametrize("iterations,sizes", [(0, [1]), (1, [1, 8]), (4, [1, 32]),
                                                  (5, [1, 32, 8]), (9, [1, 32, 32, 8])])
    def test_flat_objective_scores_four_levels_a_call(self, iterations, sizes):
        # no poll moves; eight polls a level on the 4-D box
        score, calls = recorded(lambda x: 1.0)
        cfg = CompassConfig(contraction=0.8, max_iterations=iterations)
        result = compass_search(score, np.full(4, 0.5), box(0, 1, 4), cfg)
        assert [len(batch) for batch in calls] == sizes
        assert result.evaluations == 1 + 8 * iterations

    @pytest.mark.parametrize("min_step", [(1e9,), (1.0, 1.0, 1.0)])
    def test_min_step_of_another_length_rejected(self, min_step):
        with pytest.raises(ParameterError,
                           match=f"min_step has {len(min_step)} entries, but the box has 4 "):
            compass_search(batched(sphere), np.zeros(4), box(-5, 5, 4),
                           CompassConfig(min_step=min_step))


class TestFit:
    def test_closed_loop_small(self):
        true, ctx = small_context()
        result = fit(
            ctx,
            de_cfg=DeConfig(population=16, generations=60, seed=4),
            compass_cfg=CompassConfig(max_iterations=60),
            opts=SolverOptions(),
        )
        assert result.sse <= 1e-6
        assert result.rms <= 1e-3

    def test_reported_sse_reproducible(self):
        true, ctx = small_context(T=24)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=10, seed=1),
                     compass_cfg=CompassConfig(max_iterations=10))
        again = evaluate_candidate(result.best, ctx, SolverOptions())
        assert again.sse == result.sse
        assert result.rms == pytest.approx(np.sqrt(result.sse / ctx.market.horizon))

    def test_schedule_is_the_lone_solve_at_best(self):
        true, ctx = small_context(T=24)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=10, seed=1),
                     compass_cfg=CompassConfig(max_iterations=10))
        alone = solve(ctx.instance(result.best))
        for name in ("power", "committed", "started"):
            assert getattr(result.schedule, name).tobytes() == getattr(alone, name).tobytes()
        assert result.schedule.profit == alone.profit

    def test_trace_accounts_every_evaluation(self):
        true, ctx = small_context(T=24)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=10, seed=1),
                     compass_cfg=CompassConfig(max_iterations=10))
        scores = np.concatenate((result.de.scores, result.compass.scores))
        assert result.evaluations == len(scores)
        running = np.minimum.accumulate(scores)
        assert all(b <= a + 1e-15 for a, b in zip(running, running[1:]))
        assert result.sse <= running[-1] + 1e-15

    def test_all_candidates_within_bounds(self):
        true, ctx = small_context(T=24)
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        result = fit(ctx, bounds=bounds,
                     de_cfg=DeConfig(population=8, generations=8, seed=2),
                     compass_cfg=CompassConfig(max_iterations=8))
        for vec in np.concatenate((result.de.points, result.compass.points)):
            assert bounds.contains(vec)
        assert result.best.epsilon == EPSILON

    def test_phases_are_the_drivers_run_on_their_own(self):
        true, ctx = small_context(T=24)
        de_cfg = DeConfig(population=8, generations=6, seed=3)
        compass_cfg = CompassConfig(max_iterations=6)
        result = fit(ctx, de_cfg=de_cfg, compass_cfg=compass_cfg)
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            de = differential_evolution(ev.scores, bounds, de_cfg)
            local = compass_search(ev.scores, de.best, bounds, compass_cfg)
        for got, alone in ((result.de, de), (result.compass, local)):
            assert got.history == alone.history
            assert np.array_equal(got.best, alone.best) and got.score == alone.score
            assert np.array_equal(got.points, alone.points)
            assert np.array_equal(got.scores, alone.scores)
        assert result.evaluations == de.evaluations + local.evaluations

    def test_parallel_run_matches_serial(self):
        true, ctx = small_context(T=24)
        kwargs = dict(de_cfg=DeConfig(population=8, generations=6, seed=3),
                      compass_cfg=CompassConfig(max_iterations=6))
        serial = fit(ctx, **kwargs)
        parallel = fit(ctx, jobs=2, **kwargs)
        assert serial.best == parallel.best
        assert serial.sse == parallel.sse
        assert serial.evaluations == parallel.evaluations
        for phase in ("de", "compass"):  # every vector and score, in order
            a, b = getattr(serial, phase), getattr(parallel, phase)
            assert np.array_equal(a.points, b.points) and np.array_equal(a.scores, b.scores)
            assert a.history == b.history

    def test_empty_observed_rejected(self):
        import numpy as np
        from plantfit import MarketSeries, ObservedProduction, PlantDynamics
        empty_grid = np.array([], dtype="datetime64[s]")
        market = MarketSeries(grid=empty_grid, w=np.array([]), f=np.array([]),
                              e=np.array([]), dt=0.5)
        dynamics = PlantDynamics(mel=np.array([]), sel=np.array([]),
                                 ramp_up=10.0, ramp_dn=10.0)
        observed = ObservedProduction(power=np.array([]))
        with pytest.raises(DataError, match="empty"):
            FitContext.from_observed(dynamics, market, observed, epsilon=0.1)
