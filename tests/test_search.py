"""Derivative-free search: DE, compass, and the bilevel fit driver."""
import math

import numpy as np
import pytest

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
from plantfit import SolverOptions, solve_uc
from conftest import EPSILON
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
        assert all(np.array_equal(x, y) and sx == sy
                   for (x, sx), (y, sy) in zip(a.trace, b.trace))

    def test_every_candidate_within_bounds(self):
        bounds = box(-1, 1, 3)
        result = differential_evolution(
            batched(sphere), bounds,
            DeConfig(population=12, generations=30, seed=5, target=-1.0))
        for vec, _ in result.trace:
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
        # the start is scored alone; the first poll of 4 has a third
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
        alone = solve_uc(ctx.instance(result.best), SolverOptions())
        for name in ("power", "committed", "started"):
            assert getattr(result.schedule, name).tobytes() == getattr(alone, name).tobytes()
        assert result.schedule.profit == alone.profit

    def test_trace_accounts_every_evaluation(self):
        true, ctx = small_context(T=24)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=10, seed=1),
                     compass_cfg=CompassConfig(max_iterations=10))
        assert result.evaluations == len(result.trace)
        running = np.minimum.accumulate([s for _, s in result.trace])
        assert all(b <= a + 1e-15 for a, b in zip(running, running[1:]))
        assert result.sse <= running[-1] + 1e-15

    def test_all_candidates_within_bounds(self):
        true, ctx = small_context(T=24)
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        result = fit(ctx, bounds=bounds,
                     de_cfg=DeConfig(population=8, generations=8, seed=2),
                     compass_cfg=CompassConfig(max_iterations=8))
        for p, _ in result.trace:
            vec = np.array([p.eta, p.sigma, p.phi, p.nu])
            assert bounds.contains(vec)
            assert p.epsilon == EPSILON

    def test_parallel_run_matches_serial(self):
        true, ctx = small_context(T=24)
        kwargs = dict(de_cfg=DeConfig(population=8, generations=6, seed=3),
                      compass_cfg=CompassConfig(max_iterations=6))
        serial = fit(ctx, **kwargs)
        parallel = fit(ctx, jobs=2, **kwargs)
        assert serial.best == parallel.best
        assert serial.sse == parallel.sse
        assert serial.evaluations == parallel.evaluations
        assert serial.trace == parallel.trace  # every vector and score, in order

    def test_normalized_report_consistent(self):
        true, ctx = small_context(T=24)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=5, seed=6),
                     compass_cfg=CompassConfig(max_iterations=5))
        cap = ctx.dynamics.capacity
        assert result.normalized_report.sigma_per_cap == pytest.approx(
            result.best.sigma / cap)
        assert result.normalized_report.phi_per_cap == pytest.approx(
            result.best.phi / cap)

    def test_empty_observed_rejected(self):
        import numpy as np
        from plantfit import MarketSeries, ObservedProduction, PlantDynamics
        empty_grid = np.array([], dtype="datetime64[s]")
        market = MarketSeries(grid=empty_grid, w=np.array([]), f=np.array([]),
                              e=np.array([]), dt=0.5)
        dynamics = PlantDynamics(mel=np.array([]), sel=np.array([]),
                                 ramp_up=10.0, ramp_dn=10.0)
        observed = ObservedProduction(grid=empty_grid, power=np.array([]))
        with pytest.raises(DataError, match="empty"):
            FitContext.from_observed(dynamics, market, observed, epsilon=0.1)
