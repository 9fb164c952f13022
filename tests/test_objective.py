"""Outer-objective evaluation and landscape slicing."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plantfit.objective
import plantfit.uc
from plantfit import (
    CompassConfig,
    DataError,
    DeConfig,
    FitContext,
    ObservedProduction,
    ParameterError,
    PlantParameters,
    SearchBounds,
    SolverError,
    SolverOptions,
    evaluate_candidate,
    fit,
    landscape_slice,
    make_grid,
    params_to_vector,
    rms,
    solve_uc,
    sse,
    synthesize,
    vector_to_params,
)
from plantfit.objective import CandidateEvaluator
from conftest import EPSILON, flat_dynamics, toy_market


def observed_of(values, dt=1.0):
    values = np.asarray(values, dtype=float)
    return ObservedProduction(grid=make_grid("2018-01-01T00:00:00Z", len(values), dt),
                              power=values)


class TestErrorMetrics:
    def test_identical_series_scores_zero(self):
        obs = observed_of([10.0, 0.0, 55.5])
        assert sse(obs, obs) == 0.0
        assert rms(obs, obs) == 0.0

    def test_direct_arithmetic(self):
        assert sse(np.array([3.0, 4.0]), observed_of([0.0, 0.0])) == 25.0
        assert rms(np.array([3.0, 4.0]), observed_of([0.0, 0.0])) == pytest.approx(
            np.sqrt(12.5))

    def test_constant_offset(self):
        obs = observed_of(np.linspace(0, 90, 10))
        assert sse(obs.power + 5.0, obs) == pytest.approx(250.0)
        assert rms(obs.power + 5.0, obs) == pytest.approx(5.0)
        longer = observed_of(np.linspace(0, 90, 37))
        assert rms(longer.power + 5.0, longer) == pytest.approx(5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            sse(np.zeros(3), observed_of([0.0, 0.0]))

    def test_empty_rms_rejected(self):
        with pytest.raises(DataError):
            rms(np.array([]), np.array([]))

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 100, 40)
        b = rng.uniform(0, 100, 40)
        perm = rng.permutation(40)
        assert sse(a, b) == pytest.approx(sse(a[perm], b[perm]))


def small_context(T=48, sigma=500.0, phi=50.0):
    market = toy_market(
        35.0 + 25.0 * np.sin(np.arange(T) / 3.0), dt=0.5, fuel=15.0, carbon=10.0)
    dynamics = flat_dynamics(T, mel=100.0, sel=40.0, ramp_up=120.0, ramp_dn=120.0)
    true = PlantParameters(eta=0.45, sigma=sigma, phi=phi, nu=1.0, epsilon=EPSILON)
    observed = synthesize(true, dynamics, market, SolverOptions())
    ctx = FitContext.from_observed(dynamics, market, observed, epsilon=EPSILON)
    return true, ctx


class TestEvaluateCandidate:
    def test_generator_parameters_score_zero(self):
        true, ctx = small_context()
        record = evaluate_candidate(true, ctx, SolverOptions())
        assert record.sse == 0.0
        assert record.rms == 0.0

    def test_both_sides_off_scores_zero(self):
        T = 24
        market = toy_market(np.full(T, 10.0), dt=0.5, fuel=30.0)
        dynamics = flat_dynamics(T, mel=100.0, sel=0.0)
        ctx = FitContext.from_observed(dynamics, market, observed_of(np.zeros(T), dt=0.5),
                                       epsilon=0.0)
        p = PlantParameters(eta=0.2, sigma=10.0, phi=1.0, nu=0.0, epsilon=0.0)
        assert evaluate_candidate(p, ctx, SolverOptions()).sse == 0.0

    def test_full_offset_residual(self):
        T = 48
        market = toy_market(np.full(T, 10.0), dt=0.5, fuel=30.0)
        dynamics = flat_dynamics(T, mel=100.0, sel=0.0)
        obs = ObservedProduction(grid=market.grid, power=np.full(T, 100.0))
        ctx = FitContext.from_observed(dynamics, market, obs, epsilon=0.0)
        p = PlantParameters(eta=0.2, sigma=10.0, phi=1.0, nu=0.0, epsilon=0.0)
        record = evaluate_candidate(p, ctx, SolverOptions())
        assert record.rms == pytest.approx(100.0)

    def test_pure_function(self):
        true, ctx = small_context()
        p = PlantParameters(eta=0.5, sigma=300.0, phi=20.0, nu=0.5, epsilon=EPSILON)
        a = evaluate_candidate(p, ctx, SolverOptions())
        b = evaluate_candidate(p, ctx, SolverOptions())
        assert (a.sse, a.rms, a.schedule.profit) == (b.sse, b.rms, b.schedule.profit)
        assert a.schedule.power.tobytes() == b.schedule.power.tobytes()

    def test_profit_matches_solver(self):
        true, ctx = small_context()
        record = evaluate_candidate(true, ctx, SolverOptions())
        schedule = solve_uc(ctx.instance(true), SolverOptions())
        assert record.schedule.profit == schedule.profit
        assert record.schedule.power.tobytes() == schedule.power.tobytes()


class TestLandscapeSlice:
    def test_shape_contract(self):
        true, ctx = small_context(T=24)
        slc = landscape_slice(
            ("eta", np.linspace(0.3, 0.6, 3)),
            ("sigma", np.linspace(0.0, 1000.0, 3)),
            true, ctx, SolverOptions())
        assert slc.errors.shape == (3, 3)
        assert np.all(slc.errors >= 0)

    def test_entries_match_independent_evaluation(self):
        true, ctx = small_context(T=24)
        etas = np.array([0.35, 0.5])
        sigmas = np.array([0.0, 800.0])
        slc = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                              SolverOptions())
        import dataclasses
        for i, ev in enumerate(etas):
            for j, sv in enumerate(sigmas):
                p = dataclasses.replace(true, eta=float(ev), sigma=float(sv))
                rec = evaluate_candidate(p, ctx, SolverOptions())
                assert slc.errors[i, j] == pytest.approx(rec.rms, abs=1e-12)

    def test_minimum_lands_at_generator_point(self):
        true, ctx = small_context()
        etas = np.linspace(0.25, 0.65, 9)   # true eta 0.45 on this grid
        sigmas = np.linspace(0.0, 2000.0, 5)  # true sigma 500 on this grid
        slc = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                              SolverOptions())
        i, j = np.unravel_index(np.argmin(slc.errors), slc.errors.shape)
        i_true = int(np.argmin(np.abs(etas - true.eta)))
        j_true = int(np.argmin(np.abs(sigmas - true.sigma)))
        assert slc.errors[i, j] == slc.errors[i_true, j_true] == 0.0

    def test_axes_must_differ(self):
        true, ctx = small_context(T=24)
        with pytest.raises(ParameterError, match="axes must differ"):
            landscape_slice(("eta", np.array([0.4])), ("eta", np.array([0.5])),
                            true, ctx, SolverOptions())

    def test_unknown_axis_rejected(self):
        true, ctx = small_context(T=24)
        with pytest.raises(ParameterError, match="unknown parameter"):
            landscape_slice(("volume", np.array([1.0])), ("eta", np.array([0.5])),
                            true, ctx, SolverOptions())

    def test_empty_grid_rejected(self):
        true, ctx = small_context(T=24)
        with pytest.raises(ParameterError, match="non-empty"):
            landscape_slice(("eta", np.array([])), ("sigma", np.array([0.0])),
                            true, ctx, SolverOptions())

    def test_parallel_matches_serial(self):
        true, ctx = small_context(T=24)
        etas = np.linspace(0.3, 0.6, 3)
        sigmas = np.linspace(0.0, 1000.0, 3)
        serial = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                                 SolverOptions())
        parallel = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                                   SolverOptions(), jobs=2)
        assert np.array_equal(serial.errors, parallel.errors)


class TestFitContext:
    def test_initial_state_inferred_from_observation(self):
        T = 24
        market = toy_market(np.full(T, 50.0), dt=0.5)
        dynamics = flat_dynamics(T, mel=100.0, sel=0.0)
        on = FitContext.from_observed(dynamics, market,
                                      observed_of(np.full(T, 60.0), dt=0.5),
                                      epsilon=0.1)
        assert on.initial_committed and on.initial_power == 60.0
        off = FitContext.from_observed(dynamics, market,
                                       observed_of(np.zeros(T), dt=0.5),
                                       epsilon=0.1)
        assert not off.initial_committed and off.initial_power == 0.0

    def test_length_mismatch_rejected(self):
        market = toy_market(np.full(4, 50.0), dt=0.5)
        with pytest.raises(DataError):
            FitContext.from_observed(flat_dynamics(4), market,
                                     observed_of(np.zeros(3), dt=0.5), epsilon=0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, -0.1])
    def test_invalid_epsilon_rejected(self, epsilon):
        market = toy_market(np.full(4, 50.0), dt=0.5)
        with pytest.raises(ParameterError, match="epsilon"):
            FitContext.from_observed(flat_dynamics(4), market,
                                     observed_of(np.zeros(4), dt=0.5), epsilon=epsilon)


@pytest.fixture(scope="module")
def batch_context():
    return small_context()


class TestCandidateEvaluator:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=12))
    def test_batched_scores_equal_single_evaluations(self, batch_context, unit_points):
        true, ctx = batch_context
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        vecs = [bounds.lower + np.array(u) * (bounds.upper - bounds.lower)
                for u in unit_points]
        vecs.append(params_to_vector(true))
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            scores = ev.scores(vecs)
        for vec, score in zip(vecs, scores):
            record = evaluate_candidate(vector_to_params(vec, ctx.epsilon), ctx,
                                        SolverOptions())
            assert score == record.sse

    def test_split_across_workers_matches_serial(self):
        true, ctx = small_context(T=24)
        rng = np.random.default_rng(8)
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        vecs = list(bounds.lower + rng.random((7, 4)) * (bounds.upper - bounds.lower))
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            serial = ev.scores(vecs)
        with CandidateEvaluator(ctx, SolverOptions(), jobs=3) as ev:
            parallel = ev.scores(vecs)
            assert ev.scores([]) == []
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, jobs):
        true, ctx = small_context(T=24)
        with pytest.raises(ParameterError, match=f"jobs must be at least 1, got {jobs}"):
            CandidateEvaluator(ctx, SolverOptions(), jobs)
        with pytest.raises(ParameterError, match="jobs"):
            fit(ctx, jobs=jobs)

    def test_scored_vectors_served_from_memory(self, monkeypatch):
        true, ctx = small_context(T=24)
        calls = _count_batches(monkeypatch)
        vecs = [params_to_vector(true), params_to_vector(dataclasses.replace(true, eta=0.4))]
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            first = ev.scores(vecs)
            assert ev.scores(vecs[::-1]) == first[::-1]
        assert len(calls) == 1
        assert len(calls[0][0]) == 2

    def test_fit_does_not_solve_the_compass_start_again(self, monkeypatch):
        true, ctx = small_context(T=24)
        calls = _count_batches(monkeypatch)
        # a negative target keeps DE from stopping early on a perfect score
        fit(ctx, de_cfg=DeConfig(population=8, generations=3, seed=1, target=-1.0),
            compass_cfg=CompassConfig(max_iterations=2))
        # the first population, three generations and two rounds of polls:
        # compass search starts from DE's best, which DE already scored
        assert len(calls) == 1 + 3 + 2


def _count_batches(monkeypatch) -> list:
    """Count the evaluator's calls of ``solve_uc_batch``; returns their list."""
    calls = []
    batch = plantfit.objective.solve_uc_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(plantfit.objective, "solve_uc_batch", counted)
    return calls


def _break_solver(monkeypatch) -> list:
    """Make the inner solver raise TypeError; returns the list of its calls."""
    calls = []

    def broken(params, market):
        calls.append(params)
        raise TypeError("injected bug")

    monkeypatch.setattr(plantfit.uc, "marginal_values", broken)
    return calls


class TestProgrammingErrorsPropagate:
    def test_fit_raises_at_the_first_evaluation(self, monkeypatch):
        true, ctx = small_context(T=24)
        calls = _break_solver(monkeypatch)
        with pytest.raises(TypeError, match="injected bug"):
            fit(ctx, de_cfg=DeConfig(population=8, generations=3, seed=1),
                compass_cfg=CompassConfig(max_iterations=2))
        assert len(calls) == 1  # not scored +inf for the whole search

    def test_landscape_raises(self, monkeypatch):
        true, ctx = small_context(T=24)
        _break_solver(monkeypatch)
        with pytest.raises(TypeError, match="injected bug"):
            landscape_slice(("eta", np.linspace(0.3, 0.6, 3)),
                            ("sigma", np.linspace(0.0, 1000.0, 3)),
                            true, ctx, SolverOptions())

    def test_shared_problem_error_ends_the_search(self, monkeypatch):
        true, ctx = small_context()
        power = ctx.observed.power.copy()
        power[0] = ctx.dynamics.mel[0] + 10.0  # taken as the initial power
        observed = ObservedProduction(grid=ctx.market.grid, power=power)
        ctx = FitContext.from_observed(ctx.dynamics, ctx.market, observed, epsilon=EPSILON)
        calls = _count_batches(monkeypatch)
        with pytest.raises(SolverError, match="initial power exceeds"):
            fit(ctx, de_cfg=DeConfig(population=8, generations=20, seed=1),
                compass_cfg=CompassConfig(max_iterations=2))
        assert len(calls) == 1  # not scored +inf batch after batch

    def test_infeasible_candidate_still_scores_inf(self):
        true, ctx = small_context(T=24)
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            good, bad = ev.scores([params_to_vector(true),
                                   params_to_vector(dataclasses.replace(true, eta=0.0))])
        assert good == 0.0 and bad == float("inf")

    @pytest.mark.parametrize("field,value", [
        ("sigma", math.nan), ("phi", math.nan), ("nu", math.nan), ("sigma", -5e5), ("eta", 1.7)])
    def test_invalid_candidate_scores_inf_alone(self, field, value):
        true, ctx = small_context(T=24)
        bad = dataclasses.replace(true, **{field: value})
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            scores = ev.scores([params_to_vector(p) for p in (true, bad, true)])
        assert scores == [0.0, math.inf, 0.0]
