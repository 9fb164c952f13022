"""Outer-objective evaluation and landscape slicing."""
import dataclasses
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plantfit.objective
import plantfit.search
import plantfit.uc
from plantfit import (
    CompassConfig,
    DataError,
    DeConfig,
    FitContext,
    ObservedProduction,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    SearchBounds,
    SolverError,
    SolverOptions,
    evaluate_candidate,
    fit,
    landscape_slice,
    params_to_vector,
    sse,
    synthesize,
    vector_to_params,
)
from plantfit.objective import CandidateEvaluator
from conftest import EPSILON, TRUE_PARAMS, flat_dynamics, solve, toy_market


def observed_of(values):
    return ObservedProduction(power=np.asarray(values, dtype=float))


class TestErrorMetrics:
    def test_identical_series_scores_zero(self):
        obs = observed_of([10.0, 0.0, 55.5])
        assert sse(obs, obs) == 0.0

    def test_direct_arithmetic(self):
        assert sse(np.array([3.0, 4.0]), observed_of([0.0, 0.0])) == 25.0

    def test_constant_offset(self):
        obs = observed_of(np.linspace(0, 90, 10))
        assert sse(obs.power + 5.0, obs) == pytest.approx(250.0)
        longer = observed_of(np.linspace(0, 90, 37))
        assert sse(longer.power + 5.0, longer) == pytest.approx(25.0 * 37)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            sse(np.zeros(3), observed_of([0.0, 0.0]))

    def test_overflow_reads_inf_without_a_warning(self):
        assert sse(np.zeros(2), observed_of([1e200, 0.0])) == math.inf
        assert sse(np.zeros(2), observed_of([1e154, 1e154])) == math.inf

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
        ctx = FitContext.from_observed(dynamics, market, observed_of(np.zeros(T)),
                                       epsilon=0.0)
        p = PlantParameters(eta=0.2, sigma=10.0, phi=1.0, nu=0.0, epsilon=0.0)
        assert evaluate_candidate(p, ctx, SolverOptions()).sse == 0.0

    def test_full_offset_residual(self):
        T = 48
        market = toy_market(np.full(T, 10.0), dt=0.5, fuel=30.0)
        dynamics = flat_dynamics(T, mel=100.0, sel=0.0)
        obs = ObservedProduction(power=np.full(T, 100.0))
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
        schedule = solve(ctx.instance(true), SolverOptions())
        assert record.schedule.profit == schedule.profit
        assert record.schedule.power.tobytes() == schedule.power.tobytes()


class TestLandscapeSlice:
    def test_shape_contract(self):
        true, ctx = small_context(T=24)
        errors = landscape_slice(
            ("eta", np.linspace(0.3, 0.6, 3)),
            ("sigma", np.linspace(0.0, 1000.0, 3)),
            true, ctx, SolverOptions())
        assert errors.shape == (3, 3)
        assert np.all(errors >= 0)

    def test_entries_match_independent_evaluation(self):
        true, ctx = small_context(T=24)
        etas = np.array([0.35, 0.5])
        sigmas = np.array([0.0, 800.0])
        errors = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                                 SolverOptions())
        import dataclasses
        for i, ev in enumerate(etas):
            for j, sv in enumerate(sigmas):
                p = dataclasses.replace(true, eta=float(ev), sigma=float(sv))
                rec = evaluate_candidate(p, ctx, SolverOptions())
                assert errors[i, j] == pytest.approx(rec.rms, abs=1e-12)

    def test_minimum_lands_at_generator_point(self):
        true, ctx = small_context()
        etas = np.linspace(0.25, 0.65, 9)   # true eta 0.45 on this grid
        sigmas = np.linspace(0.0, 2000.0, 5)  # true sigma 500 on this grid
        errors = landscape_slice(("eta", etas), ("sigma", sigmas), true, ctx,
                                 SolverOptions())
        i, j = np.unravel_index(np.argmin(errors), errors.shape)
        i_true = int(np.argmin(np.abs(etas - true.eta)))
        j_true = int(np.argmin(np.abs(sigmas - true.sigma)))
        assert errors[i, j] == errors[i_true, j_true] == 0.0

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
        assert np.array_equal(serial, parallel)


class TestFitContext:
    def test_initial_state_inferred_from_observation(self):
        T = 24
        market = toy_market(np.full(T, 50.0), dt=0.5)
        dynamics = flat_dynamics(T, mel=100.0, sel=0.0)
        on = FitContext.from_observed(dynamics, market,
                                      observed_of(np.full(T, 60.0)),
                                      epsilon=0.1)
        assert on.initial_committed and on.initial_power == 60.0
        off = FitContext.from_observed(dynamics, market,
                                       observed_of(np.zeros(T)),
                                       epsilon=0.1)
        assert not off.initial_committed and off.initial_power == 0.0

    def test_length_mismatch_rejected(self):
        market = toy_market(np.full(4, 50.0), dt=0.5)
        with pytest.raises(DataError):
            FitContext.from_observed(flat_dynamics(4), market,
                                     observed_of(np.zeros(3)), epsilon=0.1)

    def test_dynamics_of_another_length_rejected(self):
        market = toy_market(np.full(4, 50.0), dt=0.5)
        with pytest.raises(DataError, match="dynamics and market series length mismatch"):
            FitContext.from_observed(flat_dynamics(5), market,
                                     observed_of(np.zeros(4)), epsilon=0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, -0.1])
    def test_invalid_epsilon_rejected(self, epsilon):
        market = toy_market(np.full(4, 50.0), dt=0.5)
        with pytest.raises(ParameterError, match="epsilon"):
            FitContext.from_observed(flat_dynamics(4), market,
                                     observed_of(np.zeros(4)), epsilon=epsilon)

    def test_pickled_with_its_graph(self):
        # what a worker started by spawn or forkserver receives
        true, ctx = small_context(T=24)
        opts = SolverOptions()
        vecs = [params_to_vector(true), params_to_vector(dataclasses.replace(true, eta=0.4)),
                params_to_vector(dataclasses.replace(true, sigma=0.0, nu=9.0))]
        with CandidateEvaluator(ctx, opts) as ev:  # builds the graph
            scores = ev.scores(vecs)
        copy = pickle.loads(pickle.dumps(ctx))
        assert list(copy._graphs) == [opts]
        assert copy.graph(opts).nbytes == ctx.graph(opts).nbytes
        with CandidateEvaluator(copy, opts) as ev:
            assert ev.scores(vecs) == scores


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

    def test_split_across_workers_matches_serial(self, monkeypatch):
        monkeypatch.setattr(plantfit.objective, "_usable_cpus", lambda: 8)  # 3 parts on any host
        true, ctx = small_context(T=24)
        rng = np.random.default_rng(8)
        bounds = SearchBounds.for_plant(ctx.dynamics.capacity)
        vecs = list(bounds.lower + rng.random((7, 4)) * (bounds.upper - bounds.lower))
        vecs.insert(3, params_to_vector(dataclasses.replace(true, eta=0.0)))  # fails alone
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            serial = ev.scores(vecs)
        assert serial[3] == math.inf and np.isfinite(np.delete(serial, 3)).all()
        for jobs in (2, 3):
            with CandidateEvaluator(ctx, SolverOptions(), jobs=jobs) as ev:
                assert ev.scores(vecs) == serial
                assert ev.scores([]) == []

    @pytest.mark.parametrize("cpus,jobs,workers", [(1, 4, 1), (2, 8, 2), (2, 1, 1)])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, cpus, jobs, workers):
        monkeypatch.setattr(plantfit.objective, "_usable_cpus", lambda: cpus)
        true, ctx = small_context(T=24)
        vecs = [params_to_vector(dataclasses.replace(true, eta=eta)) for eta in (0.3, 0.45, 0.6)]
        with CandidateEvaluator(ctx, SolverOptions()) as ev:
            serial = ev.scores(vecs)
        with CandidateEvaluator(ctx, SolverOptions(), jobs) as ev:
            assert ev.jobs == workers
            assert (ev._pool is None) == (workers == 1)  # one worker: no pool is started
            assert ev.scores(vecs) == serial

    @pytest.mark.parametrize("affinity,count,cpus", [
        ({0, 1}, 8, 2), (None, 4, 4), (None, None, 1)])
    def test_usable_cpus_from_affinity_else_count(self, monkeypatch, affinity, count, cpus):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert plantfit.objective._usable_cpus() == cpus

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
        assert len(calls[0][2]) == 2  # the parameter sets, after graph and market

    def test_fit_does_not_solve_the_compass_start_again(self, monkeypatch):
        true, ctx = small_context(T=24)
        calls = _count_batches(monkeypatch)
        # a negative target keeps DE from stopping early on a perfect score
        fit(ctx, de_cfg=DeConfig(population=8, generations=3, seed=1, target=-1.0),
            compass_cfg=CompassConfig(max_iterations=2))
        # the first population, three generations and one sweep for both
        # rounds of polls, none of which moves: compass search starts from
        # DE's best, which DE already scored
        assert len(calls) == 1 + 3 + 1


def out_of_reach_context(market):
    """Committed at 380 MW, 50 MW/h down: MEL 100 from period 3 is out of reach,
    so no candidate has a feasible schedule."""
    T = market.horizon
    dynamics = PlantDynamics(mel=np.where(np.arange(T) < 3, 400.0, 100.0),
                             sel=np.full(T, 50.0), ramp_up=50.0, ramp_dn=50.0)
    return FitContext.from_observed(dynamics, market, observed_of(np.full(T, 380.0)),
                                    epsilon=EPSILON)


class TestWideBatchMemory:
    def test_wide_batch_peaks_within_one_block(self, recovery_context):
        # the landscape's 25 x 25 grid at T=672: 625 candidates in one sweep
        opts = SolverOptions()
        vecs = [params_to_vector(dataclasses.replace(TRUE_PARAMS, eta=float(eta), sigma=float(sigma)))
                for eta in np.linspace(0.3, 0.7, 25) for sigma in np.linspace(0.0, 6e4, 25)]
        with CandidateEvaluator(recovery_context, opts) as ev:
            ev.scores(vecs[:2])  # the graph and numpy's first-call state, outside the measure
        with CandidateEvaluator(recovery_context, opts) as ev:
            tracemalloc.start()
            try:
                scores = ev.scores(vecs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(scores).all()
        # the sweep's state, plus each candidate's vector, memo key and score
        assert peak <= 4 * 2**20 + len(vecs) * 2**10


def _count_batches(monkeypatch) -> list:
    """Count the evaluator's calls of ``optimal_sse``; returns their list."""
    calls = []
    sweep = plantfit.objective.optimal_sse

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(plantfit.objective, "optimal_sse", counted)
    return calls


def _break_solver(monkeypatch) -> list:
    """Make the margin formula, which both the scoring sweep and a lone solve
    use, raise TypeError; returns the list of its calls."""
    calls = []

    def broken(*args):
        calls.append(args)
        raise TypeError("injected bug")

    monkeypatch.setattr(plantfit.uc, "_margin", broken)
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

    def test_final_solve_off_the_search_score_raises(self, monkeypatch):
        true, ctx = small_context(T=24)
        real = plantfit.search.evaluate_candidate
        records = []

        def one_ulp_off(*args):
            records.append(real(*args))
            return dataclasses.replace(records[-1], sse=float(np.nextafter(records[-1].sse, 1e300)))

        monkeypatch.setattr(plantfit.search, "evaluate_candidate", one_ulp_off)
        with pytest.raises(SolverError) as caught:
            fit(ctx, de_cfg=DeConfig(population=8, generations=3, seed=1),
                compass_cfg=CompassConfig(max_iterations=2))
        (record,) = records
        off = float(np.nextafter(record.sse, 1e300))
        assert str(caught.value) == (f"the search scored its best parameters {record.sse!r}, "
                                     f"but their final solve scores {off!r}")

    def test_shared_problem_error_ends_the_search(self, monkeypatch):
        true, ctx = small_context()
        power = ctx.observed.power.copy()
        power[0] = ctx.dynamics.mel[0] + 10.0  # taken as the initial power
        observed = ObservedProduction(power=power)
        ctx = FitContext.from_observed(ctx.dynamics, ctx.market, observed, epsilon=EPSILON)
        calls = _count_batches(monkeypatch)
        with pytest.raises(SolverError, match="initial power exceeds"):
            fit(ctx, de_cfg=DeConfig(population=8, generations=20, seed=1),
                compass_cfg=CompassConfig(max_iterations=2))
        # raised building the evaluator's graph: not scored +inf batch after batch
        assert len(calls) == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_wholly_infeasible_first_population_ends_the_fit(self, monkeypatch, jobs):
        ctx = out_of_reach_context(toy_market(np.full(12, 60.0), dt=1.0))
        calls = _count_batches(monkeypatch)
        batches = []
        real = CandidateEvaluator.scores

        def counted(ev, vecs):
            batches.append(len(vecs))
            return real(ev, vecs)

        monkeypatch.setattr(CandidateEvaluator, "scores", counted)
        with pytest.raises(SolverError) as caught:
            fit(ctx, de_cfg=DeConfig(population=8, generations=20, seed=1),
                compass_cfg=CompassConfig(max_iterations=5), jobs=jobs)
        assert type(caught.value) is SolverError
        assert str(caught.value) == ("no feasible schedule exists for this instance: no path "
                                     "from the initial state reaches period 3 (counting from 0)")
        # raised building the evaluator's graph: not one batch, let alone 26 of +inf
        assert batches == []
        assert calls == []

    def test_first_population_with_one_feasible_member_runs_on(self, monkeypatch):
        true, ctx = small_context(T=24)
        real = CandidateEvaluator.scores

        def one_feasible(ev, vecs):  # every member but the last scores +inf
            scores = real(ev, vecs)
            return [math.inf] * (len(scores) - 1) + scores[-1:]

        monkeypatch.setattr(CandidateEvaluator, "scores", one_feasible)
        result = fit(ctx, de_cfg=DeConfig(population=8, generations=2, seed=1),
                     compass_cfg=CompassConfig(max_iterations=1))
        assert [math.isfinite(score) for score in result.de.scores[:8]] == [False] * 7 + [True]
        assert result.evaluations > 8 * 3  # both generations and the compass polls ran

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
