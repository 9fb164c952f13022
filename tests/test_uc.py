"""Inner unit-commitment solver: worked examples, properties, oracle checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantfit import (
    MarketSeries,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SolverError,
    SolverOptions,
    UcGraph,
    UcInstance,
    marginal_values,
    schedule_profit,
    solve_uc,
    solve_uc_batch,
    validate_schedule,
)
from conftest import (
    TRUE_PARAMS,
    flat_dynamics,
    loop_solve,
    random_small_instance,
    recovery_market,
    toy_market,
    worked_example,
)
from oracle import enumerate_uc_oracle


def params(eta=0.5, sigma=0.0, phi=0.0, nu=0.0, epsilon=0.0):
    return PlantParameters(eta=eta, sigma=sigma, phi=phi, nu=nu, epsilon=epsilon)


class TestMarginalValue:
    def test_direct_arithmetic(self):
        market = toy_market([50.0], fuel=20.0, carbon=0.0)
        assert marginal_values(params(eta=0.5), market)[0] == pytest.approx(10.0)

    def test_unit_efficiency_passthrough(self):
        market = toy_market([77.5], fuel=0.0, carbon=0.0)
        assert marginal_values(params(eta=1.0), market)[0] == pytest.approx(77.5)

    def test_all_terms(self):
        market = toy_market([50.0], fuel=20.0, carbon=25.0)
        p = params(eta=0.5, nu=2.0, epsilon=0.2)
        assert marginal_values(p, market)[0] == pytest.approx(-2.0)

    def test_vectorized_matches_scalar(self):
        market = toy_market([50.0, 60.0, 30.0], fuel=18.0, carbon=12.0)
        p = params(eta=0.42, nu=1.5, epsilon=0.3)
        vec = marginal_values(p, market)
        for t in range(3):
            scalar = (float(market.w[t]) - p.nu - float(market.f[t]) / p.eta
                      - float(market.e[t]) * p.epsilon / p.eta)
            assert vec[t] == pytest.approx(scalar)

    def test_eta_must_be_positive(self):
        market = toy_market([50.0])
        with pytest.raises(ParameterError):
            marginal_values(params(eta=0.0), market)


class TestSolveUc:
    def test_unprofitable_horizon_stays_off(self):
        market = toy_market([10.0, 5.0, 8.0, 0.0], fuel=20.0)
        inst = UcInstance(params=params(eta=0.5, sigma=100.0, phi=1.0),
                          dynamics=flat_dynamics(4, mel=100.0, sel=0.0,
                                                 ramp_up=200.0, ramp_dn=200.0),
                          market=market)
        schedule = solve_uc(inst, SolverOptions(power_levels=5))
        assert schedule.power.tolist() == [0.0] * 4
        assert schedule.profit == 0.0

    def test_worked_example_matches_oracle(self):
        inst, opts = worked_example()
        oracle = enumerate_uc_oracle(inst, opts)
        schedule = solve_uc(inst, opts)
        assert oracle.profit == pytest.approx(3000.0)
        assert schedule.power.tolist() == [100.0, 100.0, 0.0]
        assert schedule.profit == pytest.approx(3000.0, rel=1e-9)

    def test_positive_margins_bind_at_mel(self):
        market = toy_market([90.0, 95.0, 80.0, 99.0], fuel=10.0)
        dyn = PlantDynamics(mel=np.array([100.0, 120.0, 90.0, 110.0]),
                            sel=np.zeros(4), ramp_up=1000.0, ramp_dn=1000.0)
        inst = UcInstance(params=params(eta=0.5), dynamics=dyn, market=market,
                          initial_committed=True, initial_power=100.0)
        schedule = solve_uc(inst, SolverOptions(power_levels=7))
        assert schedule.power.tolist() == dyn.mel.tolist()

    def test_profit_ties_prefer_less_energy(self):
        # zero margin, no fixed or start-up cost: every schedule earns 0; the
        # held level 90 sits after MEL in state order, so this is not index order
        market = toy_market([40.0, 40.0], fuel=20.0)
        dyn = PlantDynamics(mel=np.full(2, 100.0), sel=np.full(2, 30.0),
                            ramp_up=150.0, ramp_dn=20.0)
        inst = UcInstance(params=params(eta=0.5), dynamics=dyn, market=market,
                          initial_committed=True, initial_power=90.0)
        opts = SolverOptions(power_levels=3)
        schedule = solve_uc(inst, opts)
        assert schedule.power.tolist() == [90.0, 90.0]
        assert schedule.power.tobytes() == loop_solve(inst, opts)[0].tobytes()

    def test_committed_start_below_sel_keeps_climbing(self):
        # entering the horizon at 10 MW, below SEL 80, on the way up: the climb
        # continues over the 30 MW rungs rather than paying for a restart
        market = toy_market([90.0] * 4, fuel=20.0)
        dyn = flat_dynamics(4, mel=100.0, sel=80.0, ramp_up=30.0, ramp_dn=30.0)
        inst = UcInstance(params=params(eta=0.5, sigma=1e5), dynamics=dyn, market=market,
                          initial_committed=True, initial_power=10.0)
        opts = SolverOptions(power_levels=3)
        schedule = solve_uc(inst, opts)
        assert schedule.power.tolist() == [30.0, 60.0, 90.0, 100.0]
        assert schedule.profit == pytest.approx(enumerate_uc_oracle(inst, opts).profit)

    def test_profit_matches_schedule_profit_exactly(self):
        inst, opts = worked_example()
        schedule = solve_uc(inst, opts)
        assert schedule.profit == schedule_profit(schedule, inst)

    def test_empty_horizon_rejected(self):
        market = MarketSeries(grid=np.array([], dtype="datetime64[s]"),
                              w=np.array([]), f=np.array([]), e=np.array([]), dt=1.0)
        inst = UcInstance(params=params(), dynamics=flat_dynamics(0), market=market)
        with pytest.raises(SolverError, match="empty"):
            solve_uc(inst)

    def test_length_mismatch_rejected(self):
        inst = UcInstance(params=params(), dynamics=flat_dynamics(5),
                          market=toy_market([50.0, 60.0]))
        with pytest.raises(SolverError, match="mismatch"):
            solve_uc(inst)

    def test_initial_power_needs_commitment(self):
        inst = UcInstance(params=params(), dynamics=flat_dynamics(2),
                          market=toy_market([50.0, 60.0]),
                          initial_committed=False, initial_power=50.0)
        with pytest.raises(SolverError):
            solve_uc(inst)


class TestScheduleProfit:
    def test_all_off_is_zero(self):
        inst, _ = worked_example()
        off = Schedule(power=np.zeros(3), committed=np.zeros(3, dtype=int),
                       started=np.zeros(3, dtype=int), profit=0.0)
        assert schedule_profit(off, inst) == 0.0

    def test_single_period_with_start(self):
        market = toy_market([55.0], dt=0.5, fuel=20.0)  # margin 10 at eta=0.5, nu=5
        inst = UcInstance(params=params(eta=0.5, nu=5.0, phi=2.0, sigma=50.0),
                          dynamics=flat_dynamics(1, mel=100.0, sel=0.0,
                                                 ramp_up=400.0, ramp_dn=400.0),
                          market=market)
        s = Schedule(power=np.array([100.0]), committed=np.array([1]),
                     started=np.array([1]), profit=0.0)
        assert schedule_profit(s, inst) == pytest.approx(449.0)

    def test_solver_output_cross_checks_oracle(self):
        inst, opts = worked_example()
        schedule = solve_uc(inst, opts)
        oracle = enumerate_uc_oracle(inst, opts)
        assert schedule_profit(schedule, inst) == pytest.approx(oracle.profit, rel=1e-9)

    def test_length_mismatch_rejected(self):
        inst, _ = worked_example()
        s = Schedule(power=np.zeros(2), committed=np.zeros(2, dtype=int),
                     started=np.zeros(2, dtype=int), profit=0.0)
        with pytest.raises(Exception, match="mismatch"):
            schedule_profit(s, inst)


class TestValidateSchedule:
    def test_solver_output_is_feasible(self):
        inst, opts = worked_example()
        assert validate_schedule(solve_uc(inst, opts), inst) == []

    def test_power_while_off_flagged(self):
        inst, _ = worked_example()
        s = Schedule(power=np.array([50.0, 0.0, 0.0]),
                     committed=np.array([0, 0, 0]),
                     started=np.array([0, 0, 0]), profit=0.0)
        violations = validate_schedule(s, inst)
        assert any(v.kind == "mel" and v.period == 0 for v in violations)

    def test_spurious_start_while_off_flagged(self):
        inst, _ = worked_example()
        s = Schedule(power=np.zeros(3), committed=np.zeros(3, dtype=int),
                     started=np.array([0, 1, 0]), profit=0.0)
        assert any(v.kind == "start" and v.period == 1
                   for v in validate_schedule(s, inst))

    def test_ramp_violation_magnitude(self):
        market = toy_market([50.0, 50.0], dt=1.0)
        dyn = flat_dynamics(2, mel=100.0, sel=0.0, ramp_up=40.0, ramp_dn=40.0)
        inst = UcInstance(params=params(), dynamics=dyn, market=market)
        s = Schedule(power=np.array([0.0, 100.0]), committed=np.array([0, 1]),
                     started=np.array([0, 1]), profit=0.0)
        violations = validate_schedule(s, inst)
        ramp = [v for v in violations if v.kind == "ramp"]
        assert ramp and ramp[0].period == 1
        assert ramp[0].magnitude == pytest.approx(60.0)

    def test_dwelling_below_sel_flagged(self):
        market = toy_market([50.0] * 4, dt=1.0)
        dyn = flat_dynamics(4, mel=100.0, sel=80.0, ramp_up=100.0, ramp_dn=100.0)
        inst = UcInstance(params=params(), dynamics=dyn, market=market)
        s = Schedule(power=np.array([50.0, 50.0, 80.0, 80.0]),
                     committed=np.array([1, 1, 1, 1]),
                     started=np.array([1, 0, 0, 0]), profit=0.0)
        assert any(v.kind == "sel" for v in validate_schedule(s, inst))

    def test_monotone_start_trajectory_accepted(self):
        market = toy_market([50.0] * 4, dt=1.0)
        dyn = flat_dynamics(4, mel=100.0, sel=80.0, ramp_up=30.0, ramp_dn=30.0)
        inst = UcInstance(params=params(), dynamics=dyn, market=market)
        s = Schedule(power=np.array([30.0, 60.0, 90.0, 100.0]),
                     committed=np.ones(4, dtype=int),
                     started=np.array([1, 0, 0, 0]), profit=0.0)
        assert validate_schedule(s, inst) == []

    def test_missing_start_flag_flagged(self):
        inst, opts = worked_example()
        good = solve_uc(inst, opts)
        s = Schedule(power=good.power, committed=good.committed,
                     started=np.zeros(3, dtype=int), profit=0.0)
        assert any(v.kind == "start" for v in validate_schedule(s, inst))


class TestOracle:
    def test_worked_example_value(self):
        inst, opts = worked_example()
        assert enumerate_uc_oracle(inst, opts).profit == pytest.approx(3000.0)

    def test_unprofitable_stays_off(self):
        market = toy_market([10.0, 5.0, 12.0], fuel=20.0)
        inst = UcInstance(params=params(sigma=10.0), dynamics=flat_dynamics(3, mel=80.0, sel=0.0),
                          market=market)
        schedule = enumerate_uc_oracle(inst, SolverOptions(power_levels=3))
        assert schedule.power.tolist() == [0.0, 0.0, 0.0]

    def test_large_instances_refused(self):
        market = toy_market([50.0] * 12, dt=0.5)
        inst = UcInstance(params=params(), dynamics=flat_dynamics(12), market=market)
        with pytest.raises(SolverError, match="too large"):
            enumerate_uc_oracle(inst, SolverOptions(power_levels=3))
        with pytest.raises(SolverError, match="too large"):
            enumerate_uc_oracle(
                UcInstance(params=params(), dynamics=flat_dynamics(4),
                           market=toy_market([50.0] * 4)),
                SolverOptions(power_levels=8))

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(321)
        for _ in range(40):
            inst, opts = random_small_instance(rng)
            oracle = enumerate_uc_oracle(inst, opts)
            schedule = solve_uc(inst, opts)
            scale = max(1.0, abs(oracle.profit))
            assert abs(schedule.profit - oracle.profit) <= 1e-6 * scale


class TestProperties:
    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst, opts = random_small_instance(rng)
            assert validate_schedule(solve_uc(inst, opts), inst) == []

    def test_profit_nonnegative_from_off(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            inst, opts = random_small_instance(rng)
            inst = UcInstance(params=inst.params, dynamics=inst.dynamics,
                              market=inst.market, initial_committed=False,
                              initial_power=0.0)
            assert solve_uc(inst, opts).profit >= -1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        lam = 2.7
        for _ in range(20):
            inst, opts = random_small_instance(rng)
            scaled_market = MarketSeries(grid=inst.market.grid,
                                         w=inst.market.w * lam,
                                         f=inst.market.f * lam,
                                         e=inst.market.e * lam,
                                         dt=inst.market.dt)
            scaled_params = dataclasses.replace(inst.params,
                                                sigma=inst.params.sigma * lam,
                                                phi=inst.params.phi * lam,
                                                nu=inst.params.nu * lam)
            scaled = UcInstance(params=scaled_params, dynamics=inst.dynamics,
                                market=scaled_market,
                                initial_committed=inst.initial_committed,
                                initial_power=inst.initial_power)
            base = solve_uc(inst, opts)
            other = solve_uc(scaled, opts)
            scale = max(1.0, abs(base.profit))
            assert abs(other.profit - lam * base.profit) <= 1e-6 * lam * scale
            assert validate_schedule(other, inst) == []

    def test_cost_monotonicity(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            inst, opts = random_small_instance(rng)
            base = solve_uc(inst, opts).profit
            tol = 1e-9 * (1.0 + abs(base))
            for field in ("sigma", "phi", "nu"):
                bumped = dataclasses.replace(
                    inst.params, **{field: getattr(inst.params, field) * 1.1 + 1.0})
                worse = solve_uc(UcInstance(params=bumped, dynamics=inst.dynamics,
                                            market=inst.market,
                                            initial_committed=inst.initial_committed,
                                            initial_power=inst.initial_power), opts)
                assert worse.profit <= base + tol
            richer = dataclasses.replace(inst.params,
                                         eta=min(1.0, inst.params.eta * 1.1))
            better = solve_uc(UcInstance(params=richer, dynamics=inst.dynamics,
                                         market=inst.market,
                                         initial_committed=inst.initial_committed,
                                         initial_power=inst.initial_power), opts)
            assert better.profit >= base - tol

    def test_price_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst, opts = random_small_instance(rng)
            base = solve_uc(inst, opts).profit
            tol = 1e-9 * (1.0 + abs(base))
            dearer_power = MarketSeries(grid=inst.market.grid, w=inst.market.w + 5.0,
                                        f=inst.market.f, e=inst.market.e,
                                        dt=inst.market.dt)
            up = solve_uc(UcInstance(params=inst.params, dynamics=inst.dynamics,
                                     market=dearer_power,
                                     initial_committed=inst.initial_committed,
                                     initial_power=inst.initial_power), opts)
            assert up.profit >= base - tol
            dearer_fuel = MarketSeries(grid=inst.market.grid, w=inst.market.w,
                                       f=inst.market.f + 5.0, e=inst.market.e,
                                       dt=inst.market.dt)
            down = solve_uc(UcInstance(params=inst.params, dynamics=inst.dynamics,
                                       market=dearer_fuel,
                                       initial_committed=inst.initial_committed,
                                       initial_power=inst.initial_power), opts)
            assert down.profit <= base + tol

    def test_deterministic_output(self):
        rng = np.random.default_rng(16)
        inst, opts = random_small_instance(rng)
        a = solve_uc(inst, opts)
        b = solve_uc(inst, opts)
        assert a.power.tolist() == b.power.tolist()
        assert a.profit == b.profit


@st.composite
def shared_problems(draw, max_T=14, max_candidates=6):
    """Several parameter sets on one small problem, for the batched sweep.

    Covers MEL dips (several state layouts with different state counts),
    SEL of zero, a committed start at an off-grid power (the hold level),
    sigma of zero, and break-even prices where every schedule ties.
    """
    T = draw(st.integers(2, max_T))
    dt = draw(st.sampled_from([0.5, 1.0]))
    mel_val = draw(st.floats(50.0, 150.0))
    mel = np.full(T, mel_val)
    if draw(st.booleans()):
        a = draw(st.integers(0, T - 1))
        b = draw(st.integers(a + 1, T))
        mel[a:b] *= draw(st.floats(0.5, 0.9))
    sel = np.full(T, draw(st.sampled_from([0.0, 0.3, 0.6])) * mel.min())
    r_up = draw(st.floats(0.2, 3.0)) * mel_val / dt
    r_dn = draw(st.floats(0.2, 3.0)) * mel_val / dt
    if sel.max() > 0:  # keep transit ladders to a few rungs
        r_up = max(r_up, sel.max() / (3 * dt) * 1.05)
        r_dn = max(r_dn, sel.max() / (3 * dt) * 1.05)
    dynamics = PlantDynamics(mel=mel, sel=sel, ramp_up=r_up, ramp_dn=r_dn)
    break_even = draw(st.booleans())
    if break_even:  # margin exactly zero at eta 0.5, nu 0, epsilon 0, bar a few periods
        steps = st.sampled_from([0.0, 0.0, 5.0, -5.0])
        w = 40.0 + np.array(draw(st.lists(steps, min_size=T, max_size=T)))
        f, e = np.full(T, 20.0), np.zeros(T)
    else:
        prices = st.lists(st.floats(10.0, 90.0), min_size=T, max_size=T)
        w = np.full(T, 50.0) if draw(st.booleans()) else np.array(draw(prices))
        f = np.full(T, draw(st.floats(10.0, 30.0)))
        e = np.array(draw(prices)) / 3.0
    market = MarketSeries(grid=toy_market(np.zeros(T), dt=dt).grid, w=w, f=f, e=e, dt=dt)
    committed = draw(st.booleans())
    p0 = draw(st.floats(0.0, 1.0)) * mel[0] if committed else 0.0
    costs = st.sampled_from([0.0]) | st.floats(0.0, 40.0 * mel_val)
    instances = []
    for _ in range(draw(st.integers(1, max_candidates))):
        if break_even:
            p = params(eta=0.5, sigma=draw(costs), phi=draw(costs) / 100.0)
        else:
            p = params(eta=draw(st.floats(0.25, 0.65)), sigma=draw(costs),
                       phi=draw(costs) / 100.0, nu=draw(st.floats(0.0, 10.0)),
                       epsilon=draw(st.floats(0.0, 0.5)))
        instances.append(UcInstance(params=p, dynamics=dynamics, market=market,
                                    initial_committed=committed, initial_power=p0))
    return instances, SolverOptions(power_levels=draw(st.integers(2, 6)))


class TestOracleProperty:
    """Solver against the enumeration oracle on drawn small problems: T <= 6,
    up to 6 levels, off and committed starts at off-grid powers."""

    @settings(max_examples=100, deadline=None)
    @given(shared_problems(max_T=6, max_candidates=1))
    def test_solver_matches_oracle(self, problem):
        (inst,), opts = problem
        try:
            oracle = enumerate_uc_oracle(inst, opts)
        except SolverError:  # no feasible schedule from this initial condition
            with pytest.raises(SolverError):
                solve_uc(inst, opts)
            return
        schedule = solve_uc(inst, opts)
        assert abs(schedule.profit - oracle.profit) <= 1e-6 * max(1.0, abs(oracle.profit))
        assert validate_schedule(schedule, inst) == []


def assert_profit_order(low, high, opts):
    """``low`` solves to no more profit than ``high``, within 1e-9 relative;
    a problem with no feasible schedule raises on both sides."""
    try:
        bound = solve_uc(high, opts).profit
    except SolverError as exc:
        assert "no feasible" in str(exc)
        with pytest.raises(SolverError, match="no feasible"):
            solve_uc(low, opts)
        return
    assert solve_uc(low, opts).profit <= bound + 1e-9 * (1.0 + abs(bound))


class TestMonotonicityProperty:
    """Profit order on drawn problems: a higher cost never raises the optimal
    profit, and higher electricity prices never lower it."""

    @settings(max_examples=100, deadline=None)
    @given(shared_problems(), st.sampled_from(["sigma", "phi", "nu"]), st.floats(0.0, 1e4))
    def test_higher_cost_never_raises_profit(self, problem, field, rise):
        instances, opts = problem
        for inst in instances:
            dearer = dataclasses.replace(
                inst.params, **{field: getattr(inst.params, field) + rise})
            assert_profit_order(dataclasses.replace(inst, params=dearer), inst, opts)

    @settings(max_examples=100, deadline=None)
    @given(shared_problems(), st.data())
    def test_higher_electricity_prices_never_lower_profit(self, problem, data):
        instances, opts = problem
        market = instances[0].market
        rise = data.draw(st.lists(st.floats(0.0, 50.0), min_size=market.horizon,
                                  max_size=market.horizon))
        richer = dataclasses.replace(market, w=market.w + np.array(rise))
        for inst in instances:
            assert_profit_order(inst, dataclasses.replace(inst, market=richer), opts)


class TestBatchedSweep:
    @settings(max_examples=200, deadline=None)
    @given(shared_problems())
    def test_batch_matches_single_solves_and_loop_reference(self, problem):
        instances, opts = problem
        first = instances[0]
        graph = UcGraph(first.dynamics, first.market.dt, opts,
                        first.initial_committed, first.initial_power)
        try:
            batch = solve_uc_batch(instances, opts, graph=graph)
        except SolverError:  # the shared problem has no feasible start
            for inst in instances:
                with pytest.raises(SolverError):
                    loop_solve(inst, opts)
            return
        assert len(batch) == len(instances)
        for inst, got in zip(instances, batch):
            try:
                power, committed = loop_solve(inst, opts)
            except SolverError as exc:
                assert isinstance(got, SolverError) and str(got) == str(exc)
                continue
            alone = solve_uc(inst, opts)
            for schedule in (got, alone):
                assert schedule.power.tobytes() == power.tobytes()
                assert schedule.committed.tobytes() == committed.tobytes()
            assert got.started.tobytes() == alone.started.tobytes()
            assert got.profit == alone.profit

    def test_block_size_does_not_change_results(self, monkeypatch):
        import plantfit.uc as uc

        rng = np.random.default_rng(17)
        inst, opts = random_small_instance(rng)
        instances = [dataclasses.replace(inst, params=dataclasses.replace(
            inst.params, sigma=float(s), phi=float(s) / 50.0))
            for s in rng.uniform(0.0, 4000.0, 9)]
        whole = solve_uc_batch(instances, opts)
        monkeypatch.setattr(uc, "_BLOCK_BYTES", 1)  # one candidate per block
        for a, b in zip(whole, solve_uc_batch(instances, opts)):
            assert a.power.tobytes() == b.power.tobytes()
            assert a.profit == b.profit

    def test_bad_candidate_fails_alone(self):
        inst, opts = worked_example()
        bad = dataclasses.replace(inst, params=params(eta=0.0))
        good, failed = solve_uc_batch([inst, bad], opts)
        assert good.profit == solve_uc(inst, opts).profit
        assert isinstance(failed, ParameterError)

    @pytest.mark.parametrize("field,value", [
        ("sigma", math.nan), ("phi", math.nan), ("nu", math.nan), ("epsilon", math.nan),
        ("sigma", -5e5), ("eta", 1.7)])
    def test_invalid_parameters_fail_alone_naming_the_field(self, field, value):
        inst, opts = worked_example()
        bad = dataclasses.replace(inst, params=dataclasses.replace(inst.params, **{field: value}))
        with pytest.raises(ParameterError, match=field):
            solve_uc(bad, opts)
        good, failed, again = solve_uc_batch([inst, bad, inst], opts)
        assert isinstance(failed, ParameterError) and field in str(failed)
        assert good.profit == again.profit == solve_uc(inst, opts).profit

    @pytest.mark.parametrize("other", ["dynamics", "dt", "initial state", "options"])
    def test_graph_of_another_problem_rejected(self, other):
        # a graph for MEL 250 would solve this MEL 400 instance over the wrong levels
        T = 6
        market = toy_market([60.0, 80.0, 90.0, 85.0, 70.0, 50.0], dt=1.0, fuel=20.0)
        dynamics = flat_dynamics(T, mel=400.0, sel=100.0, ramp_up=500.0, ramp_dn=500.0)
        inst = UcInstance(params=params(eta=0.5, sigma=5000.0, phi=100.0),
                          dynamics=dynamics, market=market)
        opts = SolverOptions(power_levels=5)
        graph_args = {
            "dynamics": (flat_dynamics(T, mel=250.0, sel=100.0, ramp_up=500.0, ramp_dn=500.0),
                         1.0, opts),
            "dt": (dynamics, 0.5, opts),
            "initial state": (dynamics, 1.0, opts, True, 300.0),
            "options": (dynamics, 1.0, SolverOptions(power_levels=6)),
        }[other]
        with pytest.raises(SolverError, match="graph was built for other"):
            solve_uc(inst, opts, graph=UcGraph(*graph_args))
        own = solve_uc(inst, opts, graph=UcGraph(dynamics, 1.0, opts))
        assert own.profit == solve_uc(inst, opts).profit

    def test_instances_must_share_the_problem(self):
        inst, opts = worked_example()
        other = dataclasses.replace(inst, initial_committed=True, initial_power=100.0)
        with pytest.raises(SolverError, match="share"):
            solve_uc_batch([inst, other], opts)


class TestStateBound:
    def test_slow_ramp_rejected_naming_its_causes(self):
        # 199 rungs of 2 MW below SEL 400: 420 states
        dynamics = flat_dynamics(4, mel=450.0, sel=400.0, ramp_up=4.0, ramp_dn=4.0)
        with pytest.raises(SolverError, match=r"more than 256 states: SEL 400 MW over "
                                              r"ramp×dt steps of 2 MW up.*power_levels 21"):
            UcGraph(dynamics, 0.5, SolverOptions())

    def test_endless_ladder_rejected(self):
        dynamics = flat_dynamics(2, mel=450.0, sel=400.0, ramp_up=1e-300, ramp_dn=1e-300)
        with pytest.raises(SolverError, match="more than 256 states"):
            UcGraph(dynamics, 0.5, SolverOptions())

    @pytest.mark.parametrize("sel,power_levels,states", [
        (117.5, 21, 256), (118.5, 21, 258), (0.0, 255, 256), (0.0, 256, 257)])
    def test_limit_is_256_states(self, sel, power_levels, states):
        # 1 MW rungs: 1 off state, 2 per rung below SEL, the stable levels
        T = 3
        dynamics = flat_dynamics(T, mel=450.0, sel=sel, ramp_up=2.0, ramp_dn=2.0)
        opts = SolverOptions(power_levels=power_levels)
        if states > 256:
            with pytest.raises(SolverError, match="more than 256 states"):
                UcGraph(dynamics, 0.5, opts)
            return
        assert UcGraph(dynamics, 0.5, opts).states == states
        market = toy_market([60.0, 20.0, 90.0], dt=0.5, fuel=20.0)
        inst = UcInstance(params=params(eta=0.5, sigma=500.0, phi=10.0),
                          dynamics=dynamics, market=market)
        power, committed = loop_solve(inst, opts)
        schedule = solve_uc(inst, opts)
        assert schedule.power.tobytes() == power.tobytes()
        assert schedule.committed.tobytes() == committed.tobytes()


@pytest.fixture(scope="module")
def two_week_batch():
    """32 candidates on the two-week recovery problem (24 states a period)."""
    market = recovery_market(672)
    dynamics = flat_dynamics(672)
    rng = np.random.default_rng(3)
    instances = [UcInstance(params=dataclasses.replace(
        TRUE_PARAMS, eta=float(eta), sigma=float(sigma), phi=float(phi), nu=float(nu)),
        dynamics=dynamics, market=market)
        for eta, sigma, phi, nu in zip(rng.uniform(0.3, 0.7, 32), rng.uniform(0.0, 6e4, 32),
                                       rng.uniform(0.0, 3e3, 32), rng.uniform(0.0, 5.0, 32))]
    opts = SolverOptions()
    return instances, opts, UcGraph(dynamics, market.dt, opts)


class TestTwoWeekBatch:
    def test_batch_peaks_within_the_block_budget(self, two_week_batch):
        import plantfit.uc as uc

        instances, opts, graph = two_week_batch
        solve_uc_batch(instances, opts, graph)
        tracemalloc.start()
        try:
            solve_uc_batch(instances, opts, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= uc._BLOCK_BYTES

    def test_profits_exactly_those_of_the_schedules(self, two_week_batch):
        instances, opts, graph = two_week_batch
        schedules = solve_uc_batch(instances, opts, graph)
        assert sum(s.started.sum() > 0 for s in schedules) > 16
        for schedule, inst in zip(schedules, instances):
            assert schedule.profit == schedule_profit(schedule, inst)
