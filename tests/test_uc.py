"""Inner unit-commitment solver: worked examples, properties, oracle checks."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantfit import (
    DataError,
    MarketSeries,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SolverError,
    SolverOptions,
    UcGraph,
    UcInstance,
    Violation,
    marginal_values,
    schedule_profit,
    solve_uc,
    sse,
    synthesize,
    validate_schedule,
)
import plantfit.uc
from plantfit.uc import _OFF, _first_feeders, _period_levels, _stop_markers, optimal_sse
from conftest import (
    EPSILON,
    TRUE_PARAMS,
    flat_dynamics,
    graph_of,
    loop_solve,
    random_small_instance,
    recovery_market,
    solve,
    toy_market,
    worked_example,
)
from lp_oracle import PathGraph
from oracle import enumerate_uc_oracle, step_ok


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
        for eta in (0.0, -0.5):
            with pytest.raises(ParameterError, match="eta must be positive"):
                marginal_values(params(eta=eta), market)


class TestSolveUc:
    def test_unprofitable_horizon_stays_off(self):
        market = toy_market([10.0, 5.0, 8.0, 0.0], fuel=20.0)
        inst = UcInstance(params=params(eta=0.5, sigma=100.0, phi=1.0),
                          dynamics=flat_dynamics(4, mel=100.0, sel=0.0,
                                                 ramp_up=200.0, ramp_dn=200.0),
                          market=market)
        schedule = solve(inst, SolverOptions(power_levels=5))
        assert schedule.power.tolist() == [0.0] * 4
        assert schedule.profit == 0.0

    def test_worked_example_matches_oracle(self):
        inst, opts = worked_example()
        oracle = enumerate_uc_oracle(inst, opts)
        schedule = solve(inst, opts)
        assert oracle.profit == pytest.approx(3000.0)
        assert schedule.power.tolist() == [100.0, 100.0, 0.0]
        assert schedule.profit == pytest.approx(3000.0, rel=1e-9)

    def test_positive_margins_bind_at_mel(self):
        market = toy_market([90.0, 95.0, 80.0, 99.0], fuel=10.0)
        dyn = PlantDynamics(mel=np.array([100.0, 120.0, 90.0, 110.0]),
                            sel=np.zeros(4), ramp_up=1000.0, ramp_dn=1000.0)
        inst = UcInstance(params=params(eta=0.5), dynamics=dyn, market=market,
                          initial_committed=True, initial_power=100.0)
        schedule = solve(inst, SolverOptions(power_levels=7))
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
        schedule = solve(inst, opts)
        assert schedule.power.tolist() == [90.0, 90.0]
        assert schedule.power.tobytes() == loop_solve(inst, opts)[0].tobytes()

    def test_profit_ties_prefer_fewer_committed_periods(self):
        # committed at 24 MW over 8 MW rungs up to SEL 16: schedules committed
        # for 6 and for 7 periods tie on profit (192) and on energy (80 MWh).
        # Three dear periods more: the count now decides inside a period's
        # sort too, where ranking by profit and energy alone commits 10.
        for tail, committed, profit in (([], 6, 192.0), ([40, 40, 40], 9, 3072.0)):
            prices = 16.0 + np.array([-4, 0, 0, 4, -4, 4, 0, -4, 0, 8, *tail], dtype=float)
            market = toy_market(prices, fuel=16.0)
            dyn = flat_dynamics(len(prices), mel=64.0, sel=16.0, ramp_up=8.0, ramp_dn=16.0)
            inst = UcInstance(params=params(eta=1.0), dynamics=dyn, market=market,
                              initial_committed=True, initial_power=24.0)
            opts = SolverOptions(power_levels=2)
            schedule = solve(inst, opts)
            assert schedule.power.tolist() == ([8.0, 0.0, 8.0, 16.0, 0.0, 0.0, 0.0, 8.0, 16.0,
                                                24.0] + [24.0] * len(tail))
            assert schedule.committed.sum() == committed and schedule.profit == profit
            assert schedule.power.tobytes() == loop_solve(inst, opts)[0].tobytes()

    def test_committed_start_below_sel_keeps_climbing(self):
        # entering the horizon at 10 MW, below SEL 80, on the way up: the climb
        # continues over the 30 MW rungs rather than paying for a restart
        market = toy_market([90.0] * 4, fuel=20.0)
        dyn = flat_dynamics(4, mel=100.0, sel=80.0, ramp_up=30.0, ramp_dn=30.0)
        inst = UcInstance(params=params(eta=0.5, sigma=1e5), dynamics=dyn, market=market,
                          initial_committed=True, initial_power=10.0)
        opts = SolverOptions(power_levels=3)
        schedule = solve(inst, opts)
        assert schedule.power.tolist() == [30.0, 60.0, 90.0, 100.0]
        assert schedule.profit == pytest.approx(enumerate_uc_oracle(inst, opts).profit)

    def test_profit_matches_schedule_profit_exactly(self):
        inst, opts = worked_example()
        schedule = solve(inst, opts)
        assert schedule.profit == schedule_profit(schedule, inst)

    def test_profit_off_the_dp_raises(self, monkeypatch):
        # the schedule's profit, derived again from the raw series, must match the DP's
        real = plantfit.uc._profit
        monkeypatch.setattr(plantfit.uc, "_profit", lambda *a: real(*a) + 1.0)
        with pytest.raises(SolverError, match="internal profit accounting mismatch"):
            solve(*worked_example())

    def test_empty_horizon_rejected(self):
        market = MarketSeries(grid=np.array([], dtype="datetime64[s]"),
                              w=np.array([]), f=np.array([]), e=np.array([]), dt=1.0)
        inst = UcInstance(params=params(), dynamics=flat_dynamics(0), market=market)
        with pytest.raises(SolverError, match="empty"):
            solve(inst)

    def test_length_mismatch_rejected(self):
        inst = UcInstance(params=params(), dynamics=flat_dynamics(5),
                          market=toy_market([50.0, 60.0]))
        with pytest.raises(SolverError, match="mismatch"):
            solve(inst)

    def test_initial_power_needs_commitment(self):
        inst = UcInstance(params=params(), dynamics=flat_dynamics(2),
                          market=toy_market([50.0, 60.0]),
                          initial_committed=False, initial_power=50.0)
        with pytest.raises(SolverError):
            solve(inst)


class TestSynthesize:
    def test_noiseless_matches_solver(self):
        T = 96
        market = toy_market(35.0 + 25.0 * np.sin(np.arange(T) / 4.0),
                            dt=0.5, fuel=15.0, carbon=10.0)
        dynamics = flat_dynamics(T, mel=100.0, sel=40.0, ramp_up=120.0, ramp_dn=120.0)
        p = PlantParameters(eta=0.45, sigma=500.0, phi=50.0, nu=1.0, epsilon=EPSILON)
        observed = synthesize(p, dynamics, market, SolverOptions())
        schedule = solve(UcInstance(params=p, dynamics=dynamics, market=market))
        assert np.array_equal(observed.power, schedule.power)


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
        schedule = solve(inst, opts)
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
        assert validate_schedule(solve(inst, opts), inst) == []

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
        good = solve(inst, opts)
        s = Schedule(power=good.power, committed=good.committed,
                     started=np.zeros(3, dtype=int), profit=0.0)
        assert any(v.kind == "start" for v in validate_schedule(s, inst))

    def test_climb_from_committed_zero_flagged(self):
        """A climb below SEL starts from off: a period committed at 0 MW is not off."""
        dyn = PlantDynamics(mel=np.full(2, 100.0), sel=np.array([0.0, 40.0]),
                            ramp_up=20.0, ramp_dn=20.0)
        inst = UcInstance(params=params(), dynamics=dyn, market=toy_market([50.0, 50.0]))
        s = Schedule(power=np.array([0.0, 10.0]), committed=np.array([1, 1]),
                     started=np.array([1, 0]), profit=0.0)
        assert validate_schedule(s, inst) == [Violation("sel", 1, 30.0)]

    @pytest.mark.parametrize("power, committed, sel, violation", [
        ([-5.0, 0.0], [0, 0], [0.0, 0.0], Violation("mel", 0, 5.0)),
        ([0.0, 0.0], [0, 1], [0.0, 40.0], Violation("sel", 1, 40.0)),
        ([100.0, 0.0], [1, 0], [0.0, 0.0], Violation("ramp", 1, 80.0)),
    ], ids=["negative power", "committed at zero below SEL", "ramp down"])
    def test_rule_names_kind_period_and_magnitude(self, power, committed, sel, violation):
        dyn = PlantDynamics(mel=np.full(2, 100.0), sel=np.array(sel), ramp_up=100.0,
                            ramp_dn=20.0)
        inst = UcInstance(params=params(), dynamics=dyn, market=toy_market([50.0, 50.0]))
        started = np.diff(committed, prepend=0) == 1
        s = Schedule(power=np.array(power), committed=np.array(committed), started=started,
                     profit=0.0)
        assert validate_schedule(s, inst) == [violation]

    def test_horizon_mismatch_rejected(self):
        inst, _ = worked_example()
        s = Schedule(power=np.zeros(2), committed=np.zeros(2), started=np.zeros(2), profit=0.0)
        with pytest.raises(DataError, match="schedule and instance horizon mismatch"):
            validate_schedule(s, inst)


# (power, committed) choices of the schedules the cross-check enumerates:
# off, committed at 0 MW, and committed at five levels up to MEL 100 MW
RULE_CHOICES = [(0.0, 0), (0.0, 1), (10.0, 1), (20.0, 1), (40.0, 1), (70.0, 1), (100.0, 1)]


@st.composite
def rule_instances(draw):
    """A problem of 2 or 3 periods at MEL 100 MW, SEL 0 or positive per period."""
    T = draw(st.integers(2, 3))
    dt = draw(st.sampled_from([0.5, 1.0]))
    sel = [draw(st.sampled_from([0.0, 15.0, 40.0, 85.0, 100.0])) for _ in range(T)]
    ramps = st.sampled_from([10.0, 20.0, 30.0, 60.0, 100.0, 200.0])
    dyn = PlantDynamics(mel=np.full(T, 100.0), sel=np.array(sel), ramp_up=draw(ramps),
                        ramp_dn=draw(ramps))
    committed = draw(st.booleans())
    p0 = draw(st.sampled_from([0.0, 10.0, 40.0, 100.0])) if committed else 0.0
    return UcInstance(params=params(), dynamics=dyn, market=toy_market(np.zeros(T), dt=dt),
                      initial_committed=committed, initial_power=p0)


def rules_accept(choice, inst) -> bool:
    """Whether the ``step_ok`` chain of the oracle allows every move of ``choice``."""
    dyn, dt = inst.dynamics, inst.market.dt
    prev_p, prev_c, direction = inst.initial_power, int(inst.initial_committed), 0
    for t, (pw, com) in enumerate(choice):
        direction = step_ok(t, dyn.sel[t], dyn.ramp_up * dt, dyn.ramp_dn * dt,
                            prev_p, prev_c, direction, pw, com)
        if direction is None:
            return False
        prev_p, prev_c = pw, com
    return True


class TestValidateScheduleAgainstRules:
    @settings(max_examples=100, deadline=None)
    @given(rule_instances())
    def test_feasible_exactly_when_the_rules_allow(self, inst):
        """Every schedule over ``RULE_CHOICES``: no violation exactly when the
        oracle's rules, written against the raw series, allow each move."""
        for choice in itertools.product(RULE_CHOICES, repeat=inst.market.horizon):
            power, committed = (np.array(column) for column in zip(*choice))
            started = np.diff(committed, prepend=int(inst.initial_committed)) == 1
            s = Schedule(power=power, committed=committed, started=started, profit=0.0)
            assert (validate_schedule(s, inst) == []) == rules_accept(choice, inst), choice


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
            schedule = solve(inst, opts)
            scale = max(1.0, abs(oracle.profit))
            assert abs(schedule.profit - oracle.profit) <= 1e-6 * scale


class TestProperties:
    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst, opts = random_small_instance(rng)
            assert validate_schedule(solve(inst, opts), inst) == []

    def test_profit_nonnegative_from_off(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            inst, opts = random_small_instance(rng)
            inst = UcInstance(params=inst.params, dynamics=inst.dynamics,
                              market=inst.market, initial_committed=False,
                              initial_power=0.0)
            assert solve(inst, opts).profit >= -1e-9

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
            base = solve(inst, opts)
            other = solve(scaled, opts)
            scale = max(1.0, abs(base.profit))
            assert abs(other.profit - lam * base.profit) <= 1e-6 * lam * scale
            assert validate_schedule(other, inst) == []

    def test_cost_monotonicity(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            inst, opts = random_small_instance(rng)
            base = solve(inst, opts).profit
            tol = 1e-9 * (1.0 + abs(base))
            for field in ("sigma", "phi", "nu"):
                bumped = dataclasses.replace(
                    inst.params, **{field: getattr(inst.params, field) * 1.1 + 1.0})
                worse = solve(dataclasses.replace(inst, params=bumped), opts)
                assert worse.profit <= base + tol
            richer = dataclasses.replace(inst.params,
                                         eta=min(1.0, inst.params.eta * 1.1))
            better = solve(dataclasses.replace(inst, params=richer), opts)
            assert better.profit >= base - tol

    def test_price_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst, opts = random_small_instance(rng)
            base = solve(inst, opts).profit
            tol = 1e-9 * (1.0 + abs(base))
            dearer_power = MarketSeries(grid=inst.market.grid, w=inst.market.w + 5.0,
                                        f=inst.market.f, e=inst.market.e,
                                        dt=inst.market.dt)
            up = solve(dataclasses.replace(inst, market=dearer_power), opts)
            assert up.profit >= base - tol
            dearer_fuel = MarketSeries(grid=inst.market.grid, w=inst.market.w,
                                       f=inst.market.f + 5.0, e=inst.market.e,
                                       dt=inst.market.dt)
            down = solve(dataclasses.replace(inst, market=dearer_fuel), opts)
            assert down.profit <= base + tol

    def test_deterministic_output(self):
        rng = np.random.default_rng(16)
        inst, opts = random_small_instance(rng)
        a = solve(inst, opts)
        b = solve(inst, opts)
        assert a.power.tolist() == b.power.tolist()
        assert a.profit == b.profit


@st.composite
def shared_problems(draw, max_T=14, max_candidates=6, min_T=2):
    """Several parameter sets on one small problem, for the batched sweep.

    Covers MEL dips (several state layouts with different state counts),
    SEL of zero, a committed start at an off-grid power (the hold level),
    sigma of zero, and break-even prices where every schedule ties.
    """
    T = draw(st.integers(min_T, max_T))
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
            with pytest.raises(SolverError, match="no feasible schedule exists"):
                graph_of(inst, opts)  # whatever the parameters
            return
        schedule = solve_uc(graph_of(inst, opts), inst.market, inst.params)
        assert abs(schedule.profit - oracle.profit) <= 1e-6 * max(1.0, abs(oracle.profit))
        assert validate_schedule(schedule, inst) == []


def assert_profit_order(low, high, opts):
    """``low`` solves to no more profit than ``high``, within 1e-9 relative;
    a problem with no feasible schedule raises on both sides."""
    try:
        bound = solve(high, opts).profit
    except SolverError as exc:
        assert "no feasible" in str(exc)
        with pytest.raises(SolverError, match="no feasible"):
            solve(low, opts)
        return
    assert solve(low, opts).profit <= bound + 1e-9 * (1.0 + abs(bound))


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


def ties_everywhere_problem(committed: bool, power: float):
    """Margin exactly zero at eta 0.5 but for a few periods, so many paths tie
    on profit; sigma = 0 ties a start with staying off."""
    T = 12
    w = 40.0 + np.array([0, 0, 5, 5, 0, -5, 0, 0, 5, 0, 0, -5], dtype=float)
    market = toy_market(w, dt=0.5, fuel=20.0)
    dynamics = flat_dynamics(T, mel=100.0, sel=40.0, ramp_up=120.0, ramp_dn=100.0)
    candidates = [params(eta=0.5, sigma=sigma, phi=phi)
                  for sigma in (0.0, 0.0, 250.0, 1e4) for phi in (0.0, 5.0)]
    return ([UcInstance(params=p, dynamics=dynamics, market=market,
                        initial_committed=committed, initial_power=power) for p in candidates],
            SolverOptions(power_levels=4))


def committed_start_problem():
    """Committed at 65 MW: the source holds no off state, so nothing leaves it
    paying sigma."""
    market = toy_market([60.0, 10.0, 10.0, 70.0, 80.0, 20.0], dt=1.0, fuel=20.0)
    dynamics = flat_dynamics(6, mel=100.0, sel=30.0, ramp_up=50.0, ramp_dn=40.0)
    return ([UcInstance(params=params(eta=0.5, sigma=sigma, phi=2.0), dynamics=dynamics,
                        market=market, initial_committed=True, initial_power=65.0)
             for sigma in (0.0, 300.0, 3000.0)],
            SolverOptions(power_levels=5))


def unreachable_problem():
    """Committed at 380 MW, 50 MW/h down: MEL 100 from period 3 is out of
    reach, so no schedule is feasible, whatever the parameters."""
    market = toy_market([60.0, 10.0, 10.0, 70.0, 80.0, 20.0], dt=1.0, fuel=20.0)
    dynamics = PlantDynamics(mel=np.where(np.arange(6) < 3, 400.0, 100.0),
                             sel=np.full(6, 50.0), ramp_up=50.0, ramp_dn=50.0)
    return ([UcInstance(params=params(sigma=sigma), dynamics=dynamics, market=market,
                        initial_committed=True, initial_power=380.0)
             for sigma in (0.0, 3000.0)],
            SolverOptions(power_levels=3))


# per period, observed production as a share of MEL, over shared_problems'
# longest horizon
observed_shares = st.lists(st.floats(0.0, 1.0), min_size=14, max_size=14)
SHARES = [k / 13 for k in range(14)]


@st.composite
def tie_heavy_problems(draw, min_T=3, max_T=13):
    """Several parameter sets on one small problem built so that many
    schedules tie in profit, exactly, in floating point.

    Margins are w - f at eta 1 with no variable or carbon cost: zero where
    w = f (break-even), or c where a committed level L earns L*c = phi, the
    fixed cost (coincident break-even at SEL or MEL); sigma and phi are often
    zero, or a start costs exactly what L earns in a period. MEL, SEL, prices
    and costs are small multiples of powers of two, so those ties hold in
    floating point. Covers committed starts (on the grid, off it, so that
    the held level sits out of level order in the state indices, and below
    SEL), MEL and SEL dips, and ramps slow enough to need transit rungs.
    """
    T = draw(st.integers(min_T, max_T))
    dt = draw(st.sampled_from([0.5, 1.0]))
    mel_val = draw(st.sampled_from([64.0, 96.0, 128.0]))
    mel = np.full(T, mel_val)
    sel = np.full(T, draw(st.sampled_from([0.0, 0.25, 0.5])) * mel_val)
    if draw(st.booleans()):  # a dip of MEL, and of SEL with it or not
        a = draw(st.integers(0, T - 1))
        b = draw(st.integers(a + 1, T))
        mel[a:b] *= 0.75
        sel[a:b] *= draw(st.sampled_from([1.0, 0.5, 0.0]))
    rung = sel.max() if sel.max() > 0 else mel_val
    ramp_up, ramp_dn = (draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) * rung / dt
                        for _ in range(2))
    dynamics = PlantDynamics(mel=mel, sel=sel, ramp_up=ramp_up, ramp_dn=ramp_dn)
    c = draw(st.sampled_from([1.0, 2.0, 4.0]))
    at = draw(st.sampled_from([mel_val, sel.max() or mel_val]))  # L of L*c = phi
    f = np.full(T, 16.0)
    margins = st.sampled_from([0.0, 0.0, c, c, -c, 2 * c])
    w = f + np.array(draw(st.lists(margins, min_size=T, max_size=T)))
    market = MarketSeries(grid=toy_market(np.zeros(T), dt=dt).grid, w=w, f=f,
                          e=np.zeros(T), dt=dt)
    committed = draw(st.booleans())
    share = draw(st.sampled_from([0.0, 0.375, 0.5, 0.625, 1.0, sel[0] / mel[0] / 2]))
    p0 = share * mel[0] if committed else 0.0
    candidates = [params(eta=1.0, sigma=draw(st.sampled_from([0.0, 0.0, at * c * dt])),
                         phi=draw(st.sampled_from([0.0, at * c])))
                  for _ in range(draw(st.integers(1, 4)))]
    instances = [UcInstance(params=p, dynamics=dynamics, market=market,
                            initial_committed=committed, initial_power=p0)
                 for p in candidates]
    return instances, SolverOptions(power_levels=draw(st.integers(2, 6)))


def tiny_phi_problem():
    """Off all day at a margin of -2 £/MWh, where SEL 0 lets the plant sit
    committed at 0 MW for phi 1e-8 £/h: below HiGHS's dual-feasibility
    tolerance, so the LP's path may keep several such periods."""
    T = 24
    market = toy_market(np.full(T, 50.0), dt=0.5, fuel=13.0, carbon=10.0 / 3.0)
    dynamics = flat_dynamics(T, mel=50.0, sel=0.0, ramp_up=100.0, ramp_dn=100.0)
    return ([UcInstance(params=params(eta=0.25, phi=1e-8), dynamics=dynamics, market=market,
                        initial_committed=False, initial_power=0.0)],
            SolverOptions(power_levels=2))


class TestLpOracle:
    """The sweep against a flow LP on paths that ``oracle.step_ok`` allows,
    over a day to two: T 24-96, MEL and SEL dips, SEL of zero, committed
    starts, zero costs, and ties in profit. The LP's path is optimal only to
    HiGHS's tolerances, so its profit bounds the sweep's from below; that
    the rules allow each move of the sweep's schedule bounds it from above,
    by the exact optimum."""

    @settings(max_examples=150, deadline=None)
    @given(shared_problems(min_T=24, max_T=96, max_candidates=3)
           | tie_heavy_problems(min_T=24, max_T=96))
    @example(tiny_phi_problem())
    def test_sweep_matches_the_lp_optimum(self, problem):
        instances, opts = problem
        try:
            graph = graph_of(instances[0], opts)
        except SolverError:  # then no path reaches the last period either
            with pytest.raises(SolverError, match="no path reaches period"):
                PathGraph(instances[0], opts)
            return
        paths = PathGraph(instances[0], opts)
        for inst in instances:
            schedule = solve_uc(graph, inst.market, inst.params)
            lp = paths.best_schedule(inst).profit
            assert schedule.profit >= lp - 1e-9 * max(1.0, abs(lp))
            assert rules_accept(zip(schedule.power.tolist(), schedule.committed.tolist()), inst)
            assert validate_schedule(schedule, inst) == []


def held_level_problem():
    """Committed at 48 MW, off the grid, whose held level is the last state:
    a climb to MEL by period 4 passes below 48 in index order but not in
    energy. With margins at break-even, paths through 48 and 51.2 MW tie."""
    market = toy_market(16.0 + np.array([0, 0, 0, 0, 2, 0, -1, 2], dtype=float), dt=0.5,
                        fuel=16.0)
    dynamics = flat_dynamics(8, mel=128.0, sel=0.0, ramp_up=64.0, ramp_dn=64.0)
    return ([UcInstance(params=params(eta=1.0, sigma=sigma), dynamics=dynamics,
                        market=market, initial_committed=True, initial_power=48.0)
             for sigma in (0.0, 64.0)],
            SolverOptions(power_levels=6))


def assert_matches_loop_reference(instances, opts, observed):
    """Each score-only SSE of a batch on one problem is that of the
    lone-solved schedule, bit for bit, and each lone schedule that of the
    loop reference; an infeasible candidate scores +inf and fails alone as
    in the reference, and an infeasible problem fails alike."""
    first = instances[0]
    try:
        scores = optimal_sse(graph_of(first, opts), first.market,
                             [inst.params for inst in instances], observed)
    except SolverError:  # the shared problem has no feasible schedule
        for inst in instances:
            with pytest.raises(SolverError):
                loop_solve(inst, opts)
        return
    assert len(scores) == len(instances)
    for inst, score in zip(instances, scores):
        try:
            power, committed = loop_solve(inst, opts)
        except SolverError as exc:
            assert score == math.inf
            with pytest.raises(SolverError) as alone:
                solve(inst, opts)
            assert str(alone.value) == str(exc)
            continue
        alone = solve(inst, opts)
        assert alone.power.tobytes() == power.tobytes()
        assert alone.committed.tobytes() == committed.tobytes()
        assert type(score) is float and score == sse(alone, observed)


class TestBatchedSweep:
    @settings(max_examples=200, deadline=None)
    @given(shared_problems(), observed_shares)
    @example(ties_everywhere_problem(False, 0.0), SHARES)
    @example(ties_everywhere_problem(True, 70.0), SHARES)
    @example(committed_start_problem(), SHARES)
    @example(unreachable_problem(), SHARES)
    def test_batch_matches_single_solves_and_loop_reference(self, problem, shares):
        instances, opts = problem
        observed = np.array(shares[:instances[0].market.horizon]) * instances[0].dynamics.mel
        assert_matches_loop_reference(instances, opts, observed)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems(), observed_shares)
    @example(held_level_problem(), SHARES)
    def test_tie_heavy_problems_match_the_two_tier_reference(self, problem, shares):
        # ties in profit decide most schedules here, so the sweep's tie tiers
        # must choose as the reference's three masked passes do
        instances, opts = problem
        observed = np.array(shares[:instances[0].market.horizon]) * instances[0].dynamics.mel
        assert_matches_loop_reference(instances, opts, observed)

    @pytest.mark.parametrize("committed,power", [(False, 0.0), (True, 70.0)])
    def test_ties_everywhere_match_loop_reference(self, committed, power):
        insts, opts = ties_everywhere_problem(committed, power)
        graph = graph_of(insts[0], opts)
        schedules = [solve_uc(graph, inst.market, inst.params) for inst in insts]
        starts = [bool(s.started.any()) for s in schedules]
        assert any(starts) and not all(starts)
        for inst, got in zip(insts, schedules):
            power_ref, committed_ref = loop_solve(inst, opts)
            assert got.power.tobytes() == power_ref.tobytes()
            assert got.committed.tobytes() == committed_ref.tobytes()

    def test_committed_start_has_no_start_row(self):
        insts, opts = committed_start_problem()
        graph = graph_of(insts[0], opts)
        feeds = graph._stops[graph._arc_of[0]] == 0  # [from, to]
        assert feeds[:-1].any()
        assert not feeds[1].any()
        for inst in insts:
            got = solve_uc(graph, inst.market, inst.params)
            power, committed = loop_solve(inst, opts)
            assert got.power.tobytes() == power.tobytes()
            assert got.committed.tobytes() == committed.tobytes()

    def test_bad_candidate_fails_alone(self):
        inst, opts = worked_example()
        observed = np.zeros(inst.market.horizon)
        # eta 0 is invalid; at eta 1e-320 f/eta overflows, and no profit is finite:
        # neither warns, so pytest's warnings-as-errors guard the sweep
        good, invalid, overflowed = optimal_sse(
            graph_of(inst, opts), inst.market,
            [inst.params, params(eta=0.0), params(eta=1e-320)], observed)
        with pytest.raises(SolverError, match="no schedule of finite profit at these parameters"):
            solve(dataclasses.replace(inst, params=params(eta=1e-320)), opts)
        assert good == sse(solve(inst, opts), observed)
        assert invalid == overflowed == math.inf
        with pytest.raises(ParameterError, match="eta"):  # alone, it names its error
            solve(dataclasses.replace(inst, params=params(eta=0.0)), opts)

    def test_margin_overflowing_in_one_period_fails_the_candidate(self):
        # fuel is priced in period 2 only, so only there does f/eta overflow: a
        # path that is off there and starts after it has no finite profit either
        market = dataclasses.replace(toy_market([60.0] * 6, fuel=0.0),
                                     f=np.where(np.arange(6) == 2, 20.0, 0.0))
        dyn = flat_dynamics(6, mel=100.0, sel=0.0, ramp_up=200.0, ramp_dn=200.0)
        opts = SolverOptions(power_levels=3)
        for sigma in (0.0, 1000.0):
            inst = UcInstance(params=params(eta=1e-307, sigma=sigma), dynamics=dyn, market=market)
            assert optimal_sse(graph_of(inst, opts), market, [inst.params],
                               np.zeros(6)) == [math.inf]
            with pytest.raises(SolverError, match="no schedule of finite profit"):
                solve(inst, opts)

    def test_sums_past_the_float_range_do_not_warn(self):
        # at eta 2e-305 a committed period loses a finite 1e308 and two lose -inf, so
        # staying off wins; squared errors of 1e200 MW overflow: neither warns
        inst, opts = worked_example()
        graph, p = graph_of(inst, opts), params(eta=2e-305)
        assert optimal_sse(graph, inst.market, [p, inst.params], np.zeros(3)) == [0.0, 2e4]
        assert not solve(dataclasses.replace(inst, params=p), opts).committed.any()
        assert optimal_sse(graph, inst.market, [p], np.full(3, 1e200)) == [math.inf]

    @pytest.mark.parametrize("field,value", [
        ("sigma", math.nan), ("phi", math.nan), ("nu", math.nan), ("epsilon", math.nan),
        ("sigma", -5e5), ("eta", 1.7)])
    def test_invalid_parameters_fail_alone_naming_the_field(self, field, value):
        inst, opts = worked_example()
        bad = dataclasses.replace(inst, params=dataclasses.replace(inst.params, **{field: value}))
        with pytest.raises(ParameterError, match=field):
            solve(bad, opts)
        observed = np.zeros(inst.market.horizon)
        good, failed, again = optimal_sse(graph_of(inst, opts), inst.market,
                                          [inst.params, bad.params, inst.params], observed)
        assert failed == math.inf
        assert good == again == sse(solve(inst, opts), observed)
        only_bad = optimal_sse(graph_of(inst, opts), inst.market, [bad.params] * 2, observed)
        assert only_bad == [math.inf, math.inf]

    @pytest.mark.parametrize("other", ["horizon", "dt"])
    def test_market_of_another_problem_rejected(self, other):
        inst, opts = worked_example()
        market = {"horizon": toy_market([60.0, 80.0], dt=inst.market.dt, fuel=20.0),
                  "dt": toy_market(inst.market.w, dt=inst.market.dt / 2, fuel=20.0)}[other]
        with pytest.raises(SolverError, match="market and graph mismatch"):
            optimal_sse(graph_of(inst, opts), market, [inst.params], np.zeros(market.horizon))

    def test_observed_of_another_length_rejected(self):
        inst, opts = worked_example()
        with pytest.raises(DataError, match="observed and market series length mismatch"):
            optimal_sse(graph_of(inst, opts), inst.market, [inst.params, params(eta=0.0)],
                        np.zeros(inst.market.horizon + 1))


class TestGraphChecks:
    """An empty horizon, or an initial power the plant cannot hold, is refused
    when the graph is built."""

    @pytest.mark.parametrize("T,committed,power,message", [
        (0, False, 0.0, "empty horizon"),
        (3, True, 450.0, "exceeds the first-period export limit"),
        (3, True, -1.0, "must be non-negative"),
        (3, False, 50.0, "must be zero while not committed"),
    ])
    def test_bad_problem_rejected_at_construction(self, T, committed, power, message):
        with pytest.raises(SolverError, match=message):
            UcGraph(flat_dynamics(T, mel=400.0), 1.0, SolverOptions(), committed, power)


class TestGraphSize:
    """Periods with equal (MEL, SEL) share one state layout, held once."""

    def test_year_of_flat_dynamics_holds_one_layout(self):
        graph = UcGraph(flat_dynamics(17520), 0.5, SolverOptions())
        assert len(graph.levels) == 1
        assert graph.nbytes < 64 * 2**10

    def test_shared_layout_counted_once(self):
        # a period adds only its one-byte layout and arc-table indices
        short, year = (UcGraph(flat_dynamics(T), 0.5, SolverOptions()) for T in (48, 17520))
        assert year.nbytes - short.nbytes == 2 * (17520 - 48)

    def test_one_layout_per_distinct_limits(self):
        mel = np.tile(np.repeat(np.linspace(300.0, 500.0, 10), 3), 2)
        dynamics = PlantDynamics(mel=mel, sel=np.full(60, 200.0), ramp_up=300.0, ramp_dn=300.0)
        graph = UcGraph(dynamics, 0.5, SolverOptions())
        assert len(graph.levels) == 10
        for t, limit in enumerate(mel.tolist()):
            levels, modes = _period_levels(limit, 200.0, 150.0, 150.0, 21, None)
            k = graph._layout_at[t]
            assert graph.levels[k].tobytes() == levels.tobytes()
            rows = graph._column[:len(modes)]
            assert np.array_equal(graph._on[k, rows], modes != _OFF)


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
        schedule = solve(inst, opts)
        assert schedule.power.tobytes() == power.tobytes()
        assert schedule.committed.tobytes() == committed.tobytes()

    @pytest.mark.parametrize("sel,power_levels,ramp,T", [
        (117.5, 21, 2.0, 130), (0.0, 255, 2000.0, 6)])
    def test_batch_at_the_limit_matches_lone_solves(self, sel, power_levels, ramp, T):
        # 256 states are 258 sweep rows, whose positions need 16-bit markers;
        # a start climbs 1 MW rungs for 118 periods, or jumps to any level
        dynamics = flat_dynamics(T, mel=450.0, sel=sel, ramp_up=ramp, ramp_dn=ramp)
        opts = SolverOptions(power_levels=power_levels)
        graph = UcGraph(dynamics, 0.5, opts)
        assert graph.states == 256 and graph._stops.dtype == np.uint16
        market = toy_market(np.where(np.arange(T) % 5 < 3, 90.0, 30.0), dt=0.5, fuel=20.0)
        candidates = [params(eta=eta, sigma=sigma, phi=phi)
                      for eta, sigma, phi in [(0.5, 500.0, 10.0), (0.5, 1e6, 0.0),
                                              (0.3, 500.0, 10.0), (0.6, 1e4, 50.0)]]
        observed = np.linspace(0.0, 450.0, T)
        scores = optimal_sse(graph, market, candidates, observed)
        for p, score in zip(candidates, scores):
            inst = UcInstance(params=p, dynamics=dynamics, market=market)
            power, committed = loop_solve(inst, opts)
            alone = solve_uc(graph, market, p)
            assert alone.power.tobytes() == power.tobytes()
            assert alone.committed.tobytes() == committed.tobytes()
            assert type(score) is float and score == sse(alone, observed)
        assert len(set(scores)) > 1  # some candidates start, some stay off


def scan_first_feeders(feeds, order):
    """For each candidate and target, the first k in ``order`` whose row
    feeds the target, by a plain scan."""
    return [[next(k for k, row in enumerate(ranked) if feeds[row][to])
             for to in range(len(feeds))] for ranked in order.tolist()]


class TestParentSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 258), st.integers(1, 40), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    @example(255, 3, 0.0, 1)
    @example(256, 3, 0.0, 2)
    @example(258, 40, 0.02, 3)
    @example(24, 1, 1.0, 4)
    def test_first_feeders_match_a_plain_scan(self, m, width, density, seed):
        rng = np.random.default_rng(seed)
        feeds = rng.random((m, m)) < density
        feeds[-1] = True  # the sentinel feeds every row
        order = rng.permuted(np.tile(np.arange(m), (width, 1)), axis=1)
        stops = _stop_markers(feeds)
        assert stops.dtype == (np.uint8 if m <= 255 else np.uint16)
        marks = np.full((m, width, m), 7, dtype=stops.dtype)  # whatever the buffer held
        got = _first_feeders(stops, order, np.arange(m, dtype=stops.dtype)[:, None, None], marks)
        assert got.shape == (width, m)
        assert got.tolist() == scan_first_feeders(feeds.tolist(), order)


class TestCommittedCount:
    def test_count_holds_every_committed_period(self):
        # the tie of test_profit_ties_prefer_fewer_committed_periods after `hold`
        # periods held at 24 MW: the tied counts straddle 256, past a byte
        tail = np.array([-4, 0, 0, 4, -4, 4, 0, -4, 0, 8], dtype=float)
        opts = SolverOptions(power_levels=2)
        for hold in (249, 250):
            market = toy_market(16.0 + np.concatenate((np.full(hold, 40.0), tail)), fuel=16.0)
            dyn = flat_dynamics(hold + 10, mel=64.0, sel=16.0, ramp_up=8.0, ramp_dn=16.0)
            inst = UcInstance(params=params(eta=1.0), dynamics=dyn, market=market,
                              initial_committed=True, initial_power=24.0)
            schedule = solve(inst, opts)
            assert schedule.power[hold:].tolist() == [8.0, 0.0, 8.0, 16.0, 0.0, 0.0, 0.0,
                                                      8.0, 16.0, 24.0]
            assert schedule.committed.sum() == hold + 6
            assert schedule.power.tobytes() == loop_solve(inst, opts)[0].tobytes()


@pytest.fixture(scope="module")
def two_week_batch():
    """32 candidates on the two-week recovery problem (24 states a period)."""
    market = recovery_market(672)
    dynamics = flat_dynamics(672)
    rng = np.random.default_rng(3)
    candidates = [dataclasses.replace(
        TRUE_PARAMS, eta=float(eta), sigma=float(sigma), phi=float(phi), nu=float(nu))
        for eta, sigma, phi, nu in zip(rng.uniform(0.3, 0.7, 32), rng.uniform(0.0, 6e4, 32),
                                       rng.uniform(0.0, 3e3, 32), rng.uniform(0.0, 5.0, 32))]
    return UcGraph(dynamics, market.dt, SolverOptions()), market, candidates


class TestTwoWeekBatch:
    def test_batch_peaks_within_the_block_budget(self, two_week_batch):
        # one sweep scores the batch, holding a few rows of states per candidate
        graph, market, candidates = two_week_batch
        observed = solve_uc(graph, market, TRUE_PARAMS).power
        optimal_sse(graph, market, candidates, observed)
        tracemalloc.start()
        try:
            scores = optimal_sse(graph, market, candidates, observed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(type(score) is float for score in scores)
        assert peak <= 4 * 2**20

    def test_profits_exactly_those_of_the_schedules(self, two_week_batch):
        graph, market, candidates = two_week_batch
        instances = [UcInstance(params=p, dynamics=flat_dynamics(672), market=market)
                     for p in candidates]
        schedules = [solve_uc(graph, market, inst.params) for inst in instances]
        assert sum(s.started.sum() > 0 for s in schedules) > 16
        for schedule, inst in zip(schedules, instances):
            assert schedule.profit == schedule_profit(schedule, inst)


class TestYearHorizon:
    def test_solves_optimal_against_each_other_and_convex_in_the_costs(self):
        # a year on one graph, committed counts from a few to over 2**14: each
        # schedule is feasible and earns the most at its own parameters; the
        # optimal profit, a maximum of functions linear in (1/eta, sigma, phi,
        # nu), is convex there; and each batch score is its schedule's SSE
        T = 17520
        market, dynamics = recovery_market(T), flat_dynamics(T)
        graph = UcGraph(dynamics, market.dt, SolverOptions())
        rng = np.random.default_rng(11)
        candidates = [dataclasses.replace(
            TRUE_PARAMS, eta=float(eta), sigma=float(sigma), phi=float(phi), nu=float(nu))
            for eta, sigma, phi, nu in zip(rng.uniform(0.45, 0.55, 8), rng.uniform(0.0, 3e4, 8),
                                           rng.uniform(0.0, 2e3, 8), rng.uniform(0.0, 4.0, 8))]
        instances = [UcInstance(params=p, dynamics=dynamics, market=market) for p in candidates]
        schedules = [solve_uc(graph, market, p) for p in candidates]
        counts = sorted(int(s.committed.sum()) for s in schedules)
        assert counts[0] < 2**8 and counts[-1] > 2**14
        for inst, own in zip(instances, schedules):
            assert validate_schedule(own, inst) == []
            for other in schedules:
                assert schedule_profit(other, inst) <= own.profit + 1e-9 * abs(own.profit)
        for a, b in ((0, 1), (2, 3), (4, 5)):
            ends = candidates[a], candidates[b]
            mid = dataclasses.replace(
                TRUE_PARAMS, eta=2.0 / (1.0 / ends[0].eta + 1.0 / ends[1].eta),
                **{name: (getattr(ends[0], name) + getattr(ends[1], name)) / 2.0
                   for name in ("sigma", "phi", "nu")})
            chord = (schedules[a].profit + schedules[b].profit) / 2.0
            assert solve_uc(graph, market, mid).profit <= chord + 1e-9 * abs(chord)
        observed = np.resize([0.0, 250.0, 480.0, 500.0], T)
        scores = optimal_sse(graph, market, candidates, observed)
        assert scores == [sse(s, observed) for s in schedules]
