"""Shared builders: toy instances, randomized generators, recovery fixtures."""
import numpy as np
import pytest

from plantfit import (
    FitContext,
    MarketSeries,
    PlantDynamics,
    PlantParameters,
    SolverError,
    SolverOptions,
    UcGraph,
    UcInstance,
    make_grid,
    solve_uc,
    synthesize,
)

EPSILON = 0.2
DAY = 48  # half-hour settlement periods per day

# generator parameters for the closed-loop recovery fixtures
TRUE_PARAMS = PlantParameters(eta=0.5, sigma=15000.0, phi=1000.0, nu=2.0,
                              epsilon=EPSILON)


def flat_dynamics(T, mel=500.0, sel=200.0, ramp_up=300.0, ramp_dn=300.0):
    return PlantDynamics(mel=np.full(T, float(mel)), sel=np.full(T, float(sel)),
                         ramp_up=ramp_up, ramp_dn=ramp_dn)


def toy_market(w, dt=1.0, fuel=20.0, carbon=0.0, start="2018-01-01T00:00:00Z"):
    w = np.asarray(w, dtype=float)
    T = len(w)
    grid = make_grid(start, T, dt)
    return MarketSeries(grid=grid, w=w, f=np.full(T, fuel),
                        e=np.full(T, carbon), dt=dt)


def graph_of(instance: UcInstance, opts: SolverOptions | None = None) -> UcGraph:
    """The state graph of an instance's problem."""
    return UcGraph(instance.dynamics, instance.market.dt, opts or SolverOptions(),
                   instance.initial_committed, instance.initial_power)


def solve(instance: UcInstance, opts: SolverOptions | None = None):
    """``solve_uc`` of an instance, on its own graph."""
    return solve_uc(graph_of(instance, opts), instance.market, instance.params)


def worked_example():
    """The three-period start-cost instance with known optimum 3000."""
    market = toy_market([60.0, 60.0, 30.0], dt=1.0, fuel=20.0)
    dyn = flat_dynamics(3, mel=100.0, sel=100.0, ramp_up=200.0, ramp_dn=200.0)
    params = PlantParameters(eta=0.5, sigma=1000.0, phi=0.0, nu=0.0, epsilon=0.0)
    return UcInstance(params=params, dynamics=dyn, market=market), SolverOptions(power_levels=3)


def random_small_instance(rng):
    """Instances tiny enough for the enumeration oracle."""
    T = int(rng.integers(3, 9))
    if T >= 7:
        levels = int(rng.integers(2, 4))
        tight = True
    elif T >= 5:
        levels = int(rng.integers(2, 5))
        tight = bool(rng.random() < 0.7)
    else:
        levels = int(rng.integers(2, 6))
        tight = bool(rng.random() < 0.4)
    dt = float(rng.choice([0.5, 1.0]))
    mel_val = float(rng.uniform(50, 150))
    mel = np.full(T, mel_val)
    if rng.random() < 0.3:
        mel[int(rng.integers(0, T)):] *= 0.8
    if rng.random() < 0.25:
        sel = np.zeros(T)
    else:
        sel = np.full(T, float(rng.uniform(0.2, 0.7)) * mel.min())
    if tight:
        r_up = float(rng.uniform(0.3, 0.9)) * mel_val / dt
        r_dn = float(rng.uniform(0.3, 0.9)) * mel_val / dt
    else:
        r_up = float(rng.uniform(1.2, 3.0)) * mel_val / dt
        r_dn = float(rng.uniform(1.2, 3.0)) * mel_val / dt
    if sel.max() > 0:  # keep transit ladders to a few rungs
        r_up = max(r_up, sel.max() / (3 * dt) * 1.05)
        r_dn = max(r_dn, sel.max() / (3 * dt) * 1.05)
    dyn = PlantDynamics(mel=mel, sel=sel, ramp_up=r_up, ramp_dn=r_dn)
    market = MarketSeries(
        grid=make_grid("2018-01-01T00:00:00Z", T, dt),
        w=rng.uniform(10, 90, T), f=rng.uniform(10, 30, T),
        e=rng.uniform(0, 30, T), dt=dt,
    )
    params = PlantParameters(
        eta=float(rng.uniform(0.25, 0.65)),
        sigma=float(rng.uniform(0, 40)) * mel_val,
        phi=float(rng.uniform(0, 8)) * mel_val / 100,
        nu=float(rng.uniform(0, 10)),
        epsilon=float(rng.uniform(0, 0.5)),
    )
    committed = bool(rng.random() < 0.5)
    p0 = float(rng.uniform(0, mel[0])) if committed else 0.0
    instance = UcInstance(params=params, dynamics=dyn, market=market,
                          initial_committed=committed, initial_power=p0)
    return instance, SolverOptions(power_levels=levels)


def random_dispatch_instance(rng, T=336):
    """Week-scale instances for feasibility and monotonicity sweeps."""
    dt = 0.5
    mel_val = float(rng.uniform(300, 600))
    mel = np.full(T, mel_val)
    if rng.random() < 0.3:
        a = int(rng.integers(0, T - 48))
        mel[a:a + 48] *= float(rng.uniform(0.6, 0.9))
    sel = np.zeros(T) if rng.random() < 0.2 else np.full(T, float(rng.uniform(0.25, 0.5)) * mel.min())
    r_up = float(rng.uniform(100, 600))
    r_dn = float(rng.uniform(100, 600))
    if sel.max() > 0:
        r_up = max(r_up, sel.max() / (3 * dt) * 1.05)
        r_dn = max(r_dn, sel.max() / (3 * dt) * 1.05)
    dyn = PlantDynamics(mel=mel, sel=sel, ramp_up=r_up, ramp_dn=r_dn)
    hours = np.arange(T) * dt
    w = (rng.uniform(35, 65)
         + rng.uniform(5, 25) * np.sin(2 * np.pi * hours / 24.0 + rng.uniform(0, 6))
         + rng.normal(0, 5, T))
    f = np.full(T, float(rng.uniform(12, 28)))
    e = np.full(T, float(rng.uniform(5, 30)))
    market = MarketSeries(grid=make_grid("2018-01-01T00:00:00Z", T, dt),
                          w=w, f=f, e=e, dt=dt)
    params = PlantParameters(
        eta=float(rng.uniform(0.3, 0.6)),
        sigma=float(rng.uniform(0, 60)) * mel_val,
        phi=float(rng.uniform(0, 6)) * mel_val / 100,
        nu=float(rng.uniform(0, 8)),
        epsilon=float(rng.uniform(0.1, 0.4)),
    )
    committed = bool(rng.random() < 0.5)
    p0 = float(rng.uniform(0, mel[0])) if committed else 0.0
    return UcInstance(params=params, dynamics=dyn, market=market,
                      initial_committed=committed, initial_power=p0)


def _level_neutral_price(fuel):
    # price at which one extra MWh is worth nothing for the true parameters:
    # nu* + (fuel + e*eps*) / eta*, with e = 20
    return TRUE_PARAMS.nu + (fuel + 20.0 * EPSILON) / TRUE_PARAMS.eta


def recovery_market(T=672):
    """Two-week half-hourly price series with designed decision families.

    Calibrated against TRUE_PARAMS so that the noiseless closed loop pins
    eta to about (0.4995, 0.5010), sigma to (13900, 17500), nu to
    (1.9, 2.05), and phi to (975, 1025) when the others are held at truth:

    - fine days: strong anchors alternating with small +/-delta blocks whose
      MEL-vs-SEL output choice pins 1/eta and nu + (f + e*eps)/eta
    - two isolated start-window segments on different fuel days whose worths
      bracket sigma*
    - two ride-through dips of different depth separating sigma from phi
    """
    dt = 0.5
    fuels = [20.0, 10.0, 35.0, 20.0, 15.0, 30.0, 25.0,
             10.0, 35.0, 15.0, 30.0, 20.0, 25.0, 12.0]
    n_days = (T + DAY - 1) // DAY
    f = np.concatenate([np.full(DAY, fuels[d % len(fuels)]) for d in range(n_days)])[:T]
    e = np.full(T, 20.0)
    w = np.empty(n_days * DAY)

    deltas = [0.5, 1.0, 0.5, 2.0, 1.0, 0.5, 3.0, 0.5, 1.0, 2.0, 0.5, 1.0, 4.0, 0.5]

    def fine_day(d):
        a = d * DAY
        base = _level_neutral_price(fuels[d % len(fuels)])
        dlt = deltas[d % len(deltas)]
        pattern = [12.0, +dlt, 12.0, -dlt, 12.0, +2 * dlt, 12.0, -2 * dlt]
        for i, off in enumerate(pattern):
            w[a + 6 * i:a + 6 * (i + 1)] = base + off

    def sigma_segment(d, margins):
        a = d * DAY
        base = _level_neutral_price(fuels[d % len(fuels)])
        w[a:a + DAY] = base - 25.0
        pos = a + 4
        for m in margins:
            w[pos:pos + 8] = base + m
            pos += 8 + 10

    def ride_day(d, depth):
        a = d * DAY
        base = _level_neutral_price(fuels[d % len(fuels)])
        pattern = [(6, 12.0), (12, -depth), (6, 12.0), (6, 0.5), (6, 12.0),
                   (6, -0.5), (6, 12.0)]
        pos = a
        for ln, off in pattern:
            w[pos:pos + ln] = base + off
            pos += ln

    for d in range(n_days):
        fine_day(d)
    w[:DAY] = _level_neutral_price(fuels[0]) - 20.0  # opening day off
    if n_days > 3:
        sigma_segment(3, (11.0, 12.9, 16.1, 18.5))
    if n_days > 10:
        sigma_segment(10, (12.2, 15.2))
    if n_days > 6:
        ride_day(6, 6.7)
    if n_days > 12:
        ride_day(12, 8.4)

    grid = make_grid("2018-01-01T00:00:00Z", T, dt)
    return MarketSeries(grid=grid, w=w[:T], f=f, e=e, dt=dt)


@pytest.fixture(scope="session")
def recovery_context():
    """Noiseless closed-loop context on the two-week recovery market."""
    market = recovery_market(672)
    dynamics = flat_dynamics(672)
    observed = synthesize(TRUE_PARAMS, dynamics, market, SolverOptions())
    context = FitContext.from_observed(dynamics, market, observed, epsilon=EPSILON)
    assert not context.initial_committed  # opening day keeps the plant off
    return context


@pytest.fixture(scope="session")
def noisy_recovery_context():
    """The recovery fixture with 5 MW additive noise (known initial state)."""
    market = recovery_market(672)
    dynamics = flat_dynamics(672)
    observed = synthesize(TRUE_PARAMS, dynamics, market, SolverOptions(),
                          noise=5.0, seed=99)
    return FitContext.from_observed(dynamics, market, observed, epsilon=EPSILON,
                                    initial_committed=False, initial_power=0.0)


def _first_period_arcs(levels0, modes0, up_step, dn_step, initial_committed, initial_power):
    """Feasible first-period states and their start flags, from the initial condition."""
    OFF, RUN, UP, DOWN = 0, 1, 2, 3
    TOL = 1e-9
    delta = levels0 - initial_power
    ramp_ok = (delta <= up_step + TOL) & (delta >= -(dn_step + TOL))
    if not initial_committed:
        feas = ramp_ok & (modes0 != DOWN)
        starts = modes0 != OFF
    else:
        feas = ramp_ok & (
            (modes0 == RUN)
            | (modes0 == OFF)
            | ((modes0 == UP) & (delta > TOL))
            | ((modes0 == DOWN) & (delta < -TOL))
        )
        starts = np.zeros(len(levels0), dtype=bool)
    return feas, starts


def loop_solve(instance, opts):
    """Reference DP: one candidate, one Python loop over the periods.

    This is the solver's original per-candidate form. It builds every
    period's levels with ``_period_levels`` and a separate arc matrix for
    every period, and breaks ties in profit with three masked passes (fewer
    committed periods, then less energy, then lowest state index). It states
    the rules for leaving the initial condition on its own, not through the
    graph's source states, and decides feasibility on its own: an initial
    state the plant cannot hold, a first period it cannot leave it for, or a
    final profit that is not finite raises ``SolverError``. It shares no
    layout between periods. The batched sweep must reproduce its schedules
    bit for bit. Its three passes state, apart from the sweep's one sort, the
    two-tier policy the sweep is checked against.
    """
    from plantfit.uc import _period_levels, _transition_mask, marginal_values

    dyn = instance.dynamics
    T = instance.market.horizon
    p0 = instance.initial_power
    if instance.initial_committed:  # committed: 0 <= p0 <= MEL_0, off: p0 = 0
        if not -1e-9 <= p0 <= dyn.mel[0] + 1e-9:
            raise SolverError(f"initial power {p0} is out of [0, MEL] while committed")
    elif p0 != 0.0:
        raise SolverError(f"initial power {p0} is not zero while off")
    dt = instance.market.dt
    p = instance.params
    up_step, dn_step = dyn.ramp_up * dt, dyn.ramp_dn * dt
    hold = instance.initial_power if instance.initial_committed else None
    levels, modes = zip(*(_period_levels(mel, sel, up_step, dn_step, opts.power_levels, hold)
                          for mel, sel in zip(dyn.mel.tolist(), dyn.sel.tolist())))
    on = [m != 0 for m in modes]
    mv = marginal_values(p, instance.market)
    com = [c.astype(float) for c in on]
    feas0, starts0 = _first_period_arcs(levels[0], modes[0], up_step, dn_step,
                                        instance.initial_committed, instance.initial_power)
    if not feas0.any():
        raise SolverError("no feasible first-period state from the initial condition")

    def lex_best(cand, aux1, aux2):
        best1 = cand.max(axis=0)
        m1 = cand == best1[None, :]
        a1 = np.where(m1, aux1, -np.inf)
        best2 = a1.max(axis=0)
        m2 = m1 & (a1 == best2[None, :])
        a2 = np.where(m2, aux2, -np.inf)
        best3 = a2.max(axis=0)
        m3 = m2 & (a2 == best3[None, :])
        return best1, best2, best3, m3.argmax(axis=0)

    reward0 = levels[0] * (mv[0] * dt) - com[0] * (p.phi * dt)
    profit = np.where(feas0, reward0 - starts0 * p.sigma, -np.inf)
    ncom = np.where(feas0, -com[0], -np.inf)
    nenergy = np.where(feas0, -levels[0] * dt, -np.inf)
    parents = []
    for t in range(1, T):
        mask = _transition_mask(levels[t - 1], modes[t - 1], levels[t], modes[t],
                                up_step, dn_step)
        start = (modes[t - 1] == 0)[:, None] & on[t][None, :]
        arc = np.where(mask, 0.0, -np.inf) - start.astype(float) * p.sigma
        best1, best2, best3, parent = lex_best(profit[:, None] + arc,
                                               ncom[:, None], nenergy[:, None])
        reward = levels[t] * (mv[t] * dt) - com[t] * (p.phi * dt)
        profit = best1 + reward
        ncom = best2 - com[t]
        nenergy = best3 - levels[t] * dt
        parents.append(parent)

    last = int(np.lexsort((np.arange(len(profit)), -nenergy, -ncom, -profit))[0])
    if not np.isfinite(profit[last]):
        raise SolverError("no feasible schedule exists for this instance")
    idx = [last]
    for t in range(T - 1, 0, -1):
        idx.append(int(parents[t - 1][idx[-1]]))
    idx.reverse()
    power = np.array([levels[t][i] for t, i in enumerate(idx)])
    committed = np.array([on[t][i] for t, i in enumerate(idx)], dtype=np.int8)
    return power, committed
