"""Exhaustive reference optimum of the unit-commitment problem, for tests.

Of the solver it checks, the oracle takes only the level grid
(``UcGraph.levels``) and the instance checks. Feasibility is decided by rules
written against the raw series, not by the solver's transition tables, and
each schedule is scored with ``schedule_profit``.
"""
from __future__ import annotations

import numpy as np

from plantfit import (
    Schedule,
    SolverError,
    SolverOptions,
    UcGraph,
    UcInstance,
    marginal_values,
    schedule_profit,
    validate_schedule,
)
from plantfit.uc import _TOL, _check_instance


def _period_options(graph: UcGraph, t: int) -> list[tuple[float, int]]:
    """Distinct (power, committed) choices for one period, in a fixed order."""
    pairs = {(0.0, 0)}
    for lvl, com in zip(graph.levels[t], graph.committed[t]):
        if com:
            pairs.add((float(lvl), 1))
    return sorted(pairs)


def enumerate_uc_oracle(instance: UcInstance, opts: SolverOptions | None = None) -> Schedule:
    """Exhaustive reference optimum for small instances.

    Enumerates every feasible sequence of (power, committed) choices over
    the same level grid the solver uses, scoring with schedule_profit and
    checking feasibility with rules written against the raw series (not the
    solver's transition tables). Intended for tests; refuses horizons above
    10 periods or more than 6 stable power levels.
    """
    opts = opts or SolverOptions()
    _check_instance(instance)
    T = instance.market.horizon
    if T > 10 or opts.power_levels > 6:
        raise SolverError("instance too large to enumerate")
    dyn = instance.dynamics
    p = instance.params
    dt = instance.market.dt
    mv = marginal_values(p, instance.market)
    graph = UcGraph(dyn, dt, opts, instance.initial_committed, instance.initial_power)
    options = [_period_options(graph, t) for t in range(T)]
    up_step = dyn.ramp_up * dt
    dn_step = dyn.ramp_dn * dt
    sel = dyn.sel

    best: tuple[float, float, float] | None = None
    best_choice: list[tuple[float, int]] | None = None
    choice: list[tuple[float, int]] = []

    init_c = 1 if instance.initial_committed else 0
    init_p = instance.initial_power

    def step_ok(t, prev_p, prev_c, direction, pw, com):
        delta = pw - prev_p
        if delta > up_step + _TOL or -delta > dn_step + _TOL:
            return None
        below = com == 1 and _TOL < pw < sel[t] - _TOL
        if com == 1 and pw <= _TOL and sel[t] > _TOL:
            return None
        if below:
            if prev_c == 0:
                return 1  # start climb from off
            if direction == 1:
                return 1 if delta > _TOL else None
            if direction == -1:
                return -1 if delta < -_TOL else None
            # previous period was stable (or the pre-horizon state)
            if t == 0:
                if delta > _TOL:
                    return 1
                if delta < -_TOL:
                    return -1
                return None
            return -1 if delta < -_TOL else None
        # at or above SEL, or off
        if direction == 1 and (com == 0 or delta < -_TOL):
            return None  # a climb may only end in the stable band
        if direction == -1 and pw > _TOL:
            return None  # a descent may only end at zero
        return 0

    def recurse(t, prev_p, prev_c, direction, profit, ncom, energy):
        nonlocal best, best_choice
        if t == T:
            key = (profit, -float(ncom), -energy)
            if best is None or key > best:
                best = key
                best_choice = choice.copy()
            return
        for pw, com in options[t]:
            nd = step_ok(t, prev_p, prev_c, direction, pw, com)
            if nd is None:
                continue
            start = 1 if (com == 1 and prev_c == 0) else 0
            gain = pw * mv[t] * dt - com * p.phi * dt - start * p.sigma
            choice.append((pw, com))
            recurse(t + 1, pw, com, nd, profit + gain, ncom + com, energy + pw * dt)
            choice.pop()

    init_dir = 0
    recurse(0, init_p, init_c, init_dir, 0.0, 0, 0.0)
    if best_choice is None:
        raise SolverError("no feasible schedule exists for this instance")

    power = np.array([c[0] for c in best_choice])
    committed = np.array([c[1] for c in best_choice], dtype=np.int8)
    prev = np.concatenate(([init_c], committed[:-1]))
    started = ((committed == 1) & (prev == 0)).astype(np.int8)
    schedule = Schedule(power=power, committed=committed, started=started, profit=0.0)
    violations = validate_schedule(schedule, instance)
    if violations:
        raise SolverError(f"oracle produced an infeasible schedule: {violations[0]}")
    return Schedule(power=power, committed=committed, started=started,
                    profit=schedule_profit(schedule, instance))
