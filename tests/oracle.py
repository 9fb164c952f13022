"""Exhaustive reference optimum of the unit-commitment problem, for tests.

Of the solver it checks, the oracle takes only the level grid, built per
period by ``uc._period_levels``, and the checks that building a ``UcGraph``
makes.
Feasibility is decided by rules written against the raw series, not by the
solver's transition tables, and each schedule is scored with
``schedule_profit``.
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
from plantfit.uc import _TOL, _period_levels


def _period_options(levels: np.ndarray, modes: np.ndarray) -> list[tuple[float, int]]:
    """Distinct (power, committed) choices for one period, in a fixed order."""
    pairs = {(0.0, 0)}
    for lvl, mode in zip(levels, modes):
        if mode != 0:  # committed
            pairs.add((float(lvl), 1))
    return sorted(pairs)


def period_choices(instance: UcInstance, opts: SolverOptions) -> list[list[tuple[float, int]]]:
    """Each period's (power, committed) choices, on the solver's level grid."""
    dyn, dt = instance.dynamics, instance.market.dt
    hold = instance.initial_power if instance.initial_committed else None
    return [_period_options(*_period_levels(mel, sel_t, dyn.ramp_up * dt, dyn.ramp_dn * dt,
                                            opts.power_levels, hold))
            for mel, sel_t in zip(dyn.mel.tolist(), dyn.sel.tolist())]


def step_ok(t, sel_t, up_step, dn_step, prev_p, prev_c, direction, pw, com):
    """The direction after the move from (``prev_p``, ``prev_c``) in
    ``direction`` to (``pw``, ``com``) in period ``t``: 1 climbing below SEL,
    -1 descending below it, 0 otherwise; None where the rules forbid the move.
    They are written against the raw series: ``sel_t`` is period t's SEL,
    and a step may rise by ``up_step`` and fall by ``dn_step`` at most."""
    delta = pw - prev_p
    if delta > up_step + _TOL or -delta > dn_step + _TOL:
        return None
    below = com == 1 and _TOL < pw < sel_t - _TOL
    if com == 1 and pw <= _TOL and sel_t > _TOL:
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


def enumerate_uc_oracle(instance: UcInstance, opts: SolverOptions | None = None) -> Schedule:
    """Exhaustive reference optimum for small instances.

    Enumerates every feasible sequence of (power, committed) choices over
    the same level grid the solver uses, scoring with schedule_profit and
    checking feasibility with rules written against the raw series (not the
    solver's transition tables). Intended for tests; refuses horizons above
    10 periods or more than 6 stable power levels.
    """
    opts = opts or SolverOptions()
    dyn = instance.dynamics
    dt = instance.market.dt
    UcGraph(dyn, dt, opts, instance.initial_committed, instance.initial_power)  # its checks
    T = instance.market.horizon
    if T != len(dyn.mel):
        raise SolverError("dynamics and market series length mismatch")
    if T > 10 or opts.power_levels > 6:
        raise SolverError("instance too large to enumerate")
    p = instance.params
    mv = marginal_values(p, instance.market)
    up_step = dyn.ramp_up * dt
    dn_step = dyn.ramp_dn * dt
    options = period_choices(instance, opts)
    sel = dyn.sel

    best: tuple[float, float, float] | None = None
    best_choice: list[tuple[float, int]] | None = None
    choice: list[tuple[float, int]] = []

    init_c = 1 if instance.initial_committed else 0
    init_p = instance.initial_power

    def recurse(t, prev_p, prev_c, direction, profit, ncom, energy):
        nonlocal best, best_choice
        if t == T:
            key = (profit, -float(ncom), -energy)
            if best is None or key > best:
                best = key
                best_choice = choice.copy()
            return
        for pw, com in options[t]:
            nd = step_ok(t, sel[t], up_step, dn_step, prev_p, prev_c, direction, pw, com)
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

    return checked_schedule(best_choice, instance)


def checked_schedule(choice: list[tuple[float, int]], instance: UcInstance) -> Schedule:
    """The schedule of a sequence of (power, committed) choices, scored with
    ``schedule_profit``; raises if ``validate_schedule`` finds it infeasible."""
    power = np.array([c[0] for c in choice])
    committed = np.array([c[1] for c in choice], dtype=np.int8)
    prev = np.concatenate(([1 if instance.initial_committed else 0], committed[:-1]))
    started = ((committed == 1) & (prev == 0)).astype(np.int8)
    schedule = Schedule(power=power, committed=committed, started=started, profit=0.0)
    violations = validate_schedule(schedule, instance)
    if violations:
        raise SolverError(f"oracle produced an infeasible schedule: {violations[0]}")
    return Schedule(power=power, committed=committed, started=started,
                    profit=schedule_profit(schedule, instance))
