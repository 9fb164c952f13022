"""Single-plant unit commitment over a discretized power grid.

The schedule that maximizes

    sum_t  P_t * (w_t - nu - f_t/eta - e_t*epsilon/eta) * dt
         - committed_t * phi * dt  -  started_t * sigma

subject to ramp limits, the maximum export limit, start-indicator logic,
and the stable-export-limit rule is found exactly (over the discrete
level grid) by dynamic programming on a time-expanded state graph.

States per period are power levels tagged with one of four modes:
off, stable (within [sel, mel]), ramp-up transit, or ramp-down transit.
Transit levels below SEL sit on the full-rate ladders k*ramp*dt and may
only be crossed monotonically: a start climbs from zero to the stable
band without pausing or turning back, a stop descends from the stable
band to zero. Dwelling strictly between zero and SEL is infeasible.

One DP sweep solves a batch of parameter sets on the same problem: each
period advances a (candidates, states) stack at once, and ``solve_uc`` is
the batch of one. The state graph does not depend on the parameters.
Periods with equal (levels, modes) share one state layout, and one arc
matrix is stored per distinct pair of adjacent layouts; flat dynamics need
a single matrix. The initial condition is a source layout before the first
period, so every period, the first included, takes the same step. Each
candidate's start-up cost is subtracted once per batch, as sigma times the
outer product of the from-layout's off state and the to-layout's committed
states.

Ties in profit go to the path with fewer committed periods, then less
energy, then the lowest state index, at every step and at the end. Each
period the from-states are put in that order once, by (committed count,
energy, index) ascending, so a single argmax over the profits returns the
tie-break winner as its first maximum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DataError,
    MarketSeries,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SolverError,
    validate_parameters,
)

# MW slack used when comparing power levels and ramp limits
_TOL = 1e-9

# States a period may hold: a back-pointer is one byte, as the block budget
# below counts it
_MAX_STATES = 256

# state modes
_OFF, _RUN, _UP, _DOWN = 0, 1, 2, 3


@dataclass(frozen=True)
class SolverOptions:
    """Discretization settings for the inner solver."""

    power_levels: int = 21   # stable levels per period spanning [sel, mel]

    def __post_init__(self):
        if self.power_levels < 2:
            raise ParameterError("power_levels must be at least 2")


@dataclass(frozen=True, eq=False)
class UcInstance:
    """One plant, one horizon, one candidate parameter set."""

    params: PlantParameters
    dynamics: PlantDynamics
    market: MarketSeries
    initial_committed: bool = False
    initial_power: float = 0.0  # MW immediately before the first period


def _check_instance(instance: UcInstance) -> None:
    """Checks on the problem an instance poses, whatever its parameters."""
    T = instance.market.horizon
    if T == 0:
        raise SolverError("empty horizon")
    if len(instance.dynamics.mel) != T:
        raise SolverError("dynamics and market series length mismatch")
    if instance.initial_committed:
        if instance.initial_power < -_TOL:
            raise SolverError("initial power must be non-negative")
        if instance.initial_power > instance.dynamics.mel[0] + _TOL:
            raise SolverError("initial power exceeds the first-period export limit")
    elif instance.initial_power != 0.0:
        raise SolverError("initial power must be zero while not committed")


def marginal_values(params: PlantParameters, market: MarketSeries) -> np.ndarray:
    """Clean-spark-spread margin of one MWh produced in each period [pounds/MWh]."""
    if params.eta <= 0:
        raise ParameterError("eta must be positive")
    return market.w - params.nu - market.f / params.eta - market.e * params.epsilon / params.eta


def _period_levels(mel: float, sel: float, up_step: float, dn_step: float,
                   power_levels: int, hold_level: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Level/mode arrays for one period: off, transit rungs, stable band.

    Transit rungs below SEL are the union of the full-rate start ladder
    (multiples of ramp_up*dt) and stop ladder (multiples of ramp_dn*dt);
    each rung exists in both climb and descend modes, since either
    trajectory may pass through any grid value below SEL. When the plant
    enters the horizon committed at an off-grid level, that level (clamped
    into the stable band) is added so a hold-near-initial path exists.
    More than ``_MAX_STATES`` states raise ``SolverError``, before a slow
    ramp's ladder is built out.
    """
    levels = [0.0]
    modes = [_OFF]
    transit = set()
    if sel > _TOL:
        for step in (up_step, dn_step):
            # one ladder of more than half the limit breaks it: stop there
            for k in range(1, _MAX_STATES // 2 + 2):
                if not k * step < sel - _TOL:
                    break
                transit.add(k * step)
        for value in sorted(transit):
            levels.extend([value, value])
            modes.extend([_UP, _DOWN])
    if mel - sel > _TOL:
        stable = np.linspace(sel, mel, power_levels)
    else:
        stable = np.array([sel])
    if hold_level is not None:
        held = min(max(hold_level, sel), mel)
        if not np.any(np.abs(stable - held) <= _TOL):
            stable = np.append(stable, held)
    if 1 + 2 * len(transit) + len(stable) > _MAX_STATES:
        raise SolverError(
            f"a period would hold more than {_MAX_STATES} states: SEL {sel:g} MW over "
            f"ramp×dt steps of {up_step:g} MW up and {dn_step:g} MW down, plus "
            f"power_levels {power_levels}; raise the ramp rates or dt, or lower "
            f"SEL or power_levels")
    levels.extend(stable.tolist())
    modes.extend([_RUN] * len(stable))
    return np.array(levels), np.array(modes, dtype=np.int8)


def _transition_mask(levels_a, modes_a, levels_b, modes_b, up_step, dn_step) -> np.ndarray:
    """Feasible arcs between consecutive periods (rows: from, cols: to)."""
    delta = levels_b[None, :] - levels_a[:, None]
    ramp_ok = (delta <= up_step + _TOL) & (delta >= -(dn_step + _TOL))
    a = modes_a[:, None]
    b = modes_b[None, :]
    rising = delta > _TOL
    falling = delta < -_TOL
    at_zero = levels_b[None, :] <= _TOL
    ok = (a == _OFF) & ((b == _OFF) | (b == _UP) | (b == _RUN))
    ok |= (a == _UP) & (((b == _UP) & rising) | ((b == _RUN) & ~falling))
    ok |= (a == _DOWN) & (((b == _DOWN) & falling) | (b == _OFF) | ((b == _RUN) & at_zero & falling))
    ok |= (a == _RUN) & ((b == _RUN) | (b == _OFF) | ((b == _DOWN) & falling))
    return ok & ramp_ok


class UcGraph:
    """Time-expanded state graph for one problem: dynamics, grid, options and
    the initial condition (the plant's state just before the first period).

    Building the graph is independent of the candidate cost parameters, so
    one graph serves every parameter set evaluated against the same problem.
    ``levels``, ``modes`` and ``committed`` hold one array per period; periods
    with equal layouts share it. For the sweep, layouts are padded with
    unreachable states to a common count, ``states``.

    The initial condition is one more layout, the source: ``(0, off)``, or
    ``(p, up)``, ``(p, down)``, ``(p, stable)`` for a plant committed at
    ``p``. Leaving it follows the transition and start-cost rules of every
    other period. A committed start also adds ``p``, clamped into each
    period's stable band, to the stable levels, so a path holding near it
    exists. ``_arc_of[t]`` indexes the arc matrix into period t, from the
    source when t = 0.
    """

    def __init__(self, dynamics: PlantDynamics, dt: float, opts: SolverOptions,
                 initial_committed: bool = False, initial_power: float = 0.0):
        self.dynamics = dynamics
        self.dt = dt
        self.opts = opts
        self.initial_committed = initial_committed
        self.initial_power = initial_power
        self.up_step = up_step = dynamics.ramp_up * dt
        self.dn_step = dn_step = dynamics.ramp_dn * dt
        # a period's (levels, modes) depend on nothing but its (mel, sel)
        layouts: list[tuple[np.ndarray, np.ndarray]] = []
        layout_of: dict = {}  # (mel, sel) -> layout index
        layout_at = []        # layout index of each period
        for limits in zip(dynamics.mel.tolist(), dynamics.sel.tolist()):
            if limits not in layout_of:
                layout_of[limits] = len(layouts)
                layouts.append(_period_levels(*limits, up_step, dn_step, opts.power_levels,
                                              initial_power if initial_committed else None))
            layout_at.append(layout_of[limits])
        source = len(layouts)
        source_modes = [_UP, _DOWN, _RUN] if initial_committed else [_OFF]
        layouts.append((np.full(len(source_modes), float(initial_power)),
                        np.array(source_modes, dtype=np.int8)))

        n = max(len(levels) for levels, _ in layouts)
        level = np.zeros((len(layouts), n))
        self._layout_on = np.zeros((len(layouts), n), dtype=bool)
        self._layout_off = np.zeros((len(layouts), n), dtype=bool)
        committed = []
        for k, (levels, modes) in enumerate(layouts):
            level[k, :len(levels)] = levels
            self._layout_on[k, :len(levels)] = modes != _OFF
            self._layout_off[k, :len(levels)] = modes == _OFF
            committed.append(modes != _OFF)
        self.levels = [layouts[k][0] for k in layout_at]
        self.modes = [layouts[k][1] for k in layout_at]
        self.committed = [committed[k] for k in layout_at]
        self.states = n
        self._level = level[layout_at]            # (T, states), zero on padding
        self._on = self._layout_on[layout_at]     # (T, states)

        # one matrix per distinct (from, to) layout pair: 0 on feasible arcs, else -inf
        self._pairs: list[tuple[int, int]] = []
        pair_of: dict = {}
        self._arc_of = []
        for pair in zip([source] + layout_at, layout_at):
            if pair not in pair_of:
                pair_of[pair] = len(self._pairs)
                self._pairs.append(pair)
            self._arc_of.append(pair_of[pair])
        self._arc_base = np.full((len(self._pairs), n, n), -np.inf)
        for u, (a, b) in enumerate(self._pairs):
            (levels_a, modes_a), (levels_b, modes_b) = layouts[a], layouts[b]
            mask = _transition_mask(levels_a, modes_a, levels_b, modes_b, up_step, dn_step)
            self._arc_base[u, :len(levels_a), :len(levels_b)][mask] = 0.0


# Errors that fail one candidate alone: a parameter out of its range or an
# infeasible horizon. Anything else is a bug and propagates.
CANDIDATE_ERRORS = (SolverError, ParameterError, DataError)

# Bytes of DP state one block of candidates may hold: per candidate, a
# back-pointer per (period, state), a few series over the horizon, its arc
# matrices and one period's candidate matrices. Bounds a batch's memory.
_BLOCK_BYTES = 2 * 2**20
# Bytes of period rewards computed ahead of the sweep.
_REWARD_BYTES = 2**18


def solve_uc(instance: UcInstance, opts: SolverOptions | None = None,
             graph: UcGraph | None = None) -> Schedule:
    """Profit-maximal feasible schedule over the discretized power grid.

    Ties in profit prefer fewer committed periods, then lower total energy,
    so the result is deterministic. Pass a precompiled ``graph`` to reuse
    the state graph across many parameter sets on the same context. This is
    the one-candidate call of :func:`solve_uc_batch`.
    """
    (result,) = solve_uc_batch([instance], opts, graph)
    if isinstance(result, Exception):
        raise result
    return result


def solve_uc_batch(instances, opts: SolverOptions | None = None,
                   graph: UcGraph | None = None) -> list:
    """Optimal schedules for many parameter sets on one problem, in one sweep.

    The instances must share dynamics, market and initial state; only their
    parameters differ. Returns, in order, each instance's schedule, or the
    error from ``CANDIDATE_ERRORS`` that it alone raised. An error of the
    shared problem (say, no feasible first-period state) raises. Each
    schedule is bit-identical to the one the instance gets when solved alone.
    """
    instances = list(instances)
    if not instances:
        return []
    opts = opts or SolverOptions()
    first = instances[0]
    _check_instance(first)
    for inst in instances[1:]:
        if (inst.dynamics is not first.dynamics or inst.market is not first.market
                or inst.initial_committed != first.initial_committed
                or inst.initial_power != first.initial_power):
            raise SolverError("batched instances must share dynamics, market and initial state")
    if graph is None:
        graph = UcGraph(first.dynamics, first.market.dt, opts,
                        first.initial_committed, first.initial_power)
    elif (graph.dynamics is not first.dynamics or graph.dt != first.market.dt or graph.opts != opts
          or (graph.initial_committed, graph.initial_power)
          != (first.initial_committed, first.initial_power)):
        raise SolverError("the graph was built for other dynamics, dt, initial state or options")
    n = graph.states
    per_candidate = first.market.horizon * (n + 32) + (len(graph._pairs) + 3) * n * n * 8
    block = max(1, _BLOCK_BYTES // per_candidate)
    results = []
    for lo in range(0, len(instances), block):
        results.extend(_sweep(graph, instances[lo:lo + block]))
    return results


def _sweep(graph: UcGraph, instances: list) -> list:
    """Solve a block of candidates at once: check each one's parameters, run
    the DP forward over the periods, then backtrack every path together."""
    out: list = [None] * len(instances)
    live = []
    for i, inst in enumerate(instances):
        try:
            validate_parameters(inst.params)
            live.append(i)
        except ParameterError as exc:
            out[i] = exc
    if not live:
        return out
    # after the parameters, so a lone solve reports a bad parameter first
    if not np.isfinite(graph._arc_base[graph._arc_of[0]]).any():
        raise SolverError("no feasible first-period state from the initial condition")
    instances = [instances[i] for i in live]
    parents, profit, count, energy = _forward(graph, instances)

    T, P, _ = parents.shape
    last = np.lexsort((energy, count, -profit))[:, 0]
    picks = np.arange(P)
    # (candidate, period): each candidate's row is contiguous, so its profit
    # sums in the order it does over the Schedule's own copy
    path = np.empty((P, T), dtype=parents.dtype)
    path[:, -1] = last
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = parents[t, picks, path[:, t]]
    periods = np.arange(T)
    power = graph._level[periods, path]
    committed = graph._on[periods, path].astype(np.int8)
    dp_profit = profit[picks, last]
    for p, (i, inst) in enumerate(zip(live, instances)):
        try:
            out[i] = _checked_schedule(inst, power[p], committed[p], dp_profit[p])
        except CANDIDATE_ERRORS as exc:
            out[i] = exc
    return out


def _forward(graph: UcGraph, instances: list) -> tuple:
    """The DP's forward pass for a block of valid candidates.

    Keeps per (candidate, state) the best profit and, for the tie-break, the
    committed-period count and energy of the path reaching it. Returns the
    back-pointers (periods, candidates, states) and the final profit, count
    and energy; the margins, arc stacks and rewards it builds are freed when
    it returns, before the backtrack.
    """
    P = len(instances)
    market = instances[0].market
    T, dt, n = market.horizon, market.dt, graph.states
    mv_dt = np.empty((T, P))
    for p, inst in enumerate(instances):
        mv_dt[:, p] = marginal_values(inst.params, market)
    mv_dt *= dt
    sigma = np.array([inst.params.sigma for inst in instances])
    phi_dt = np.array([[inst.params.phi * dt] for inst in instances])
    level, on = graph._level, graph._on
    level_dt = level * dt
    # each candidate's arcs: the start-up cost on every off -> committed arc,
    # rows of all candidates stacked so one fancy index gathers them
    arcs = []
    for u, (a, b) in enumerate(graph._pairs):
        arc = sigma[:, None, None] * np.outer(graph._layout_off[a], graph._layout_on[b])
        np.subtract(graph._arc_base[u], arc, out=arc)
        arcs.append(arc.reshape(P * n, n))
    rows = np.arange(P)[:, None] * n  # first row of each candidate
    cells = rows * n + np.arange(n)   # (candidate, to-state) cell of row 0

    profit = np.zeros((P, n))
    count = np.zeros((P, n))
    energy = np.zeros((P, n))
    parents = np.empty((T, P, n), dtype=np.uint8)
    chunk = max(1, _REWARD_BYTES // (P * n * 8))
    rewards = np.empty((min(chunk, T), P, n))
    for lo in range(0, T, chunk):
        hi = min(T, lo + chunk)
        # level × margin, less the fixed cost on committed states
        np.multiply(level[lo:hi, None], mv_dt[lo:hi, :, None], out=rewards[:hi - lo])
        np.subtract(rewards[:hi - lo], phi_dt, out=rewards[:hi - lo], where=on[lo:hi, None])
        for t, reward in enumerate(rewards[:hi - lo], lo):
            # rows in tie-break order, so the first maximum is the parent
            order = np.lexsort((energy, count)) + rows
            cand = arcs[graph._arc_of[t]][order]
            cand += profit.take(order)[:, :, None]
            k = cand.argmax(axis=1)
            best = cand.take(k * n + cells)
            src = order.take(k + rows)
            np.subtract(src, rows, out=parents[t], casting="unsafe")
            profit = best + reward
            count = count.take(src) + on[t]
            energy = energy.take(src) + level_dt[t]
    return parents, profit, count, energy


def _checked_schedule(instance: UcInstance, power: np.ndarray, committed: np.ndarray,
                      dp_profit: float) -> Schedule:
    """The schedule of one DP path, its profit re-derived from the raw series."""
    if not np.isfinite(dp_profit):
        raise SolverError("no feasible schedule exists for this instance")
    prev = np.concatenate(([1 if instance.initial_committed else 0], committed[:-1]))
    started = ((committed == 1) & (prev == 0)).astype(np.int8)
    exact = _profit(power, committed, started, instance)
    if abs(exact - dp_profit) > 1e-6 * (1.0 + abs(exact)):
        raise SolverError("internal profit accounting mismatch")
    return Schedule(power=power, committed=committed, started=started, profit=exact)


def schedule_profit(s: Schedule, instance: UcInstance) -> float:
    """Objective value of a schedule: margin minus fixed and start-up costs."""
    if s.horizon != instance.market.horizon:
        raise DataError("schedule and instance horizon mismatch")
    return _profit(s.power, s.committed, s.started, instance)


def _profit(power, committed, started, instance: UcInstance) -> float:
    """Objective value of a schedule's arrays; a strided ``power`` would be
    summed in another order, and so differ in the last bits."""
    p = instance.params
    dt = instance.market.dt
    mv = marginal_values(p, instance.market)
    return float(
        np.dot(power, mv) * dt
        - int(committed.sum()) * p.phi * dt
        - int(started.sum()) * p.sigma
    )


@dataclass(frozen=True)
class Violation:
    """One violated constraint: which rule, where, and by how much [MW]."""

    kind: str
    period: int
    magnitude: float


def validate_schedule(s: Schedule, instance: UcInstance) -> list[Violation]:
    """All constraint violations of a schedule; empty when feasible.

    Checks export-limit coupling, ramp bounds, start-indicator logic, and
    the stable-export-limit rule (output strictly between zero and SEL only
    on a monotone start or stop trajectory).
    """
    T = instance.market.horizon
    if s.horizon != T:
        raise DataError("schedule and instance horizon mismatch")
    dyn = instance.dynamics
    dt = instance.market.dt
    up_step = dyn.ramp_up * dt
    dn_step = dyn.ramp_dn * dt
    power = s.power
    committed = s.committed
    started = s.started
    out: list[Violation] = []

    for t in range(T):
        cap = dyn.mel[t] * committed[t]
        if power[t] > cap + _TOL:
            out.append(Violation("mel", t, float(power[t] - cap)))
        if power[t] < -_TOL:
            out.append(Violation("mel", t, float(-power[t])))
        if committed[t] and power[t] <= _TOL and dyn.sel[t] > _TOL:
            out.append(Violation("sel", t, float(dyn.sel[t])))

    prev_c = 1 if instance.initial_committed else 0
    for t in range(T):
        if started[t] and not committed[t]:
            out.append(Violation("start", t, 1.0))
        if committed[t] and not prev_c and not started[t]:
            out.append(Violation("start", t, 1.0))
        prev_c = committed[t]

    prev_p = instance.initial_power
    for t in range(T):
        diff = power[t] - prev_p
        if diff > up_step + _TOL:
            out.append(Violation("ramp", t, float(diff - up_step)))
        if -diff > dn_step + _TOL:
            out.append(Violation("ramp", t, float(-diff - dn_step)))
        prev_p = power[t]

    below = (committed == 1) & (power > _TOL) & (power < dyn.sel - _TOL)
    t = 0
    while t < T:
        if not below[t]:
            t += 1
            continue
        a = t
        while t + 1 < T and below[t + 1]:
            t += 1
        b = t
        run = power[a:b + 1]
        steps = np.diff(run)
        increasing = bool(np.all(steps > _TOL))
        decreasing = bool(np.all(steps < -_TOL))
        if b > a and not (increasing or decreasing):
            out.append(Violation("sel", a, float(dyn.sel[a] - power[a])))
            t += 1
            continue
        if a == 0:
            entry_up = (not instance.initial_committed) or (instance.initial_power < run[0] - _TOL)
            entry_dn = instance.initial_committed and instance.initial_power > run[0] + _TOL
        else:
            entry_up = power[a - 1] <= _TOL
            entry_dn = power[a - 1] >= dyn.sel[a - 1] - _TOL and power[a - 1] > run[0] + _TOL
        if b == T - 1:
            exit_up = exit_dn = True
        else:
            exit_up = power[b + 1] >= dyn.sel[b + 1] - _TOL and power[b + 1] >= run[-1] - _TOL
            exit_dn = power[b + 1] <= _TOL
        ok_up = entry_up and exit_up and (increasing or b == a)
        ok_dn = entry_dn and exit_dn and (decreasing or b == a)
        if not (ok_up or ok_dn):
            out.append(Violation("sel", a, float(dyn.sel[a] - power[a])))
        t += 1
    return out
