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

A problem is a state graph (``UcGraph``: dynamics, dt, grid options and the
initial state, checked when it is built, down to a feasible schedule's
existence, which no parameter changes) and a market over the same horizon.
``solve_uc(graph, market, params)`` solves it for one parameter set and walks
its back-pointers to the schedule, or raises the set's own error.
``optimal_sse(graph, market, params, observed)`` scores many parameter sets
on one problem in one DP sweep, each period advancing a (candidates, states)
stack at once: each path carries its squared error against observed
production, so the winning final state holds its schedule's SSE, and no
back-pointer or schedule is kept. A set that is invalid, or whose margins
overflow to a non-finite profit, scores +inf.
Periods with equal (levels, modes) share one state layout, whose levels
are stored once, and one table of arc markers is stored per distinct pair of
adjacent layouts; flat dynamics need a single layout and table. The initial
condition is a source layout before the first period, so every period, the
first included, takes the same step.
Start-up cost needs no arc of its own: state 0, the off state, has a second
row, whose reward each period is 0 × margin less the candidate's sigma, and
the arcs from off into committed states leave from that row.

Ties in profit go to the path with fewer committed periods, then less
energy, then the lowest state index, at every step and at the end. Each
period every candidate's rows are sorted once by (profit descending,
committed count, energy, index), the first three of each row's one float64
state, and each state's parent is the first row in that order with a
feasible arc into it. A feasible arc adds nothing but the start-up cost
that the second row already holds, so the parent's profit is the state's
best, and the order breaks its ties. The first feeding position comes from
one vectorized minimum: the arc markers (0 where a row feeds a state, the
dtype's maximum where not) are gathered by the sorted order, each position
k is OR-ed into its slice, and the minimum over the positions is the first
k that feeds.

Energy alone would choose the same paths on plants without transit rungs
(SEL = 0, or ramp×dt ≥ SEL both ways), in exact arithmetic. There the
feasible prefixes into a state are closed under pointwise min and max of
(level, committed): ramp bounds, MEL, the level grid and the fixed source
level survive both. Profit is supermodular (energy linear, committed count
modular, start count submodular), so the max-profit prefixes into a state
have a least element, with the fewest committed periods and the least
energy at once; any other of least energy differs from it only by being
committed at level 0 where it is off, and off is state 0, the lowest index.
With transit rungs the SEL rule breaks the closure under min, and the count
decides: a plant committed at 24 MW, SEL 16 MW and 8 MW rungs has two
optimal schedules of equal energy, committed 6 and 7 periods (the test
``test_profit_ties_prefer_fewer_committed_periods``). So the tier stays.
"""
from __future__ import annotations

import math
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

# States a period may hold, so that a back-pointer fits in one byte
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
    """One plant, one horizon, one candidate parameter set: the input of the
    independent checks, ``validate_schedule`` and ``schedule_profit``."""

    params: PlantParameters
    dynamics: PlantDynamics
    market: MarketSeries
    initial_committed: bool = False
    initial_power: float = 0.0  # MW immediately before the first period


def marginal_values(params: PlantParameters, market: MarketSeries) -> np.ndarray:
    """Clean-spark-spread margin of one MWh produced in each period [pounds/MWh]."""
    if params.eta <= 0:
        raise ParameterError("eta must be positive")
    return _margin(market.w, market.f, market.e, params.eta, params.nu, params.epsilon)


def _margin(w, f, e, eta, nu, epsilon):
    """The margin's one formula. It broadcasts, so the sweep gets a chunk of
    periods for every candidate in one call, each value bit-equal to the
    candidate's own ``marginal_values``."""
    return w - nu - f / eta - e * epsilon / eta


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
        stable = np.linspace(sel, mel, min(power_levels, _MAX_STATES))  # any more fail below
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
    Periods with equal (MEL, SEL) share one state layout: ``levels`` and
    ``modes`` hold one array per distinct layout, and ``_layout_at[t]`` is
    period t's, so the horizon is ``len(_layout_at)``. For the sweep, layouts
    are padded with unreachable states to a common count, ``states``.

    The initial condition is one more layout, the source: ``(0, off)``, or
    ``(p, up)``, ``(p, down)``, ``(p, stable)`` for a plant committed at
    ``p``. Leaving it follows the transition and start-cost rules of every
    other period. A committed start also adds ``p``, clamped into each
    period's stable band, to the stable levels, so a path holding near it
    exists.

    The sweep works on ``states + 2`` rows: state 0, state 0 again for the
    arcs that pay the start-up cost, states 1 onwards, and a sentinel that is
    never reached and feeds every row, so a state with no feasible parent
    stays unreachable. ``_level`` and ``_on`` hold each layout's rows once.
    ``_stops[_arc_of[t]]`` is the (from, to) table of markers
    (``_stop_markers``) of the rows feeding each row of period t, from the
    source when t = 0, and ``_positions`` the row positions they are OR-ed
    with. ``nbytes`` gives the graph's size before any solve.

    An empty horizon, an initial power the plant cannot hold in its initial
    state, or a period no path from it reaches (no schedule is feasible,
    whatever the parameters) raises ``SolverError`` here.
    """

    def __init__(self, dynamics: PlantDynamics, dt: float, opts: SolverOptions,
                 initial_committed: bool = False, initial_power: float = 0.0):
        if len(dynamics.mel) == 0:
            raise SolverError("empty horizon")
        if initial_committed:
            if initial_power < -_TOL:
                raise SolverError("initial power must be non-negative")
            if initial_power > dynamics.mel[0] + _TOL:
                raise SolverError("initial power exceeds the first-period export limit")
        elif initial_power != 0.0:
            raise SolverError("initial power must be zero while not committed")
        self.dt = dt
        self.initial_committed = initial_committed
        up_step, dn_step = dynamics.ramp_up * dt, dynamics.ramp_dn * dt
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
        # state 0 is a period's one off state, and the source's when it has one
        assert all(modes[0] == _OFF for _, modes in layouts[:source])
        assert not any((modes[1:] == _OFF).any() for _, modes in layouts)
        m = n + 2  # rows 1 and m-1 are off at level 0
        self._column = np.concatenate(([0], np.arange(2, n + 1)))  # of each state
        self._state = np.zeros(m, dtype=np.uint8)                   # of each row
        self._state[self._column] = np.arange(n)
        level = np.zeros((source, m))
        on = np.zeros((source, m), dtype=bool)
        for k, (levels, modes) in enumerate(layouts[:source]):
            level[k, self._column[:len(levels)]] = levels
            on[k, self._column[:len(levels)]] = modes != _OFF
        self.levels = [levels for levels, _ in layouts[:source]]
        self.modes = [modes for _, modes in layouts[:source]]
        self.states = n
        self._layout_at = np.array(layout_at, dtype=np.min_scalar_type(source - 1))
        self._level = level  # (layouts, m), zero on padding
        self._on = on        # (layouts, m)

        # per distinct pair of adjacent layouts, which rows feed which columns
        pairs: list[tuple[int, int]] = []
        pair_of: dict = {}
        arc_of = []
        for pair in zip([source] + layout_at, layout_at):
            if pair not in pair_of:
                pair_of[pair] = len(pairs)
                pairs.append(pair)
            arc_of.append(pair_of[pair])
        self._arc_of = np.array(arc_of, dtype=np.min_scalar_type(len(pairs) - 1))
        feeds = np.zeros((len(pairs), m, m), dtype=bool)  # [pair, from, to]
        for table, (a, b) in zip(feeds, pairs):
            (levels_a, modes_a), (levels_b, modes_b) = layouts[a], layouts[b]
            table[np.ix_(self._column[:len(levels_a)], self._column[:len(levels_b)])] = (
                _transition_mask(levels_a, modes_a, levels_b, modes_b, up_step, dn_step))
            if modes_a[0] == _OFF:  # a start leaves from row 1
                table[1, on[b]] = table[0, on[b]]
                table[0, on[b]] = False
            table[:, 1] = table[:, 0]
            table[-1] = True
        self._stops = _stop_markers(feeds)
        self._positions = np.arange(m, dtype=self._stops.dtype)[:, None, None]

        # the rows reached in each period from the source's; never the sentinel
        reach = np.arange(m) < m - 1
        after: dict = {}  # (arc table, rows reached before it) -> rows reached after
        for t, arc in enumerate(arc_of):
            key = (arc, reach.tobytes())
            if key not in after:
                after[key] = feeds[arc][reach].any(axis=0)
                if not after[key].any():
                    raise SolverError("no feasible schedule exists for this instance: no path "
                                      f"from the initial state reaches period {t} (counting "
                                      "from 0)")
            reach = after[key]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the graph holds."""
        arrays = (self._level, self._on, self._stops, self._positions, self._column,
                  self._state, self._layout_at, self._arc_of, *self.levels, *self.modes)
        return sum(a.nbytes for a in arrays)


# Bytes of period rewards computed ahead of the sweep.
_REWARD_BYTES = 2**18


def solve_uc(graph: UcGraph, market: MarketSeries, params: PlantParameters) -> Schedule:
    """Profit-maximal feasible schedule for one parameter set, over the
    discretized power grid.

    The problem is ``graph`` with ``market``, whose horizon and dt must be
    the graph's, as for :func:`optimal_sse`; one graph serves every
    parameter set. Ties in profit prefer fewer committed periods, then lower
    total energy, so the result is deterministic. The schedule's profit is
    derived again from the raw series, and a mismatch with the DP's raises.
    """
    _check_market(graph, market)
    validate_parameters(params)
    T, n = market.horizon, graph.states
    parents = np.empty((T, 1, n), dtype=np.uint8)
    (last,), (dp_profit,), _ = _forward(graph, market, [params], parents=parents)
    if not np.isfinite(dp_profit):  # the margins or costs overflow
        raise SolverError("no schedule of finite profit at these parameters")
    back = memoryview(parents).cast("B")  # period t's parent of state s at t * n + s
    path = [int(last)] * T
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t * n + path[t]]
    layouts, columns = graph._layout_at, graph._column[path]
    power = graph._level[layouts, columns]
    committed = graph._on[layouts, columns].astype(np.int8)
    prev = np.concatenate(([1 if graph.initial_committed else 0], committed[:-1]))
    started = ((committed == 1) & (prev == 0)).astype(np.int8)
    exact = _profit(power, committed, started, market, params)
    if abs(exact - dp_profit) > 1e-6 * (1.0 + abs(exact)):
        raise SolverError("internal profit accounting mismatch")
    return Schedule(power=power, committed=committed, started=started, profit=exact)


def optimal_sse(graph: UcGraph, market: MarketSeries, params, observed) -> list[float]:
    """SSE against ``observed`` production of each parameter set's optimal
    schedule, without building the schedule.

    The problem is ``graph`` with ``market``, whose horizon and dt must be
    the graph's; ``params`` is a sequence of ``PlantParameters``. All of
    them are solved in one DP sweep that carries each path's squared error
    beside its tie-break tally and keeps no back-pointers, so it holds a few
    rows of states per candidate whatever the horizon. Returns, in order,
    each parameter set's SSE, or +inf for a set that fails
    ``validate_parameters`` or whose margins overflow to a non-finite
    profit: :func:`solve_uc` names its error. An error of the shared problem
    (a market of another horizon or dt, observed production of another
    length) raises. Each SSE equals, bit for bit, ``sse`` of the schedule
    :func:`solve_uc` finds for the set, summed in period order.
    """
    _check_market(graph, market)
    if len(observed) != market.horizon:
        raise DataError("observed and market series length mismatch")
    out = [math.inf] * len(params)
    live = []
    for i, p in enumerate(params):
        try:
            validate_parameters(p)
        except ParameterError:
            continue
        live.append(i)
    if live:
        _, dp_profit, (_, errs) = _forward(graph, market, [params[i] for i in live],
                                           np.asarray(observed, dtype=float))
        for i, profit, err in zip(live, dp_profit, errs):
            if np.isfinite(profit):
                out[i] = float(err)
    return out


def _check_market(graph: UcGraph, market: MarketSeries) -> None:
    horizon = len(graph._layout_at)
    if market.horizon != horizon or market.dt != graph.dt:
        raise SolverError(f"market and graph mismatch: horizon {market.horizon} and dt "
                          f"{market.dt:g} h against {horizon} and {graph.dt:g} h")


@np.errstate(over="ignore", invalid="ignore")  # tiny eta: f/eta, 0 × -inf, sums to ±inf
def _forward(graph: UcGraph, market: MarketSeries, params: list,
             observed: np.ndarray | None = None, parents: np.ndarray | None = None) -> tuple:
    """The DP's forward pass for valid candidates.

    Keeps one float state (3 or 4, candidates, rows): the best profit,
    negated, and for the path reaching it the committed count (a whole
    number, so exact), the energy and, given ``observed`` production, the
    squared error against it. Each period sorts every candidate's rows by the
    first three, gathers each row's whole state from the first row in that
    order that feeds it (``_first_feeders``), subtracts the period's reward,
    row 1's start-up cost included, and adds its gains; ``parents``, when
    given, receives each (period, candidate, state)'s parent state. Returns
    each candidate's best final state, by the same order, with its profit
    and energy[, error], (1 or 2, candidates).
    """
    arcs, stops = graph._arc_of.tolist(), list(graph._stops)
    P = len(params)
    T, dt, m = market.horizon, market.dt, graph.states + 2
    eta, nu, epsilon, sigma, phi = (np.array([getattr(p, name) for p in params])
                                    for name in ("eta", "nu", "epsilon", "sigma", "phi"))
    phi_dt = (phi * dt)[:, None]
    layout_at, positions = graph._layout_at, graph._positions
    rows = np.arange(P)[:, None] * m  # first row of each candidate

    # the source's rows; row 1 is state 0 less sigma, row m-1 the sentinel
    K = 3 if observed is None else 4
    state = np.zeros((K, P, m))
    state[0, :, 1] = sigma
    state[0, :, -1] = np.inf
    chunk = max(1, _REWARD_BYTES // (P * m * 8))
    rewards = np.empty((min(chunk, T), P, m))
    marks = np.empty((m, P, m), dtype=graph._stops.dtype)  # reused: not mmapped each period
    for lo in range(0, T, chunk):
        hi = min(T, lo + chunk)
        # level × margin, less the fixed cost on committed states
        level = graph._level.take(layout_at[lo:hi], axis=0)
        on = graph._on.take(layout_at[lo:hi], axis=0)
        mv_dt = _margin(market.w[lo:hi, None], market.f[lo:hi, None],
                        market.e[lo:hi, None], eta, nu, epsilon)
        mv_dt *= dt
        np.multiply(level[:, None], mv_dt[:, :, None], out=rewards[:hi - lo])
        np.subtract(rewards[:hi - lo], phi_dt, out=rewards[:hi - lo], where=on[:, None])
        rewards[:hi - lo, :, 1] -= sigma  # row 1 is off: 0 × an overflowed margin stays NaN
        gains = [on, level * dt]  # to (count, energy[, squared error])
        if observed is not None:
            gains.append(np.square(level - observed[lo:hi, None]))
        gains = np.stack(gains, axis=1)[:, :, None]
        for t, arc, reward, gain in zip(range(lo, hi), arcs[lo:hi], rewards, gains):
            order = np.lexsort(state[2::-1])
            src = order.take(_first_feeders(stops[arc], order, positions, marks) + rows)
            if parents is not None:
                graph._state.take(src[:, graph._column], out=parents[t])
            src += rows
            state = state.reshape(K, P * m).take(src, axis=1)
            state[0] -= reward
            state[1:] += gain
    state = state[..., graph._column]
    best = np.lexsort(state[2::-1])[:, 0]
    picks = np.arange(P)
    return best, -state[0, picks, best], state[2:, picks, best]


def _stop_markers(feeds: np.ndarray) -> np.ndarray:
    """Marker tables of bool (..., m, m) [from, to] arc tables: 0 where a row
    feeds, and where not the dtype's maximum, which lies above every
    position 0..m-1: uint8 up to 255 rows, uint16 above."""
    m = feeds.shape[-1]
    marker = np.uint8 if m <= 255 else np.uint16
    return np.where(feeds, 0, np.iinfo(marker).max).astype(marker)


def _first_feeders(stops, order, positions, marks) -> np.ndarray:
    """Position in ``order`` of the first row that feeds each column.

    ``stops`` is an (m, m) [from, to] table from ``_stop_markers``, ``order``
    the rows of each candidate in order (P, m), ``positions`` 0..m-1 in the
    markers' dtype (m, 1, 1), and ``marks`` an (m, P, m) buffer of that dtype.
    Gathered by the transposed order, slice k holds position k's markers;
    OR-ed with k, it reads k where the row feeds and the maximum where not,
    so the minimum over the slices is the first feeding position, (P, m).
    """
    stops.take(order.T, axis=0, out=marks, mode="clip")  # "raise" would buffer a copy
    marks |= positions
    return np.minimum.reduce(marks, axis=0)


def schedule_profit(s: Schedule, instance: UcInstance) -> float:
    """Objective value of a schedule: margin minus fixed and start-up costs."""
    if s.horizon != instance.market.horizon:
        raise DataError("schedule and instance horizon mismatch")
    return _profit(s.power, s.committed, s.started, instance.market, instance.params)


def _profit(power, committed, started, market: MarketSeries, params: PlantParameters) -> float:
    """Objective value of a schedule's arrays; a strided ``power`` would be
    summed in another order, and so differ in the last bits."""
    mv = marginal_values(params, market)
    return float(
        np.dot(power, mv) * market.dt
        - int(committed.sum()) * params.phi * market.dt
        - int(started.sum()) * params.sigma
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
            entry_up = not committed[a - 1]
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
