"""Best schedule of the unit-commitment problem as a flow LP, for tests.

The enumeration oracle stops at 10 periods. This one reaches the horizons of
a day and more: the best schedule is the most profitable path through a
graph whose nodes are (period, power, committed, direction) on the same
level grid, and whose arcs are the moves ``oracle.step_ok`` allows, not the
solver's transition tables. One unit of flow leaves the initial state and
reaches a sink after the last period; ``scipy.optimize.linprog`` finds the
flow of greatest profit, and the path it takes is checked and scored as the
enumeration oracle's schedule is.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from plantfit import Schedule, SolverError, SolverOptions, UcInstance, marginal_values
from oracle import checked_schedule, period_choices, step_ok


class PathGraph:
    """Every move reachable from an instance's initial state, period by period.

    Node 0 is the initial state and node 1 the sink; arc j runs from node
    ``tail[j]`` to node ``head[j]`` into (``power[j]``, ``committed[j]``) in
    period ``period[j]``, starting the plant where ``started[j]``. The moves
    depend on the dynamics and the initial state only, so one graph serves
    every parameter set of the problem. Raises SolverError where no path
    reaches a period.
    """

    def __init__(self, instance: UcInstance, opts: SolverOptions):
        dyn, dt = instance.dynamics, instance.market.dt
        up_step, dn_step = dyn.ramp_up * dt, dyn.ramp_dn * dt
        start = (instance.initial_power, 1 if instance.initial_committed else 0, 0)
        nodes = 2  # the initial state and the sink
        arcs = []
        frontier = {start: 0}
        for t, (choices, sel_t) in enumerate(zip(period_choices(instance, opts),
                                                 dyn.sel.tolist())):
            reached = {}
            for (prev_p, prev_c, direction), tail in frontier.items():
                for pw, com in choices:
                    nd = step_ok(t, sel_t, up_step, dn_step, prev_p, prev_c, direction, pw, com)
                    if nd is None:
                        continue
                    head = reached.setdefault((pw, com, nd), nodes + len(reached))
                    arcs.append((tail, head, t, pw, com, com == 1 and prev_c == 0))
            if not reached:
                raise SolverError(f"no path reaches period {t}")
            nodes += len(reached)
            frontier = reached
        arcs += [(tail, 1, 0, 0.0, 0, False) for tail in frontier.values()]
        tail, head, period, power, committed, started = zip(*arcs)
        self.tail, self.head, self.period = (np.array(a) for a in (tail, head, period))
        self.power, self.committed = np.array(power), np.array(committed)
        self.started = np.array(started, dtype=float)
        n = len(tail)
        # flow conservation: out of a node less into it is 1 at the start, -1 at the sink
        self.flow = csc_array((np.r_[np.ones(n), -np.ones(n)],
                               (np.r_[self.tail, self.head], np.r_[np.arange(n), np.arange(n)])),
                              shape=(nodes, n))
        self.supply = np.zeros(nodes)
        self.supply[0], self.supply[1] = 1.0, -1.0

    def best_schedule(self, instance: UcInstance) -> Schedule:
        """The most profitable path, scored with ``schedule_profit``."""
        p, dt = instance.params, instance.market.dt
        mv = marginal_values(p, instance.market)
        gain = (self.power * mv[self.period] * dt - self.committed * p.phi * dt
                - self.started * p.sigma)  # 0 into the sink
        result = linprog(-gain, A_eq=self.flow, b_eq=self.supply, bounds=(0.0, 1.0),
                         method="highs")
        if result.status != 0:
            raise RuntimeError(f"linprog failed: {result.message}")
        if not np.allclose(result.x, np.round(result.x), atol=1e-9):
            raise RuntimeError("linprog's flow is not a path")
        used = np.flatnonzero(result.x > 0.5)
        step = dict(zip(self.tail[used].tolist(), used.tolist()))
        choice, node = [], 0
        while node != 1:
            arc = step[node]
            node = int(self.head[arc])
            if node != 1:
                choice.append((float(self.power[arc]), int(self.committed[arc])))
        return checked_schedule(choice, instance)

