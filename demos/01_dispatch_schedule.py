"""
Dispatching a single thermal unit against market prices
=======================================================

Builds a small gas plant and two days of half-hourly prices, solves the
profit-maximal commitment schedule, and walks through what the solver
decided and why.
"""
import numpy as np

from plantfit import (
    MarketSeries,
    PlantDynamics,
    PlantParameters,
    SolverOptions,
    UcGraph,
    UcInstance,
    make_grid,
    marginal_values,
    solve_uc,
    validate_schedule,
)

# A 500 MW unit that cannot hold output below 200 MW and ramps 300 MW/h.
T = 96
dynamics = PlantDynamics(
    mel=np.full(T, 500.0),
    sel=np.full(T, 200.0),
    ramp_up=300.0,
    ramp_dn=300.0,
)

# Two days of prices: a cheap night, a morning ramp, an evening peak.
hours = np.arange(T) * 0.5
w = 42.0 + 14.0 * np.sin(2 * np.pi * (hours - 9.0) / 24.0) + 6.0 * (hours % 24 > 16)
market = MarketSeries(
    grid=make_grid("2018-06-01T00:00:00Z", T, 0.5),
    w=w,
    f=np.full(T, 18.0),   # gas, GBP/MWh(fuel)
    e=np.full(T, 16.0),   # carbon, GBP/tCO2
    dt=0.5,
)

params = PlantParameters(eta=0.5, sigma=12000.0, phi=900.0, nu=1.5, epsilon=0.18)

# The margin of one MWh: electricity price minus variable cost minus
# fuel and carbon burned per MWh of output.
margins = marginal_values(params, market)
print(f"margin range over the horizon: {margins.min():.1f} .. {margins.max():.1f} GBP/MWh")

# The state graph holds the plant's dynamics and its state before the first
# period; with the prices it is the problem, solved here for one parameter set.
graph = UcGraph(dynamics, market.dt, SolverOptions())
schedule = solve_uc(graph, market, params)
# The independent check takes the whole instance and reads the raw series.
instance = UcInstance(params=params, dynamics=dynamics, market=market)

print(f"profit over two days: {schedule.profit:,.0f} GBP")
print(f"periods committed:    {int(schedule.committed.sum())} of {T}")
print(f"starts:               {int(schedule.started.sum())}")
print(f"violations:           {validate_schedule(schedule, instance)}")

print("\n  time   price  margin  power")
for t in range(0, T, 4):
    stamp = np.datetime_as_string(market.grid[t], unit="m")[-5:]
    print(f"  {stamp}  {market.w[t]:6.1f} {margins[t]:7.1f} {schedule.power[t]:6.0f}")

# The schedule respects the stable export limit: output between zero and
# 200 MW appears only while climbing to the stable band or descending to
# zero, never held flat.
below = (schedule.power > 0) & (schedule.power < dynamics.sel)
print(f"\nperiods spent crossing the stable-export band: {int(below.sum())}")
