"""
Recovering plant parameters from observed production
====================================================

The closed loop: generate observed production by dispatching a plant with
known parameters, forget the parameters, and recover them by searching the
parameter box with differential evolution plus compass refinement. The
inner solver runs once per candidate, so the whole fit is a few thousand
unit-commitment solves.
"""
import time

import numpy as np

from plantfit import (
    CompassConfig,
    DeConfig,
    FitContext,
    MarketSeries,
    PlantDynamics,
    PlantParameters,
    SolverOptions,
    fit,
    make_grid,
    synthesize,
)

T = 336
rng = np.random.default_rng(4)
hours = np.arange(T) * 0.5
w = 44.0 + 18.0 * np.sin(2 * np.pi * hours / 24.0) + rng.normal(0, 5.0, T)
w[:48] = 25.0  # unprofitable opening day so the plant starts off
fuel = np.repeat([16.0, 22.0, 18.0, 25.0, 15.0, 20.0, 23.0], 48)[:T]
market = MarketSeries(grid=make_grid("2018-02-01T00:00:00Z", T, 0.5),
                      w=w, f=fuel, e=np.full(T, 14.0), dt=0.5)
dynamics = PlantDynamics(mel=np.full(T, 450.0), sel=np.full(T, 180.0),
                         ramp_up=320.0, ramp_dn=320.0)

true = PlantParameters(eta=0.52, sigma=13000.0, phi=950.0, nu=2.2, epsilon=0.19)
observed = synthesize(true, dynamics, market, SolverOptions())
print(f"observed production: {T} periods, "
      f"{(observed.power > 0).mean():.0%} of them generating")

context = FitContext.from_observed(dynamics, market, observed, epsilon=true.epsilon)

start = time.time()
result = fit(
    context,
    de_cfg=DeConfig(population=24, generations=80, seed=11),
    compass_cfg=CompassConfig(max_iterations=80),
    jobs=2,
)
elapsed = time.time() - start

capacity = dynamics.capacity
fitted, truth = result.best, true

print(f"\nfit finished in {elapsed:.0f}s after {result.evaluations} evaluations")
print(f"remaining error: rms {result.rms:.3f} MW (sse {result.sse:.3g})\n")
print("  parameter                     true     fitted")
print(f"  efficiency                  {truth.eta:7.3f}  {fitted.eta:9.3f}")
print(f"  start-up   [GBP/MW(cap)]    {truth.sigma / capacity:7.1f}  "
      f"{fitted.sigma / capacity:9.1f}")
print(f"  fixed      [GBP/h/MW(cap)]  {truth.phi / capacity:7.2f}  {fitted.phi / capacity:9.2f}")
print(f"  variable   [GBP/MWh]        {truth.nu:7.2f}  {fitted.nu:9.2f}")

# Different parameter vectors can induce the same optimal schedule, so the
# honest comparison is at the objective level: the fit may not match the
# true vector exactly, but it must match its error (zero here).
assert result.sse <= 1e-6
