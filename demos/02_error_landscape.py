"""
Slicing the error landscape
===========================

The outer objective (squared error between the optimal schedule and
observed production) is a function of four plant parameters. This script
generates observed production from known parameters, slices the landscape
over (efficiency, start-up cost), and renders the slice as a small ASCII
heat map with the true point marked.
"""
import numpy as np

from plantfit import (
    FitContext,
    PlantDynamics,
    PlantParameters,
    SolverOptions,
    landscape_slice,
    make_grid,
    synthesize,
)
from plantfit import MarketSeries

T = 336
rng = np.random.default_rng(8)
hours = np.arange(T) * 0.5
w = 45.0 + 16.0 * np.sin(2 * np.pi * hours / 24.0) + rng.normal(0, 4.0, T)
market = MarketSeries(grid=make_grid("2018-03-01T00:00:00Z", T, 0.5),
                      w=w, f=np.full(T, 19.0), e=np.full(T, 15.0), dt=0.5)
dynamics = PlantDynamics(mel=np.full(T, 400.0), sel=np.full(T, 160.0),
                         ramp_up=280.0, ramp_dn=280.0)

true = PlantParameters(eta=0.48, sigma=10000.0, phi=800.0, nu=1.8, epsilon=0.2)
observed = synthesize(true, dynamics, market, SolverOptions())
context = FitContext.from_observed(dynamics, market, observed, epsilon=true.epsilon)

etas = np.linspace(0.30, 0.62, 17)
sigmas = np.linspace(0.0, 40000.0, 9)
errors = landscape_slice(("eta", etas), ("sigma", sigmas), true, context, jobs=2)

print("rms error [MW] over (eta, sigma); rows: eta, cols: sigma, X = truth")
print("         " + " ".join(f"{s/1000:5.0f}k" for s in sigmas))
i_true = int(np.argmin(np.abs(etas - true.eta)))
j_true = int(np.argmin(np.abs(sigmas - true.sigma)))
for i, eta in enumerate(etas):
    cells = []
    for j in range(len(sigmas)):
        mark = "X" if (i, j) == (i_true, j_true) else " "
        cells.append(f"{errors[i, j]:5.0f}{mark}")
    print(f"eta {eta:.3f} " + " ".join(cells))

i_min, j_min = np.unravel_index(np.argmin(errors), errors.shape)
print(f"\nminimum {errors[i_min, j_min]:.2f} MW at eta={etas[i_min]:.3f}, "
      f"sigma={sigmas[j_min]:.0f} GBP (truth eta={true.eta}, sigma={true.sigma:.0f})")
