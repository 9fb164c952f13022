"""
End-to-end command-line workflow
================================

Writes a self-contained dataset directory (price, production, and dynamic
data CSVs plus plant and run configs), then drives the command-line
interface through validate, fit, simulate, and landscape. Outputs land in
demo_workspace/out.
"""
import json
import sys
from pathlib import Path

import numpy as np

from plantfit import (
    PlantDynamics,
    PlantParameters,
    SolverOptions,
    make_grid,
    synthesize,
)
from plantfit import MarketSeries
from plantfit.cli import main
from plantfit.ingest import format_timestamp

root = Path(__file__).resolve().parent / "demo_workspace"
root.mkdir(exist_ok=True)

# --- write the dataset ----------------------------------------------------
T = 192
hours = np.arange(T) * 0.5
w = 46.0 + 15.0 * np.sin(2 * np.pi * hours / 24.0)
w[:48] = 28.0
market = MarketSeries(grid=make_grid("2018-05-01T00:00:00Z", T, 0.5),
                      w=w, f=np.full(T, 17.0), e=np.full(T, 13.0), dt=0.5)
dynamics = PlantDynamics(mel=np.full(T, 380.0), sel=np.full(T, 150.0),
                         ramp_up=260.0, ramp_dn=260.0)
true = PlantParameters(eta=0.49, sigma=9000.0, phi=700.0, nu=1.2, epsilon=0.18)
observed = synthesize(true, dynamics, market, SolverOptions())

stamps = [format_timestamp(t) for t in market.grid]
(root / "prices.csv").write_text(
    "timestamp_utc,electricity_gbp_mwh,fuel_gbp_mwh_fuel,carbon_gbp_tco2\n"
    + "\n".join(f"{s},{a},{b},{c}" for s, a, b, c
                in zip(stamps, market.w, market.f, market.e)) + "\n")
(root / "production.csv").write_text(
    "timestamp_utc,mw\n"
    + "\n".join(f"{s},{p}" for s, p in zip(stamps, observed.power)) + "\n")
(root / "dynamics.csv").write_text(
    "timestamp_utc,mel_mw,sel_mw,ramp_up_mw_per_h,ramp_dn_mw_per_h\n"
    + "\n".join(f"{s},{m},{sl},260.0,260.0" for s, m, sl
                in zip(stamps, dynamics.mel, dynamics.sel)) + "\n")
(root / "plant.json").write_text(json.dumps({
    "plant_id": "DEMO-CCGT-1",
    "epsilon_tco2_per_mwh_fuel": 0.18,
    "fuel": "gas",
}, indent=2))
(root / "config.json").write_text(json.dumps({
    "prices": "prices.csv",
    "production": "production.csv",
    "dynamics": "dynamics.csv",
    "plant": "plant.json",
    "start": stamps[0],
    "end": format_timestamp(market.grid[-1] + np.timedelta64(1800, "s")),
    "dt": 0.5,
    "de": {"population": 16, "generations": 60},
    "compass": {"max_iterations": 50},
    "seed": 3,
}, indent=2))
print(f"dataset written to {root}")

# --- drive the CLI --------------------------------------------------------
config = str(root / "config.json")
out = str(root / "out")


def run(argv):
    code = main(argv)
    if code:
        sys.exit(code)


print("\n$ plantfit validate --config config.json")
run(["validate", "--config", config])

print("\n$ plantfit fit --config config.json --out out --jobs 2")
run(["fit", "--config", config, "--out", out, "--jobs", "2"])
result = json.loads((root / "out" / "fit_result.json").read_text())
print(f"  fitted eta {result['parameters']['eta']:.3f} "
      f"(generator used {true.eta}), rms {result['rms_mw']:.3f} MW")

print("\n$ plantfit simulate --config config.json --out out "
      "--eta 0.49 --sigma 9000 --phi 700 --nu 1.2")
run(["simulate", "--config", config, "--out", out,
      "--eta", "0.49", "--sigma", "9000", "--phi", "700", "--nu", "1.2"])

print("\n$ plantfit landscape --config config.json --out out --eta 0.49 "
      "--sigma 9000 --phi 700 --nu 1.2 --axes eta,sigma "
      "--grid1 0.3:0.6:7 --grid2 0:30000:5")
run(["landscape", "--config", config, "--out", out,
      "--eta", "0.49", "--sigma", "9000", "--phi", "700", "--nu", "1.2",
      "--axes", "eta,sigma", "--grid1", "0.3:0.6:7", "--grid2", "0:30000:5"])

print(f"\noutputs: {sorted(p.name for p in (root / 'out').iterdir())}")
