"""Seeded input files for the benchmark workloads.

Every input the program sees is written here, from the workload's seed and
nothing else: ``prices.csv``, ``production.csv``, ``dynamics.csv``,
``plant.json`` and ``config.json``. The dataset shape is fixed (flat dynamic
limits, a daily fuel price, an unprofitable opening day) and the seed draws
only the price levels and the noise, so run time and fit quality depend on
the seed only through the data, not through the workload's size.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plantfit import (
    MarketSeries,
    PlantDynamics,
    PlantParameters,
    SolverOptions,
    make_grid,
    synthesize,
)
from plantfit.ingest import format_timestamp

DT = 0.5
DAY = 48  # half-hourly periods per day
START = "2018-01-01T00:00:00Z"
MEL_MW, SEL_MW, RAMP_MW_PER_H = 450.0, 180.0, 320.0
NOISE_MW = 5.0
CARBON_GBP_TCO2 = 20.0
DAY_GAP, NIGHT_GAP = 5.0, 40.0  # GBP/MWh
# generator parameters; simulate runs at them and landscape slices through them
GENERATOR = PlantParameters(eta=0.5, sigma=15000.0, phi=1000.0, nu=2.0, epsilon=0.2)

PRICES_HEADER = "timestamp_utc,electricity_gbp_mwh,fuel_gbp_mwh_fuel,carbon_gbp_tco2"
DYNAMICS_HEADER = "timestamp_utc,mel_mw,sel_mw,ramp_up_mw_per_h,ramp_dn_mw_per_h"


@dataclass(frozen=True, eq=False)
class Dataset:
    """The generated series, kept in memory so the output checks can use them."""

    market: MarketSeries
    dynamics: PlantDynamics
    files: dict  # file name -> data rows written


def _market(T: int, rng: np.random.Generator) -> MarketSeries:
    days = -(-T // DAY)
    fuel = np.repeat(rng.uniform(12.0, 30.0, days), DAY)[:T]
    carbon = np.full(T, CARBON_GBP_TCO2)
    g = GENERATOR
    neutral = g.nu + (fuel + carbon * g.epsilon) / g.eta  # zero-margin price
    hours = np.arange(T) * DT
    margin = (14.0 * np.sin(2 * np.pi * (hours % 24.0 - 7.0) / 24.0)
              + np.repeat(rng.normal(0.0, 3.0, days), DAY)[:T])
    # Days earn at least DAY_GAP over break-even and nights lose at least
    # NIGHT_GAP, far more than a start or stop ramp could recover. Every
    # commitment and ramp decision then holds on a wide plateau of parameters
    # around the generator, so the fit reliably reproduces its schedule.
    w = neutral + np.where(margin > 0, DAY_GAP + margin, 3.0 * margin - NIGHT_GAP)
    w[:DAY] = neutral[:DAY] - 20.0  # opening day: the plant stays off
    return MarketSeries(grid=make_grid(START, T, DT), w=np.round(w, 4),
                        f=np.round(fuel, 4), e=carbon, dt=DT)


def write_dataset(directory: Path, T: int, seed: int) -> Dataset:
    """Write the three CSVs and ``plant.json`` for a horizon of ``T`` periods.

    Observed output is the generator's optimal schedule plus Gaussian noise
    of ``NOISE_MW`` on committed periods, clipped to [0, MEL]; an off unit
    meters zero, so the fit starts from a known uncommitted state.
    """
    rng = np.random.default_rng(seed)
    market = _market(T, rng)
    dynamics = PlantDynamics(mel=np.full(T, MEL_MW), sel=np.full(T, SEL_MW),
                             ramp_up=RAMP_MW_PER_H, ramp_dn=RAMP_MW_PER_H)
    optimal = synthesize(GENERATOR, dynamics, market, SolverOptions()).power
    noise = rng.normal(0.0, NOISE_MW, T)
    observed = np.where(optimal > 0, np.clip(optimal + noise, 0.0, MEL_MW), 0.0)
    observed = np.round(observed, 4)

    stamps = [format_timestamp(t) for t in market.grid]
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "prices.csv": [PRICES_HEADER] + [
            f"{s},{w!r},{f!r},{e!r}"
            for s, w, f, e in zip(stamps, market.w.tolist(), market.f.tolist(),
                                  market.e.tolist())],
        "production.csv": ["timestamp_utc,mw"] + [
            f"{s},{p!r}" for s, p in zip(stamps, observed.tolist())],
        "dynamics.csv": [DYNAMICS_HEADER] + [
            f"{s},{MEL_MW!r},{SEL_MW!r},{RAMP_MW_PER_H!r},{RAMP_MW_PER_H!r}"
            for s in stamps],
    }
    for name, lines in files.items():
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "plant.json").write_text(json.dumps({
        "plant_id": f"BENCH-CCGT-{seed}",
        "epsilon_tco2_per_mwh_fuel": GENERATOR.epsilon,
        "fuel": "gas",
    }, indent=2) + "\n", encoding="utf-8")
    return Dataset(market=market, dynamics=dynamics,
                   files={name: len(lines) - 1 for name, lines in files.items()})


def write_config(directory: Path, T: int, seed: int, **sections) -> Path:
    """Run config over the whole horizon; ``sections`` adds de/compass/solver."""
    end = np.datetime64(START.rstrip("Z"), "s") + np.timedelta64(int(T * DT * 3600), "s")
    cfg = {
        "prices": "prices.csv",
        "production": "production.csv",
        "dynamics": "dynamics.csv",
        "plant": "plant.json",
        "start": START,
        "end": format_timestamp(end),
        "dt": DT,
        "seed": seed,
    }
    cfg.update(sections)
    path = directory / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path
