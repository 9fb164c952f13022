"""Command-line entry point: fit, simulate, landscape, and validate.

A run is described by a JSON config file naming the input CSVs, the plant
config, and the horizon; command-line flags override the settlement step
and, where a command reads them, the output directory, worker count and
seed. Unknown flags, and unknown keys in the solver, de and compass
sections or the plant's bounds, are rejected. Results are plot-ready
CSV/JSON, written atomically (temp file, then rename). Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 solver or search error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    PARAM_NAMES,
    DataError,
    ParameterError,
    PlantParameters,
    SearchBounds,
    SolverError,
    normalize_costs,
    validate_parameters,
)
from .ingest import AlignedDataset, ColumnSpec, align, format_timestamp, load_series
from .objective import FitContext, landscape_slice, sse as sse_of
from .search import CompassConfig, DeConfig, fit
from .uc import SolverOptions, solve_uc, validate_schedule

PRICE_COLUMNS = {
    "electricity": "electricity_gbp_mwh",
    "fuel": "fuel_gbp_mwh_fuel",
    "carbon": "carbon_gbp_tco2",
}
DYNAMICS_COLUMNS = {
    "mel": "mel_mw",
    "sel": "sel_mw",
    "ramp_up": "ramp_up_mw_per_h",
    "ramp_dn": "ramp_dn_mw_per_h",
}


class ConfigError(ValueError):
    """The run configuration is unusable."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _require(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _load_dataset(cfg: dict, dt: float, base: Path):
    def read(key: str, kind: str, column: str):
        path = base / str(_require(cfg, key))
        if not path.exists():
            raise DataError(f"{kind} file not found: {path}")
        return load_series(path, ColumnSpec("timestamp_utc", column))

    series = {}
    for role, column in PRICE_COLUMNS.items():
        own = f"{role}_prices"
        series[role] = read(own if cfg.get(own) else "prices", "price", column)
    series["production"] = read("production", "production", "mw")
    for role, column in DYNAMICS_COLUMNS.items():
        series[role] = read("dynamics", "dynamics", column)
    return align(series, dt, str(_require(cfg, "start")), str(_require(cfg, "end")))


def _load_plant(cfg: dict, base: Path) -> dict:
    plant_path = base / str(_require(cfg, "plant"))
    if not plant_path.exists():
        raise DataError(f"plant config file not found: {plant_path}")
    plant = _load_config(str(plant_path))
    if "epsilon_tco2_per_mwh_fuel" not in plant:
        raise ConfigError(f"{plant_path}: missing epsilon_tco2_per_mwh_fuel")
    return plant


def _known_keys(section, known, where: str) -> dict:
    """``section``, after checking that it is an object naming only ``known`` keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return section


# an absolute range per parameter, or sigma and phi per MW of capacity
_BOUND_KEYS = PARAM_NAMES + ("sigma_per_cap", "phi_per_cap")


def _bounds_from_plant(plant: dict, capacity: float) -> SearchBounds:
    overrides = _known_keys(plant.get("bounds", {}), _BOUND_KEYS, "plant bounds")
    kwargs = {}
    try:
        for name in PARAM_NAMES:
            if name in overrides:
                lo, hi = overrides[name]
                kwargs[name] = (float(lo), float(hi))
            elif f"{name}_per_cap" in overrides:
                lo, hi = overrides[f"{name}_per_cap"]
                kwargs[name] = (float(lo) * capacity, float(hi) * capacity)
    except (TypeError, ValueError):
        raise ConfigError(f"plant bounds for {name} must be a [low, high] pair") from None
    return SearchBounds.for_plant(capacity, **kwargs)


# the keys each config section may set, with their types; the defaults are
# those of SolverOptions, DeConfig and CompassConfig
_SECTION_KEYS = {
    "solver": {"power_levels": int},
    "de": {"population": int, "weight": float, "crossover": float,
           "generations": int, "target": float},
    "compass": {"contraction": float, "max_iterations": int},
}


def _number(name: str, value, kind):
    """A config value converted to ``kind``, or a ConfigError naming its key."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:  # int() truncates
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return number


def _section(cfg: dict, name: str) -> dict:
    """The settings one config section overrides, each converted to its type."""
    known = _SECTION_KEYS[name]
    section = _known_keys(cfg.get(name, {}), known, f"config section {name!r}")
    return {key: _number(f"{name}.{key}", value, known[key]) for key, value in section.items()}


def _write_atomic(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, out_dir / name)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _params_json(params: PlantParameters, capacity: float) -> dict:
    norm = normalize_costs(params, capacity)
    return {
        "parameters": {
            "eta": params.eta,
            "sigma_gbp": params.sigma,
            "phi_gbp_per_h": params.phi,
            "nu_gbp_per_mwh": params.nu,
            "epsilon_tco2_per_mwh_fuel": params.epsilon,
        },
        "parameters_per_mw_cap": {
            "sigma_gbp_per_mw": norm.sigma_per_cap,
            "phi_gbp_per_h_per_mw": norm.phi_per_cap,
        },
        "capacity_mw": capacity,
    }


def _cli_params(args, plant: dict, capacity: float) -> PlantParameters:
    """The fixed parameters simulate and landscape take from their flags, checked."""
    def cost(absolute, per_cap):
        if absolute is not None:
            return absolute
        return per_cap * capacity if per_cap is not None else 0.0

    params = PlantParameters(eta=args.eta, sigma=cost(args.sigma, args.sigma_per_cap),
                             phi=cost(args.phi, args.phi_per_cap), nu=args.nu,
                             epsilon=float(plant["epsilon_tco2_per_mwh_fuel"]))
    return validate_parameters(params)


@dataclass(frozen=True, eq=False)
class Run:
    """What every command reads before it does its own work."""

    cfg: dict
    dataset: AlignedDataset
    plant: dict
    opts: SolverOptions
    bounds: SearchBounds
    de_cfg: DeConfig
    compass_cfg: CompassConfig
    context: FitContext
    out_dir: Path
    params: PlantParameters | None  # the fixed parameters of simulate and landscape


def _prepare(args) -> Run:
    """Read the config, aligned dataset and plant; build the fit context.

    Every section of the config is checked, whichever command reads it, so
    validate fails wherever fit would.
    """
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = args.dt if args.dt is not None else _number("dt", cfg.get("dt", 0.5), float)
    seed = getattr(args, "seed", None)  # only fit takes --seed
    if seed is None:
        seed = _number("seed", cfg.get("seed", 0), int)
    opts = SolverOptions(**_section(cfg, "solver"))
    de_cfg = DeConfig(seed=seed, **_section(cfg, "de"))
    compass_cfg = CompassConfig(**_section(cfg, "compass"))
    dataset = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    bounds = _bounds_from_plant(plant, dataset.dynamics.capacity)
    params = None
    if hasattr(args, "eta"):  # only simulate and landscape take parameter flags
        params = _cli_params(args, plant, dataset.dynamics.capacity)
    context = FitContext.from_observed(
        dataset.dynamics, dataset.market, dataset.observed,
        epsilon=float(plant["epsilon_tco2_per_mwh_fuel"]),
    )
    out = getattr(args, "out", None)  # validate writes nothing
    out_dir = Path(out if out is not None else cfg.get("out", "out"))
    return Run(cfg, dataset, plant, opts, bounds, de_cfg, compass_cfg, context, out_dir, params)


def cmd_fit(args) -> int:
    run = _prepare(args)
    capacity = run.dataset.dynamics.capacity
    result = fit(run.context, bounds=run.bounds, de_cfg=run.de_cfg,
                 compass_cfg=run.compass_cfg, opts=run.opts, jobs=args.jobs)

    payload = {
        "plant_id": run.plant.get("plant_id", ""),
        "seed": run.de_cfg.seed,
        "sse_mw2": result.sse,
        "rms_mw": result.rms,
        "evaluations": result.evaluations,
    }
    payload.update(_params_json(result.best, capacity))
    _write_atomic(run.out_dir, "fit_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")

    trace_rows = (
        (i, p.eta, p.sigma, p.phi, p.nu, err)
        for i, (p, err) in enumerate(result.trace)
    )
    _write_atomic(run.out_dir, "trace.csv",
                  _csv_text(["evaluation", "eta", "sigma", "phi", "nu", "sse"], trace_rows))

    schedule_rows = (
        (format_timestamp(ts), obs, pw)
        for ts, obs, pw in zip(run.dataset.market.grid, run.dataset.observed.power,
                               result.schedule.power)
    )
    _write_atomic(run.out_dir, "schedule.csv",
                  _csv_text(["timestamp_utc", "observed_mw", "fitted_mw"], schedule_rows))

    print(f"fit: rms {result.rms:.3f} MW over {run.dataset.market.horizon} periods "
          f"({result.evaluations} evaluations) -> {run.out_dir}")
    return 0


def cmd_simulate(args) -> int:
    run = _prepare(args)
    instance = run.context.instance(run.params)
    schedule = solve_uc(instance, run.opts)
    violations = validate_schedule(schedule, instance)
    if violations:
        raise SolverError(f"simulated schedule is infeasible: {violations[0]}")

    rows = (
        (format_timestamp(ts), pw, int(c), int(st))
        for ts, pw, c, st in zip(run.dataset.market.grid, schedule.power,
                                 schedule.committed, schedule.started)
    )
    _write_atomic(run.out_dir, "schedule.csv",
                  _csv_text(["timestamp_utc", "mw", "committed", "started"], rows))

    payload = {
        "plant_id": run.plant.get("plant_id", ""),
        "profit_gbp": schedule.profit,
        "sse_vs_observed_mw2": sse_of(schedule, run.dataset.observed),
    }
    payload.update(_params_json(run.params, run.dataset.dynamics.capacity))
    _write_atomic(run.out_dir, "simulate_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"simulate: profit {schedule.profit:.2f} GBP over "
          f"{run.dataset.market.horizon} periods -> {run.out_dir}")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise ConfigError(f"grid must look like lo:hi:count, got {spec!r}")


def cmd_landscape(args) -> int:
    names = [n.strip() for n in args.axes.split(",")]
    if len(names) != 2:
        raise ConfigError("--axes takes two comma-separated parameter names")
    if names[0] == names[1]:
        raise ConfigError("axes must differ")

    run = _prepare(args)
    grid1 = _parse_grid(args.grid1)
    grid2 = _parse_grid(args.grid2)
    slc = landscape_slice(
        (names[0], grid1), (names[1], grid2), run.params, run.context,
        opts=run.opts, jobs=args.jobs,
    )
    rows = (
        (v1, v2, slc.errors[i, j])
        for i, v1 in enumerate(slc.axis1_values)
        for j, v2 in enumerate(slc.axis2_values)
    )
    _write_atomic(run.out_dir, "landscape.csv",
                  _csv_text([slc.axis1_name, slc.axis2_name, "rms_mw"], rows))
    print(f"landscape: {len(grid1)}x{len(grid2)} grid -> {run.out_dir / 'landscape.csv'}")
    return 0


def cmd_validate(args) -> int:
    run = _prepare(args)
    dataset = run.dataset
    grid = dataset.market.grid
    print(f"plant:     {run.plant.get('plant_id', '(unnamed)')}")
    print(f"horizon:   {format_timestamp(grid[0])} .. {format_timestamp(grid[-1])} "
          f"({dataset.market.horizon} periods, dt {dataset.dt} h)")
    print(f"capacity:  {dataset.dynamics.capacity:.1f} MW (max MEL)")
    print(f"sel range: {dataset.dynamics.sel.min():.1f} .. {dataset.dynamics.sel.max():.1f} MW")
    print(f"ramps:     +{dataset.dynamics.ramp_up:.1f} / -{dataset.dynamics.ramp_dn:.1f} MW/h")
    print(f"observed:  mean {dataset.observed.power.mean():.1f} MW, "
          f"max {dataset.observed.power.max():.1f} MW")
    print("ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plantfit",
                     description="Reverse-engineer thermal plant parameters from observed production.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the common flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config JSON")
    common.add_argument("--dt", type=float, default=None, help="settlement step, hours")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=None,
                      help="max concurrent fitness evaluations")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="random seed")

    def param_flags(p):
        p.add_argument("--eta", type=float, required=True, help="thermal efficiency")
        p.add_argument("--sigma", type=float, default=None, help="start-up cost, GBP")
        p.add_argument("--sigma-per-cap", type=float, default=None,
                       help="start-up cost, GBP per MW of capacity")
        p.add_argument("--phi", type=float, default=None, help="fixed cost, GBP/h")
        p.add_argument("--phi-per-cap", type=float, default=None,
                       help="fixed cost, GBP/h per MW of capacity")
        p.add_argument("--nu", type=float, default=0.0, help="variable cost, GBP/MWh")

    p_fit = sub.add_parser("fit", parents=[common, out, jobs, seed],
                           help="fit plant parameters to observed production")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", parents=[common, out],
                           help="solve the schedule for given parameters")
    param_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_land = sub.add_parser("landscape", parents=[common, out, jobs],
                            help="rms error over a 2-D parameter grid")
    param_flags(p_land)
    p_land.add_argument("--axes", required=True, help="two parameter names, e.g. eta,sigma")
    p_land.add_argument("--grid1", required=True, help="first axis grid as lo:hi:count")
    p_land.add_argument("--grid2", required=True, help="second axis grid as lo:hi:count")
    p_land.set_defaults(func=cmd_landscape)

    p_val = sub.add_parser("validate", parents=[common], help="run ingestion checks only")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
