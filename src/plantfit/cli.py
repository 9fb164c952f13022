"""Command-line entry point: fit, simulate, landscape, and validate.

A run is described by a JSON config file naming the input CSVs, the plant
config, and the horizon; command-line flags override the output directory,
seed, worker count, and settlement step. Results are plot-ready CSV/JSON,
written atomically (temp file, then rename). Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 solver or search error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .domain import (
    DataError,
    ParameterError,
    PlantParameters,
    SearchBounds,
    SolverError,
    normalize_costs,
    validate_parameters,
)
from .ingest import ColumnSpec, align, format_timestamp, load_series
from .objective import FitContext, evaluate_candidate, landscape_slice, sse as sse_of
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit_.from_usage(message)


class SystemExit_(Exception):
    """Internal signal carrying an exit code and message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code

    @classmethod
    def from_usage(cls, message: str) -> "SystemExit_":
        return cls(1, message)


def _infer_resolution(path: Path, timestamp_col: str) -> str:
    """Native resolution from the spacing of the first rows of a file."""
    import csv

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        stamps = []
        from .ingest import parse_timestamp

        for row in reader:
            stamps.append(parse_timestamp(row[timestamp_col]))
            if len(stamps) >= 2:
                break
    if len(stamps) < 2:
        return "daily"  # a single row can only be step-repeated
    gap_h = (stamps[1] - stamps[0]).astype("timedelta64[s]").astype(float) / 3600.0
    if gap_h <= 0.5 + 1e-9:
        return "half-hourly"
    if gap_h <= 1.0 + 1e-9:
        return "hourly"
    return "daily"


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


def _load_price_series(cfg: dict, role: str, base: Path):
    column = PRICE_COLUMNS[role]
    own = cfg.get(f"{role}_prices")
    path = base / own if own else base / str(_require(cfg, "prices"))
    if not path.exists():
        raise DataError(f"price file not found: {path}")
    resolution = _infer_resolution(path, "timestamp_utc")
    return load_series(path, ColumnSpec("timestamp_utc", column), resolution)


def _load_dataset(cfg: dict, dt: float, base: Path):
    series = {}
    for role in PRICE_COLUMNS:
        series[role] = _load_price_series(cfg, role, base)

    production_path = base / str(_require(cfg, "production"))
    if not production_path.exists():
        raise DataError(f"production file not found: {production_path}")
    series["production"] = load_series(
        production_path, ColumnSpec("timestamp_utc", "mw"),
        _infer_resolution(production_path, "timestamp_utc"),
    )

    dynamics_path = base / str(_require(cfg, "dynamics"))
    if not dynamics_path.exists():
        raise DataError(f"dynamics file not found: {dynamics_path}")
    dyn_res = _infer_resolution(dynamics_path, "timestamp_utc")
    for role, column in DYNAMICS_COLUMNS.items():
        series[role] = load_series(dynamics_path, ColumnSpec("timestamp_utc", column), dyn_res)

    return align(series, dt, str(_require(cfg, "start")), str(_require(cfg, "end")))


def _load_plant(cfg: dict, base: Path) -> dict:
    plant_path = base / str(_require(cfg, "plant"))
    if not plant_path.exists():
        raise DataError(f"plant config file not found: {plant_path}")
    plant = _load_config(str(plant_path))
    if "epsilon_tco2_per_mwh_fuel" not in plant:
        raise ConfigError(f"{plant_path}: missing epsilon_tco2_per_mwh_fuel")
    return plant


def _bounds_from_plant(plant: dict, capacity: float) -> SearchBounds:
    overrides = plant.get("bounds", {})
    kwargs = {}
    for name in ("eta", "sigma", "phi", "nu"):
        if name in overrides:
            lo, hi = overrides[name]
            kwargs[name] = (float(lo), float(hi))
        elif f"{name}_per_cap" in overrides:
            lo, hi = overrides[f"{name}_per_cap"]
            kwargs[name] = (float(lo) * capacity, float(hi) * capacity)
    return SearchBounds.for_plant(capacity, **kwargs)


def _solver_options(cfg: dict) -> SolverOptions:
    section = cfg.get("solver", {})
    return SolverOptions(power_levels=int(section.get("power_levels", 21)))


def _de_config(cfg: dict, seed: int) -> DeConfig:
    section = cfg.get("de", {})
    return DeConfig(
        population=int(section.get("population", 32)),
        weight=float(section.get("weight", 0.8)),
        crossover=float(section.get("crossover", 0.9)),
        generations=int(section.get("generations", 150)),
        seed=seed,
        target=float(section.get("target", 0.0)),
    )


def _compass_config(cfg: dict) -> CompassConfig:
    section = cfg.get("compass", {})
    return CompassConfig(
        contraction=float(section.get("contraction", 0.5)),
        max_iterations=int(section.get("max_iterations", 150)),
    )


def _write_atomic(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        target = out_dir / name
        os.replace(tmp, target)
        return target
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
    epsilon = float(plant["epsilon_tco2_per_mwh_fuel"])
    if args.sigma is not None:
        sigma = args.sigma
    elif args.sigma_per_cap is not None:
        sigma = args.sigma_per_cap * capacity
    else:
        sigma = 0.0
    if args.phi is not None:
        phi = args.phi
    elif args.phi_per_cap is not None:
        phi = args.phi_per_cap * capacity
    else:
        phi = 0.0
    return PlantParameters(eta=args.eta, sigma=sigma, phi=phi,
                           nu=args.nu, epsilon=epsilon)


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = args.dt if args.dt is not None else float(cfg.get("dt", 0.5))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    out_dir = Path(args.out if args.out is not None else cfg.get("out", "out"))

    dataset = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    capacity = dataset.dynamics.capacity
    context = FitContext.from_observed(
        dataset.dynamics, dataset.market, dataset.observed,
        epsilon=float(plant["epsilon_tco2_per_mwh_fuel"]),
    )
    opts = _solver_options(cfg)
    bounds = _bounds_from_plant(plant, capacity)
    result = fit(
        context,
        bounds=bounds,
        de_cfg=_de_config(cfg, seed),
        compass_cfg=_compass_config(cfg),
        opts=opts,
        jobs=args.jobs,
    )

    payload = {
        "plant_id": plant.get("plant_id", ""),
        "seed": seed,
        "sse_mw2": result.sse,
        "rms_mw": result.rms,
        "evaluations": result.evaluations,
    }
    payload.update(_params_json(result.best, capacity))
    _write_atomic(out_dir, "fit_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")

    trace_rows = (
        (i, p.eta, p.sigma, p.phi, p.nu, err)
        for i, (p, err) in enumerate(result.trace)
    )
    _write_atomic(out_dir, "trace.csv",
                  _csv_text(["evaluation", "eta", "sigma", "phi", "nu", "sse"], trace_rows))

    fitted = solve_uc(context.instance(result.best), opts, graph=context.graph(opts))
    schedule_rows = (
        (format_timestamp(ts), obs, pw)
        for ts, obs, pw in zip(dataset.market.grid, dataset.observed.power, fitted.power)
    )
    _write_atomic(out_dir, "schedule.csv",
                  _csv_text(["timestamp_utc", "observed_mw", "fitted_mw"], schedule_rows))

    print(f"fit: rms {result.rms:.3f} MW over {dataset.market.horizon} periods "
          f"({result.evaluations} evaluations) -> {out_dir}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = args.dt if args.dt is not None else float(cfg.get("dt", 0.5))
    out_dir = Path(args.out if args.out is not None else cfg.get("out", "out"))

    dataset = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    capacity = dataset.dynamics.capacity
    params = _cli_params(args, plant, capacity)
    validate_parameters(params, None)

    context = FitContext.from_observed(
        dataset.dynamics, dataset.market, dataset.observed,
        epsilon=params.epsilon,
    )
    opts = _solver_options(cfg)
    instance = context.instance(params)
    schedule = solve_uc(instance, opts)
    violations = validate_schedule(schedule, instance)
    if violations:
        raise SolverError(f"simulated schedule is infeasible: {violations[0]}")

    rows = (
        (format_timestamp(ts), pw, int(c), int(st))
        for ts, pw, c, st in zip(dataset.market.grid, schedule.power,
                                 schedule.committed, schedule.started)
    )
    _write_atomic(out_dir, "schedule.csv",
                  _csv_text(["timestamp_utc", "mw", "committed", "started"], rows))

    payload = {
        "plant_id": plant.get("plant_id", ""),
        "profit_gbp": schedule.profit,
        "sse_vs_observed_mw2": sse_of(schedule, dataset.observed),
    }
    payload.update(_params_json(params, capacity))
    _write_atomic(out_dir, "simulate_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"simulate: profit {schedule.profit:.2f} GBP over "
          f"{dataset.market.horizon} periods -> {out_dir}")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise ConfigError(f"grid must look like lo:hi:count, got {spec!r}")


def cmd_landscape(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = args.dt if args.dt is not None else float(cfg.get("dt", 0.5))
    out_dir = Path(args.out if args.out is not None else cfg.get("out", "out"))

    names = [n.strip() for n in args.axes.split(",")]
    if len(names) != 2:
        raise ConfigError("--axes takes two comma-separated parameter names")
    if names[0] == names[1]:
        raise ConfigError("axes must differ")

    dataset = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    capacity = dataset.dynamics.capacity
    fixed = _cli_params(args, plant, capacity)

    context = FitContext.from_observed(
        dataset.dynamics, dataset.market, dataset.observed,
        epsilon=fixed.epsilon,
    )
    grid1 = _parse_grid(args.grid1)
    grid2 = _parse_grid(args.grid2)
    slc = landscape_slice(
        (names[0], grid1), (names[1], grid2), fixed, context,
        opts=_solver_options(cfg), jobs=args.jobs,
    )
    rows = (
        (v1, v2, slc.errors[i, j])
        for i, v1 in enumerate(slc.axis1_values)
        for j, v2 in enumerate(slc.axis2_values)
    )
    _write_atomic(out_dir, "landscape.csv",
                  _csv_text([slc.axis1_name, slc.axis2_name, "rms_mw"], rows))
    print(f"landscape: {len(grid1)}x{len(grid2)} grid -> {out_dir / 'landscape.csv'}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = args.dt if args.dt is not None else float(cfg.get("dt", 0.5))
    dataset = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    grid = dataset.market.grid
    print(f"plant:     {plant.get('plant_id', '(unnamed)')}")
    print(f"horizon:   {format_timestamp(grid[0])} .. {format_timestamp(grid[-1])} "
          f"({dataset.market.horizon} periods, dt {dataset.dt} h)")
    print(f"capacity:  {dataset.dynamics.capacity:.1f} MW (max MEL)")
    print(f"sel range: {dataset.dynamics.sel.min():.1f} .. {dataset.dynamics.sel.max():.1f} MW")
    print(f"ramps:     +{dataset.dynamics.ramp_up:.1f} / -{dataset.dynamics.ramp_dn:.1f} MW/h")
    print(f"observed:  mean {dataset.observed.power.mean():.1f} MW, "
          f"max {dataset.observed.power.max():.1f} MW")
    print("ok")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="plantfit",
                     description="Reverse-engineer thermal plant parameters from observed production.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="max concurrent fitness evaluations")
        p.add_argument("--dt", type=float, default=None, help="settlement step, hours")

    def param_flags(p):
        p.add_argument("--eta", type=float, required=True, help="thermal efficiency")
        p.add_argument("--sigma", type=float, default=None, help="start-up cost, GBP")
        p.add_argument("--sigma-per-cap", type=float, default=None,
                       help="start-up cost, GBP per MW of capacity")
        p.add_argument("--phi", type=float, default=None, help="fixed cost, GBP/h")
        p.add_argument("--phi-per-cap", type=float, default=None,
                       help="fixed cost, GBP/h per MW of capacity")
        p.add_argument("--nu", type=float, default=0.0, help="variable cost, GBP/MWh")

    p_fit = sub.add_parser("fit", help="fit plant parameters to observed production")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="solve the schedule for given parameters")
    common(p_sim)
    param_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_land = sub.add_parser("landscape", help="rms error over a 2-D parameter grid")
    common(p_land)
    param_flags(p_land)
    p_land.add_argument("--axes", required=True, help="two parameter names, e.g. eta,sigma")
    p_land.add_argument("--grid1", required=True, help="first axis grid as lo:hi:count")
    p_land.add_argument("--grid2", required=True, help="second axis grid as lo:hi:count")
    p_land.set_defaults(func=cmd_landscape)

    p_val = sub.add_parser("validate", help="run ingestion checks only")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit_ as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
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
