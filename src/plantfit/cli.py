"""Command-line entry point: fit, simulate, landscape, and validate.

A run is described by a JSON config file naming the input CSVs, the plant
config, the horizon, the settlement step and the seed; flags give, where a
command reads them, the output directory, the worker count and the fixed
parameters. Unknown flags, and unknown keys in the solver, de and compass
sections or the plant's bounds, are rejected. Results are plot-ready
CSV/JSON, written atomically (temp file, then rename). Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 solver or search error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    PARAM_NAMES,
    DataError,
    MarketSeries,
    ObservedProduction,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    SearchBounds,
    SolverError,
    validate_parameters,
)
from .ingest import SERIES, align, format_timestamp, load_series
from .objective import FitContext, landscape_slice, sse as sse_of
from .search import CompassConfig, DeConfig, fit
from .uc import SolverOptions, solve_uc, validate_schedule

class ConfigError(ValueError):
    """The run configuration is unusable."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (FileNotFoundError, IsADirectoryError):
        raise ConfigError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _require(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _load_dataset(cfg: dict, dt: float, base: Path
                  ) -> tuple[MarketSeries, PlantDynamics, ObservedProduction]:
    # the columns each file gives, by role; a file is read once for all of them
    files: dict[Path, tuple[str, dict[str, str]]] = {}
    for role, key, column, *_ in SERIES:
        kind = "price" if key == "prices" else key
        if kind == "price" and f"{role}_prices" in cfg:  # a price in its own file
            key = f"{role}_prices"
        path = base / str(_require(cfg, key))
        files.setdefault(path, (kind, {}))[1][role] = column

    series = {}
    for path, (kind, columns) in files.items():
        if not path.is_file():  # an empty name resolves to the config's directory
            raise DataError(f"{kind} file not found: {path}")
        table = load_series(path, columns.values())
        series.update((role, table[column]) for role, column in columns.items())
    return align(series, dt, str(_require(cfg, "start")), str(_require(cfg, "end")))


def _load_plant(cfg: dict, base: Path) -> dict:
    plant_path = base / str(_require(cfg, "plant"))
    if not plant_path.is_file():
        raise DataError(f"plant config file not found: {plant_path}")
    plant = _load_config(str(plant_path))
    if "epsilon_tco2_per_mwh_fuel" not in plant:
        raise ConfigError(f"{plant_path}: missing epsilon_tco2_per_mwh_fuel")
    plant["epsilon_tco2_per_mwh_fuel"] = _number(
        f"{plant_path}: epsilon_tco2_per_mwh_fuel", plant["epsilon_tco2_per_mwh_fuel"], float)
    return plant


def _known_keys(section, known, where: str) -> dict:
    """``section``, after checking that it is an object naming only ``known`` keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return section


def _bounds_from_plant(plant: dict, capacity: float) -> SearchBounds:
    overrides = _known_keys(plant.get("bounds", {}), PARAM_NAMES, "plant bounds")
    kwargs = {}
    for name in PARAM_NAMES:  # this order, not the file's, picks the error shown
        if name in overrides:
            try:
                lo, hi = overrides[name]
            except (TypeError, ValueError):
                raise ConfigError(f"plant bounds for {name} must be a [low, high] pair") from None
            kwargs[name] = tuple(_number(f"plant bounds {name}", value, float)
                                 for value in (lo, hi))
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
    """A JSON number converted to ``kind``, or a ConfigError naming its key.
    A string or a boolean is not a number, though Python would convert it."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is int and number != value:  # int() truncates
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return number


def _section(cfg: dict, name: str) -> dict:
    """The settings one config section overrides, each converted to its type."""
    known = _SECTION_KEYS[name]
    section = _known_keys(cfg.get(name, {}), known, f"config section {name!r}")
    return {key: _number(f"{name}.{key}", value, known[key]) for key, value in section.items()}


def _write_atomic(out_dir: Path, name: str, text: str) -> None:
    """Write ``text`` to ``out_dir/name`` through a temp file and a rename; an
    OSError (``--out`` naming a file, say) becomes a ConfigError naming the path."""
    tmp = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() creates files with, not 0600
            handle.write(text)
        os.replace(tmp, out_dir / name)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {out_dir / name}: {exc}") from None
        raise


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _params_json(params: PlantParameters, capacity: float) -> dict:
    """The parameters, with sigma and phi also per MW of capacity."""
    return {
        "parameters": {
            "eta": params.eta,
            "sigma_gbp": params.sigma,
            "phi_gbp_per_h": params.phi,
            "nu_gbp_per_mwh": params.nu,
            "epsilon_tco2_per_mwh_fuel": params.epsilon,
        },
        "parameters_per_mw_cap": {
            "sigma_gbp_per_mw": params.sigma / capacity,
            "phi_gbp_per_h_per_mw": params.phi / capacity,
        },
        "capacity_mw": capacity,
    }


@dataclass(frozen=True, eq=False)
class Run:
    """What every command reads before it does its own work."""

    plant: dict
    opts: SolverOptions
    bounds: SearchBounds
    de_cfg: DeConfig
    compass_cfg: CompassConfig
    context: FitContext
    params: PlantParameters | None  # the fixed parameters of simulate and landscape


def _prepare(args) -> Run:
    """Read the config, aligned dataset and plant; build the fit context and
    its state graph.

    Every section of the config is checked, and the graph is built,
    whichever command reads them, so validate fails wherever fit would.
    """
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    dt = _number("dt", cfg.get("dt", 0.5), float)
    seed = _number("seed", cfg.get("seed", 0), int)
    opts = SolverOptions(**_section(cfg, "solver"))
    de_cfg = DeConfig(seed=seed, **_section(cfg, "de"))
    compass_cfg = CompassConfig(**_section(cfg, "compass"))
    market, dynamics, observed = _load_dataset(cfg, dt, base)
    plant = _load_plant(cfg, base)
    bounds = _bounds_from_plant(plant, dynamics.capacity)
    params = None
    if hasattr(args, "eta"):  # only simulate and landscape take parameter flags
        params = validate_parameters(PlantParameters(
            eta=args.eta, sigma=args.sigma, phi=args.phi, nu=args.nu,
            epsilon=plant["epsilon_tco2_per_mwh_fuel"]))
    context = FitContext.from_observed(dynamics, market, observed,
                                       epsilon=plant["epsilon_tco2_per_mwh_fuel"])
    context.graph(opts)  # kept by the context for the command's solves
    return Run(plant, opts, bounds, de_cfg, compass_cfg, context, params)


def cmd_fit(args) -> int:
    run = _prepare(args)
    ctx = run.context
    result = fit(ctx, bounds=run.bounds, de_cfg=run.de_cfg,
                 compass_cfg=run.compass_cfg, opts=run.opts, jobs=args.jobs)

    payload = {
        "plant_id": run.plant.get("plant_id", ""),
        "seed": run.de_cfg.seed,
        "sse_mw2": result.sse,
        "rms_mw": result.rms,
        "evaluations": result.evaluations,
    }
    payload.update(_params_json(result.best, ctx.dynamics.capacity))
    _write_atomic(args.out, "fit_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")

    points = np.concatenate((result.de.points, result.compass.points)).tolist()
    scores = np.concatenate((result.de.scores, result.compass.scores)).tolist()
    trace_rows = ((i, *vec, err) for i, (vec, err) in enumerate(zip(points, scores)))
    _write_atomic(args.out, "trace.csv",
                  _csv_text(["evaluation", *PARAM_NAMES, "sse"], trace_rows))

    schedule_rows = (
        (format_timestamp(ts), obs, pw)
        for ts, obs, pw in zip(ctx.market.grid, ctx.observed.power, result.schedule.power)
    )
    _write_atomic(args.out, "schedule.csv",
                  _csv_text(["timestamp_utc", "observed_mw", "fitted_mw"], schedule_rows))

    print(f"fit: rms {result.rms:.3f} MW over {ctx.market.horizon} periods "
          f"({result.evaluations} evaluations) -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    run = _prepare(args)
    ctx = run.context
    schedule = solve_uc(ctx.graph(run.opts), ctx.market, run.params)
    violations = validate_schedule(schedule, ctx.instance(run.params))
    if violations:
        raise SolverError(f"simulated schedule is infeasible: {violations[0]}")

    rows = (
        (format_timestamp(ts), pw, int(c), int(st))
        for ts, pw, c, st in zip(ctx.market.grid, schedule.power,
                                 schedule.committed, schedule.started)
    )
    _write_atomic(args.out, "schedule.csv",
                  _csv_text(["timestamp_utc", "mw", "committed", "started"], rows))

    payload = {
        "plant_id": run.plant.get("plant_id", ""),
        "profit_gbp": schedule.profit,
        "sse_vs_observed_mw2": sse_of(schedule, ctx.observed),
    }
    payload.update(_params_json(run.params, ctx.dynamics.capacity))
    _write_atomic(args.out, "simulate_result.json",
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"simulate: profit {schedule.profit:.2f} GBP over "
          f"{ctx.market.horizon} periods -> {args.out}")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"grid must look like lo:hi:count, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and n >= 0):
        raise ConfigError(f"grid bounds must be finite and its count non-negative, "
                          f"got {spec!r}")
    return np.linspace(lo, hi, n)


def cmd_landscape(args) -> int:
    names = [n.strip() for n in args.axes.split(",")]
    if len(names) != 2:
        raise ConfigError("--axes takes two comma-separated parameter names")

    grid1 = _parse_grid(args.grid1)
    grid2 = _parse_grid(args.grid2)
    run = _prepare(args)
    errors = landscape_slice((names[0], grid1), (names[1], grid2), run.params, run.context,
                             opts=run.opts, jobs=args.jobs)
    rows = ((v1, v2, errors[i, j]) for i, v1 in enumerate(grid1) for j, v2 in enumerate(grid2))
    _write_atomic(args.out, "landscape.csv", _csv_text([*names, "rms_mw"], rows))
    print(f"landscape: {len(grid1)}x{len(grid2)} grid -> {args.out / 'landscape.csv'}")
    return 0


def cmd_validate(args) -> int:
    run = _prepare(args)
    market, dynamics, power = run.context.market, run.context.dynamics, run.context.observed.power
    grid = market.grid
    print(f"plant:     {run.plant.get('plant_id', '(unnamed)')}")
    print(f"horizon:   {format_timestamp(grid[0])} .. {format_timestamp(grid[-1])} "
          f"({market.horizon} periods, dt {market.dt} h)")
    print(f"capacity:  {dynamics.capacity:.1f} MW (max MEL)")
    print(f"sel range: {dynamics.sel.min():.1f} .. {dynamics.sel.max():.1f} MW")
    print(f"ramps:     +{dynamics.ramp_up:.1f} / -{dynamics.ramp_dn:.1f} MW/h")
    print(f"observed:  mean {power.mean():.1f} MW, max {power.max():.1f} MW")
    print("ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plantfit",
                     description="Reverse-engineer thermal plant parameters from observed production.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the common flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config JSON")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="max concurrent fitness evaluations")

    def param_flags(p):
        p.add_argument("--eta", type=float, required=True, help="thermal efficiency")
        p.add_argument("--sigma", type=float, default=0.0, help="start-up cost, GBP")
        p.add_argument("--phi", type=float, default=0.0, help="fixed cost, GBP/h")
        p.add_argument("--nu", type=float, default=0.0, help="variable cost, GBP/MWh")

    p_fit = sub.add_parser("fit", parents=[common, out, jobs],
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
