"""Loading, validation, and alignment of market and plant time series.

CSV files have a header row, are comma-separated UTF-8 and carry their
timestamps, ISO-8601 UTC, in a ``timestamp_utc`` column. ``SERIES`` names
the input series: the config key of the file each is read from, its
column, and the longest gap forward-filled. Prices live in one file, or
each in its own file at its own spacing.

A row's value repeats over every period it covers: the finest of half an
hour, an hour and a day that its series' smallest timestamp spacing fits,
and a day for a series of one row. Price gaps up to one day are
forward-filled; production and dynamic data must cover the horizon without
gaps.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .domain import (
    DataError,
    MarketSeries,
    ObservedProduction,
    PlantDynamics,
    PlantParameters,
)
from .uc import SolverOptions, UcGraph, solve_uc

# finest first: a row covers the first of these its series' smallest spacing fits
COVER_HOURS = (0.5, 1.0, 24.0)

# longest price gap bridged by forward-fill, in hours
MAX_PRICE_GAP_HOURS = 24.0

# the input series, in the order their files are read: name, config key of
# its file, CSV column, name in errors, longest gap forward-filled in hours
# (zero: it must cover every period)
SERIES = (
    ("electricity", "prices", "electricity_gbp_mwh", "electricity prices", MAX_PRICE_GAP_HOURS),
    ("fuel", "prices", "fuel_gbp_mwh_fuel", "fuel prices", MAX_PRICE_GAP_HOURS),
    ("carbon", "prices", "carbon_gbp_tco2", "carbon prices", MAX_PRICE_GAP_HOURS),
    ("production", "production", "mw", "observed production", 0.0),
    ("mel", "dynamics", "mel_mw", "MEL", 0.0),
    ("sel", "dynamics", "sel_mw", "SEL", 0.0),
    ("ramp_up", "dynamics", "ramp_up_mw_per_h", "ramp-up rate", 0.0),
    ("ramp_dn", "dynamics", "ramp_dn_mw_per_h", "ramp-down rate", 0.0),
)


_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def _epoch_seconds(text: str) -> int:
    """ISO-8601 to whole UTC seconds since 1970, sub-seconds dropped;
    naive values are taken as UTC."""
    raw = text.strip()
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp: {raw!r}") from exc
    return (stamp - (_EPOCH if stamp.tzinfo is None else _EPOCH_UTC)) // _SECOND


def parse_timestamp(text: str) -> np.datetime64:
    """ISO-8601 to UTC datetime64[s]; naive values are taken as UTC."""
    return np.datetime64(_epoch_seconds(text), "s")


def format_timestamp(stamp: np.datetime64) -> str:
    return np.datetime_as_string(stamp.astype("datetime64[s]"), unit="s") + "Z"


def _step_seconds(dt: float) -> int:
    """A step of ``dt`` hours in seconds, which must be a positive whole number."""
    if not (math.isfinite(dt) and dt > 0):
        raise DataError(f"dt must be finite and positive, got {dt}")
    step_s = dt * 3600.0
    if not math.isfinite(step_s) or abs(step_s - round(step_s)) > 1e-9 or round(step_s) < 1:
        raise DataError("dt must be a positive whole number of seconds")
    return round(step_s)


def make_grid(start, periods: int, dt: float) -> np.ndarray:
    """Uniform settlement grid of ``periods`` steps of ``dt`` hours."""
    step_s = _step_seconds(dt)
    if periods < 1:
        raise DataError("grid needs at least one period")
    t0 = parse_timestamp(start) if isinstance(start, str) else np.datetime64(start, "s")
    return t0 + np.arange(periods) * np.timedelta64(step_s, "s")


@dataclass(frozen=True, eq=False)
class RawSeries:
    """One loaded (timestamp, value) series at its own spacing."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype="datetime64[s]")
        vals = np.array(self.values, dtype=float)
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if len(ts) != len(vals):
            raise DataError("timestamps and values length mismatch")
        if len(ts) == 0:
            raise DataError("series is empty")
        if np.any(np.diff(ts).astype(float) <= 0):
            raise DataError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise DataError("series contains non-finite values")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class SeriesTable:
    """The value columns read from one CSV file, on its one timestamp column."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, column: str) -> RawSeries:
        return RawSeries(self.timestamps, self.values[column])


def load_series(path, columns) -> SeriesTable:
    """Read the named value columns of a CSV file in one pass, on its
    ``timestamp_utc`` column.

    A column that is read must appear once in the header. A malformed row is
    rejected with its line: a missing, extra or unparseable field, a
    non-finite value, or a timestamp that does not increase. Blank lines are
    skipped and a UTF-8 byte-order mark is ignored.
    """
    path = Path(path)
    columns = tuple(columns)
    seconds: list[int] = []
    values: list[list[float]] = [[] for _ in columns]
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: missing header row")
            position = {name: i for i, name in enumerate(header)}
            for col in ("timestamp_utc", *columns):
                if col not in position:
                    raise DataError(f"{path}: missing column {col!r}")
                if header.count(col) > 1:
                    raise DataError(f"{path}: column {col!r} appears twice in the header")
            stamp_at = position["timestamp_utc"]
            value_at = [(col, position[col]) for col in columns]
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) > len(header):
                    raise DataError(f"{path}:{line}: {len(row)} fields but the header "
                                    f"has {len(header)}")
                if len(row) < len(header):
                    raise DataError(f"{path}:{line}: missing value in column {header[len(row)]!r}")
                try:
                    second = _epoch_seconds(row[stamp_at])
                except DataError as exc:
                    raise DataError(f"{path}:{line}: {exc}") from None
                for out, (col, i) in zip(values, value_at):
                    try:
                        value = float(row[i])
                    except ValueError:
                        raise DataError(f"{path}:{line}: unparseable value {row[i]!r}") from None
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{line}: non-finite value in column {col!r}")
                    out.append(value)
                if seconds and second <= seconds[-1]:
                    kind = "duplicate" if second == seconds[-1] else "decreasing"
                    raise DataError(f"{path}:{line}: {kind} timestamp "
                                    f"{format_timestamp(np.datetime64(second, 's'))}")
                seconds.append(second)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: cannot decode byte "
                        f"0x{exc.object[exc.start]:02x} ({exc.reason})") from None
    if not seconds:
        raise DataError(f"{path}: no data rows")
    return SeriesTable(np.array(seconds, dtype="datetime64[s]"),
                       dict(zip(columns, (np.array(v) for v in values))))


def _resample(series: RawSeries, grid: np.ndarray, name: str,
              max_fill_hours: float) -> np.ndarray:
    """Map a raw series onto the grid by step repetition and forward-fill.

    A row at time tau covers [tau, tau + h), h the first of ``COVER_HOURS``
    that the series' smallest spacing fits, or a day for a single row; grid
    points past coverage are forward-filled up to ``max_fill_hours`` (zero
    for series that must cover the horizon exactly).
    """
    ts = series.timestamps.astype(np.int64)
    gap_h = np.diff(ts).min() / 3600.0 if len(ts) > 1 else math.inf
    res_s = next((h for h in COVER_HOURS if gap_h <= h + 1e-9), COVER_HOURS[-1]) * 3600.0
    gs = grid.astype("datetime64[s]").astype(np.int64)
    idx = np.searchsorted(ts, gs, side="right") - 1
    if np.any(idx < 0):
        first = grid[int(np.argmin(idx))]
        raise DataError(f"gap in {name}: horizon starts {format_timestamp(first)} "
                        f"before first data row")
    coverage_end = ts[idx] + res_s
    gap_s = gs - coverage_end  # >= 0 where the grid point lies past coverage
    if max_fill_hours == 0.0:
        bad = gap_s >= 0
    else:
        bad = gap_s > max_fill_hours * 3600.0 + 1e-9
    if np.any(bad):
        t_bad = grid[int(np.argmax(bad))]
        raise DataError(f"gap in {name} at {format_timestamp(t_bad)}")
    return series.values[idx]


def align(
    series: dict[str, RawSeries],
    dt: float,
    start,
    end,
) -> tuple[MarketSeries, PlantDynamics, ObservedProduction]:
    """Project raw series onto one uniform grid covering [start, end), and
    return the ``(market, dynamics, observed)`` on it.

    ``series`` must provide every series that ``SERIES`` names. Each is
    forward-filled across gaps of up to its longest gap; production and
    dynamic data must cover every period. The single ramp rate the model
    uses is the most restrictive value over the horizon.
    """
    step_s = _step_seconds(dt)
    missing = [name for name, *_ in SERIES if name not in series]
    if missing:
        raise DataError(f"missing series: {', '.join(missing)}")
    t0 = parse_timestamp(start) if isinstance(start, str) else np.datetime64(start, "s")
    t1 = parse_timestamp(end) if isinstance(end, str) else np.datetime64(end, "s")
    span_s = (t1 - t0).astype("timedelta64[s]").astype(float)
    if span_s <= 0:
        raise DataError("horizon start must precede end")
    periods = int(round(span_s / step_s))
    if abs(periods * step_s - span_s) > 1e-6 or periods < 1:
        raise DataError("horizon is not a whole number of dt steps")
    grid = make_grid(t0, periods, dt)

    on_grid = {name: _resample(series[name], grid, label, max_gap)
               for name, _, _, label, max_gap in SERIES}
    market = MarketSeries(grid=grid, w=on_grid["electricity"], f=on_grid["fuel"],
                          e=on_grid["carbon"], dt=dt)
    dynamics = PlantDynamics(
        mel=on_grid["mel"], sel=on_grid["sel"],
        ramp_up=float(on_grid["ramp_up"].min()), ramp_dn=float(on_grid["ramp_dn"].min()),
    )
    return market, dynamics, ObservedProduction(power=on_grid["production"])


def synthesize(
    params: PlantParameters,
    dynamics: PlantDynamics,
    market: MarketSeries,
    opts: SolverOptions = SolverOptions(),
    noise: float = 0.0,
    seed: int = 0,
    initial_committed: bool = False,
    initial_power: float = 0.0,
) -> ObservedProduction:
    """Closed-loop test data: the optimal schedule plus optional noise.

    Gaussian noise of the given standard deviation [MW] is added per period
    and clipped to [0, mel_t]; the caller-supplied seed makes it repeatable.
    """
    if noise < 0:
        raise DataError("noise must be non-negative")
    graph = UcGraph(dynamics, market.dt, opts, initial_committed, initial_power)
    schedule = solve_uc(graph, market, params)
    power = np.asarray(schedule.power, dtype=float)
    if noise > 0:
        rng = np.random.default_rng(seed)
        power = np.clip(power + rng.normal(0.0, noise, len(power)), 0.0, dynamics.mel)
    return ObservedProduction(power=power)
