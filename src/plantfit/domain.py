"""Core data types: plant parameters, dynamic limits, market series, schedules.

All types are immutable after construction (array fields are stored as
read-only copies) and safe to share across concurrent evaluations.
Internally, start-up and fixed costs are absolute (pounds and pounds/h);
per-MW-of-capacity figures appear only in reports, see normalize_costs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

PARAM_NAMES = ("eta", "sigma", "phi", "nu")


class ParameterError(ValueError):
    """A parameter, bound, or option violates its constraints."""


class DataError(ValueError):
    """Input data is malformed, inconsistent, or incomplete."""


class SolverError(RuntimeError):
    """The unit-commitment solver or outer search cannot produce a result."""


def _own_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise DataError("series must be one-dimensional")
    arr.setflags(write=False)
    return arr


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{name} must be finite")


@dataclass(frozen=True)
class PlantParameters:
    """Physical and cost description of one thermal unit."""

    eta: float      # thermal efficiency, dimensionless
    sigma: float    # start-up cost, pounds per start
    phi: float      # fixed operating cost, pounds/h while committed
    nu: float       # variable operating cost, pounds/MWh
    epsilon: float  # emission factor, tCO2/MWh(fuel)


@dataclass(frozen=True)
class NormalizedCosts:
    """Per-MW-of-capacity cost report; eta and nu are already intensive."""

    eta: float
    sigma_per_cap: float  # pounds/MW(cap) per start
    phi_per_cap: float    # pounds/h/MW(cap)
    nu: float             # pounds/MWh
    capacity: float       # MW used for the normalization


@dataclass(frozen=True, eq=False)
class SearchBounds:
    """Box bounds for a derivative-free search.

    Generic n-dimensional box; plant fits use the four named dimensions
    (eta, sigma, phi, nu) built by :meth:`for_plant`.
    """

    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _own_readonly(self.lower))
        object.__setattr__(self, "upper", _own_readonly(self.upper))
        if len(self.lower) != len(self.upper):
            raise ParameterError("bounds lower/upper length mismatch")
        if self.names and len(self.names) != len(self.lower):
            raise ParameterError("bounds names length mismatch")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ParameterError("bounds must be finite")
        if not np.all(self.lower < self.upper):
            raise ParameterError("each lower bound must be below its upper bound")
        if "eta" in self.names:
            lo, hi = self.range("eta")
            if not (0.0 < lo < hi <= 1.0):
                raise ParameterError("eta bounds must lie within (0, 1]")

    @classmethod
    def for_plant(
        cls,
        capacity: float,
        eta: tuple[float, float] = (0.20, 0.65),
        sigma: tuple[float, float] | None = None,
        phi: tuple[float, float] | None = None,
        nu: tuple[float, float] = (0.0, 20.0),
    ) -> "SearchBounds":
        """Default plant-parameter box, cost ceilings scaled by capacity [MW]."""
        if capacity <= 0:
            raise ParameterError("capacity must be positive")
        sigma = sigma if sigma is not None else (0.0, 200.0 * capacity)
        phi = phi if phi is not None else (0.0, 20.0 * capacity)
        lo = [eta[0], sigma[0], phi[0], nu[0]]
        hi = [eta[1], sigma[1], phi[1], nu[1]]
        return cls(np.array(lo), np.array(hi), names=PARAM_NAMES)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def range(self, name: str) -> tuple[float, float]:
        i = self.names.index(name)
        return float(self.lower[i]), float(self.upper[i])

    def contains(self, vec, tol: float = 1e-12) -> bool:
        v = np.asarray(vec, dtype=float)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class PlantDynamics:
    """Operator-published dynamic limits on one settlement grid."""

    mel: np.ndarray   # maximum export limit, MW per period
    sel: np.ndarray   # stable export limit, MW per period
    ramp_up: float    # MW/h
    ramp_dn: float    # MW/h

    def __post_init__(self):
        object.__setattr__(self, "mel", _own_readonly(self.mel))
        object.__setattr__(self, "sel", _own_readonly(self.sel))
        if len(self.mel) != len(self.sel):
            raise DataError("mel and sel length mismatch")
        for name in ("mel", "sel", "ramp_up", "ramp_dn"):
            _require_finite(name, getattr(self, name))
        if not (self.ramp_up > 0 and self.ramp_dn > 0):
            raise DataError("ramp rates must be positive")
        if np.any(self.sel < 0) or np.any(self.sel > self.mel):
            raise DataError("requires 0 <= sel_t <= mel_t for all periods")

    @property
    def capacity(self) -> float:
        """Plant capacity proxy: maximum MEL over the horizon [MW]."""
        return float(np.max(self.mel))


@dataclass(frozen=True, eq=False)
class MarketSeries:
    """Aligned electricity, fuel, and emission prices on a uniform grid."""

    grid: np.ndarray  # UTC timestamps, datetime64[s], uniform step
    w: np.ndarray     # electricity price, pounds/MWh
    f: np.ndarray     # fuel price, pounds/MWh(fuel)
    e: np.ndarray     # emissions price, pounds/tCO2
    dt: float         # step between periods, hours

    def __post_init__(self):
        grid = np.array(self.grid, dtype="datetime64[s]")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        for name in ("w", "f", "e"):
            object.__setattr__(self, name, _own_readonly(getattr(self, name)))
            if len(getattr(self, name)) != len(grid):
                raise DataError(f"price series {name} length differs from grid")
            _require_finite(f"price series {name}", getattr(self, name))
        if not self.dt > 0:
            raise DataError("dt must be positive")
        if len(grid) > 1:
            steps = np.diff(grid).astype("timedelta64[s]").astype(float)
            if np.any(steps <= 0):
                raise DataError("grid timestamps must be strictly increasing")
            if np.any(np.abs(steps - self.dt * 3600.0) > 1e-6):
                raise DataError("grid step does not match dt")

    @property
    def horizon(self) -> int:
        return len(self.grid)


@dataclass(frozen=True, eq=False)
class ObservedProduction:
    """Historical production (FPN-style plan) on the market grid."""

    grid: np.ndarray
    power: np.ndarray  # MW per period

    def __post_init__(self):
        grid = np.array(self.grid, dtype="datetime64[s]")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "power", _own_readonly(self.power))
        if len(self.power) != len(grid):
            raise DataError("observed power length differs from grid")
        _require_finite("observed power", self.power)
        if np.any(self.power < 0):
            raise DataError("observed power must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.grid)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Unit-commitment output: per-period power, commitment, start flags.

    Only structural checks run at construction; semantic feasibility
    (export limits, ramps, start logic, SEL rule) is the job of
    validate_schedule, which must also be able to describe broken input.
    """

    power: np.ndarray      # MW
    committed: np.ndarray  # 1 while on
    started: np.ndarray    # 1 in the period the plant turns on
    profit: float          # pounds over the horizon

    def __post_init__(self):
        object.__setattr__(self, "power", _own_readonly(self.power))
        object.__setattr__(self, "committed", _own_readonly(self.committed, dtype=np.int8))
        object.__setattr__(self, "started", _own_readonly(self.started, dtype=np.int8))
        n = len(self.power)
        if len(self.committed) != n or len(self.started) != n:
            raise DataError("schedule series length mismatch")

    @property
    def horizon(self) -> int:
        return len(self.power)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a bilevel fit."""

    best: PlantParameters
    sse: float                 # outer objective at best, MW^2 * periods
    rms: float                 # MW
    evaluations: int           # inner UC solves spent
    trace: tuple               # (PlantParameters, sse) per evaluation, in order
    normalized_report: NormalizedCosts
    schedule: Schedule         # inner optimum at best, the one scored as sse


def validate_parameters(p: PlantParameters) -> PlantParameters:
    """Check the parameters' invariants; returns ``p`` unchanged.

    Idempotent: a value that passes once passes again with identical output.
    """
    for name in ("eta", "sigma", "phi", "nu", "epsilon"):
        if not np.isfinite(getattr(p, name)):
            raise ParameterError(f"{name} is not finite")
    if not (0.0 < p.eta <= 1.0):
        raise ParameterError("eta out of range (0, 1]")
    for name in ("sigma", "phi", "nu", "epsilon"):
        if getattr(p, name) < 0:
            raise ParameterError(f"{name} negative")
    return p


def normalize_costs(p: PlantParameters, capacity: float) -> NormalizedCosts:
    """Report sigma and phi per MW of capacity; eta and nu pass through."""
    if not capacity > 0:
        raise ParameterError("capacity must be positive")
    return NormalizedCosts(
        eta=p.eta,
        sigma_per_cap=p.sigma / capacity,
        phi_per_cap=p.phi / capacity,
        nu=p.nu,
        capacity=float(capacity),
    )


def params_to_vector(p: PlantParameters) -> np.ndarray:
    """Fitted-parameter vector in the fixed order (eta, sigma, phi, nu)."""
    return np.array([p.eta, p.sigma, p.phi, p.nu], dtype=float)


def vector_to_params(vec: Sequence[float], epsilon: float) -> PlantParameters:
    """Inverse of params_to_vector; the emission factor is not fitted."""
    eta, sigma, phi, nu = (float(v) for v in vec)
    return PlantParameters(eta=eta, sigma=sigma, phi=phi, nu=nu, epsilon=float(epsilon))
