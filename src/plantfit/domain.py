"""Core data types: plant parameters, dynamic limits, market series, schedules.

All types are immutable after construction (array fields are stored as
read-only copies) and safe to share across concurrent evaluations.
Start-up and fixed costs are absolute (pounds and pounds/h); per-MW-of-
capacity figures are derived only where the command line reports them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PARAM_NAMES = ("eta", "sigma", "phi", "nu")

# slack of SearchBounds.contains at each bound
_CONTAINS_TOL = 1e-12


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


@dataclass(frozen=True, eq=False)
class SearchBounds:
    """Box bounds for a derivative-free search.

    Generic n-dimensional box; plant fits use the four named dimensions
    (eta, sigma, phi, nu) built by :meth:`for_plant`, whose every point
    passes ``validate_parameters``.
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
        for i, (lo, hi) in enumerate(zip(self.lower.tolist(), self.upper.tolist())):
            dim = self.names[i] if self.names else f"dimension {i}"
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ParameterError(f"bounds of {dim} must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ParameterError(f"lower bound of {dim} must be below its upper bound, "
                                     f"got [{lo}, {hi}]")
        if self.names == PARAM_NAMES:  # each is valid on an interval: check the corners
            for corner, vec in (("lower", self.lower), ("upper", self.upper)):
                try:
                    validate_parameters(vector_to_params(vec, 0.0))
                except ParameterError as exc:
                    raise ParameterError(f"{corner} bounds are not valid parameters: "
                                         f"{exc}") from None

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

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=float)
        return bool(np.all(v >= self.lower - _CONTAINS_TOL)
                    and np.all(v <= self.upper + _CONTAINS_TOL))


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
    """Historical production (FPN-style plan), one value per market period."""

    power: np.ndarray  # MW per period

    def __post_init__(self):
        object.__setattr__(self, "power", _own_readonly(self.power))
        _require_finite("observed power", self.power)
        if np.any(self.power < 0):
            raise DataError("observed power must be non-negative")


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


def params_to_vector(p: PlantParameters) -> np.ndarray:
    """Fitted-parameter vector in the fixed order (eta, sigma, phi, nu)."""
    return np.array([p.eta, p.sigma, p.phi, p.nu], dtype=float)


def vector_to_params(vec: Sequence[float], epsilon: float) -> PlantParameters:
    """Inverse of params_to_vector; the emission factor is not fitted."""
    eta, sigma, phi, nu = (float(v) for v in vec)
    return PlantParameters(eta=eta, sigma=sigma, phi=phi, nu=nu, epsilon=float(epsilon))
