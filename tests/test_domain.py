"""Domain types: validation, normalization, bounds."""
import numpy as np
import pytest

from plantfit import (
    DataError,
    MarketSeries,
    ObservedProduction,
    ParameterError,
    PlantDynamics,
    PlantParameters,
    Schedule,
    SearchBounds,
    make_grid,
    normalize_costs,
    params_to_vector,
    validate_parameters,
    vector_to_params,
)


def plant(eta=0.5, sigma=100.0, phi=10.0, nu=1.0, epsilon=0.2):
    return PlantParameters(eta=eta, sigma=sigma, phi=phi, nu=nu, epsilon=epsilon)


class TestValidateParameters:
    def test_typical_plant_values_pass(self):
        p = plant(eta=0.53, sigma=15000.0, phi=4500.0, nu=2.0)
        assert validate_parameters(p) is p

    def test_eta_zero_rejected(self):
        with pytest.raises(ParameterError, match="eta out of range"):
            validate_parameters(plant(eta=0.0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError, match="sigma negative"):
            validate_parameters(plant(sigma=-1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError, match="phi"):
            validate_parameters(plant(phi=float("nan")))

    def test_idempotent(self):
        p = plant()
        once = validate_parameters(p)
        assert validate_parameters(once) is once


class TestNormalizeCosts:
    def test_sigma_per_capacity(self):
        report = normalize_costs(plant(sigma=15000.0), capacity=500.0)
        assert report.sigma_per_cap == 30.0

    def test_zero_phi(self):
        assert normalize_costs(plant(phi=0.0), capacity=750.0).phi_per_cap == 0.0

    def test_thousand_mw_unit_scale(self):
        # 31000 GBP on a 1000 MW unit lands at 31 GBP/MW(cap)
        report = normalize_costs(plant(sigma=31000.0), capacity=1000.0)
        assert report.sigma_per_cap == pytest.approx(31.0)
        assert abs(report.sigma_per_cap - 30.0) < 2.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            normalize_costs(plant(), capacity=0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cap = float(rng.uniform(50, 2000))
            p = plant(sigma=float(rng.uniform(0, 1e5)), phi=float(rng.uniform(0, 1e4)))
            rep = normalize_costs(p, cap)
            assert rep.sigma_per_cap * cap == pytest.approx(p.sigma, rel=1e-9)
            assert rep.phi_per_cap * cap == pytest.approx(p.phi, rel=1e-9)
            assert rep.eta == p.eta and rep.nu == p.nu


class TestSearchBounds:
    def test_defaults_scale_with_capacity(self):
        b = SearchBounds.for_plant(500.0)
        assert b.range("eta") == (0.20, 0.65)
        assert b.range("sigma") == (0.0, 100000.0)
        assert b.range("phi") == (0.0, 10000.0)
        assert b.range("nu") == (0.0, 20.0)

    def test_lower_must_be_below_upper(self):
        with pytest.raises(ParameterError):
            SearchBounds(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_eta_bounds_constrained_to_unit_interval(self):
        with pytest.raises(ParameterError, match="eta"):
            SearchBounds.for_plant(500.0, eta=(0.0, 1.5))

    def test_contains(self):
        b = SearchBounds(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert b.contains(np.array([-5.0, 5.0]))
        assert not b.contains(np.array([6.0, 0.0]))


class TestVectors:
    def test_round_trip(self):
        p = plant(eta=0.41, sigma=12.5, phi=3.25, nu=0.75, epsilon=0.3)
        q = vector_to_params(params_to_vector(p), epsilon=0.3)
        assert q == p


class TestSeriesInvariants:
    def test_dynamics_sel_above_mel_rejected(self):
        with pytest.raises(DataError, match="sel"):
            PlantDynamics(mel=np.array([100.0, 100.0]), sel=np.array([50.0, 120.0]),
                          ramp_up=60.0, ramp_dn=60.0)

    def test_dynamics_ramps_positive(self):
        with pytest.raises(DataError, match="ramp"):
            PlantDynamics(mel=np.array([100.0]), sel=np.array([0.0]),
                          ramp_up=0.0, ramp_dn=60.0)

    def test_dynamics_capacity_is_max_mel(self):
        dyn = PlantDynamics(mel=np.array([80.0, 120.0, 90.0]), sel=np.zeros(3),
                            ramp_up=60.0, ramp_dn=60.0)
        assert dyn.capacity == 120.0

    def test_market_grid_step_must_match_dt(self):
        grid = make_grid("2018-01-01T00:00:00Z", 3, 1.0)
        with pytest.raises(DataError, match="step"):
            MarketSeries(grid=grid, w=np.zeros(3), f=np.zeros(3), e=np.zeros(3), dt=0.5)

    def test_market_series_length_checked(self):
        grid = make_grid("2018-01-01T00:00:00Z", 3, 1.0)
        with pytest.raises(DataError, match="length"):
            MarketSeries(grid=grid, w=np.zeros(2), f=np.zeros(3), e=np.zeros(3), dt=1.0)

    def test_schedule_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Schedule(power=np.array([50.0, 0.0]), committed=np.array([1]),
                     started=np.array([1]), profit=0.0)

    def test_observed_power_non_negative(self):
        grid = make_grid("2018-01-01T00:00:00Z", 2, 0.5)
        with pytest.raises(DataError):
            ObservedProduction(grid=grid, power=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("field", ["w", "f", "e"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_market_prices_must_be_finite(self, field, bad):
        grid = make_grid("2018-01-01T00:00:00Z", 3, 1.0)
        series = {"w": np.full(3, 50.0), "f": np.full(3, 20.0), "e": np.full(3, 10.0)}
        series[field][1] = bad
        with pytest.raises(DataError, match=f"price series {field} must be finite"):
            MarketSeries(grid=grid, dt=1.0, **series)

    @pytest.mark.parametrize("field", ["mel", "sel", "ramp_up", "ramp_dn"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_dynamics_must_be_finite(self, field, bad):
        values = {"mel": np.full(2, 100.0), "sel": np.full(2, 40.0),
                  "ramp_up": 60.0, "ramp_dn": 60.0}
        if field in ("mel", "sel"):
            values[field][0] = bad
        else:
            values[field] = bad
        with pytest.raises(DataError, match=f"{field} must be finite"):
            PlantDynamics(**values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_observed_power_must_be_finite(self, bad):
        grid = make_grid("2018-01-01T00:00:00Z", 2, 0.5)
        with pytest.raises(DataError, match="observed power must be finite"):
            ObservedProduction(grid=grid, power=np.array([1.0, bad]))

    def test_arrays_are_read_only(self):
        dyn = PlantDynamics(mel=np.array([100.0]), sel=np.array([0.0]),
                            ramp_up=60.0, ramp_dn=60.0)
        with pytest.raises(ValueError):
            dyn.mel[0] = 5.0
