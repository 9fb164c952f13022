"""Release acceptance: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict; the
recovery criteria share the session-scoped closed-loop fixture built in
conftest. Published best-fit estimates for comparable UK plants serve as
plausibility brackets; reproducing them exactly would need the original
market and production data, which is not distributed here.
"""
import dataclasses
import time

import numpy as np
import pytest

from plantfit import (
    CompassConfig,
    DeConfig,
    FitContext,
    PlantParameters,
    SearchBounds,
    SolverOptions,
    UcGraph,
    compass_search,
    differential_evolution,
    evaluate_candidate,
    fit,
    landscape_slice,
    solve_uc,
    synthesize,
    validate_schedule,
)
from conftest import (
    DAY,
    EPSILON,
    TRUE_PARAMS,
    flat_dynamics,
    random_dispatch_instance,
    random_small_instance,
    recovery_market,
    solve,
    toy_market,
)
from oracle import enumerate_uc_oracle
from test_search import batched

CAPACITY = 500.0

# published best-fit values used as plausibility brackets
PUBLISHED_ETA = (0.34, 0.39, 0.53, 0.58)
PUBLISHED_SIGMA_PER_CAP = (30.0, 55.0, 62.0, 76.0, 30.0)
PUBLISHED_PHI_PER_CAP = (9.0, 3.5, 11.4, 4.8, 5.0)
PUBLISHED_NU = (2.0, 6.5, 0.9, 0.0, 2.0)


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def eta_sigma_slice(recovery_context):
    """The (eta values, sigma values, rms array) of the eta-sigma landscape."""
    etas = np.linspace(0.2, 0.65, 25)
    sigmas = np.linspace(0.0, 100000.0, 25)
    return etas, sigmas, landscape_slice(("eta", etas), ("sigma", sigmas), TRUE_PARAMS,
                                         recovery_context, SolverOptions(), jobs=2)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20180101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        instance, opts = random_small_instance(rng)
        oracle = enumerate_uc_oracle(instance, opts)
        solved = solve(instance, opts)
        scale = max(1.0, abs(oracle.profit))
        worst = max(worst, abs(solved.profit - oracle.profit) / scale)
    elapsed = time.perf_counter() - start
    verdict(1, "UC oracle equivalence", worst <= 1e-6 and elapsed < 10.0,
            f"worst rel diff {worst:.2e}, {elapsed:.1f}s for 100 instances")


def test_criterion_2_feasibility_and_cost_monotonicity():
    rng = np.random.default_rng(20180102)
    start = time.perf_counter()
    opts = SolverOptions()
    violations = 0
    increases = 0
    for _ in range(1000):
        instance = random_dispatch_instance(rng, T=336)
        graph = UcGraph(instance.dynamics, instance.market.dt, opts,
                        instance.initial_committed, instance.initial_power)
        base = solve_uc(graph, instance.market, instance.params)
        if validate_schedule(base, instance):
            violations += 1
        tol = 1e-9 * (1.0 + abs(base.profit))
        for field in ("sigma", "phi", "nu"):
            bumped = dataclasses.replace(
                instance.params, **{field: getattr(instance.params, field) * 1.1})
            worse = solve_uc(graph, instance.market, bumped)
            if worse.profit > base.profit + tol:
                increases += 1
    elapsed = time.perf_counter() - start
    verdict(2, "UC feasibility and monotonicity",
            violations == 0 and increases == 0 and elapsed < 120.0,
            f"{violations} infeasible, {increases} profit increases, {elapsed:.0f}s")


def test_criterion_3_noiseless_recovery(recovery_context):
    start = time.perf_counter()
    result = fit(recovery_context, de_cfg=DeConfig(seed=1), jobs=8)
    elapsed = time.perf_counter() - start
    verdict(3, "closed-loop recovery, noiseless",
            result.sse <= 1e-6 and elapsed <= 600.0,
            f"sse {result.sse:.3g}, {elapsed:.0f}s, {result.evaluations} evaluations")


def test_criterion_4_identifiable_recovery(recovery_context, eta_sigma_slice):
    _, _, errors = eta_sigma_slice
    minima = np.argwhere(errors == errors.min())
    unique_basin = len(minima) == 1
    result = fit(recovery_context,
                 de_cfg=DeConfig(population=40, generations=250, seed=1),
                 jobs=8)
    eta_ok = abs(result.best.eta - TRUE_PARAMS.eta) <= 0.02
    sigma_per_cap = result.best.sigma / CAPACITY
    sigma_true_per_cap = TRUE_PARAMS.sigma / CAPACITY
    sigma_ok = abs(sigma_per_cap - sigma_true_per_cap) <= 0.2 * sigma_true_per_cap
    verdict(4, "closed-loop recovery, identifiable instance",
            unique_basin and eta_ok and sigma_ok,
            f"eta {result.best.eta:.4f} (true {TRUE_PARAMS.eta}), "
            f"sigma/cap {sigma_per_cap:.1f} (true {sigma_true_per_cap:.0f}), "
            f"{len(minima)} minimal landscape cell(s)")


def test_criterion_5_noise_robustness(noisy_recovery_context):
    result = fit(noisy_recovery_context, de_cfg=DeConfig(seed=1), jobs=8)
    rms_ok = result.rms <= 7.0
    eta_ok = abs(result.best.eta - TRUE_PARAMS.eta) <= 0.03
    verdict(5, "noise robustness", rms_ok and eta_ok,
            f"rms {result.rms:.2f} MW, eta {result.best.eta:.4f}")


def _published_case_market(params, T=192):
    """Anchored price pattern around the breakeven of the given parameters."""
    breakeven = params.nu + (20.0 + 20.0 * params.epsilon) / params.eta
    w = np.empty(T)
    w[:DAY] = breakeven - 15.0
    offsets = [12.0, 1.0, 12.0, -1.0, 12.0, 2.0, 12.0, -2.0]
    t = DAY
    k = 0
    while t < T:
        ln = min(6, T - t)
        w[t:t + ln] = breakeven + offsets[k % len(offsets)]
        t += ln
        k += 1
    return toy_market(w, dt=0.5, fuel=20.0, carbon=20.0)


def test_criterion_6_plausibility_brackets():
    bounds = SearchBounds.for_plant(CAPACITY)
    contains = all(bounds.range("eta")[0] <= v <= bounds.range("eta")[1]
                   for v in PUBLISHED_ETA)
    contains &= all(bounds.range("sigma")[0] <= v * CAPACITY <= bounds.range("sigma")[1]
                    for v in PUBLISHED_SIGMA_PER_CAP)
    contains &= all(bounds.range("phi")[0] <= v * CAPACITY <= bounds.range("phi")[1]
                    for v in PUBLISHED_PHI_PER_CAP)
    contains &= all(bounds.range("nu")[0] <= v <= bounds.range("nu")[1]
                    for v in PUBLISHED_NU)

    in_bounds = True
    for eta, sig, phi, nu in zip(PUBLISHED_ETA + (0.39,), PUBLISHED_SIGMA_PER_CAP,
                                 PUBLISHED_PHI_PER_CAP, PUBLISHED_NU):
        published = PlantParameters(eta=eta, sigma=sig * CAPACITY, phi=phi * CAPACITY,
                                    nu=nu, epsilon=EPSILON)
        market = _published_case_market(published)
        dynamics = flat_dynamics(market.horizon, mel=CAPACITY, sel=200.0,
                                 ramp_up=300.0, ramp_dn=300.0)
        observed = synthesize(published, dynamics, market, SolverOptions())
        context = FitContext.from_observed(dynamics, market, observed, epsilon=EPSILON)
        result = fit(context, de_cfg=DeConfig(population=16, generations=40, seed=1),
                     compass_cfg=CompassConfig(max_iterations=40))
        vec = np.array([result.best.eta, result.best.sigma, result.best.phi,
                        result.best.nu])
        in_bounds &= bounds.contains(vec)
    verdict(6, "plausibility brackets", contains and in_bounds,
            "published values inside default bounds; fitted values inside bounds")


def test_criterion_7_optimizer_sanity():
    bounds = SearchBounds(np.full(4, -5.0), np.full(4, 5.0))
    sphere = lambda x: float(np.dot(x, x))
    cfg = DeConfig(population=32, generations=200, seed=7, target=-1.0)
    first = differential_evolution(batched(sphere), bounds, cfg)
    second = differential_evolution(batched(sphere), bounds, cfg)
    de_ok = first.score <= 1e-4
    de_det = np.array_equal(first.best, second.best) and first.score == second.score

    quad = lambda x: float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 2.0) ** 2)
    box2 = SearchBounds(np.full(2, -5.0), np.full(2, 5.0))
    ccfg = CompassConfig(min_step=(1e-5, 1e-5), max_iterations=1000)
    ca = compass_search(batched(quad), np.zeros(2), box2, ccfg)
    cb = compass_search(batched(quad), np.zeros(2), box2, ccfg)
    compass_ok = abs(ca.best[0] - 1.0) <= 1e-3 and abs(ca.best[1] + 2.0) <= 1e-3
    compass_det = np.array_equal(ca.best, cb.best)
    verdict(7, "optimizer sanity", de_ok and de_det and compass_ok and compass_det,
            f"DE sphere best {first.score:.2e}, compass at "
            f"({ca.best[0]:.5f}, {ca.best[1]:.5f})")


def test_criterion_8_landscape_reproduction(eta_sigma_slice):
    etas, sigmas, errors = eta_sigma_slice
    i_min, j_min = np.unravel_index(np.argmin(errors), errors.shape)
    i_true = int(np.argmin(np.abs(etas - TRUE_PARAMS.eta)))
    j_true = int(np.argmin(np.abs(sigmas - TRUE_PARAMS.sigma)))
    at_truth = (i_min, j_min) == (i_true, j_true)

    row = errors[:, j_true]
    right = np.diff(row[i_true:])
    left = np.diff(row[:i_true + 1][::-1])
    monotone = bool((right >= -1e-9).all() and (left >= -1e-9).all())
    verdict(8, "landscape reproduction", at_truth and monotone,
            f"min cell (eta {etas[i_min]:.4f}, sigma {sigmas[j_min]:.0f}), "
            f"monotone along eta: {monotone}")
