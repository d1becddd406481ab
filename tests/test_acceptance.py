"""Release gate: every criterion at its published scale and tolerance.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (run pytest with
-s to see them inline) and asserts the criterion.  These call the same check
functions as the `validate` CLI subcommand, at the `validate --full` scales
except `optimized_dominance`, which runs 20,000 draws per point (`--full`:
100,000).  Tests that report results of one check share one run of it.
"""

import math
import multiprocessing
import time

import numpy as np
import pytest

from cnoma_eh import validation
from cnoma_eh.specfun import bessel_k0, bessel_k1, gamma_upper_0_scaled

SEED = 20260809
WORKERS = 2


def report(num, result, extra=""):
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance {num:02d}] {result.name}: {status} "
          f"(value={result.value:.6g}, tolerance={result.tolerance}){extra}")
    assert result.passed, f"{result.name}: {result.value} vs {result.tolerance}; {result.detail}"


def by_name(results):
    return {res.name: res for res in results}


@pytest.fixture(scope="module")
def solver_pool():
    t0 = time.perf_counter()
    results = validation.check_solver_pool(seed=SEED)
    return by_name(results), time.perf_counter() - t0


@pytest.fixture(scope="module")
def weak_user():
    return by_name(validation.check_weak_user(seed=SEED + 4))


def test_01_solver_optimality_vs_2d_oracle(solver_pool):
    results, elapsed = solver_pool
    report(1, results["solver_optimality"], extra=f" [{elapsed:.1f}s]")
    assert elapsed < 60.0


def test_02_feasibility_at_solver_output(solver_pool):
    results, _ = solver_pool
    report(2, results["feasibility_rho_bound"])
    report(2, results["feasibility_decode_margin"])


def test_03_root_correctness():
    report(3, validation.check_root_crossing(seed=SEED + 1))
    report(3, validation.check_stationarity(seed=SEED + 2))


def test_04_special_functions_vs_live_oracles():
    mp = pytest.importorskip("mpmath")
    from test_specfun import oracle_gamma0, oracle_k

    worst = 0.0
    for x in np.logspace(-6, math.log10(500.0), 40):
        x = float(x)
        _, g_ref = oracle_gamma0(x)
        k0_ref, _ = oracle_k(0, x)
        k1_ref, _ = oracle_k(1, x)
        worst = max(
            worst,
            abs(gamma_upper_0_scaled(x) - g_ref) / g_ref,
            abs(bessel_k0(x) - k0_ref) / k0_ref,
            abs(bessel_k1(x) - k1_ref) / k1_ref,
        )
    res = validation.CheckResult(
        name="specfun_vs_integral_oracles",
        value=worst,
        tolerance=1e-10,
        passed=worst <= 1e-10,
        detail="40-point log grid on [1e-6, 500]",
    )
    report(4, res)
    report(4, validation.check_specfun_reference())
    report(4, validation.check_density_normalization())


def test_05_u1_closed_form_vs_million_draw_mc():
    t0 = time.perf_counter()
    res = validation.check_u1_analytic_vs_mc(seed=SEED + 3)
    elapsed = time.perf_counter() - t0
    report(5, res, extra=f" [{elapsed:.1f}s]")
    assert elapsed < 30.0


def test_06_u2_factored_tail_vs_correlated_mc(weak_user):
    report(6, weak_user["u2_analytic_vs_mc"])


def test_07_high_snr_scaling(weak_user):
    report(7, weak_user["high_snr_slope"])
    report(7, weak_user["u2_saturation"])


def test_08_fig2_gain_bands_and_dominance():
    for res in validation.check_fig2_gains(seed=SEED + 5, samples=100_000,
                                           workers=WORKERS):
        report(8, res)
    report(8, validation.check_optimized_dominance(seed=SEED + 6, samples=20_000,
                                                   workers=WORKERS))
    assert multiprocessing.active_children() == []  # each check's pool is shut down


def test_09_fig3_trends():
    t0 = time.perf_counter()
    results = validation.check_fig3_trends(seed=SEED + 7, samples=100_000,
                                           workers=WORKERS)
    elapsed = time.perf_counter() - t0
    for res in results:
        report(9, res, extra=f" [{elapsed:.1f}s]")
    assert elapsed < 600.0
    assert multiprocessing.active_children() == []


def test_10_worker_count_determinism():
    report(10, validation.check_determinism(seed=SEED + 8))
    assert multiprocessing.active_children() == []  # the workers=2 run's pool is shut down
