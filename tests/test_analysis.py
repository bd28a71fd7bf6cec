import math

import numpy as np
import pytest

from oqwalk import dilation
from oqwalk.analysis import (
    ChainParams,
    estimate_steps,
    fit_loglog_slope,
    gaussian_profile,
    iterate_master,
    kolmogorov_distance,
    omega_for_success,
    steady_state,
    steps_bound_for_eta,
    success_probability,
    total_variation,
)
from oracles import power_iterate, transition_matrix


def delta0(n):
    d = np.zeros(n)
    d[0] = 1.0
    return d


def test_transition_matrix_two_nodes():
    t = transition_matrix(ChainParams(2, 2 / 3))
    np.testing.assert_allclose(t, [[1 / 3, 1 / 3], [2 / 3, 2 / 3]], atol=1e-15)


def test_transition_matrix_columns_sum_to_one_exactly():
    for n in range(2, 65, 7):
        for omega in (0.1, 0.3, 0.5, 2 / 3, 0.85, 0.999):
            t = transition_matrix(ChainParams(n, omega))
            assert np.all(t.sum(axis=0) == 1.0)


def test_transition_matrix_deterministic_shift():
    t = transition_matrix(ChainParams(3, 1.0))
    out = power_iterate(t, delta0(3), 3)
    np.testing.assert_allclose(out, [0, 0, 1], atol=1e-15)


def test_steady_state_exponential_chain():
    x = steady_state(ChainParams(20, 2 / 3))
    assert abs(x[0] - 9.5367431640625e-7) < 1e-12  # 1 / (2^20 - 1), a = 2
    assert abs(x[19] - 0.50000047683739) < 1e-11
    # exponential shape: successive ratios equal a
    ratios = x[1:] / x[:-1]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-12)
    # power iteration lands on the same vector
    t = transition_matrix(ChainParams(20, 2 / 3))
    simulated = power_iterate(t, delta0(20), 1000)
    assert np.abs(simulated - x).max() <= 1e-6


def test_steady_state_uniform_at_half():
    np.testing.assert_allclose(steady_state(ChainParams(5, 0.5)), [0.2] * 5, atol=1e-15)


def test_steady_state_is_fixed_point():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        omega = rng.uniform(0.05, 0.95)
        p = ChainParams(n, omega)
        x = steady_state(p)
        assert abs(x.sum() - 1.0) < 1e-12
        assert np.abs(transition_matrix(p) @ x - x).max() <= 1e-12


def test_steady_state_large_n_no_overflow():
    x = steady_state(ChainParams(5000, 0.9))
    assert np.isfinite(x).all()
    assert abs(x.sum() - 1.0) < 1e-9


def test_steady_state_omega_one():
    x = steady_state(ChainParams(6, 1.0))
    np.testing.assert_allclose(x, np.eye(6)[5], atol=1e-15)


def test_chain_params_rejects_omega_zero():
    with pytest.raises(ValueError):
        ChainParams(4, 0.0)


def test_success_probability_values():
    assert abs(success_probability(ChainParams(20, 2 / 3)) - 0.5000004768372718) < 1e-12
    assert abs(success_probability(ChainParams(10, 0.5)) - 0.1) < 1e-15
    assert abs(success_probability(ChainParams(64, 2 / 3)) - 0.5) <= 1e-15


def test_success_probability_monotone_limit():
    vals = [success_probability(ChainParams(n, 2 / 3)) for n in range(2, 30)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_omega_for_success():
    assert abs(omega_for_success(0.5) - 2 / 3) < 1e-15
    assert omega_for_success(0.0) == 0.5
    with pytest.raises(ValueError):
        omega_for_success(1.0)


def test_omega_guarantee_grid():
    for eta in np.arange(0.1, 0.95, 0.1):
        omega = omega_for_success(eta)
        for n in range(2, 41):
            assert success_probability(ChainParams(n, omega)) >= eta - 1e-12


def test_master_step_single_step():
    out = iterate_master(delta0(5), ChainParams(5, 2 / 3), 1)
    np.testing.assert_allclose(out, [1 / 3, 2 / 3, 0, 0, 0], atol=1e-15)


def test_master_step_equals_matrix_action():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        p = ChainParams(n, rng.uniform(0.05, 0.95))
        dist = rng.dirichlet(np.ones(n))
        np.testing.assert_allclose(iterate_master(dist, p, 1),
                                   transition_matrix(p) @ dist, atol=1e-15)


def test_master_step_rejects_wrong_length():
    with pytest.raises(ValueError):
        iterate_master(np.ones(3) / 3, ChainParams(4, 0.6), 1)


def test_master_equation_drift_estimate():
    p = ChainParams(100, 2 / 3)
    dist = iterate_master(delta0(100), p, 300)
    assert 0.25 <= dist[99] <= 0.35


def test_gaussian_profile_peak():
    p = ChainParams(100, 2 / 3)
    for n in (30, 150):
        grid = np.arange(0, 100)
        vals = [gaussian_profile(m, n, p) for m in grid]
        assert grid[int(np.argmax(vals))] == round(p.v * n)
        peak = gaussian_profile(p.v * n, n, p)
        assert abs(peak - 1 / math.sqrt(2 * math.pi * n)) < 1e-15


def test_gaussian_profile_normalization():
    p = ChainParams(100, 2 / 3)
    n = 150
    lo, hi = p.v * n - 10 * math.sqrt(n), p.v * n + 10 * math.sqrt(n)
    grid = np.linspace(lo, hi, 20001)
    vals = np.array([gaussian_profile(m, n, p) for m in grid])
    assert abs(np.trapezoid(vals, grid) - 1.0) <= 1e-6


def test_gaussian_profile_rejects_n_zero():
    with pytest.raises(ValueError):
        gaussian_profile(0.0, 0, ChainParams(4, 0.7))


def test_estimate_steps():
    assert estimate_steps(ChainParams(100, 2 / 3), "exact") == 300
    assert estimate_steps(ChainParams(4, 0.6), "conservative") == 21
    assert estimate_steps(ChainParams(8, 0.7), "conservative") == 21
    assert estimate_steps(ChainParams(16, 0.7), "conservative") == 41
    with pytest.raises(ValueError):
        estimate_steps(ChainParams(4, 0.5))
    with pytest.raises(ValueError):
        estimate_steps(ChainParams(4, 0.7), "banana")


def test_steps_bound():
    # omega >= 1/(2-eta) implies the transit time N/v is at most N(2-eta)/eta,
    # with equality when omega sits exactly on the bound
    for eta in np.arange(0.1, 0.95, 0.1):
        for n in (4, 16, 100):
            bound = steps_bound_for_eta(n, eta)
            p = ChainParams(n, omega_for_success(eta))
            assert n / p.v <= bound + 1e-9
            for omega in (min(p.omega + 0.05, 0.99), 0.99):
                q = ChainParams(n, omega)
                assert n / q.v <= bound + 1e-9


def test_total_variation_and_kolmogorov():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert abs(total_variation(p, q) - 0.5) < 1e-15
    assert abs(kolmogorov_distance(p, q) - 0.5) < 1e-15
    assert total_variation(p, p) == 0.0


def test_fit_loglog_slope_exact_power_law():
    xs = np.array([4, 8, 16, 32])
    assert abs(fit_loglog_slope(xs, 7.0 * xs ** 3) - 3.0) < 1e-12
    assert abs(fit_loglog_slope(xs, 0.2 * xs ** 2) - 2.0) < 1e-12


@pytest.mark.parametrize("xs, ys", [
    ([4, 8, 16, 32], [0, 0, 0, 0]),
    ([4, 8, 16, 32], [1.0, -2.0, 3.0, 4.0]),
    ([0, 8, 16, 32], [1.0, 2.0, 3.0, 4.0]),
    ([4, 8, 16, 32], [1.0, float("nan"), 3.0, 4.0]),
], ids=["zero-costs", "negative-y", "zero-x", "nan-y"])
def test_fit_loglog_slope_rejects_non_positive_values(xs, ys):
    with pytest.raises(ValueError, match="needs positive x and y values"):
        fit_loglog_slope(xs, ys)


def test_fit_loglog_slope_fits_a_table_column_by_column():
    # the resources command's two slope rows, fitted in one call
    sizes = [4, 8, 16, 32]
    for dh in range(1, 9):
        for steps in range(1, 3000, 37):
            table = [[dilation.resource_report(method, dh, g, steps).cnot_estimate
                      for method in ("stinespring", "local")] for g in sizes]
            slopes = fit_loglog_slope(sizes, table)
            assert slopes == [fit_loglog_slope(sizes, [row[i] for row in table]) for i in (0, 1)]
            assert [type(s) for s in slopes] == [float, float]


def test_gaussian_window_against_master_iteration():
    """In the drift window the profile tracks the iterated distribution:
    small sup-CDF gap. The pointwise comparison carries the lattice's
    frozen parity oscillation, so plain total variation stays large."""
    p = ChainParams(100, 2 / 3)
    n = 150
    dist = iterate_master(delta0(100), p, n)
    gauss = np.array([gaussian_profile(m, n, p) for m in range(100)])
    assert kolmogorov_distance(dist, gauss) <= 0.05
    assert 0.15 <= total_variation(dist, gauss) <= 0.20


@pytest.mark.parametrize("run", [
    lambda: iterate_master(delta0(4), ChainParams(4, 0.6), -1),
], ids=["iterate_master"])
def test_negative_step_count_rejected(run):
    with pytest.raises(ValueError, match="step count must be non-negative"):
        run()


def test_master_step_steps_each_column():
    p = ChainParams(6, 0.3)
    cols = np.random.default_rng(4).dirichlet(np.ones(6), size=3).T
    out = iterate_master(cols, p, 1)
    for k in range(3):
        assert np.array_equal(out[:, k], iterate_master(cols[:, k], p, 1))
