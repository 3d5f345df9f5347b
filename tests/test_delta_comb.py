import io
import math

import numpy as np
import pytest

from spectrakit import (DurationSeries, comb_survival, estimate_h, fit_comb,
                        sweep_delta_t)
from spectrakit.delta_comb import (default_delta_t_grid, read_comb_csv,
                                   write_comb_csv, write_delta_t_sweep_csv)


def test_constant_durations_hand_trace():
    # 22 x 1s with dT=10: strict '>' closes each window at 11 durations
    series = DurationSeries.from_values(np.ones(22))
    comb = fit_comb(series, 10.0)
    assert comb.m == 2
    assert list(comb.window_counts) == [11, 11]
    assert list(comb.window_sums) == [11.0, 11.0]
    assert list(comb.rates) == [1.0, 1.0]
    assert list(comb.weights) == [0.5, 0.5]


def test_single_duration_single_window():
    series = DurationSeries.from_values([5.0])
    comb = fit_comb(series, 1.0)
    assert comb.m == 1
    assert comb.rates[0] == pytest.approx(0.2)
    assert comb.weights[0] == 1.0


def test_tail_window_preserves_normalization():
    # 3+4 > 5 closes a window; the trailing 2 becomes a partial window
    series = DurationSeries.from_values([3.0, 4.0, 2.0])
    comb = fit_comb(series, 5.0)
    assert comb.m == 2
    assert list(comb.window_counts) == [2, 1]
    assert comb.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert comb.rates[1] == pytest.approx(0.5)


def test_drop_tail_renormalizes():
    series = DurationSeries.from_values([3.0, 4.0, 2.0])
    comb = fit_comb(series, 5.0, drop_tail=True)
    assert comb.m == 1
    assert comb.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert list(comb.window_counts) == [2]


def test_weights_sum_exactly_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        series = DurationSeries.from_values(rng.exponential(3.0, 500))
        comb = fit_comb(series, 30.0)
        assert abs(comb.weights.sum() - 1.0) < 1e-12
        assert comb.window_counts.sum() == series.n


def test_window_identities():
    rng = np.random.default_rng(22)
    series = DurationSeries.from_values(rng.exponential(2.0, 300))
    comb = fit_comb(series, 25.0)
    assert np.allclose(comb.rates, comb.window_counts / comb.window_sums, rtol=1e-15)
    assert np.allclose(comb.weights, comb.window_counts / series.n, rtol=1e-15)


def test_fit_comb_rejects_bad_delta_t():
    series = DurationSeries.from_values([1.0])
    with pytest.raises(ValueError):
        fit_comb(series, 0.0)
    with pytest.raises(ValueError):
        fit_comb(series, -3.0)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fit_comb(series, dt)


def test_exponential_rate_recovery():
    lam = 0.5
    rng = np.random.default_rng(23)
    series = DurationSeries.from_values(rng.exponential(1 / lam, 100000))
    comb = fit_comb(series, 2000.0)
    for rate, n_j in zip(comb.rates, comb.window_counts):
        assert abs(rate - lam) <= 3 * math.sqrt(lam**2 / n_j)


def test_comb_survival_at_zero():
    series = DurationSeries.from_values(np.ones(22))
    comb = fit_comb(series, 10.0)
    curve = comb_survival(comb, [0.0])
    assert curve.psi[0] == pytest.approx(1.0, abs=1e-12)


def test_comb_survival_single_exponential():
    comb = fit_comb(DurationSeries.from_values([5.0]), 1.0)
    # a=1, lambda=0.2: Psi(5) = e^-1
    curve = comb_survival(comb, [5.0])
    assert curve.psi[0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_comb_survival_two_component_value():
    from spectrakit.delta_comb import DeltaComb
    comb = DeltaComb(weights=np.array([0.5, 0.5]), rates=np.array([1.0, 2.0]),
                     m=2, delta_t=1.0, window_counts=np.array([1, 1]),
                     window_sums=np.array([1.0, 0.5]))
    curve = comb_survival(comb, [1.0])
    # oracle: 0.5*e^-1 + 0.5*e^-2 evaluated in extended precision
    assert curve.psi[0] == pytest.approx(0.2516073622, abs=1e-9)


def test_comb_survival_monotone_in_unit_interval():
    rng = np.random.default_rng(24)
    series = DurationSeries.from_values(rng.exponential(3.0, 1000))
    comb = fit_comb(series, 100.0)
    curve = comb_survival(comb, np.linspace(0, 50, 200))
    assert np.all(np.diff(curve.psi) <= 0)
    assert np.all((curve.psi > 0) & (curve.psi <= 1))


def test_sweep_single_element():
    series = DurationSeries.from_values(np.ones(22))
    results, best = sweep_delta_t(series, [10.0], taus=np.arange(1.0, 6.0))
    assert best == 0 and len(results) == 1


def test_sweep_poisson_plateau():
    rng = np.random.default_rng(25)
    series = DurationSeries.from_values(rng.exponential(2.0, 20000))
    dts = np.geomspace(50, 2000, 8)
    results, best = sweep_delta_t(series, dts, taus=np.arange(1.0, 21.0))
    ps = [r.ks.p_value for r in results]
    assert sum(p > 0.01 for p in ps) >= 6  # wide high-p plateau
    assert results[best].ks.p_value == max(ps)


def test_sweep_ties_break_toward_larger_delta_t():
    series = DurationSeries.from_values(np.ones(22))
    results, best = sweep_delta_t(series, [5.0, 10.0], taus=np.arange(1.0, 4.0),
                                  n_eff=1)
    if results[0].ks.p_value == results[1].ks.p_value:
        assert best == 1


def test_sweep_keeps_each_rebuilt_curve():
    rng = np.random.default_rng(28)
    series = DurationSeries.from_values(rng.exponential(3.0, 2000))
    taus = np.arange(1.0, 30.0)
    results, _ = sweep_delta_t(series, [20.0, 80.0, 300.0], taus=taus)
    for sol in results:
        assert np.array_equal(sol.rebuilt.taus, taus)
        assert np.array_equal(sol.rebuilt.psi, comb_survival(sol.comb, taus).psi)


def test_estimate_h_default_margin():
    from spectrakit.delta_comb import DeltaComb
    comb = DeltaComb(weights=np.array([1.0]), rates=np.array([0.226]),
                     m=1, delta_t=1.0, window_counts=np.array([1]),
                     window_sums=np.array([1 / 0.226]))
    h = estimate_h(comb, 196, margin=1.3)
    assert h == pytest.approx(0.0015, abs=1e-4)


def test_estimate_h_direct_and_linear_in_margin():
    from spectrakit.delta_comb import DeltaComb
    comb = DeltaComb(weights=np.array([1.0]), rates=np.array([1.0]),
                     m=1, delta_t=1.0, window_counts=np.array([1]),
                     window_sums=np.array([1.0]))
    assert estimate_h(comb, 100, margin=1.0) == pytest.approx(0.01)
    assert estimate_h(comb, 100, margin=2.0) == pytest.approx(
        2 * estimate_h(comb, 100, margin=1.0))


def test_default_delta_t_grid_brackets():
    rng = np.random.default_rng(26)
    series = DurationSeries.from_values(rng.exponential(3.0, 5000))
    grid = default_delta_t_grid(series)
    assert grid.size == 30
    assert grid[0] == pytest.approx(10 * series.mean)
    assert grid[-1] == pytest.approx(series.n * series.mean / 5)


def test_comb_csv_roundtrip():
    rng = np.random.default_rng(27)
    series = DurationSeries.from_values(rng.exponential(2.0, 200))
    comb = fit_comb(series, 40.0)
    buf = io.StringIO()
    write_comb_csv(comb, buf)
    back = read_comb_csv(io.StringIO(buf.getvalue()))
    assert back.delta_t == pytest.approx(comb.delta_t, abs=1e-9)
    assert np.allclose(back.rates, comb.rates, atol=1e-9)
    assert np.allclose(back.weights, comb.weights, atol=1e-9)
    assert np.array_equal(back.window_counts, comb.window_counts)
    header = "lambda,weight,window_count,window_sum\n"
    for bad, message in ((header + "0.5,1,2,4\n", "delta_t"),
                         ("# delta_t=nan\n" + header + "0.5,1,2,4\n", "delta_t"),
                         ("# delta_t=5\n" + header + "0.5,1,2.5,4\n", "window_count"),
                         ("# delta_t=5\n" + header + "0.5,1,2,inf\n", "line 3:"),
                         ("# delta_t=5\n" + header + "0.5,1,2\n", "line 3:")):
        with pytest.raises(ValueError, match=message):
            read_comb_csv(io.StringIO(bad))


def test_sweep_csv_columns():
    series = DurationSeries.from_values(np.ones(22))
    results, _ = sweep_delta_t(series, [5.0, 10.0], taus=np.arange(1.0, 4.0))
    buf = io.StringIO()
    write_delta_t_sweep_csv(results, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "delta_t,m,ks_statistic,ks_pvalue"
    assert len(lines) == 3
