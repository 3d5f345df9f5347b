import io
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectrakit import (DurationSeries, MlParams, assemble_kernel, comb_survival,
                        empirical_survival, estimate_h, fit_comb, gen_mittag_leffler,
                        ks_pvalue, ml_survival, sweep_delta_t, sweep_mu)
from spectrakit.delta_comb import (_CHUNK, _ULP_GAP, _ks_distance, _psi_chunks,
                                   _window_ends, default_delta_t_grid, write_comb_csv,
                                   write_delta_t_sweep_csv)


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


def test_weights_sum_exactly_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        series = DurationSeries.from_values(rng.exponential(3.0, 500))
        comb = fit_comb(series, 30.0)
        assert abs(comb.weights.sum() - 1.0) < 1e-12
        assert comb.window_counts.sum() == series.n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
def test_weights_sum_to_one_property(n, seed, dt_over_mean):
    values = np.random.default_rng(seed).exponential(3.0, n) + 1e-9
    series = DurationSeries.from_values(values)
    comb = fit_comb(series, dt_over_mean * series.mean)
    assert abs(comb.weights.sum() - 1.0) < 1e-12
    assert comb.window_counts.sum() == series.n


def test_window_identities():
    rng = np.random.default_rng(22)
    series = DurationSeries.from_values(rng.exponential(2.0, 300))
    comb = fit_comb(series, 25.0)
    assert np.allclose(comb.rates, comb.window_counts / comb.window_sums, rtol=1e-15)
    assert np.allclose(comb.weights, comb.window_counts / series.n, rtol=1e-15)


def exact_windows(values, delta_t):
    """Reference windowing, the paper's definition in exact arithmetic: add
    the durations one by one and close a window once its sum exceeds
    delta_t; a trailing run that never does is the last window.

    Returns the counts and the Fraction sums.  Every float is a ratio
    with a power-of-two denominator, so the running sums are kept as
    integers over the largest one.
    """
    ratios = [x.as_integer_ratio() for x in [*values, float(delta_t)]]
    den = max(d for _, d in ratios)
    *steps, limit = [num * (den // d) for num, d in ratios]
    counts, sums, count, total = [], [], 0, 0
    for step in steps:
        count += 1
        total += step
        if total > limit:
            counts.append(count)
            sums.append(Fraction(total, den))
            count, total = 0, 0
    if count:
        counts.append(count)
        sums.append(Fraction(total, den))
    return counts, sums


def exact_ends(values, delta_t):
    """Last index of each exact window, len(values) for a trailing run."""
    counts, sums = exact_windows(values, delta_t)
    ends = (np.cumsum(counts) - 1).tolist()
    if sums[-1] <= Fraction(delta_t):
        ends[-1] = len(values)
    return ends


def assert_matches_oracle(values, delta_t):
    """fit_comb's stated contract: window counts equal the exact windows',
    and each window sum is within 1e-14 relative of its exact sum."""
    series = DurationSeries.from_values(values)
    counts, sums = exact_windows(series.values.tolist(), delta_t)
    comb = fit_comb(series, delta_t)
    assert comb.window_counts.tolist() == counts
    for got, exact in zip(comb.window_sums.tolist(), sums):
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact
    assert np.array_equal(comb.weights, comb.window_counts / series.n)
    assert np.array_equal(comb.rates, comb.window_counts / comb.window_sums)
    return comb


@st.composite
def boundary_series(draw):
    """Multiples of 0.1, after an optional large lead, and a delta_t that
    ties a run's float running sum or is itself a multiple of 0.1.

    The lead makes prefix sums coarse, so that their differences round
    across delta_t where the exact window sum does not.
    """
    lead = draw(st.sampled_from([[], [0.1], [7.3], [1e3], [1e6], [1e9 + 0.1]]))
    tenths = [k * 0.1 for k in draw(st.lists(st.integers(1, 30), min_size=1, max_size=80))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tenths) - 1))
        j = draw(st.integers(i + 1, len(tenths)))
        delta_t = 0.0
        for tau in tenths[i:j]:
            delta_t += tau
    else:
        delta_t = draw(st.integers(1, 60)) * 0.1
    return lead + tenths, delta_t


@settings(max_examples=300, deadline=None)
@given(boundary_series())
# 0.1 + 0.2 > 0.3 closes the first window; for the second, csum[1] + 0.3
# rounds up to csum[2], so the prefix sums alone see a trailing run
@example(([0.1, 0.2, 0.1 * 3], 0.3))
def test_fit_comb_equals_sequential_scan_at_boundaries(case):
    values, delta_t = case
    assert_matches_oracle(values, delta_t)


def test_fit_comb_equals_sequential_scan_on_random_series():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 50, 5000):
        values = rng.exponential(3.0, n) + 1e-9
        for dt in (1e-3, 2.9, 30.0, 3.0 * n, 10.0 * n):
            assert_matches_oracle(values, dt)


def test_fit_comb_equals_sequential_scan_on_long_windows():
    # windows of 60k to 200k durations, and a trailing run of the whole series
    values = np.random.default_rng(43).exponential(3.0, 200_000) + 1e-9
    total = math.fsum(values)
    for fraction in (0.3, 0.4, 0.7, 1.5):
        comb = assert_matches_oracle(values, fraction * total)
        assert comb.window_counts.max() > 1 << 15


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([60.0, 100.0, 300.0]))
# window sums land near a round delta_t, where prefix-sum differences and a
# float running sum round across it: here the exact windows are 136, and a
# one-by-one float scan finds 137
@example(1000, 28, 60.0)
def test_fit_comb_equals_sequential_scan_on_rounded_durations(n, seed, delta_t):
    values = np.round(np.random.default_rng(seed).exponential(8.85, n), 2)
    # a draw rounds to 0.00 about once in 1,800, and a series of none is refused
    assume(np.any(values > 0))
    assert_matches_oracle(values[values > 0], delta_t)


@pytest.mark.parametrize("delta_t, m", [(1.0, 201), (10.0, 21)])
def test_exact_sums_bisect_the_band(monkeypatch, delta_t, m):
    # after a 1e15 lead every prefix sum is 1e15 (0.01 is below half its
    # ulp), so each window's band of uncertain ends is the rest of the series;
    # the float 0.01 is just above 1/100, so 100 * delta_t of them exceed it
    from spectrakit import delta_comb
    calls = []
    exceeds = delta_comb._exceeds

    def counting(values, start, stop, dt):
        calls.append(start)
        return exceeds(values, start, stop, dt)

    monkeypatch.setattr(delta_comb, "_exceeds", counting)
    values = np.concatenate(([1e15], np.full(20_000, 0.01)))
    comb = assert_matches_oracle(values, delta_t)
    assert comb.m == m
    csum = np.cumsum(values)
    slack = 4 * values.size * 2.0 ** -53 * csum[-1]
    starts = np.concatenate(([0], np.cumsum(comb.window_counts)[:-1]))
    for start in starts.tolist():
        target = (csum[start - 1] if start else 0.0) + delta_t
        band = np.count_nonzero(np.abs(csum[start:] - target) <= slack)
        assert calls.count(start) <= math.ceil(math.log2(band + 1)) + 1
    assert calls


@pytest.mark.parametrize("lead, n", [(1e15, 20_000), (1e15, 60_000), (1e12, 200_000)])
def test_exact_sums_read_each_window_about_once(monkeypatch, lead, n):
    # after the lead, the band of uncertain ends spans the rest of the series
    # (see above); narrowed on sums from each window's start, the exact sums
    # read about n durations in all, where bisecting the whole band read
    # 2.1M, 18.4M and 18.6M
    from spectrakit import delta_comb
    summed = []
    exceeds = delta_comb._exceeds

    def counting(values, start, stop, dt):
        summed.append(stop - start)
        return exceeds(values, start, stop, dt)

    monkeypatch.setattr(delta_comb, "_exceeds", counting)
    values = np.concatenate(([lead], np.full(n, 0.01)))
    assert _window_ends(DurationSeries.from_values(values), 1.0, 16) == exact_ends(
        values.tolist(), 1.0)
    assert summed and sum(summed) <= 2 * n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.sampled_from(["pareto", "ml"]),
       st.floats(0.3, 1.0), st.floats(-7.0, 0.5))
def test_bounded_chase_equals_the_unbounded_one_on_heavy_tails(n, seed, law, shape,
                                                               log_fraction):
    # heavy tails put windows of many times the expected length delta_t/mean
    # next to short ones, so ends fall inside, at and past the span; delta_t
    # runs from below the smallest duration to above the total
    if law == "pareto":
        values = np.random.default_rng(seed).pareto(shape, n) + 1.0
    else:
        values = gen_mittag_leffler(MlParams(shape, 8.85), n, seed).values
    delta_t = math.fsum(values) * 10.0 ** log_fraction
    assert_matches_oracle(values, delta_t)
    series = DurationSeries.from_values(values)
    expected = exact_ends(series.values.tolist(), delta_t)
    for span in (1, 2, 16, n):
        assert _window_ends(series, delta_t, span) == expected


@pytest.mark.parametrize("delta_t, first_end", [(15.0, 15), (16.0, 16), (17.0, 17)])
def test_first_end_inside_at_and_past_the_span(delta_t, first_end):
    # 20 ones before long durations: the mean is ~5,000, so the span is 16 and
    # the first window ends before, exactly at, or after start + span
    values = np.concatenate((np.ones(20), np.full(20, 1e4)))
    assert max(16, int(2 * delta_t / values.mean())) == 16
    ends = _window_ends(DurationSeries.from_values(values), delta_t, 16)
    assert ends[0] == first_end
    assert ends == exact_ends(values.tolist(), delta_t)
    assert_matches_oracle(values, delta_t)


def test_ends_at_n_and_trailing_windows():
    # start + span == n: the whole series is one trailing run
    assert _window_ends(DurationSeries.from_values(np.ones(16)), 100.0, 16) == [16]
    assert_matches_oracle(np.ones(16), 100.0)
    # the last window closes on the last duration: no trailing run
    assert _window_ends(DurationSeries.from_values(np.ones(17)), 16.0, 16) == [16]
    assert_matches_oracle(np.ones(17), 16.0)
    # three windows of six, then a trailing run of two
    comb = fit_comb(DurationSeries.from_values(np.ones(20)), 5.5)
    assert comb.window_counts.tolist() == [6, 6, 6, 2]
    assert comb.window_sums.tolist() == [6.0, 6.0, 6.0, 2.0]


def test_fit_comb_span_does_not_overflow():
    # 2 * delta_t / mean is inf here; the span is clamped to n first
    comb = fit_comb(DurationSeries.from_values([1e-300, 2e-300, 3e-300]), 1e308)
    assert comb.m == 1
    assert comb.window_counts.tolist() == [3]


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


def test_comb_survival_refuses_negative_tau():
    # exp(+0.5) would give Psi = 1.6487 at tau = -0.5, and exp(+1e6) overflow
    comb = fit_comb(DurationSeries.from_values(np.ones(22)), 10.0)
    for taus in ([-0.5], [-1e6, -2.0]):
        with pytest.raises(ValueError, match="tau grid values must be >= 0"):
            comb_survival(comb, taus)


def test_sweep_single_element():
    series = DurationSeries.from_values(np.ones(22))
    results, best = sweep_delta_t(series, [10.0],
                                  empirical_survival(series, np.arange(1.0, 6.0)))
    assert best == 0 and len(results) == 1


def test_sweep_poisson_plateau():
    rng = np.random.default_rng(25)
    series = DurationSeries.from_values(rng.exponential(2.0, 20000))
    dts = np.geomspace(50, 2000, 8)
    results, best = sweep_delta_t(series, dts,
                                  empirical_survival(series, np.arange(1.0, 21.0)))
    ps = [r.ks.p_value for r in results]
    assert sum(p > 0.01 for p in ps) >= 6  # wide high-p plateau
    assert results[best].ks.p_value == max(ps)


def test_sweep_ties_break_toward_larger_delta_t():
    series = DurationSeries.from_values(np.ones(22))
    results, best = sweep_delta_t(series, [5.0, 10.0],
                                  empirical_survival(series, np.arange(1.0, 4.0)))
    assert results[0].ks == results[1].ks
    assert best == 1


def test_sweep_against_an_analytic_curve_has_sample_size_one():
    # n_source 0: both sweeps use a KS sample size of max(n_source, 1)
    rng = np.random.default_rng(31)
    series = DurationSeries.from_values(rng.exponential(8.85, 2000))
    K = assemble_kernel(0.01, 40)
    oracle = ml_survival(MlParams(beta=0.9, gamma=8.85), K.taus)
    assert oracle.n_source == 0
    results, _ = sweep_delta_t(series, [50.0, 200.0], oracle)
    solutions, _ = sweep_mu(K, oracle, [1e-3])
    for r in results + solutions:
        assert r.ks.n_eff == 1
        assert r.ks.p_value == ks_pvalue(r.ks.statistic, 1)


def test_sweep_rejects_bad_delta_t_before_any_fit(monkeypatch):
    from spectrakit import delta_comb
    calls = []
    fit = delta_comb.fit_comb

    def counting_fit(series, dt):
        calls.append(dt)
        return fit(series, dt)

    monkeypatch.setattr(delta_comb, "fit_comb", counting_fit)
    series = DurationSeries.from_values(np.ones(22))
    empirical = empirical_survival(series, np.arange(1.0, 4.0))
    for dts in ([100.0, float("nan")], [5.0, 0.0], [5.0, -1.0], [float("inf")], []):
        with pytest.raises(ValueError, match="delta_t"):
            sweep_delta_t(series, dts, empirical)
    assert calls == []


def test_sweep_keeps_each_rebuilt_curve():
    rng = np.random.default_rng(28)
    series = DurationSeries.from_values(rng.exponential(3.0, 2000))
    taus = np.arange(1.0, 30.0)
    results, _ = sweep_delta_t(series, [20.0, 80.0, 300.0], empirical_survival(series, taus))
    for sol in results:
        assert np.array_equal(sol.rebuilt.taus, taus)
        assert np.array_equal(sol.rebuilt.psi, comb_survival(sol.comb, taus).psi)


def _block_starts(comb, taus):
    """The first tau index of each block _psi_chunks evaluates."""
    return [lo for lo, _ in _psi_chunks(comb.rates, comb.weights, np.asarray(taus, float))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1])
       | st.integers(1, 20 * _CHUNK) | st.tuples(st.integers(1, 6), st.integers(-1, 1)),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0),
       st.floats(0.01, 50.0), st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.floats(0.5, 200.0), st.sampled_from([1.0, 30.0, 1000.0]))
def test_early_exit_ks_equals_full_grid_max(n_tau, start, step, seed, n, dt_over_mean,
                                            data_scale):
    # exponentials over four decades of scale
    rng = np.random.default_rng(seed)
    series = DurationSeries.from_values(
        rng.exponential(1.0, n) * 10.0 ** rng.uniform(0, 4, n) + 1e-9)
    dt = dt_over_mean * series.mean
    comb = fit_comb(series, dt)
    if isinstance(n_tau, tuple):
        # a grid that ends next to a block start of a longer one; every
        # block but the last is the same on the prefixes of a grid
        block, off = n_tau
        starts = _block_starts(comb, start + step * np.arange(20 * _CHUNK))
        n_tau = max(1, starts[min(block, len(starts) - 1)] + off)
    taus = start + step * np.arange(n_tau)
    # rescaled data moves the largest gap, and so the early exit, past the
    # first chunk; the sweep scores against the curve it is given
    empirical = empirical_survival(
        DurationSeries.from_values(series.values * data_scale), taus)
    d = _ks_distance(comb, empirical)
    assert d == float(np.max(np.abs(comb_survival(comb, taus).psi - empirical.psi)))
    (sol,), _ = sweep_delta_t(series, [dt], empirical)
    assert sol.ks.statistic == d


def assert_close_to_oracle(comb, taus, psi):
    """comb_survival's stated tolerance, against the same exp terms:

    - within 1e-14 relative of their math.fsum; a term that rounds into the
      subnormal range is off by up to half of 2**-1074, hence m * 2**-1074
      absolute on top;
    - exactly 0 where the full product np.exp(-np.outer(taus, rates)) @
      weights is 0;
    - a lone column of weight 1 is exp(-lambda * tau) itself, to the bit.
    """
    exps = np.exp(-np.outer(taus, comb.rates))
    oracle = np.array([math.fsum(row) for row in exps * comb.weights])
    assert np.all(np.abs(psi - oracle) <= 1e-14 * oracle + comb.m * 2.0 ** -1074)
    assert np.array_equal(psi == 0, exps @ comb.weights == 0)
    if comb.m == 1 and comb.weights[0] == 1.0:
        assert np.array_equal(psi, exps[:, 0])


_ORACLE_CHECK = """
import numpy as np
from spectrakit import (DeltaComb, DurationSeries, MlParams, comb_survival, fit_comb,
                        gen_mittag_leffler)
from test_delta_comb import assert_close_to_oracle
rng = np.random.default_rng(29)
series = DurationSeries.from_values(rng.exponential(1.0, 5000)
                                    * 10.0 ** rng.uniform(0, 3, 5000))
cases = [(fit_comb(series, dt), taus) for dt in (30.0, 3000.0, 300000.0)
         for taus in (np.arange(0.0, 5.0), np.arange(1.0, 2500.0),
                      np.arange(1.0, 30000.0, 9.0))]
# Psi itself runs through the subnormal range, where every exp term counts
for rates, weights in (([1.0, 1.5, 2.0], [0.2, 0.3, 0.5]), ([1.0], [1.0])):
    few = DeltaComb(weights=np.array(weights), rates=np.array(rates), m=len(rates),
                    delta_t=1.0, window_counts=np.ones(len(rates), dtype=int),
                    window_sums=1.0 / np.array(rates))
    cases.append((few, np.arange(0.0, 800.0, 0.5)))
for comb, taus in cases:
    assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)
# the ml-55k plot curve: m = 3,735 rates over 3.4 decades on tau = 1..40,000,
# where the relative cut leaves 2.4% of the terms live; the oracle checks
# every 37th row (37 is prime to the block length)
wide = fit_comb(gen_mittag_leffler(MlParams(0.95, 8.85), 55_559, 202), 138.2)
taus = np.arange(1.0, 40001.0)
assert_close_to_oracle(wide, taus[::37], comb_survival(wide, taus).psi[::37])
print("ok")
"""


@pytest.mark.parametrize("blas_threads", ["1", None], ids=["one-thread", "threaded"])
def test_chunked_comb_survival_matches_full_matrix(blas_threads):
    # blocks from the first cut on sum their live terms in rate order, and
    # threaded BLAS may split a row's dot product: both stay within the tolerance
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
        if blas_threads:
            env[var] = blas_threads
    proc = subprocess.run([sys.executable, "-c", _ORACLE_CHECK],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_sweep_memory_is_bounded_by_the_chunk():
    # a full 40k x ~1000 exp matrix alone would be 320 MB
    rng = np.random.default_rng(30)
    series = DurationSeries.from_values(rng.exponential(2.0, 20_000))
    taus = np.arange(1.0, 40_001.0)
    tracemalloc.start()
    try:
        results, _ = sweep_delta_t(series, [40.0], empirical_survival(series, taus))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 900 <= results[0].comb.m <= 1100
    assert peak < 64e6


def _comb(rates, weights=None):
    from spectrakit.delta_comb import DeltaComb
    rates = np.asarray(rates, dtype=float)
    weights = np.full(rates.size, 1.0 / rates.size) if weights is None else weights
    return DeltaComb(weights=weights, rates=rates, m=rates.size, delta_t=1.0,
                     window_counts=np.ones(rates.size, dtype=int),
                     window_sums=1.0 / rates)


def _rate_hitting(product: float, tau: float) -> float:
    """A rate whose computed tau * rate is exactly ``product``, if one is near."""
    rate = product / tau
    near = (np.nextafter(rate, 0.0), rate, np.nextafter(rate, np.inf))
    return next((r for r in near if tau * r == product), rate)


@st.composite
def comb_on_grid(draw):
    """A comb and an increasing tau grid whose products lambda * tau land on
    the cuts 708 and 746, between them, and across block boundaries (live
    in one block, skipped in the next), with columns on either side of the
    relative cut at a block start and the smallest rate's weight down to
    1e-300, or 0.  Grids run to 5 blocks; the block starts are those
    _psi_chunks yields for the generic columns."""
    n_tau = draw(st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 7 * _CHUNK + 1])
                 | st.integers(1, 16 * _CHUNK))
    start = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 50.0))
    step = draw(st.sampled_from([0.25, 1.0]) | st.floats(0.01, 20.0))
    taus = start + step * np.arange(n_tau)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # generic columns: lambda * tau_max spread from 1e-3 (or 10) to 1e4
    lowest = draw(st.sampled_from([-3.0, 1.0]))
    rates = list(10.0 ** rng.uniform(lowest, 4, draw(st.integers(0, 40))) / taus[-1]
                 if taus[-1] > 0 else [])
    # 745.13: the last product whose exp is not 0 (the smallest subnormal)
    targets = [708.0, 746.0, 745.13, draw(st.floats(708.0, 745.2))]
    starts = _block_starts(_comb(rates or [1.0]), taus)
    positive = np.flatnonzero(taus > 0)
    if positive.size:
        for _ in range(draw(st.integers(0, 30))):
            product = draw(st.sampled_from(targets))
            if draw(st.booleans()):
                # at or next to the last tau of a block
                k = int(draw(st.sampled_from([lo - 1 for lo in starts[1:]] or [n_tau - 1])))
                k = min(n_tau - 1, max(int(positive[0]), k + draw(st.integers(-2, 2))))
            else:
                k = int(draw(st.sampled_from(positive.tolist())))
            rates.append(_rate_hitting(product, float(taus[k])))
    if not rates:
        rates = [draw(st.floats(1e-3, 100.0))]
    # room for triples of columns around the relative cut, filled in below
    block_starts = [k for k in starts if taus[k] > 0]
    base = len(rates)
    order = rng.permutation(base + 3 * (draw(st.integers(0, 4)) if block_starts else 0))
    rates = np.concatenate((rates, np.full(order.size - base, np.inf)))[order]
    weights = rng.uniform(0.01, 1.0, rates.size)
    weights /= weights.sum()
    low = int(np.argmin(rates))
    tiny = draw(st.none() | st.sampled_from([0.0, 1e-300])
                | st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))
    if tiny is not None:
        weights[low] = tiny
    # _psi_chunks' live cut at a block start tau t0 is the larger of -708 and
    # -lambda_low * t0 - ln(2**54 * W / w_low): a column on it and one on
    # either side, next to it or 1, 10 or 30 away (30 inside, a term is e**30
    # times its 2**-54 bound)
    w_low = weights[low]
    gap = (_ULP_GAP + math.log(float(np.sum(weights))) - math.log(w_low)
           if w_low > 0 else math.inf)
    for at in np.flatnonzero(order >= base).reshape(-1, 3):
        t0 = float(taus[draw(st.sampled_from(block_starts))])
        product = -max(-708.0, t0 * -rates[low] - gap)
        off = draw(st.sampled_from([0.0, 1.0, 10.0, 30.0]))
        rates[at] = (np.nextafter(_rate_hitting(product - off, t0), 0.0),
                     _rate_hitting(product, t0),
                     np.nextafter(_rate_hitting(product + off, t0), np.inf))
    return _comb(rates, weights), taus


@settings(max_examples=200, deadline=None)
@given(comb_on_grid())
def test_comb_survival_matches_an_fsum_oracle(case):
    comb, taus = case
    assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)


@settings(max_examples=200, deadline=None)
@given(comb_on_grid())
def test_comb_survival_is_monotone_within_the_early_exit_margin(case):
    # _ks_distance stops once max(psi, psi_emp) * (1 + 1e-12) <= sup
    comb, taus = case
    psi = comb_survival(comb, taus).psi
    assert np.all(psi[1:] <= psi[:-1] * (1 + 1e-12))


def test_class_thresholds_at_a_block_start():
    # tau = 128 and 256 start blocks; a power of two makes lambda * tau exact,
    # so the products sit on the cuts 708 and 746 and on 745.13, the last one
    # whose exp is not 0 (the smallest subnormal)
    taus = np.arange(64.0, 64.0 + 8 * _CHUNK)
    for start in taus[_block_starts(_comb([1.0]), taus)[1:3]].tolist():
        assert start in (128.0, 256.0)
        for product in (708.0, 745.13, 746.0):
            rate = _rate_hitting(product, start)
            assert start * rate == product
            for comb in (_comb([rate]), _comb([rate, 2.0, 1e-4])):
                assert start in taus[_block_starts(comb, taus)]
                assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)
        assert comb_survival(_comb([745.13 / start]), [start]).psi[0] == 5e-324


def test_relative_cut_at_a_block_start():
    # every other column sits inside the relative cut of a low column of
    # weight w at a block start, or on it or next to it: a cut that left out
    # ln(W / w) would skip terms far above 2**-54 of psi
    taus = np.arange(1.0, 1.0 + 8 * _CHUNK)
    low = 1e-3
    for start in taus[_block_starts(_comb([low]), taus)[1:]].tolist():
        for w in (1e-280, 1e-100, 1e-20, 1e-3, 0.5):
            gap = _ULP_GAP + math.log(1.0 + w) - math.log(w)
            product = start * low + gap
            rates = [low] + [_rate_hitting(product - off, start)
                             for off in (0.0, 1.0, 10.0, 30.0, 0.5 * gap)]
            rates += [np.nextafter(rates[1], 0.0), np.nextafter(rates[1], np.inf)]
            comb = _comb(rates, np.array([w] + [1.0 / (len(rates) - 1)] * (len(rates) - 1)))
            assert start in taus[_block_starts(comb, taus)]
            assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)


@settings(max_examples=100, deadline=None)
@given(comb_on_grid())
def test_blocks_tile_the_grid_from_a_chunk_sized_first_block(case):
    # _ks_distance's first exit check reads the first _CHUNK rows, and no
    # block but the last is shorter
    comb, taus = case
    sizes = [psi.size for _, psi in _psi_chunks(comb.rates, comb.weights, taus)]
    assert sizes[0] == min(_CHUNK, taus.size)
    assert _block_starts(comb, taus) == np.cumsum([0] + sizes[:-1]).tolist()
    assert sum(sizes) == taus.size
    assert min(sizes[:-1], default=_CHUNK) >= _CHUNK


def test_comb_survival_memory_is_a_few_blocks():
    # m ~ 4,000 rates on a 40,000-point grid, most columns dead in late blocks:
    # 1,024-row blocks with a where= mask peaked at 103 MB here
    rng = np.random.default_rng(31)
    comb = _comb(10.0 ** rng.uniform(-4.5, 0.0, 4_000))
    taus = np.arange(1.0, 40_001.0)
    tracemalloc.start()
    try:
        comb_survival(comb, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_comb_survival_memory_where_the_cut_drops():
    # 300 columns the relative cut skips come live where the cut drops from
    # -708 to -746 (0.5 * e**-tau below 2**-967, tau ~ 670), after blocks of
    # one or two live columns have doubled to 3,276 rows: the next would hold
    # 6,552 x 301 floats (15.8 MB), and is recut to _BUDGET // 301 rows
    rates = np.concatenate(([1.0], np.linspace(1.08, 1.12, 300)))
    comb = _comb(rates, np.concatenate(([0.5], np.full(300, 0.5 / 300))))
    taus = 0.02 * np.arange(1, 40_001)
    tracemalloc.start()
    try:
        comb_survival(comb, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_estimate_h_default_margin():
    from spectrakit.delta_comb import DeltaComb
    comb = DeltaComb(weights=np.array([1.0]), rates=np.array([0.226]),
                     m=1, delta_t=1.0, window_counts=np.array([1]),
                     window_sums=np.array([1 / 0.226]))
    h = estimate_h(comb, 196)
    assert h == pytest.approx(0.0015, abs=1e-4)


def test_estimate_h_direct_and_linear_in_margin():
    from spectrakit.delta_comb import DeltaComb
    comb = DeltaComb(weights=np.array([1.0]), rates=np.array([1.0]),
                     m=1, delta_t=1.0, window_counts=np.array([1]),
                     window_sums=np.array([1.0]))
    assert estimate_h(comb, 100) == pytest.approx(0.013)


def test_default_delta_t_grid_brackets():
    rng = np.random.default_rng(26)
    series = DurationSeries.from_values(rng.exponential(3.0, 5000))
    grid = default_delta_t_grid(series)
    assert grid.size == 30
    assert grid[0] == pytest.approx(10 * series.mean)
    assert grid[-1] == pytest.approx(series.n * series.mean / 5)


@pytest.mark.parametrize("values", [[1e307, 1e307], [1e308]])
def test_default_delta_t_grid_refuses_an_end_past_the_float_range(values):
    # 2 * 10 * mean, or 10 * mean, is inf: refused before numpy warns, in
    # words that name no CLI flag (each command adds its own remedy)
    with pytest.raises(ValueError, match=r"^mean = 1e\+30[78] .*the float range$"):
        default_delta_t_grid(DurationSeries.from_values(values))


def test_comb_csv_roundtrip():
    rng = np.random.default_rng(27)
    series = DurationSeries.from_values(rng.exponential(2.0, 200))
    comb = fit_comb(series, 40.0)
    buf = io.StringIO()
    write_comb_csv(comb, buf)
    first, header, _ = buf.getvalue().split("\n", 2)
    assert first == "# delta_t=40" and header == "lambda,weight,window_count,window_sum"
    rates, weights, counts, _ = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",",
                                           skiprows=2).T
    assert np.allclose(rates, comb.rates, atol=1e-9)
    assert np.allclose(weights, comb.weights, atol=1e-9)
    assert np.array_equal(counts, comb.window_counts)


def test_sweep_csv_columns():
    series = DurationSeries.from_values(np.ones(22))
    results, _ = sweep_delta_t(series, [5.0, 10.0],
                               empirical_survival(series, np.arange(1.0, 4.0)))
    buf = io.StringIO()
    write_delta_t_sweep_csv(results, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "delta_t,m,ks_statistic,ks_pvalue"
    assert len(lines) == 3
