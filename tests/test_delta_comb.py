import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrakit import (DurationSeries, MlParams, assemble_kernel, comb_survival,
                        empirical_survival, estimate_h, fit_comb, ks_pvalue,
                        ml_survival, sweep_delta_t, sweep_mu)
from spectrakit.delta_comb import (_CHUNK, _ULP_GAP, _ks_distance,
                                   default_delta_t_grid, write_comb_csv,
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


def scan_windows(values, delta_t):
    """Reference windowing: the sequential scan, one duration at a time."""
    counts, sums = [], []
    cur_n, cur_t = 0, 0.0
    for tau in values:
        cur_n += 1
        cur_t += tau
        if cur_t > delta_t:
            counts.append(cur_n)
            sums.append(cur_t)
            cur_n, cur_t = 0, 0.0
    if cur_n:
        counts.append(cur_n)
        sums.append(cur_t)
    return np.array(counts, dtype=int), np.array(sums, dtype=float)


def assert_matches_scan(values, delta_t):
    series = DurationSeries.from_values(values)
    counts, sums = scan_windows(series.values, delta_t)
    comb = fit_comb(series, delta_t)
    assert np.array_equal(comb.window_counts, counts)
    assert np.array_equal(comb.window_sums, sums)
    assert np.array_equal(comb.weights, counts / series.n)
    assert np.array_equal(comb.rates, counts / sums)


@st.composite
def boundary_series(draw):
    """Multiples of 0.1, after an optional large lead, and a delta_t that
    ties a run's sequential sum exactly or is itself a multiple of 0.1.

    The lead makes prefix sums coarse, so that csum[j] - csum[i] and the
    window's own running sum round to opposite sides of delta_t.
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
def test_fit_comb_equals_sequential_scan_at_boundaries(case):
    values, delta_t = case
    assert_matches_scan(values, delta_t)


def test_fit_comb_equals_sequential_scan_on_random_series():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 50, 5000):
        values = rng.exponential(3.0, n) + 1e-9
        for dt in (1e-3, 2.9, 30.0, 3.0 * n, 10.0 * n):
            assert_matches_scan(values, dt)


def test_fit_comb_equals_sequential_scan_past_one_row_per_block(monkeypatch):
    # windows of 60k to 200k durations take rows of 2**16 to 2**18 columns,
    # one row per block, and every row but the first runs past the end of
    # the series into the zero padding; the check alone must pass them
    from spectrakit import delta_comb

    def no_scan(values, *args):
        raise AssertionError(f"scan resumed with {len(values)} durations left")

    values = np.random.default_rng(43).exponential(3.0, 200_000) + 1e-9
    total = math.fsum(values)
    for fraction in (0.3, 0.4, 0.7, 1.5):
        with monkeypatch.context() as mp:
            mp.setattr(delta_comb, "_scan", no_scan)
            comb = fit_comb(DurationSeries.from_values(values), fraction * total)
        assert comb.window_counts.max() > 1 << 15
        assert_matches_scan(values, fraction * total)


def test_fit_comb_falls_back_to_the_scan(monkeypatch):
    # 0.1 + 0.2 = 0.30000000000000004 > 0.3 closes the first window.  For
    # the second, csum[1] + 0.3 rounds up to csum[2], so bisection sees a
    # trailing run where the scan sees 0.1 * 3 > 0.3: the check fails and
    # the scan resumes at index 2.
    from spectrakit import delta_comb
    resumed = []
    scan = delta_comb._scan

    def counting_scan(values, *args):
        resumed.append(list(values))
        return scan(values, *args)

    monkeypatch.setattr(delta_comb, "_scan", counting_scan)
    values = [0.1, 0.2, 0.1 * 3]
    comb = fit_comb(DurationSeries.from_values(values), 0.3)
    assert list(comb.window_counts) == [2, 1]
    assert list(comb.window_sums) == [0.1 + 0.2, 0.1 * 3]
    assert_matches_scan(values, 0.3)
    assert resumed[0] == [0.1 * 3]
    # a series whose every window passes never calls the scan
    resumed.clear()
    fit_comb(DurationSeries.from_values(np.ones(22)), 10.0)
    assert resumed == []


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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
       | st.integers(1, 3 * _CHUNK),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0),
       st.floats(0.01, 50.0), st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.floats(0.5, 200.0), st.sampled_from([1.0, 30.0, 1000.0]))
def test_early_exit_ks_equals_full_grid_max(n_tau, start, step, seed, n, dt_over_mean,
                                            data_scale):
    # exponentials over four decades of scale
    rng = np.random.default_rng(seed)
    series = DurationSeries.from_values(
        rng.exponential(1.0, n) * 10.0 ** rng.uniform(0, 4, n) + 1e-9)
    taus = start + step * np.arange(n_tau)
    dt = dt_over_mean * series.mean
    comb = fit_comb(series, dt)
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
    1e-300, or 0."""
    n_tau = draw(st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
                 | st.integers(1, 4 * _CHUNK))
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
    positive = np.flatnonzero(taus > 0)
    if positive.size:
        for _ in range(draw(st.integers(0, 30))):
            product = draw(st.sampled_from(targets))
            if draw(st.booleans()):
                # at or next to the last tau of a block
                ends = np.arange(_CHUNK - 1, n_tau, _CHUNK)
                k = int(draw(st.sampled_from(ends.tolist() or [n_tau - 1])))
                k = min(n_tau - 1, max(int(positive[0]), k + draw(st.integers(-2, 2))))
            else:
                k = int(draw(st.sampled_from(positive.tolist())))
            rates.append(_rate_hitting(product, float(taus[k])))
    if not rates:
        rates = [draw(st.floats(1e-3, 100.0))]
    # room for triples of columns around the relative cut, filled in below
    block_starts = [k for k in range(0, n_tau, _CHUNK) if taus[k] > 0]
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
    # tau = 128 starts a block; a power of two makes lambda * tau exact, so the
    # products sit on the cuts 708 and 746 and on 745.13, the last one whose
    # exp is not 0 (the smallest subnormal)
    taus = np.arange(0.0, 3 * _CHUNK + 7.0)
    start = float(taus[(128 // _CHUNK) * _CHUNK])
    for product in (708.0, 745.13, 746.0):
        rate = _rate_hitting(product, start)
        assert start * rate == product
        for comb in (_comb([rate]), _comb([rate, 2.0, 1e-4])):
            assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)
    assert comb_survival(_comb([745.13 / start]), [start]).psi[0] == 5e-324


def test_relative_cut_at_a_block_start():
    # every other column sits inside the relative cut of a low column of
    # weight w at tau = 128, a block start, or on it or next to it: a cut
    # that left out ln(W / w) would skip terms far above 2**-54 of psi
    taus = np.arange(1.0, 3 * _CHUNK + 7.0)
    start, low = 128.0, 1e-3
    for w in (1e-280, 1e-100, 1e-20, 1e-3, 0.5):
        gap = _ULP_GAP + math.log(1.0 + w) - math.log(w)
        product = start * low + gap
        rates = [low] + [_rate_hitting(product - off, start)
                         for off in (0.0, 1.0, 10.0, 30.0, 0.5 * gap)]
        rates += [np.nextafter(rates[1], 0.0), np.nextafter(rates[1], np.inf)]
        comb = _comb(rates, np.array([w] + [1.0 / (len(rates) - 1)] * (len(rates) - 1)))
        assert_close_to_oracle(comb, taus, comb_survival(comb, taus).psi)


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
