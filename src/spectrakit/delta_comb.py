"""Finite exponential-mixture spectrum from constant-activity windows."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .durations import DurationSeries, SurvivalCurve, write_table
from .gof import KsReport, Sweep, ks_report, sweep

__all__ = [
    "DeltaComb",
    "CombSolution",
    "fit_comb",
    "comb_survival",
    "sweep_delta_t",
    "estimate_h",
    "default_delta_t_grid",
    "write_comb_csv",
    "write_delta_t_sweep_csv",
]


@dataclass(frozen=True)
class DeltaComb:
    """Weights a_j and rates lambda_j of a finite exponential mixture.

    Each window j holds the minimum run of consecutive durations whose
    exact sum exceeds delta_t (strictly); T_j, that sum within 1e-14
    relative, gives lambda_j = N_j/T_j, and a_j = N_j/N, so the weights
    sum to one by construction.
    """

    weights: np.ndarray
    rates: np.ndarray
    m: int
    delta_t: float
    window_counts: np.ndarray
    window_sums: np.ndarray


@dataclass(frozen=True)
class CombSolution:
    """One point of a delta_t sweep: the comb, its tau grid and KS score.

    ``rebuilt``, the comb's survival curve on ``taus``, is computed on
    first access, so a sweep builds full curves only for the points a
    caller reads.
    """

    comb: DeltaComb
    taus: np.ndarray
    ks: KsReport

    @cached_property
    def rebuilt(self) -> SurvivalCurve:
        return comb_survival(self.comb, self.taus)


def _exceeds(values: np.ndarray, start: int, stop: int, delta_t: float) -> bool:
    """Whether the exact sum of values[start:stop] exceeds delta_t.

    math.fsum rounds correctly, so the sign of the sum less delta_t is
    exact; fsum(window) > delta_t would not be, as a sum just above
    delta_t can round to it.
    """
    return math.fsum([*values[start:stop].tolist(), -delta_t]) > 0


def _narrow_band(values: np.ndarray, start: int, size: int, delta_t: float):
    """lo <= j <= hi for the first j whose exact sum from start exceeds
    delta_t (n if none), from local = np.cumsum(values[start:start + size]),
    within err = 4 * size * u * local[-1] of the exact sums (as _window_ends'
    slack); size doubles until local ends above delta_t + err or reaches n."""
    while True:
        local = np.cumsum(values[start:start + size])
        err = 4 * local.size * 2.0 ** -53 * local[-1]
        if local[-1] > delta_t + err or start + size >= values.size:
            return (start + int(np.searchsorted(local, delta_t - err, "left")),
                    start + int(np.searchsorted(local, delta_t + err, "right")))
        size *= 2


def _window_ends(series: DurationSeries, delta_t: float, span: int) -> list:
    """Last index of each window: the first j >= start whose exact sum
    values[start] + ... + values[j] exceeds delta_t; an end of n marks a
    trailing run.

    Each end is first bisected on the prefix sums csum, as the first j
    with csum[j] > csum[start - 1] + delta_t, in [start, start + span) and
    only past it when every prefix sum there is at most the target:
    bisection on a sub-range returns the whole range's answer whenever
    that answer lies inside it.

    np.cumsum adds the n positive durations one by one, so each prefix
    sum is within gamma_(n-1) * S of its exact value, S the exact total and
    gamma_k = k*u / (1 - k*u) with u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 4.2).  csum[j] - csum[start - 1]
    is then within 2 * gamma_(n-1) * S of the window's exact sum, and the
    target and the band edges below each round by at most u * csum[-1]
    where a prefix sum can reach them: below 2 * n * u * csum[-1] in all
    while n * u is small, and slack = 4 * n * u * csum[-1] doubles that.
    So only an index whose prefix sum lies in [target - slack, target +
    slack] can sit on the wrong side of the target.  When a prefix sum next
    to the bisected end does, that band can span the series: _narrow_band
    narrows it on sums from start alone, and _exceeds bisects the rest.
    """
    values = series.values
    # memoryview items are Python floats; bisect compares a list's items
    # faster, but a list costs 32 bytes a float (8 MB at n = 250k)
    csum = memoryview(series.prefix_sums)
    n = len(csum)
    slack = 4 * n * 2.0 ** -53 * csum[-1]
    ends, start, base = [], 0, 0.0
    while start < n:
        target, hi = base + delta_t, start + span
        end = bisect_right(csum, target, start, hi if hi < n else n)
        if end == hi:
            end = bisect_right(csum, target, hi)
        low, high = target - slack, target + slack
        if (end < n and csum[end] <= high) or (end > start and csum[end - 1] >= low):
            lo, hi = _narrow_band(values, start, span, delta_t)
            end = bisect_left(range(hi), True, lo,
                              key=lambda j: _exceeds(values, start, j + 1, delta_t))
        ends.append(end)
        if end == n:
            break
        base = csum[end]
        start = end + 1
    return ends


def fit_comb(series: DurationSeries, delta_t: float) -> DeltaComb:
    """Split the duration stream into windows of ~constant activity.

    A window is the shortest run of consecutive durations, from the end
    of the previous one, whose exact sum strictly exceeds delta_t.  A
    trailing run whose sum never exceeds delta_t becomes a final partial
    window, so every duration is in a window and the weights
    counts / series.n sum to 1.  Window membership is exact, and each
    window sum, np.add.reduceat of its durations, is within 1e-14
    relative of the exact sum.

    Window ends are found by bisecting the series' prefix sums, one
    bisection per window, first within a span of twice the expected
    window length delta_t / mean (at least 16); where rounding could move
    an end, the exact sum settles it (see _window_ends).
    """
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise ValueError(f"delta_t must be finite and > 0, got {delta_t}")
    delta_t = float(delta_t)
    n = series.n
    span = max(16, int(min(2 * delta_t / series.mean, n)))
    ends = np.array(_window_ends(series, delta_t, span), dtype=int)
    starts = np.concatenate(([0], ends[:-1] + 1))
    counts = np.minimum(ends, n - 1) - starts + 1
    sums = np.add.reduceat(series.values, starts)
    return DeltaComb(weights=counts / n, rates=counts / sums, m=len(counts),
                     delta_t=delta_t, window_counts=counts, window_sums=sums)


# tau rows of _psi_chunks' first block, and the fewest in any but the last; a
# block of k live columns holds at most max(_BUDGET, _CHUNK * k) floats (L2)
_CHUNK, _BUDGET = 64, 1 << 16
# exp(x) is a normal float for x >= _NORMAL_ARG and exactly +0.0 for x <= _ZERO_ARG
_NORMAL_ARG = -708.0
_ZERO_ARG = -746.0
# ln 2**54 of _psi_chunks' relative cut, plus 1e-6 for rounding in its products and logs
_ULP_GAP = 54 * math.log(2.0) + 1e-6


def _psi_chunks(rates: np.ndarray, weights: np.ndarray, taus: np.ndarray):
    """Yield (lo, psi[lo:lo+rows]) of sum_j weights_j * exp(-rates_j * tau),
    a comb's survival or synthetic.ml_survival's sum, on a 1-d tau grid.

    The first block has _CHUNK rows, so an early exit there (_ks_distance)
    reads no more; each later one doubles the last, up to max(_CHUNK, _BUDGET
    // k) rows for the last block's k live columns.  Where the cut below
    drops to -746, k grows: a block whose rows * k then pass max(_BUDGET,
    _CHUNK * k) is recut to max(_CHUNK, _BUDGET // k) rows, which cannot
    raise k again.

    Taus increase (as SurvivalCurve requires), so on a block a column's
    argument -lambda*tau is lowest at the last tau.  Blocks where every
    argument is above the block's live cut are exp(np.outer(t, -rates)) @
    weights.  From the first other block on, the rates are sorted, weights
    alongside: the columns whose argument at the first tau is above the
    live cut form a prefix [0, k), those with every argument above the
    cut a prefix [0, j), and the block is exp of np.outer(t, -rates[:k])
    in place, with its arguments at or below the cut in columns [j, k) set
    to -inf first (a subnormal exp result costs ~100x a normal one or
    -inf), then @ weights[:k].

    The cut is -708 while the smallest rate's term w_low * exp(-lambda_low
    * tau) keeps psi >= 2**-967 on the block: the skipped terms, each below
    exp(-708) with weights summing to 1, stay under half its ulp (>=
    2**-1021).  There the live cut is the larger of -708 and the smallest
    rate's argument at the block's first tau less ln(2**54 * W / w_low), W
    the sum of the weights: on the whole block each column below it has a
    term under 2**-54 * w_j / W of the smallest rate's, so together they
    stay under 2**-54 * psi, below half its ulp.  A zero w_low or a
    negative weight turns this relative cut off.  Otherwise both cuts are
    -746, which skips only exact zeros.  Each bound holds on every tau of
    a block whatever its rows, so psi is 0 exactly where the full product
    np.exp(-np.outer(taus, rates)) @ weights is, and within 1e-14 relative
    of it (summed in rate order, not to the bit).
    """
    neg_rates, low, ordered = -rates, np.argmin(rates), False
    w_low = weights[low]
    gap = (_ULP_GAP + math.log(np.sum(weights)) - math.log(w_low)
           if w_low > 0 and np.min(weights) >= 0 else math.inf)
    lo, rows = 0, _CHUNK
    while lo < taus.size:
        # a product -lambda*tau below -1.8e308 is -inf, whose exp is 0; the
        # with closes before the yield, so the caller's error state holds there
        with np.errstate(over="ignore"):
            while True:
                t = taus[lo:lo + rows]
                floor = weights[low] * np.exp(neg_rates[low] * t[-1])
                cut = _NORMAL_ARG if floor >= 2.0 ** -967 else _ZERO_ARG
                live = max(cut, t[0] * neg_rates[low] - gap) if cut == _NORMAL_ARG else cut
                if not ordered and np.min(t[-1] * neg_rates) <= live:
                    order = np.argsort(rates, kind="stable")
                    neg_rates, weights, low, ordered = neg_rates[order], weights[order], 0, True
                k = np.count_nonzero(t[0] * neg_rates > live)
                if t.size * k <= max(_BUDGET, _CHUNK * k):
                    break
                rows = max(_CHUNK, _BUDGET // k)
            j = np.count_nonzero(t[-1] * neg_rates[:k] > cut)
            block = np.outer(t, neg_rates[:k])
            band = block[:, j:]
            np.copyto(band, -np.inf, where=band <= cut)
            np.exp(block, out=block)
            psi = block @ weights[:k]
        yield lo, psi
        lo += t.size
        rows = min(2 * rows, max(_CHUNK, _BUDGET // max(k, 1)))


def comb_survival(comb: DeltaComb, taus) -> SurvivalCurve:
    """Mixture survival Psi(tau) = sum_j a_j * exp(-lambda_j * tau), within
    1e-14 relative and 0 exactly where every term is (see _psi_chunks).
    The tau grid is checked before any term is evaluated."""
    curve = SurvivalCurve(taus=taus, psi=np.zeros(np.size(taus)), n_source=0)
    for lo, chunk in _psi_chunks(comb.rates, comb.weights, curve.taus):
        curve.psi[lo:lo + chunk.size] = chunk
    return curve


def _ks_distance(comb: DeltaComb, empirical: SurvivalCurve) -> float:
    """max |Psi_comb - Psi_emp| over the empirical grid, stopping early.

    Both curves are non-negative and non-increasing (comb weights are
    >= 0), so from tau* on no gap exceeds max(Psi_comb(tau*),
    Psi_emp(tau*)); once that bound is no more than the running sup the
    rest of the grid cannot raise it.  The 1e-12 margin covers ulp-level
    non-monotonicity of the computed exp and dot product.
    """
    emp = empirical.psi
    sup = 0.0
    for lo, psi in _psi_chunks(comb.rates, comb.weights, empirical.taus):
        hi = lo + psi.size
        sup = max(sup, float(np.max(np.abs(psi - emp[lo:hi]))))
        if max(psi[-1], emp[hi - 1]) * (1 + 1e-12) <= sup:
            break
    return sup


DELTA_T_GRID_POINTS = 30


def default_delta_t_grid(series: DurationSeries) -> np.ndarray:
    """Log-spaced 30-point delta_t sweep spanning windows of ~10 to ~n/5 events;
    ValueError where its top end is not finite."""
    lo = 10.0 * series.mean
    hi = series.n * series.mean / 5.0
    if hi <= lo:
        hi = 2.0 * lo
    if not math.isfinite(hi):
        raise ValueError(f"mean = {series.mean:g} puts the default delta_t grid past the "
                         "float range")
    return np.geomspace(lo, hi, DELTA_T_GRID_POINTS)


def sweep_delta_t(series: DurationSeries, dts, empirical: SurvivalCurve) -> Sweep:
    """Fit a comb to ``series`` per delta_t and rank by KS p-value against
    ``empirical``, the data's survival curve, whose n_source (at least 1)
    is the KS sample size.  Returns gof.sweep's Sweep of one CombSolution
    per delta_t; ties in p-value go to the larger delta_t.
    """
    n_eff = max(empirical.n_source, 1)

    def one(dt) -> CombSolution:
        comb = fit_comb(series, dt)
        return CombSolution(comb, empirical.taus,
                            ks_report(_ks_distance(comb, empirical), n_eff))

    return sweep("delta_t", dts, one)


def estimate_h(comb: DeltaComb, n: int) -> float:
    """Lambda spacing h = 1.3 * max(rates) / n for an n-point kernel.

    Chosen so the kernel's lambda range h..h*n brackets the comb's
    largest observed rate with 30% headroom.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return 1.3 * float(comb.rates.max()) / n


def write_comb_csv(comb: DeltaComb, stream) -> None:
    stream.write(f"# delta_t={comb.delta_t:.12g}\n")
    write_table(stream, "lambda,weight,window_count,window_sum",
                "{:.12g},{:.12g},{:d},{:.12g}",
                comb.rates, comb.weights, comb.window_counts, comb.window_sums)


def write_delta_t_sweep_csv(results, stream) -> None:
    """Per-delta_t report: delta_t,m,ks_statistic,ks_pvalue."""
    write_table(stream, "delta_t,m,ks_statistic,ks_pvalue",
                "{:.12g},{:d},{:.12g},{:.12g}",
                *zip(*[(r.comb.delta_t, r.comb.m, r.ks.statistic, r.ks.p_value)
                       for r in results]))
