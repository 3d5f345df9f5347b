"""Finite exponential-mixture spectrum from constant-activity windows."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .durations import DurationSeries, SurvivalCurve, write_table
from .gof import KsReport, ks_pvalue, sweep

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
    sum T_j exceeds delta_t (strictly); lambda_j = N_j/T_j and
    a_j = N_j/N, so the weights sum to one by construction.
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


def _scan(values, delta_t: float, counts: list, sums: list) -> None:
    """The sequential window scan: add the durations one by one.

    Appends the count and sum of each window, and of a trailing run
    that never exceeded delta_t, to ``counts`` and ``sums``.
    """
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


def _candidate_ends(csum, delta_t: float) -> list:
    """Last index of each window, chased through the prefix sums.

    Window k ends at the first j with csum[j] > csum[start - 1] + delta_t;
    an end of len(csum) marks a trailing run.  Prefix-sum differences
    round differently from the window's own running sum, so an end is
    only a candidate until _sequential_sums checks it.
    """
    n = len(csum)
    ends, start, base = [], 0, 0.0
    while start < n:
        end = bisect_right(csum, base + delta_t, start)
        ends.append(end)
        if end == n:
            break
        base = csum[end]
        start = end + 1
    return ends


# floats per zero-padded block in _sequential_sums
_BLOCK = 1 << 16


def _sequential_sums(values: np.ndarray, starts: np.ndarray,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(last, before-last) running sums of each window values[start:start+count].

    Windows are grouped by power-of-2 length and gathered as rows of a
    view of the zero-padded values; a row's cumsum is a sequential
    accumulate, so its columns count - 1 and count - 2 hold the scan's own
    partial sums, to the bit.  Width 0 is the one-duration windows: before 0.0.
    """
    last = np.empty(counts.size)
    before = np.zeros(counts.size)
    widths = np.frexp(counts - 1)[1]          # 2**widths >= counts
    padded = np.concatenate((values, np.zeros((1 << int(widths.max())) - 1)))
    for width in np.unique(widths).tolist():
        windows = sliding_window_view(padded, 1 << width)
        group = np.flatnonzero(widths == width)
        step = max(1, _BLOCK >> width)
        for rows in (group[lo:lo + step] for lo in range(0, group.size, step)):
            block = windows[starts[rows]]
            partial = np.cumsum(block, axis=1, out=block)
            at, n = np.arange(rows.size), counts[rows]
            last[rows] = partial[at, n - 1]
            if width:
                before[rows] = partial[at, n - 2]
    return last, before


def fit_comb(series: DurationSeries, delta_t: float) -> DeltaComb:
    """Split the duration stream into windows of ~constant activity.

    A window is the shortest run of consecutive durations, from the end
    of the previous one, whose running sum strictly exceeds delta_t.  A
    trailing run whose sum never exceeds delta_t becomes a final partial
    window, so every duration is in a window and the weights
    counts / series.n sum to 1.

    Window ends are found by bisecting the series' prefix sums, one
    bisection per window.  Every window is then checked with its own
    sequential running sum, so counts and sums equal those of a scan
    that adds the durations one by one, to the bit.  From the first
    window whose check fails (its running sum and the prefix-sum
    difference fall on opposite sides of delta_t) the scan itself takes
    over.
    """
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise ValueError(f"delta_t must be finite and > 0, got {delta_t}")
    delta_t = float(delta_t)
    values = series.values
    # memoryview items are Python floats, which bisect compares fastest
    ends = np.array(_candidate_ends(memoryview(series.prefix_sums), delta_t), dtype=int)
    starts = np.concatenate(([0], ends[:-1] + 1))
    is_tail = ends == values.size
    window_counts = np.minimum(ends, values.size - 1) - starts + 1
    last, before = _sequential_sums(values, starts, window_counts)
    ok = np.where(is_tail, last <= delta_t, (last > delta_t) & (before <= delta_t))
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = int(bad[0])
        counts, sums = window_counts[:k].tolist(), last[:k].tolist()
        _scan(values[starts[k]:].tolist(), delta_t, counts, sums)
        counts, sums = np.array(counts, dtype=int), np.array(sums, dtype=float)
    else:
        counts, sums = window_counts, last
    return DeltaComb(weights=counts / series.n, rates=counts / sums, m=len(counts),
                     delta_t=delta_t, window_counts=counts, window_sums=sums)


# tau rows per exp block: a block holds at most _CHUNK x m floats (~2 MB at
# m = 4,000, which stays in L2), whatever n_tau is
_CHUNK = 64
# exp(x) is a normal float for x >= _NORMAL_ARG and exactly +0.0 for x <= _ZERO_ARG
_NORMAL_ARG = -708.0
_ZERO_ARG = -746.0
# ln 2**54 of _psi_chunks' relative cut, plus 1e-6 for rounding in its products and logs
_ULP_GAP = 54 * math.log(2.0) + 1e-6


def _psi_chunks(rates: np.ndarray, weights: np.ndarray, taus: np.ndarray):
    """Yield (lo, psi[lo:lo+_CHUNK]) of sum_j weights_j * exp(-rates_j * tau),
    a comb's survival or synthetic.ml_survival's sum, on a 1-d tau grid.

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
    -746, which skips only exact zeros: psi is 0 exactly where the full
    product np.exp(-np.outer(taus, rates)) @ weights is, and within 1e-14
    relative of it (summed in rate order, not to the bit).
    """
    neg_rates, low, ordered = -rates, np.argmin(rates), False
    w_low = weights[low]
    gap = (_ULP_GAP + math.log(np.sum(weights)) - math.log(w_low)
           if w_low > 0 and np.min(weights) >= 0 else math.inf)
    for lo in range(0, taus.size, _CHUNK):
        t = taus[lo:lo + _CHUNK]
        floor = weights[low] * np.exp(neg_rates[low] * t[-1])
        cut = _NORMAL_ARG if floor >= 2.0 ** -967 else _ZERO_ARG
        live = max(cut, t[0] * neg_rates[low] - gap) if cut == _NORMAL_ARG else cut
        if not ordered and np.min(t[-1] * neg_rates) <= live:
            order = np.argsort(rates, kind="stable")
            neg_rates, weights, low, ordered = neg_rates[order], weights[order], 0, True
        k = np.count_nonzero(t[0] * neg_rates > live)
        j = np.count_nonzero(t[-1] * neg_rates[:k] > cut)
        block = np.outer(t, neg_rates[:k])
        band = block[:, j:]
        np.copyto(band, -np.inf, where=band <= cut)
        np.exp(block, out=block)
        yield lo, block @ weights[:k]


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
    """Log-spaced 30-point delta_t sweep spanning windows of ~10 to ~n/5 events."""
    lo = 10.0 * series.mean
    hi = series.n * series.mean / 5.0
    if hi <= lo:
        hi = 2.0 * lo
    return np.geomspace(lo, hi, DELTA_T_GRID_POINTS)


def sweep_delta_t(series: DurationSeries, dts, empirical: SurvivalCurve):
    """Fit a comb to ``series`` per delta_t and rank by KS p-value against
    ``empirical``, the data's survival curve, whose n_source (at least 1)
    is the KS sample size.  Returns gof.sweep's (results, best_index), one
    CombSolution per delta_t; ties in p-value go to the larger delta_t.
    """
    n_eff = max(empirical.n_source, 1)

    def one(dt) -> CombSolution:
        comb = fit_comb(series, dt)
        d = _ks_distance(comb, empirical)
        return CombSolution(comb, empirical.taus,
                            KsReport(statistic=d, p_value=ks_pvalue(d, n_eff),
                                     n_eff=n_eff))

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
                "{:.12g},{:.12g},{:d},{:.12g}".format,
                comb.rates, comb.weights, comb.window_counts, comb.window_sums)


def write_delta_t_sweep_csv(results, stream) -> None:
    """Per-delta_t report: delta_t,m,ks_statistic,ks_pvalue."""
    write_table(stream, "delta_t,m,ks_statistic,ks_pvalue",
                "{:.12g},{:d},{:.12g},{:.12g}".format,
                *zip(*[(r.comb.delta_t, r.comb.m, r.ks.statistic, r.ks.p_value)
                       for r in results]))
