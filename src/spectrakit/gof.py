"""Kolmogorov-Smirnov distance and significance for curve comparison."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .durations import SurvivalCurve

__all__ = ["KsReport", "Sweep", "ks_statistic", "ks_pvalue", "ks_report", "ks_compare",
           "check_grid", "sweep"]

_SERIES_TOL = 1e-12
_MAX_TERMS = 100
# every point of a sweep is solved and kept: five times the default mu grid
MAX_SWEEP_POINTS = 1000


@dataclass(frozen=True)
class KsReport:
    statistic: float
    p_value: float
    n_eff: int


def ks_statistic(a: SurvivalCurve, b: SurvivalCurve) -> float:
    """Sup-distance max_j |a.psi[j] - b.psi[j]| over the shared tau grid."""
    if not np.array_equal(a.taus, b.taus):
        raise ValueError("survival curves are sampled on different tau grids")
    return float(np.max(np.abs(a.psi - b.psi)))


def ks_pvalue(d: float, n_eff: int) -> float:
    """Asymptotic KS significance Q for distance d at sample size n_eff.

    Uses the small-sample corrected argument
    lam = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * d and the alternating series
    Q(lam) = 2 * sum_k (-1)^(k-1) exp(-2 k^2 lam^2), truncated when a
    term drops below 1e-12 (up to 100 terms).  If the series has not
    converged by then (lam ~ 0) the significance is 1.  Clamped to
    [0, 1].
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"KS distance must be in [0,1], got {d}")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    if not n_eff <= sys.float_info.max:  # math.sqrt would raise OverflowError
        raise ValueError(f"n_eff must be at most {sys.float_info.max:g}")
    sqrt_n = math.sqrt(n_eff)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    total = 0.0
    sign = 1.0
    for k in range(1, _MAX_TERMS + 1):
        exponent = -2.0 * (k * lam) ** 2
        term = math.exp(exponent) if exponent > -745.0 else 0.0
        total += sign * term
        if term < _SERIES_TOL:
            return min(1.0, max(0.0, 2.0 * total))
        sign = -sign
    return 1.0


def ks_report(d: float, n_eff: int) -> KsReport:
    """Distance d with its ks_pvalue at sample size n_eff."""
    return KsReport(statistic=d, p_value=ks_pvalue(d, n_eff), n_eff=int(n_eff))


def ks_compare(a: SurvivalCurve, b: SurvivalCurve, n_eff: int) -> KsReport:
    """Statistic and p-value for two curves on the same grid."""
    return ks_report(ks_statistic(a, b), n_eff)


def check_grid(name: str, grid) -> np.ndarray:
    """The grid as a 1-d float array (a scalar is one point) if it holds 1 to
    MAX_SWEEP_POINTS values, each finite and > 0; else raise ValueError."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim != 1:
        raise ValueError(f"{name} sweep must be a 1-d list of values")
    if grid.size == 0:
        raise ValueError(f"{name} sweep is empty")
    if grid.size > MAX_SWEEP_POINTS:
        raise ValueError(f"{name} sweep has {grid.size} points "
                         f"(limit {MAX_SWEEP_POINTS})")
    bad = grid[~(np.isfinite(grid) & (grid > 0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and > 0, got {bad[0]:g}")
    return grid


@dataclass(frozen=True)
class Sweep:
    """gof.sweep's grid, results and best index; unpacks as (results, best)."""

    name: str
    grid: np.ndarray
    results: list
    best: int

    def __getitem__(self, i):
        return (self.results, self.best)[i]

    @property
    def pick(self):
        return self.results[self.best]

    @property
    def edge(self):
        """The end of the grid's range at the pick, "lower" or "upper", or None."""
        lo, hi = self.grid.min(), self.grid.max()
        return {lo: "lower", hi: "upper"}.get(self.grid[self.best]) if lo < hi else None


def sweep(name: str, grid, solve) -> Sweep:
    """Run solve(v) for every v of a 1-d grid and pick the highest KS p-value.

    The grid is checked by check_grid before any solve runs.  Each result has
    a ``ks`` KsReport; ties in p-value break toward the larger grid value.
    """
    grid = check_grid(name, grid)
    results = [solve(v) for v in grid]
    best = max(range(grid.size), key=lambda i: (results[i].ks.p_value, grid[i]))
    return Sweep(name, grid, results, best)
