"""Tikhonov-regularized inversion of the survival-function system."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .durations import SurvivalCurve, write_table
from .gof import KsReport, Sweep, check_grid, ks_report, sweep
from .kernel import KernelMatrix

__all__ = [
    "SpectrumGrid",
    "TikhonovSolution",
    "eval_objective",
    "solve_tikhonov",
    "sweep_mu",
    "default_mu_grid",
    "write_spectrum_csv",
    "write_mu_sweep_csv",
]

@dataclass(frozen=True)
class SpectrumGrid:
    """Activity masses g on a lambda grid.

    Tikhonov output is unconstrained, so masses may be negative; the
    negative part is reported as a diagnostic, never clipped.
    """

    lambdas: np.ndarray
    masses: np.ndarray
    total_mass: float

    @classmethod
    def from_arrays(cls, lambdas, masses) -> "SpectrumGrid":
        lambdas = np.asarray(lambdas, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if lambdas.size != masses.size:
            raise ValueError("lambdas and masses must have the same length")
        with np.errstate(over="ignore"):  # a total past the float range is inf
            total = float(masses.sum())
        return cls(lambdas=lambdas, masses=masses, total_mass=total)

    @property
    def negative_mass(self) -> float:
        """Total magnitude of the negative components; inf past the float range."""
        with np.errstate(over="ignore"):
            return 0.0 - float(self.masses[self.masses < 0].sum())

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.masses < 0))

    @property
    def mass_centroid(self) -> float:
        """Mean rate sum(lambda*g)/sum(g), the recovery diagnostic; nan where
        the masses sum to 0, and inf, 0 or nan where a sum passes the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = self.masses.sum()
            return float(np.dot(self.lambdas, self.masses) / total) if total else math.nan


@dataclass(frozen=True)
class TikhonovSolution:
    """One point of a mu sweep.  ``rebuilt``, K g on the kernel's tau grid,
    is computed on first access, as CombSolution's is."""

    mu: float
    spectrum: SpectrumGrid
    kernel: KernelMatrix
    ks: KsReport

    @cached_property
    def rebuilt(self) -> SurvivalCurve:
        return SurvivalCurve(taus=self.kernel.taus,
                             psi=self.kernel.entries @ self.spectrum.masses)


def _records(K, psi) -> tuple[KernelMatrix, SurvivalCurve]:
    """K as a KernelMatrix and psi as a SurvivalCurve on its tau grid: a plain
    K gets lambda = 1..n and psi's taus (1..n if psi is plain too), and a
    plain psi gets K's taus and n_source 0."""
    A = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    b = psi.psi if isinstance(psi, SurvivalCurve) else np.asarray(psi, dtype=float)
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"dimension mismatch: K is {A.shape}, psi has {b.size}")
    if not isinstance(K, KernelMatrix):
        taus = psi.taus if isinstance(psi, SurvivalCurve) else np.arange(1.0, b.size + 1)
        K = KernelMatrix(entries=A, lambdas=np.arange(1.0, A.shape[1] + 1), taus=taus)
    if not isinstance(psi, SurvivalCurve):
        psi = SurvivalCurve(taus=K.taus, psi=b)
    elif not np.array_equal(K.taus, psi.taus):
        raise ValueError("psi is not sampled on the kernel's tau grid")
    return K, psi


def eval_objective(K, g, psi, mu: float) -> float:
    """Regularized least-squares functional ||Kg - Psi||^2 + mu*||g||^2."""
    K, psi = _records(K, psi)
    g = np.asarray(g, dtype=float)
    if K.entries.shape[1] != g.size:
        raise ValueError(f"dimension mismatch: K is {K.entries.shape}, g has {g.size}")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    r = K.entries @ g - psi.psi
    return float(r @ r + mu * (g @ g))


def solve_tikhonov(K, psi, mu: float) -> TikhonovSolution:
    """Minimize ||Kg - Psi||^2 + mu*||g||^2 and rebuild the survival curve.

    ``psi`` must be sampled on the kernel's tau grid.  This is sweep_mu
    at the single value mu; see there for the KS report.
    """
    return sweep_mu(K, psi, [mu]).pick


def default_mu_grid() -> np.ndarray:
    """Log-spaced regularization sweep, 200 points in [1e-6, 1e2]."""
    return np.geomspace(1e-6, 1e2, 200)


def sweep_mu(K, psi, mus) -> Sweep:
    """Solve for every mu from one SVD of K and rank by KS p-value.

    With K = U diag(s) V^T and c = U^T psi, the minimizer for any mu is
    g = V diag(s / (s^2 + mu)) c (the filter-factor form).  ``psi`` is a
    SurvivalCurve or an array on the kernel's tau grid; its n_source (at
    least 1) is the KS sample size.  Returns gof.sweep's Sweep of one
    TikhonovSolution per mu; ties in p-value go to the larger mu (stronger
    regularization).  Each mu's D and p come from K g as gof.ks_compare's would.
    """
    K, psi = _records(K, psi)
    mus = check_grid("mu", mus)
    n_eff = max(psi.n_source, 1)

    U, s, Vt = np.linalg.svd(K.entries, full_matrices=False)
    c = U.T @ psi.psi

    def solve(mu) -> TikhonovSolution:
        g = Vt.T @ (s / (s * s + mu) * c)
        d = float(np.max(np.abs(K.entries @ g - psi.psi)))
        if not math.isfinite(d):
            raise ValueError("taus and psi must be finite")
        return TikhonovSolution(mu=float(mu),
                                spectrum=SpectrumGrid.from_arrays(K.lambdas, g),
                                kernel=K, ks=ks_report(d, n_eff))

    return sweep("mu", mus, solve)


def write_spectrum_csv(spectrum: SpectrumGrid, stream) -> None:
    write_table(stream, "lambda,g", "{:.12g},{:.12g}",
                spectrum.lambdas, spectrum.masses)


def write_mu_sweep_csv(solutions, stream) -> None:
    """Per-mu report: mu,ks_statistic,ks_pvalue,neg_mass,total_mass."""
    write_table(stream, "mu,ks_statistic,ks_pvalue,neg_mass,total_mass",
                "{:.12g},{:.12g},{:.12g},{:.12g},{:.12g}",
                *zip(*[(s.mu, s.ks.statistic, s.ks.p_value, s.spectrum.negative_mass,
                        s.spectrum.total_mass) for s in solutions]))
