"""Tikhonov-regularized inversion of the survival-function system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .durations import SurvivalCurve, read_table, write_table
from .gof import KsReport, check_grid, ks_compare, sweep
from .kernel import KernelMatrix

__all__ = [
    "SpectrumGrid",
    "TikhonovSolution",
    "eval_objective",
    "solve_tikhonov",
    "sweep_mu",
    "default_mu_grid",
    "write_spectrum_csv",
    "read_spectrum_csv",
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
        return cls(lambdas=lambdas, masses=masses, total_mass=float(masses.sum()))

    @property
    def negative_mass(self) -> float:
        """Total magnitude of the negative components."""
        return float(-self.masses[self.masses < 0].sum())

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.masses < 0))

    @property
    def mass_centroid(self) -> float:
        """Mean rate sum(lambda*g)/sum(g), the recovery diagnostic."""
        return float(np.dot(self.lambdas, self.masses) / self.masses.sum())


@dataclass(frozen=True)
class TikhonovSolution:
    mu: float
    spectrum: SpectrumGrid
    rebuilt: SurvivalCurve
    ks: KsReport


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
    solutions, _ = sweep_mu(K, psi, [mu])
    return solutions[0]


def default_mu_grid() -> np.ndarray:
    """Log-spaced regularization sweep, 200 points in [1e-6, 1e2]."""
    return np.geomspace(1e-6, 1e2, 200)


def sweep_mu(K, psi, mus):
    """Solve for every mu from one SVD of K and rank by KS p-value.

    With K = U diag(s) V^T and c = U^T psi, the minimizer for any mu is
    g = V diag(s / (s^2 + mu)) c (the filter-factor form).  ``psi`` is a
    SurvivalCurve or an array on the kernel's tau grid; its n_source (at
    least 1) is the KS sample size.  Returns gof.sweep's (solutions,
    best_index); ties in p-value go to the larger mu (stronger
    regularization).
    """
    K, psi = _records(K, psi)
    mus = check_grid("mu", mus)

    U, s, Vt = np.linalg.svd(K.entries, full_matrices=False)
    c = U.T @ psi.psi

    def solve(mu) -> TikhonovSolution:
        g = Vt.T @ (s / (s * s + mu) * c)
        rebuilt = SurvivalCurve(taus=psi.taus, psi=K.entries @ g, n_source=0)
        return TikhonovSolution(mu=float(mu),
                                spectrum=SpectrumGrid.from_arrays(K.lambdas, g),
                                rebuilt=rebuilt,
                                ks=ks_compare(rebuilt, psi, max(psi.n_source, 1)))

    return sweep("mu", mus, solve)


def write_spectrum_csv(spectrum: SpectrumGrid, stream) -> None:
    write_table(stream, "lambda,g", "{:.12g},{:.12g}".format,
                spectrum.lambdas, spectrum.masses)


def read_spectrum_csv(stream) -> SpectrumGrid:
    lambdas, masses = read_table(stream, "lambda,g").T
    return SpectrumGrid.from_arrays(lambdas, masses)


def write_mu_sweep_csv(solutions, stream) -> None:
    """Per-mu report: mu,ks_statistic,ks_pvalue,neg_mass,total_mass."""
    write_table(stream, "mu,ks_statistic,ks_pvalue,neg_mass,total_mass",
                "{:.12g},{:.12g},{:.12g},{:.12g},{:.12g}".format,
                *zip(*[(s.mu, s.ks.statistic, s.ks.p_value, s.spectrum.negative_mass,
                        s.spectrum.total_mass) for s in solutions]))
