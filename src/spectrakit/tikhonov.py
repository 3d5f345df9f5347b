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


def _as_matrix(K) -> np.ndarray:
    return K.entries if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)


def _as_psi(psi) -> np.ndarray:
    return psi.psi if isinstance(psi, SurvivalCurve) else np.asarray(psi, dtype=float)


def eval_objective(K, g, psi, mu: float) -> float:
    """Regularized least-squares functional ||Kg - Psi||^2 + mu*||g||^2."""
    A = _as_matrix(K)
    g = np.asarray(g, dtype=float)
    b = _as_psi(psi)
    if A.shape != (b.size, g.size):
        raise ValueError(
            f"dimension mismatch: K is {A.shape}, psi has {b.size}, g has {g.size}")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    r = A @ g - b
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
    A = _as_matrix(K)
    b = _as_psi(psi)
    if A.shape[0] != b.size:
        raise ValueError(
            f"dimension mismatch: K has {A.shape[0]} rows, psi has {b.size}")
    is_kernel = isinstance(K, KernelMatrix)
    if not isinstance(psi, SurvivalCurve):
        psi = SurvivalCurve(taus=K.taus if is_kernel else np.arange(1.0, b.size + 1),
                            psi=b)
    elif is_kernel and not np.array_equal(K.taus, psi.taus):
        raise ValueError("psi is not sampled on the kernel's tau grid")
    lambdas = K.lambdas if is_kernel else np.arange(1.0, A.shape[1] + 1)
    n_eff = max(psi.n_source, 1)
    mus = check_grid("mu", mus)

    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    c = U.T @ b

    def solve(mu) -> TikhonovSolution:
        g = Vt.T @ (s / (s * s + mu) * c)
        rebuilt = SurvivalCurve(taus=psi.taus, psi=A @ g, n_source=0)
        return TikhonovSolution(mu=float(mu),
                                spectrum=SpectrumGrid.from_arrays(lambdas, g),
                                rebuilt=rebuilt,
                                ks=ks_compare(rebuilt, psi, n_eff))

    return sweep("mu", mus, solve)


def write_spectrum_csv(spectrum: SpectrumGrid, stream) -> None:
    write_table(stream, "lambda,g", "{:.12g},{:.12g}",
                zip(spectrum.lambdas.tolist(), spectrum.masses.tolist()))


def read_spectrum_csv(stream) -> SpectrumGrid:
    lambdas, masses = read_table(stream, "lambda,g").T
    return SpectrumGrid.from_arrays(lambdas, masses)


def write_mu_sweep_csv(solutions, stream) -> None:
    """Per-mu report: mu,ks_statistic,ks_pvalue,neg_mass,total_mass."""
    write_table(stream, "mu,ks_statistic,ks_pvalue,neg_mass,total_mass",
                "{:.12g},{:.12g},{:.12g},{:.12g},{:.12g}",
                ((s.mu, s.ks.statistic, s.ks.p_value, s.spectrum.negative_mass,
                  s.spectrum.total_mass) for s in solutions))
