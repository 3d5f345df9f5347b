"""Discretized exponential kernel for the survival-function inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .durations import MAX_GRID_POINTS

__all__ = ["KernelMatrix", "assemble_kernel", "check_kernel_size", "conditioning_ratio"]


@dataclass(frozen=True)
class KernelMatrix:
    """Matrix k_ij = exp(-lambda_i * tau_j) on the grids lambda_i = h*i,
    tau_j = j (seconds).

    ``entries`` is n_tau x n_lambda, row index = tau, column index =
    lambda; the square default is symmetric.  The solution vector g
    paired with this matrix is probability MASS on the lambda grid
    (Psi = K g carries no d-lambda quadrature weight), so the mixture
    normalization reads sum(g) ~ 1, not sum(g)*h ~ 1.
    """

    h: float
    n_lambda: int
    n_tau: int
    entries: np.ndarray
    lambdas: np.ndarray
    taus: np.ndarray


def check_kernel_size(n: int, n_tau: int | None = None) -> int:
    """Validate an n_tau x n kernel size (n_tau defaults to n); return n_tau.

    Raises ValueError for a size below 1 or a matrix of more than
    MAX_GRID_POINTS entries, before anything is allocated.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if n_tau is None:
        n_tau = n
    elif n_tau < 1:
        raise ValueError(f"n_tau must be >= 1, got {n_tau}")
    if n * n_tau > MAX_GRID_POINTS:
        raise ValueError(f"a {n_tau} x {n} kernel has {n * n_tau} entries "
                         f"(limit {MAX_GRID_POINTS})")
    return n_tau


def assemble_kernel(h: float, n: int, n_tau: int | None = None) -> KernelMatrix:
    """Build the kernel matrix with lambda spacing h and n lambda rows.

    The default is the square n x n form (entry (i,j) = exp(-h*i*j));
    pass n_tau for a rectangular tau grid.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    n_tau = check_kernel_size(n, n_tau)
    i = np.arange(1, n + 1)
    j = np.arange(1, n_tau + 1)
    lambdas = h * i.astype(float)
    taus = j.astype(float)
    # h * (i*j) with the integer product formed exactly keeps the
    # square matrix symmetric to the bit
    entries = np.exp(-h * np.outer(j, i))
    return KernelMatrix(h=float(h), n_lambda=int(n), n_tau=int(n_tau),
                        entries=entries, lambdas=lambdas, taus=taus)


def conditioning_ratio(K: KernelMatrix) -> float:
    """Dynamic range max/min of the kernel entries.

    For the square grid this equals exp(h*(n**2 - 1)), the
    ill-conditioning diagnostic of the discretized problem.
    """
    return float(K.entries.max() / K.entries.min())
