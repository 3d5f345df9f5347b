"""Discretized exponential kernel for the survival-function inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .durations import MAX_GRID_POINTS

__all__ = ["KernelMatrix", "assemble_kernel", "check_kernel_size", "conditioning_ratio"]


@dataclass(frozen=True)
class KernelMatrix:
    """Square n x n matrix k_ij = exp(-lambda_i * tau_j) on the grids
    lambda_i = h*i, tau_j = j (seconds), i, j = 1..n.

    ``entries`` has row index = tau, column index = lambda, and is
    symmetric.  The solution vector g paired with this matrix is
    probability MASS on the lambda grid (Psi = K g carries no d-lambda
    quadrature weight), so the mixture normalization reads sum(g) ~ 1,
    not sum(g)*h ~ 1.
    """

    entries: np.ndarray
    lambdas: np.ndarray
    taus: np.ndarray


def check_kernel_size(n: int) -> None:
    """Validate an n x n kernel size.

    Raises ValueError for n below 1 or a matrix of more than
    MAX_GRID_POINTS entries, before anything is allocated.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if n * n > MAX_GRID_POINTS:
        raise ValueError(f"a {n} x {n} kernel has {n * n} entries "
                         f"(limit {MAX_GRID_POINTS})")


def assemble_kernel(h: float, n: int) -> KernelMatrix:
    """Build the n x n kernel with lambda spacing h: entry (j, i) = exp(-h*i*j)."""
    check_kernel_size(n)
    if not (h > 0 and math.isfinite(h * n)):
        raise ValueError(f"h must be > 0 and h*n finite, got h = {h:g}, n = {n}")
    i = np.arange(1, n + 1)
    # the exact integer i*j keeps K symmetric to the bit; an overflowed -h*i*j is -inf, exp 0
    with np.errstate(over="ignore"):
        entries = np.exp(-h * np.outer(i, i))
    return KernelMatrix(entries=entries, lambdas=h * i.astype(float), taus=i.astype(float))


def conditioning_ratio(K: KernelMatrix) -> float:
    """Dynamic range max/min of the kernel entries.

    It equals exp(lambda_n*tau_n - lambda_1*tau_1) = exp(h*(n**2 - 1)), the
    ill-conditioning diagnostic of the discretized problem; inf past the float range.
    """
    with np.errstate(over="ignore"):
        return float(np.exp(K.lambdas[-1] * K.taus[-1] - K.lambdas[0] * K.taus[0]))
