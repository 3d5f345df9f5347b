"""Seeded generators for calibration data with known ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .durations import DurationSeries, SurvivalCurve

__all__ = [
    "MixtureSpec",
    "MlParams",
    "gen_mixture",
    "gen_mittag_leffler",
    "ml_survival",
]

# Switch point between the power series and the asymptotic expansion of
# E_beta(-z), in z = (tau/gamma)^beta.  The asymptotic tail summed to
# its smallest term is accurate to ~1e-7 here for beta in (0, 0.99];
# the series side is evaluated in adaptive extended precision, so the
# branches agree to well under 1e-6 across the switch.
Z_SWITCH = 30.0

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth finite exponential mixture: weights a_i, rates lambda_i."""

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if weights.size != rates.size or weights.size == 0:
            raise ValueError("weights and rates must be non-empty and equal length")
        if not (np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1")
        if not np.all(np.isfinite(rates) & (rates > 0)):
            raise ValueError("rates must be finite and > 0")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class MlParams:
    """Mittag-Leffler waiting-time parameters: tail exponent beta in (0,1],
    time scale gamma in seconds."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    # rng.random is [0, 1); nudge exact zeros so logs stay finite.
    u = rng.random(n)
    u[u == 0.0] = _TINY
    return u


def gen_mixture(spec: MixtureSpec, n: int, seed: int) -> DurationSeries:
    """n i.i.d. draws from the exponential mixture, reproducible by seed.

    Uses numpy's PCG64 stream: one uniform picks the component by its
    cumulative weight, a second becomes the exponential draw via
    -log(u)/lambda.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    comp = np.searchsorted(np.cumsum(spec.weights), rng.random(n), side="right")
    comp = np.minimum(comp, spec.rates.size - 1)
    u = _uniform_open(rng, n)
    return DurationSeries.from_values(-np.log(u) / spec.rates[comp])


def gen_mittag_leffler(p: MlParams, n: int, seed: int) -> DurationSeries:
    """n i.i.d. Mittag-Leffler waiting times, reproducible by seed.

    Transformation of a pair of uniforms U, V on (0, 1):
        X = -gamma * ln(U) * (sin(b*pi)/tan(b*pi*V) - cos(b*pi))**(1/b)
    with b = beta; the beta = 1 branch is the exact exponential case
    X = -gamma * ln(U).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = _uniform_open(rng, n)
    v = _uniform_open(rng, n)
    if p.beta == 1.0:
        factor = 1.0
    else:
        bpi = p.beta * math.pi
        factor = (math.sin(bpi) / np.tan(bpi * v) - math.cos(bpi)) ** (1.0 / p.beta)
    values = -p.gamma * np.log(u) * factor
    values[values <= 0] = _TINY  # u or the bracket rounding to the edge
    return DurationSeries.from_values(values)


def _ml_series(z: float, beta: float, gammas: dict | None = None) -> float:
    # Power series sum_n (-z)^n / Gamma(1 + beta*n) in extended
    # precision; the terms peak near exp(z^(1/beta)) before the Gamma
    # wins, so the working precision scales with that hump.  gammas maps
    # a precision to its Gamma(1 + beta*n) values for this beta, filled
    # on first need: ml_survival passes one per call, and each entry is
    # the same mpf expression at the same precision, so the sum keeps
    # every bit.
    import mpmath  # on first use, so that importing the CLI never loads it

    hump_digits = int(0.45 * z ** (1.0 / beta)) + 10
    dps = 25 + hump_digits
    gamma_n = [] if gammas is None else gammas.setdefault(dps, [])
    with mpmath.workdps(dps):
        mz = mpmath.mpf(-z)
        mbeta = mpmath.mpf(beta)
        tol = mpmath.mpf(10) ** (-20)
        total = mpmath.mpf(1)
        power = mpmath.mpf(1)
        n = 0
        hump = z ** (1.0 / beta)
        while True:
            n += 1
            power *= mz
            if n > len(gamma_n):
                gamma_n.append(mpmath.gamma(1 + mbeta * n))
            term = power / gamma_n[n - 1]
            total += term
            if n > hump and abs(term) < tol:
                break
            if n > 100000:
                raise RuntimeError("Mittag-Leffler series failed to converge")
        return float(total)


def _rgamma(x: float) -> float:
    """1/Gamma(x), which is 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _ml_asymptotic(z: float, beta: float) -> float:
    # Divergent tail sum_n (-1)^(n-1) z^(-n) / Gamma(1 - beta*n),
    # truncated at its smallest term (standard optimal truncation).
    total = 0.0
    prev = math.inf
    sign = 1.0
    zn = 1.0
    for n in range(1, 51):
        zn /= z
        term = zn * _rgamma(1.0 - beta * n)
        if abs(term) > prev:
            break
        total += sign * term
        if term != 0.0:
            prev = abs(term)
        sign = -sign
    return total


def ml_survival(p: MlParams, taus) -> SurvivalCurve:
    """Analytic Mittag-Leffler survival Psi(tau) = E_beta(-(tau/gamma)^beta).

    Evaluated by the defining power series (extended precision) for
    z <= Z_SWITCH and the optimally truncated asymptotic expansion with
    leading term (tau/gamma)^(-beta)/Gamma(1-beta) beyond; beta = 1
    short-circuits to the exact exponential.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("tau grid values must be >= 0")
    if p.beta == 1.0:
        psi = np.exp(-taus / p.gamma)
        return SurvivalCurve(taus=taus, psi=psi, n_source=0)
    psi = np.empty_like(taus)
    gammas = {}  # Gamma(1 + beta*n) by precision, for this call only
    for idx, tau in enumerate(taus):
        z = (tau / p.gamma) ** p.beta
        if z == 0.0:
            psi[idx] = 1.0
        elif z <= Z_SWITCH:
            psi[idx] = _ml_series(z, p.beta, gammas)
        else:
            psi[idx] = _ml_asymptotic(z, p.beta)
    return SurvivalCurve(taus=taus, psi=psi, n_source=0)
