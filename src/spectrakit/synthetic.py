"""Seeded generators for calibration data with known ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delta_comb import _psi_chunks
from .durations import _TINY, DurationSeries, SurvivalCurve

__all__ = [
    "MixtureSpec",
    "MlParams",
    "gen_mixture",
    "gen_mittag_leffler",
    "ml_survival",
]

# ml_survival's trapezoid sum neglects below e^-_CUTOFF (~4e-18) of Psi
# and uses at most _MAX_NODES nodes: 64 MB in a 64-row exp block
_CUTOFF = 40.0
_MAX_NODES = 1 << 17


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth finite exponential mixture: weights a_i, rates lambda_i."""

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if weights.ndim != 1 or weights.shape != rates.shape or weights.size == 0:
            raise ValueError("weights and rates must be non-empty 1-d arrays of equal length")
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
    with np.errstate(over="ignore"):  # from_values refuses an overflowing draw
        values = -np.log(u) / spec.rates[comp]
    return DurationSeries.from_values(values)


def gen_mittag_leffler(p: MlParams, n: int, seed: int) -> DurationSeries:
    """n i.i.d. Mittag-Leffler waiting times, reproducible by seed.

    Transformation of a pair of uniforms U, V on (0, 1):
        X = -gamma * ln(U) * (sin(b*pi)/tan(b*pi*V) - cos(b*pi))**(1/b)
    with b = beta; the beta = 1 branch is the exact exponential case
    X = -gamma * ln(U).  A beta whose factor overflows (0.01, say) is refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = _uniform_open(rng, n)
    v = _uniform_open(rng, n)
    with np.errstate(over="ignore"):  # from_values refuses an overflowing draw
        if p.beta == 1.0:
            factor = 1.0
        else:
            bpi = p.beta * math.pi
            factor = (math.sin(bpi) / np.tan(bpi * v) - math.cos(bpi)) ** (1.0 / p.beta)
            if not np.isfinite(factor).all():
                raise ValueError(f"beta = {p.beta:g} is too small: the draw's factor "
                                 "(sin b pi / tan b pi V - cos b pi)^(1/b) overflows")
        values = -p.gamma * np.log(u) * factor
    values[values <= 0] = _TINY  # u or the bracket rounding to the edge
    return DurationSeries.from_values(values)


def ml_survival(p: MlParams, taus) -> SurvivalCurve:
    """Analytic Mittag-Leffler survival Psi(tau) = E_beta(-(tau/gamma)^beta).

    For beta < 1, Psi mixes exponentials e^(-r tau/gamma) over the activity
    spectrum K_beta(r) = (sin beta pi / pi) r^(beta-1) / (r^(2 beta) +
    2 r^beta cos beta pi + 1) (Mainardi, Gorenflo and Scalas 2004).  With
    r = e^(u/beta) the integrand is analytic in |Im u| < min((1-beta) pi,
    beta pi/2), so a trapezoid sum in u converges geometrically (Trefethen
    and Weideman 2014); it neglects below e^-40 of Psi and runs through the
    comb's evaluator.  A grid needing over 2**17 nodes is refused (beta
    outside about [0.0013, 0.9992] on tau = 1..196 at gamma = 8.85).
    SurvivalCurve checks the tau grid before any term.  Psi(0) is exactly 1,
    Psi is 0 where tau/gamma passes the float range; beta = 1 is exact.
    """
    curve = SurvivalCurve(taus=taus, psi=np.ones(np.size(taus)), n_source=0)
    psi = curve.psi
    with np.errstate(over="ignore"):  # a tau/gamma of inf has Psi = 0
        a = curve.taus / p.gamma
    live = (a > 0) & (a < math.inf)
    psi[a == math.inf] = 0.0
    if np.any(live):
        a, bpi = a[live], p.beta * math.pi
        rates = weights = np.ones(1)  # beta = 1: the one term e^-a
        if p.beta < 1.0:
            step = 2.0 * math.pi * min(math.pi - bpi, bpi / 2.0) / _CUTOFF
            # below lo the weights sum to under e^-40 of Psi(a_max); above hi each
            # term is under e^-40 of its weight, or (hi = 40) all weights are
            lo = -_CUTOFF - p.beta * math.log(max(a.max(), 1.0))
            hi = min(_CUTOFF, p.beta * (math.log(_CUTOFF) - math.log(a.min())))
            if not hi - lo < _MAX_NODES * step:
                raise ValueError(f"beta = {p.beta} needs more than {_MAX_NODES} "
                                 "quadrature nodes on this tau grid")
            u = step * np.arange(math.floor(lo / step), math.ceil(hi / step) + 1)
            # sin(beta pi) / (2 pi beta (cosh u + cos beta pi)) without cancellation
            with np.errstate(over="ignore"):  # an inf sinh or rate adds exactly 0
                weights = step * math.sin(bpi) / (4.0 * bpi * (np.sinh(u / 2.0) ** 2
                                                               + math.cos(bpi / 2.0) ** 2))
                rates = np.exp(u / p.beta)
        psi[live] = np.concatenate([chunk for _, chunk in _psi_chunks(rates, weights, a)])
    # the weights sum to 1 only up to rounding; Psi never exceeds 1, nor rises
    psi[:] = np.minimum.accumulate(np.minimum(psi, 1.0))
    return curve
