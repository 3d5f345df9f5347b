import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import erfc, rgamma
from scipy.stats import kstest

from spectrakit import (MixtureSpec, MlParams, empirical_survival,
                        gen_mittag_leffler, gen_mixture, ks_statistic,
                        ml_survival)
from spectrakit.synthetic import Z_SWITCH, _ml_asymptotic, _ml_series

nan, inf = math.nan, math.inf


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(weights=[0.5, 0.4], rates=[1.0, 2.0])
    with pytest.raises(ValueError):
        MixtureSpec(weights=[1.0], rates=[-1.0])
    with pytest.raises(ValueError):
        MixtureSpec(weights=[0.5, 0.5], rates=[1.0])
    for weights, rates in (([0.5, 0.5], [nan, 1.0]), ([0.5, 0.5], [1.0, inf]),
                           ([nan], [1.0]), ([inf, 0.5], [1.0, 1.0])):
        with pytest.raises(ValueError):
            MixtureSpec(weights=weights, rates=rates)


def test_ml_params_validation():
    with pytest.raises(ValueError):
        MlParams(beta=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        MlParams(beta=1.2, gamma=1.0)
    with pytest.raises(ValueError):
        MlParams(beta=0.5, gamma=0.0)
    for beta, gamma in ((0.5, nan), (0.5, inf), (nan, 1.0)):
        with pytest.raises(ValueError):
            MlParams(beta=beta, gamma=gamma)


def test_mixture_single_rate_mean():
    spec = MixtureSpec(weights=[1.0], rates=[2.0])
    series = gen_mixture(spec, 10**5, seed=31)
    se = 0.5 / math.sqrt(10**5)
    assert abs(series.mean - 0.5) <= 3 * se


def test_mixture_two_rate_mean():
    spec = MixtureSpec(weights=[0.5, 0.5], rates=[1.0, 3.0])
    series = gen_mixture(spec, 10**5, seed=32)
    true_mean = 0.5 * 1.0 + 0.5 / 3.0
    true_var = 0.5 * 2.0 + 0.5 * (2 / 9) - true_mean**2
    se = math.sqrt(true_var / 10**5)
    assert abs(series.mean - true_mean) <= 3 * se


def test_mixture_determinism():
    spec = MixtureSpec(weights=[0.3, 0.7], rates=[1.0, 5.0])
    a = gen_mixture(spec, 1000, seed=33)
    b = gen_mixture(spec, 1000, seed=33)
    assert np.array_equal(a.values, b.values)
    c = gen_mixture(spec, 1000, seed=34)
    assert not np.array_equal(a.values, c.values)


def test_mixture_survival_matches_analytic():
    spec = MixtureSpec(weights=[0.5, 0.5], rates=[0.5, 2.0])
    series = gen_mixture(spec, 10**5, seed=35)
    stat, p = kstest(series.values,
                     lambda x: 1 - 0.5 * np.exp(-0.5 * x) - 0.5 * np.exp(-2 * x))
    assert p >= 0.01


def test_mixture_all_positive():
    spec = MixtureSpec(weights=[1.0], rates=[10.0])
    series = gen_mixture(spec, 5000, seed=36)
    assert np.all(series.values > 0)


def test_ml_beta_one_reduces_to_exponential():
    params = MlParams(beta=1.0, gamma=9.0)
    series = gen_mittag_leffler(params, 10**4, seed=41)
    stat, p = kstest(series.values, "expon", args=(0, 9.0))
    assert p >= 0.01


def test_ml_determinism():
    params = MlParams(beta=0.9, gamma=2.0)
    a = gen_mittag_leffler(params, 500, seed=42)
    b = gen_mittag_leffler(params, 500, seed=42)
    assert np.array_equal(a.values, b.values)


def test_ml_sample_matches_series_oracle():
    params = MlParams(beta=0.95, gamma=1.0)
    series = gen_mittag_leffler(params, 10**4, seed=43)
    taus = np.geomspace(0.01, 50.0, 120)
    empirical = empirical_survival(series, taus)
    oracle = ml_survival(params, taus)
    assert ks_statistic(empirical, oracle) < 0.02


def test_ml_survival_at_zero_is_one():
    for beta in (0.5, 0.8, 1.0):
        curve = ml_survival(MlParams(beta=beta, gamma=3.0), [0.0])
        assert curve.psi[0] == 1.0


def test_ml_survival_exponential_case():
    curve = ml_survival(MlParams(beta=1.0, gamma=1.0), [1.0])
    assert curve.psi[0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_ml_survival_half_closed_form():
    # E_{1/2}(-x) = e^{x^2} erfc(x); oracle via scipy erfc
    params = MlParams(beta=0.5, gamma=1.0)
    taus = np.array([0.25, 1.0, 2.25, 4.0, 9.0])
    curve = ml_survival(params, taus)
    x = np.sqrt(taus)
    closed = np.exp(x**2) * erfc(x)
    assert np.all(np.abs(curve.psi - closed) < 1e-6)
    assert curve.psi[1] == pytest.approx(0.4275835762, abs=1e-8)


def test_ml_survival_monotone_unit_range():
    curve = ml_survival(MlParams(beta=0.8, gamma=2.0),
                        np.geomspace(0.01, 1000.0, 100))
    assert np.all(np.diff(curve.psi) < 0)
    assert np.all((curve.psi > 0) & (curve.psi <= 1))


def test_ml_survival_power_law_tail():
    beta, gamma = 0.9, 1.0
    tau = 1000.0
    curve = ml_survival(MlParams(beta=beta, gamma=gamma), [tau])
    scaled = curve.psi[0] * (tau / gamma) ** beta
    limit = float(1 / mpmath.gamma(1 - beta))
    assert abs(scaled - limit) / limit < 0.05


def test_ml_branch_agreement_around_switch():
    for beta in (0.6, 0.9, 0.95):
        for z in (28.0, 30.0, 32.0):
            assert abs(_ml_series(z, beta) - _ml_asymptotic(z, beta)) < 1e-6


def _ml_asymptotic_rgamma(z, beta):
    # the asymptotic tail as summed with scipy's rgamma before math.gamma
    total, prev, sign, zn = 0.0, math.inf, 1.0, 1.0
    for n in range(1, 51):
        zn /= z
        term = zn * float(rgamma(1.0 - beta * n))
        if abs(term) > prev:
            break
        total += sign * term
        if term != 0.0:
            prev = abs(term)
        sign = -sign
    return total


def test_ml_asymptotic_matches_scipy_rgamma():
    # 1/math.gamma (0 at the poles) stands in for scipy.special.rgamma;
    # the oracle moves by at most 1e-15 relative
    for beta in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
        params = MlParams(beta=beta, gamma=8.85)
        taus = 8.85 * np.geomspace(Z_SWITCH * 1.0001, 1e6, 200) ** (1.0 / beta)
        psi = ml_survival(params, taus).psi
        ref = np.array([_ml_asymptotic_rgamma((tau / 8.85) ** beta, beta)
                        for tau in taus])
        assert np.all(np.abs(psi - ref) <= 1e-15 * np.abs(ref)), beta


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, spectrakit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _ml_series_reference(z, beta):
    # _ml_series as it was before its Gamma table: one mpmath.gamma per
    # term and tau
    hump_digits = int(0.45 * z ** (1.0 / beta)) + 10
    with mpmath.workdps(25 + hump_digits):
        mz = mpmath.mpf(-z)
        mbeta = mpmath.mpf(beta)
        total = mpmath.mpf(1)
        power = mpmath.mpf(1)
        n = 0
        hump = z ** (1.0 / beta)
        while True:
            n += 1
            power *= mz
            term = power / mpmath.gamma(1 + mbeta * n)
            total += term
            if n > hump and abs(term) < mpmath.mpf(10) ** (-20):
                break
        return float(total)


def _ml_survival_reference(params, taus):
    psi = []
    for tau in taus:
        z = (tau / params.gamma) ** params.beta
        if z == 0.0:
            psi.append(1.0)
        elif z <= Z_SWITCH:
            psi.append(_ml_series_reference(z, params.beta))
        else:
            psi.append(_ml_asymptotic(z, params.beta))
    return np.array(psi)


@pytest.mark.parametrize("beta, z_max", [(0.5, 6.0), (0.6, 6.0), (0.8, Z_SWITCH),
                                         (0.9, Z_SWITCH), (0.95, Z_SWITCH),
                                         (0.99, Z_SWITCH)])
def test_ml_gamma_table_keeps_every_bit(beta, z_max):
    # a dense grid crosses many working-precision steps with several tau
    # to each step; for z_max = Z_SWITCH it also crosses the switch
    params = MlParams(beta=beta, gamma=8.85)
    taus = params.gamma * np.linspace(0.0, 1.05 * z_max, 60) ** (1.0 / beta)
    psi = ml_survival(params, taus).psi
    assert np.array_equal(psi, _ml_survival_reference(params, taus))
    # repeated z, in falling and rising order, reuse one table at term
    # counts both below and above the one that filled it
    zs = [z for z in (taus / params.gamma) ** beta if 0.0 < z <= Z_SWITCH][::4]
    zs = zs[::-1] + zs + zs[::2]
    gammas = {}
    assert ([_ml_series(z, beta, gammas) for z in zs]
            == [_ml_series_reference(z, beta) for z in zs])


def test_ml_survival_evaluates_each_gamma_once(monkeypatch):
    calls = []
    gamma = mpmath.gamma

    def counting_gamma(x):
        calls.append((mpmath.mp.prec, x))
        return gamma(x)

    monkeypatch.setattr(mpmath, "gamma", counting_gamma)
    ml_survival(MlParams(beta=0.95, gamma=8.85), np.arange(1.0, 197.0))
    assert len(set(calls)) == len(calls)
    assert len(calls) < 1000  # 12,398 with one Gamma per term and tau


def test_cli_import_leaves_mpmath_and_xml_out():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys, spectrakit.cli\n"
            "print(*[m in sys.modules for m in ('mpmath', 'xml.sax', 'urllib.request')])\n"
            "from spectrakit import MlParams, ml_survival\n"
            "psi = ml_survival(MlParams(beta=0.5, gamma=1.0), [0.0, 1.0]).psi\n"
            "print(repr(float(psi[1])), 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False False False", f"{_ml_series_reference(1.0, 0.5)!r} True"]


def test_generators_reject_bad_n():
    with pytest.raises(ValueError):
        gen_mixture(MixtureSpec(weights=[1.0], rates=[1.0]), 0, seed=1)
    with pytest.raises(ValueError):
        gen_mittag_leffler(MlParams(beta=0.9, gamma=1.0), 0, seed=1)
