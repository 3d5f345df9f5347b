import math
import os
import subprocess
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, rgamma
from scipy.stats import kstest

from spectrakit import (MixtureSpec, MlParams, empirical_survival,
                        gen_mittag_leffler, gen_mixture, ks_statistic,
                        ml_survival)

nan, inf = math.nan, math.inf

# where the test oracles switch from the series to the asymptotic expansion
Z_SWITCH = 30.0


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
    # the two test oracles agree where they hand over
    for beta in (0.6, 0.9, 0.95):
        for z in (28.0, 30.0, 32.0):
            series = _ml_series_reference(z, beta)
            assert abs(series - _ml_asymptotic_rgamma(z, beta)) < 1e-6


def _ml_asymptotic_rgamma(z, beta):
    # divergent tail sum_n (-1)^(n-1) z^(-n) / Gamma(1 - beta*n), truncated
    # at its smallest term
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
    # far past the switch the asymptotic oracle is exact to rounding
    for beta in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
        params = MlParams(beta=beta, gamma=8.85)
        taus = 8.85 * np.geomspace(100.0, 1e6, 200) ** (1.0 / beta)
        psi = ml_survival(params, taus).psi
        ref = np.array([_ml_asymptotic_rgamma((tau / 8.85) ** beta, beta)
                        for tau in taus])
        assert np.all(np.abs(psi - ref) <= 1e-14 * np.abs(ref)), beta


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, spectrakit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _ml_series_reference(z, beta):
    # power series sum_n (-z)^n / Gamma(1 + beta*n) in extended precision;
    # the terms peak near exp(z^(1/beta)), so the precision scales with it
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


@pytest.mark.parametrize("beta, z_max", [(0.5, 6.0), (0.6, 6.0), (0.8, Z_SWITCH),
                                         (0.9, Z_SWITCH), (0.95, Z_SWITCH),
                                         (0.99, Z_SWITCH)])
def test_ml_gamma_table_keeps_every_bit(beta, z_max):
    # dense z grids, checked against the series oracle over its range
    # 0 < z <= Z_SWITCH (the name dates from a Gamma table they once pinned)
    params = MlParams(beta=beta, gamma=8.85)
    taus = params.gamma * np.linspace(0.0, 1.05 * z_max, 60) ** (1.0 / beta)
    psi = ml_survival(params, taus).psi
    assert psi[0] == 1.0
    zs = (taus / params.gamma) ** beta
    inside = (zs > 0.0) & (zs <= Z_SWITCH)
    ref = np.array([_ml_series_reference(z, beta) for z in zs[inside]])
    assert np.all(np.abs(psi[inside] - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("beta", [0.95, 0.99])
def test_ml_survival_exact_past_old_switch(beta):
    # an asymptotic expansion switched in at z = 30 is off here by up to
    # 1.5e-12 (beta = 0.95) and 4.5e-11 (beta = 0.99) relative
    zs = np.linspace(Z_SWITCH, 2 * Z_SWITCH, 13)
    psi = ml_survival(MlParams(beta=beta, gamma=8.85), 8.85 * zs ** (1.0 / beta)).psi
    ref = np.array([_ml_series_reference(z, beta) for z in zs])
    assert np.all(np.abs(psi - ref) <= 1e-14 * ref)


def test_ml_survival_half_closed_form_wide_range():
    # E_{1/2}(-x) = e^{x^2} erfc(x), x = sqrt(tau), from 1e-4 to 1e12
    taus = np.geomspace(1e-4, 1e12, 161)
    psi = ml_survival(MlParams(beta=0.5, gamma=1.0), taus).psi
    with mpmath.workdps(40):  # erfc of a large x needs the guard digits
        ref = np.array([float(mpmath.exp(t) * mpmath.erfc(mpmath.sqrt(t)))
                        for t in taus])
    assert np.all(np.abs(psi - ref) <= 1e-14 * ref)


def test_ml_survival_refuses_too_many_nodes():
    taus = np.arange(1.0, 197.0)
    for beta in (1 - 1e-9, 1e-6):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"beta = {beta}"):
            ml_survival(MlParams(beta=beta, gamma=8.85), taus)
        assert time.perf_counter() - start < 0.1
    for beta in (0.05, 0.3):
        start = time.perf_counter()
        psi = ml_survival(MlParams(beta=beta, gamma=8.85), taus).psi
        assert time.perf_counter() - start < 0.5
        assert np.all((psi > 0) & (psi < 1))


@pytest.mark.parametrize("taus, message", [
    ([1.0, inf], "taus and psi must be finite"),
    ([nan], "taus and psi must be finite"),
    ([2.0, 1.0], "tau grid must be strictly increasing"),
    ([-1.0], "tau grid values must be >= 0"),
])
def test_ml_survival_rejects_bad_grid(taus, message):
    with pytest.raises(ValueError, match=message):
        ml_survival(MlParams(beta=0.9, gamma=8.85), taus)


def test_ml_survival_quiet_on_extreme_tau():
    # rates e^(u/beta) past 1e308 overflow to inf, whose terms are exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = ml_survival(MlParams(beta=0.05, gamma=1.0), [5e-324]).psi
        huge = ml_survival(MlParams(beta=0.5, gamma=1.0), np.geomspace(1e-5, 1.7e308, 40)).psi
    assert 0 < tiny[0] < 1
    assert np.all((huge > 0) & (huge < 1)) and np.all(np.diff(huge) <= 0)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.05, 0.99),
       scaled=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40, unique=True))
def test_ml_survival_properties(beta, scaled):
    params = MlParams(beta=beta, gamma=8.85)
    taus = np.unique(8.85 * np.array(scaled))
    psi = ml_survival(params, taus).psi
    assert np.all((psi > 0) & (psi <= 1))
    assert np.all(np.diff(psi) <= 0)
    assert np.all(psi[taus == 0.0] == 1.0)
    single = np.array([ml_survival(params, [tau]).psi[0] for tau in taus])
    assert np.all(np.abs(psi - single) <= 1e-14 * single)


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
    first, second = proc.stdout.splitlines()
    assert first == "False False False"
    psi_one, loaded = second.split()
    assert float(psi_one) == pytest.approx(math.exp(1) * math.erfc(1), rel=1e-15, abs=0)
    assert loaded == "False"


def test_runs_without_mpmath(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys\n"
            "sys.modules['mpmath'] = None  # any import of it now fails\n"
            "import spectrakit\n"
            "from spectrakit import MlParams, cli, ml_survival\n"
            "ml_survival(MlParams(beta=0.5, gamma=1.0), [0.0, 1.0, 10.0])\n"
            "assert cli.main(['gen', '--ml', '--n', '500', '-o', 'ml.txt']) == 0\n"
            "assert cli.main(['survival', '--input', 'ml.txt', '-o', 's.csv']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.csv").stat().st_size > 0


def test_generators_reject_bad_n():
    with pytest.raises(ValueError):
        gen_mixture(MixtureSpec(weights=[1.0], rates=[1.0]), 0, seed=1)
    with pytest.raises(ValueError):
        gen_mittag_leffler(MlParams(beta=0.9, gamma=1.0), 0, seed=1)
