"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import mpmath
import numpy as np
from scipy.special import erfc
from scipy.stats import kstest

import spectrakit as sk


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def oracle_solve(A, b, mu, dps=60):
    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in A])
        rhs = mpmath.matrix([mpmath.mpf(x) for x in b])
        G = M.T * M + mu * mpmath.eye(M.cols)
        sol = mpmath.lu_solve(G, M.T * rhs)
        return np.array([float(sol[i]) for i in range(M.cols)])


def test_criterion_1_tikhonov_optimality():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    foc_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 51))
        A = rng.random((m, m))
        b = rng.random(m)
        mu = 10.0 ** rng.uniform(-4, 1)
        g = sk.solve_tikhonov(A, b, mu).spectrum.masses
        grad = 2 * A.T @ (A @ g - b) + 2 * mu * g
        foc_ok &= np.linalg.norm(grad) < 1e-8 * (1 + np.linalg.norm(A.T @ b))
    oracle_ok = True
    for _ in range(20):
        A = rng.random((5, 5))
        b = rng.random(5)
        g = sk.solve_tikhonov(A, b, 0.1).spectrum.masses
        ref = oracle_solve(A, b, 0.1)
        oracle_ok &= np.linalg.norm(g - ref) < 1e-10 * np.linalg.norm(ref)
    elapsed = time.time() - t0
    report(1, "Tikhonov optimality", foc_ok and oracle_ok and elapsed < 5.0,
           f"foc={foc_ok} oracle={oracle_ok} {elapsed:.2f}s")


def test_criterion_2_tikhonov_path_monotonicity():
    t0 = time.time()
    K = sk.assemble_kernel(0.0015, 196)
    rng = np.random.default_rng(1002)
    series = sk.DurationSeries.from_values(rng.exponential(8.85, 30000))
    curve = sk.empirical_survival(series, K.taus)
    solutions, _ = sk.sweep_mu(K, curve, sk.default_mu_grid())
    no_failures = all(s is not None for s in solutions)
    norms = np.array([np.linalg.norm(s.spectrum.masses) for s in solutions])
    residuals = np.array([np.linalg.norm(K.entries @ s.spectrum.masses - curve.psi)
                          for s in solutions])
    norm_ok = bool(np.all(norms[1:] <= norms[:-1] * (1 + 1e-9)))
    res_ok = bool(np.all(residuals[1:] >= residuals[:-1] * (1 - 1e-9)))
    elapsed = time.time() - t0
    report(2, "Tikhonov path monotonicity",
           no_failures and norm_ok and res_ok and elapsed < 30.0,
           f"failures={sum(s is None for s in solutions)} "
           f"norm_mono={norm_ok} resid_mono={res_ok} {elapsed:.2f}s")


def test_criterion_3_single_exponential_recovery():
    t0 = time.time()
    lam = 1 / 8.85
    series = sk.gen_mixture(sk.MixtureSpec(weights=[1.0], rates=[lam]),
                            50000, seed=101)
    K = sk.assemble_kernel(0.0015, 196)
    curve = sk.empirical_survival(series, K.taus)
    solutions, best = sk.sweep_mu(K, curve, sk.default_mu_grid())
    sol = solutions[best]
    centroid_rel = abs(sol.spectrum.mass_centroid - lam) / lam
    elapsed = time.time() - t0
    report(3, "single-exponential recovery",
           sol.ks.p_value >= 0.01 and centroid_rel < 0.10 and elapsed < 60.0,
           f"p={sol.ks.p_value:.4g} centroid_rel={centroid_rel:.3f} {elapsed:.2f}s")


def test_criterion_4_delta_comb_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1004)
    norm_ok = True
    for _ in range(20):
        series = sk.DurationSeries.from_values(rng.exponential(3.0, 777))
        comb = sk.fit_comb(series, rng.uniform(5, 100))
        norm_ok &= abs(comb.weights.sum() - 1.0) < 1e-12

    series = sk.DurationSeries.from_values(np.ones(22))
    comb = sk.fit_comb(series, 10.0)
    trace_ok = (comb.m == 2 and list(comb.rates) == [1.0, 1.0]
                and list(comb.weights) == [0.5, 0.5])

    lam = 0.5
    series = sk.DurationSeries.from_values(
        np.random.default_rng(23).exponential(1 / lam, 100000))
    comb = sk.fit_comb(series, 2000.0)
    rates_ok = all(abs(r - lam) <= 3 * math.sqrt(lam**2 / n)
                   for r, n in zip(comb.rates, comb.window_counts))
    elapsed = time.time() - t0
    report(4, "delta-comb exactness",
           norm_ok and trace_ok and rates_ok and elapsed < 5.0,
           f"norm={norm_ok} trace={trace_ok} rates={rates_ok} {elapsed:.2f}s")


def test_criterion_5_mittag_leffler_generator():
    t0 = time.time()
    series = sk.gen_mittag_leffler(sk.MlParams(beta=1.0, gamma=9.0),
                                   10**4, seed=41)
    _, p = kstest(series.values, "expon", args=(0, 9.0))
    beta1_ok = p >= 0.01

    params = sk.MlParams(beta=0.95, gamma=1.0)
    series = sk.gen_mittag_leffler(params, 10**4, seed=43)
    taus = np.geomspace(0.01, 50.0, 120)
    d = sk.ks_statistic(sk.empirical_survival(series, taus),
                        sk.ml_survival(params, taus))
    sample_ok = d < 0.02

    half = sk.MlParams(beta=0.5, gamma=1.0)
    ts = np.array([0.25, 1.0, 2.25, 4.0, 9.0])
    x = np.sqrt(ts)
    closed = np.exp(x**2) * erfc(x)
    oracle_ok = bool(np.all(np.abs(sk.ml_survival(half, ts).psi - closed) < 1e-6))
    elapsed = time.time() - t0
    report(5, "Mittag-Leffler generator",
           beta1_ok and sample_ok and oracle_ok and elapsed < 10.0,
           f"beta1_p={p:.3f} sup={d:.4f} closed_form={oracle_ok} {elapsed:.2f}s")


def test_criterion_6_method_cross_validation():
    t0 = time.time()
    params = sk.MlParams(beta=0.95, gamma=8.85)
    series = sk.gen_mittag_leffler(params, 55559, seed=202)
    K = sk.assemble_kernel(0.0015, 196)
    curve = sk.empirical_survival(series, K.taus)
    solutions, best = sk.sweep_mu(K, curve, sk.default_mu_grid())
    tik = solutions[best]
    results, cb_best = sk.sweep_delta_t(series, sk.default_delta_t_grid(series),
                                        taus=K.taus)
    comb_curve = results[cb_best].rebuilt
    d_tik = float(np.max(np.abs(tik.rebuilt.psi - curve.psi)))
    d_comb = float(np.max(np.abs(comb_curve.psi - curve.psi)))
    d_cross = float(np.max(np.abs(tik.rebuilt.psi - comb_curve.psi)))
    elapsed = time.time() - t0
    report(6, "method cross-validation",
           d_tik < 0.05 and d_comb < 0.05 and d_cross < 0.05 and elapsed < 120.0,
           f"tik={d_tik:.4f} comb={d_comb:.4f} cross={d_cross:.4f} {elapsed:.2f}s")


def test_criterion_7_conditioning_diagnostic():
    ratio = sk.conditioning_ratio(sk.assemble_kernel(0.0015, 196))
    oracle = float(mpmath.exp(mpmath.mpf("57.6225")))
    rel = abs(ratio - oracle) / oracle
    report(7, "conditioning diagnostic", rel < 1e-9,
           f"ratio={ratio:.6e} rel_err={rel:.2e}")


def test_criterion_8_ks_machinery():
    oracle = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k) for k in range(1, 6))
    n = 400
    d = 1.0 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    q = sk.ks_pvalue(d, n)
    value_ok = abs(q - oracle) < 1e-6 and abs(q - 0.2700) < 1e-4

    # monotone up to the documented 1e-12 series truncation error
    ds = np.linspace(0.01, 0.6, 100)
    ps = [sk.ks_pvalue(x, 500) for x in ds]
    mono_d = all(b <= a + 1e-9 for a, b in zip(ps, ps[1:]))
    ns = np.unique(np.geomspace(10, 10**5, 100).astype(int))
    pn = [sk.ks_pvalue(0.03, int(x)) for x in ns]
    mono_n = all(b <= a + 1e-9 for a, b in zip(pn, pn[1:]))
    report(8, "KS machinery", value_ok and mono_d and mono_n,
           f"Q(1)={q:.5f} mono_d={mono_d} mono_n={mono_n}")
