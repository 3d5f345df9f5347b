import io

import mpmath
import numpy as np
import pytest

from spectrakit import (DurationSeries, SurvivalCurve, assemble_kernel,
                        empirical_survival, eval_objective, solve_tikhonov, sweep_mu)
from spectrakit.cli import main
from spectrakit.gof import ks_compare
from spectrakit.tikhonov import (SpectrumGrid, default_mu_grid, write_mu_sweep_csv,
                                 write_spectrum_csv)


def oracle_solve(A, b, mu, dps=60):
    """Extended-precision normal-equations solve (K^T K + mu I)^-1 K^T b."""
    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in A])
        rhs = mpmath.matrix([mpmath.mpf(x) for x in b])
        n = M.cols
        G = M.T * M + mu * mpmath.eye(n)
        sol = mpmath.lu_solve(G, M.T * rhs)
        return np.array([float(sol[i]) for i in range(n)])


def test_objective_zero_vector():
    psi = np.array([0.3, 0.4])
    K = np.eye(2)
    assert eval_objective(K, np.zeros(2), psi, 5.0) == pytest.approx(psi @ psi)


def test_objective_exact_fit():
    assert eval_objective(np.eye(1), [1.0], [1.0], 0.0) == 0.0


def test_objective_direct_evaluation():
    assert eval_objective(np.eye(1), [0.5], [1.0], 1.0) == pytest.approx(0.5)


def test_objective_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        eval_objective(np.eye(2), [1.0], [1.0, 2.0], 0.1)


def test_solve_identity_closed_form():
    sol = solve_tikhonov(np.eye(1), np.array([1.0]), 1.0)
    assert sol.spectrum.masses[0] == pytest.approx(0.5)
    for mu in (0.1, 2.0, 7.5):
        sol = solve_tikhonov(np.eye(1), np.array([1.0]), mu)
        assert sol.spectrum.masses[0] == pytest.approx(1 / (1 + mu), rel=1e-12)


def test_solve_large_mu_shrinks_to_zero():
    K = assemble_kernel(0.1, 10)
    psi = np.exp(-K.taus / 5.0)
    bound = np.linalg.norm(K.entries.T @ psi)
    for mu in (1e3, 1e6):
        sol = solve_tikhonov(K, psi, mu)
        assert np.all(np.abs(sol.spectrum.masses) <= bound / mu)


def test_solve_matches_extended_precision_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.random((5, 5))
        b = rng.random(5)
        sol = solve_tikhonov(A, b, 0.1)
        ref = oracle_solve(A, b, 0.1)
        assert np.linalg.norm(sol.spectrum.masses - ref) < 1e-10 * np.linalg.norm(ref)


def test_first_order_optimality_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = rng.integers(2, 51)
        A = rng.random((m, m))
        b = rng.random(m)
        mu = 10.0 ** rng.uniform(-4, 1)
        sol = solve_tikhonov(A, b, mu)
        g = sol.spectrum.masses
        grad = 2 * A.T @ (A @ g - b) + 2 * mu * g
        assert np.linalg.norm(grad) < 1e-8 * (1 + np.linalg.norm(A.T @ b))


def test_ill_conditioned_kernel_matches_extended_precision_oracle():
    # cond(K) ~ 2.5e18: the normal equations would square it
    K = assemble_kernel(0.0015, 40)
    psi = np.exp(-K.taus / 8.85)
    for mu in (1e-6, 1e-2, 1e2):
        g = solve_tikhonov(K, psi, mu).spectrum.masses
        ref = oracle_solve(K.entries, psi, mu)
        assert np.linalg.norm(g - ref) < 1e-10 * np.linalg.norm(ref)


def test_minimality_under_perturbation():
    rng = np.random.default_rng(13)
    A = rng.random((8, 8))
    b = rng.random(8)
    mu = 0.05
    sol = solve_tikhonov(A, b, mu)
    g = sol.spectrum.masses
    base = eval_objective(A, g, b, mu)
    for _ in range(100):
        delta = rng.normal(size=8)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert eval_objective(A, g + delta, b, mu) >= base


def test_rebuilt_is_k_times_g():
    K = assemble_kernel(0.05, 15)
    psi = np.exp(-K.taus / 3.0)
    sol = solve_tikhonov(K, psi, 0.01)
    assert np.allclose(sol.rebuilt.psi, K.entries @ sol.spectrum.masses)
    assert np.array_equal(sol.rebuilt.taus, K.taus)


def test_path_monotonicity_small_kernel():
    K = assemble_kernel(0.02, 40)
    psi = np.exp(-K.taus / 10.0)
    mus = np.geomspace(1e-6, 1e2, 60)
    norms, residuals = [], []
    for mu in mus:
        sol = solve_tikhonov(K, psi, mu)
        norms.append(np.linalg.norm(sol.spectrum.masses))
        residuals.append(np.linalg.norm(K.entries @ sol.spectrum.masses - psi))
    norms, residuals = np.array(norms), np.array(residuals)
    assert np.all(norms[1:] <= norms[:-1] * (1 + 1e-9))
    assert np.all(residuals[1:] >= residuals[:-1] * (1 - 1e-9))


def test_solve_rejects_bad_mu():
    with pytest.raises(ValueError):
        solve_tikhonov(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        solve_tikhonov(np.eye(2), np.ones(2), -1.0)


def test_solve_reproducible():
    K = assemble_kernel(0.01, 25)
    psi = np.exp(-K.taus / 4.0)
    a = solve_tikhonov(K, psi, 0.3).spectrum.masses
    b = solve_tikhonov(K, psi, 0.3).spectrum.masses
    assert np.array_equal(a, b)


def test_sweep_single_element():
    K = assemble_kernel(0.05, 10)
    curve = SurvivalCurve(taus=K.taus, psi=np.exp(-K.taus / 2.0), n_source=100)
    solutions, best = sweep_mu(K, curve, [0.5])
    assert best == 0 and len(solutions) == 1


def test_sweep_ties_break_toward_larger_mu():
    # an exactly reproducible curve: both mus give p=1 only if D=0,
    # instead force a tie via a flat-p plateau (tiny n_eff, tiny D)
    K = assemble_kernel(0.05, 10)
    curve = SurvivalCurve(taus=K.taus, psi=np.exp(-K.taus / 2.0), n_source=1)
    solutions, best = sweep_mu(K, curve, [1e-6, 2e-6, 3e-6])
    ps = [s.ks.p_value for s in solutions]
    assert ps[0] == ps[1] == ps[2] == 1.0
    assert best == 2


def test_sweep_preserves_input_order_and_scores():
    K = assemble_kernel(0.05, 30)
    rng = np.random.default_rng(14)
    vals = rng.exponential(4.0, 2000)
    from spectrakit import DurationSeries
    curve = empirical_survival(DurationSeries.from_values(vals), K.taus)
    mus = [1e-3, 1e-5, 1e-1]
    solutions, best = sweep_mu(K, curve, mus)
    assert [s.mu for s in solutions] == mus
    assert solutions[best].ks.p_value == max(s.ks.p_value for s in solutions)


def test_sweep_matches_single_solves_bitwise():
    K = assemble_kernel(0.0015, 60)
    rng = np.random.default_rng(15)
    from spectrakit import DurationSeries
    curve = empirical_survival(DurationSeries.from_values(rng.exponential(8.85, 5000)),
                               K.taus)
    mus = np.geomspace(1e-6, 1e2, 25)
    solutions, _ = sweep_mu(K, curve, mus)
    for sol, mu in zip(solutions, mus):
        single = solve_tikhonov(K, curve, mu)
        assert sol.mu == single.mu
        assert np.array_equal(sol.spectrum.masses, single.spectrum.masses)
        assert np.array_equal(sol.rebuilt.psi, single.rebuilt.psi)
        assert sol.ks == single.ks


def test_sweep_rejects_bad_mu(monkeypatch):
    K = assemble_kernel(0.05, 10)
    curve = SurvivalCurve(taus=K.taus, psi=np.exp(-K.taus / 2.0), n_source=50)
    # the grid is checked before the SVD is taken
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: pytest.fail("SVD taken"))
    for mus in ([0.0, 0.1], [0.1, float("nan")], [0.1, float("inf")], [-1.0]):
        with pytest.raises(ValueError, match="mu"):
            sweep_mu(K, curve, mus)
    with pytest.raises(ValueError, match="empty"):
        sweep_mu(K, curve, [])


def test_cli_rejects_zero_mu_before_writing(tmp_path):
    raw = tmp_path / "d.txt"
    raw.write_text("1\n2\n3\n")
    prefix = str(tmp_path / "tk")
    assert main(["tikhonov", "--input", str(raw), "--n", "10",
                 "--mu", "0,0.1", "-o", prefix]) == 1
    assert not (tmp_path / "tk_sweep.csv").exists()


def test_default_mu_grid():
    grid = default_mu_grid()
    assert grid.size == 200
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e2)


def test_spectrum_csv_roundtrip():
    K = assemble_kernel(0.02, 12)
    psi = np.exp(-K.taus / 6.0)
    sol = solve_tikhonov(K, psi, 0.05)
    buf = io.StringIO()
    write_spectrum_csv(sol.spectrum, buf)
    lambdas, masses = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1).T
    assert np.allclose(lambdas, sol.spectrum.lambdas, atol=1e-9)
    assert np.allclose(masses, sol.spectrum.masses, atol=1e-9)


def test_mu_sweep_csv_columns():
    K = assemble_kernel(0.05, 10)
    curve = SurvivalCurve(taus=K.taus, psi=np.exp(-K.taus / 2.0), n_source=50)
    solutions, _ = sweep_mu(K, curve, [0.1, 1.0])
    buf = io.StringIO()
    write_mu_sweep_csv(solutions, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "mu,ks_statistic,ks_pvalue,neg_mass,total_mass"
    assert len(lines) == 3


def _kernel_and_curve():
    K = assemble_kernel(0.05, 6)
    series = DurationSeries.from_values(np.random.default_rng(3).exponential(4.0, 200))
    return K, empirical_survival(series, K.taus)


@pytest.mark.parametrize("plain_k", [False, True])
@pytest.mark.parametrize("plain_psi", [False, True])
def test_sweep_mu_takes_records_or_plain_arrays(plain_k, plain_psi):
    # a plain K is taken on lambda = 1..n; a plain psi has KS sample size 1
    K, curve = _kernel_and_curve()
    mus = [1e-3, 1e-1]
    reference, _ = sweep_mu(K, curve, mus)
    solutions, _ = sweep_mu(K.entries if plain_k else K,
                            curve.psi if plain_psi else curve, mus)
    lambdas = np.arange(1.0, 7.0) if plain_k else K.lambdas
    for sol, ref in zip(solutions, reference, strict=True):
        assert np.array_equal(sol.spectrum.masses, ref.spectrum.masses)
        assert np.array_equal(sol.spectrum.lambdas, lambdas)
        assert np.array_equal(sol.rebuilt.taus, K.taus)
        assert np.array_equal(sol.rebuilt.psi, ref.rebuilt.psi)
        assert sol.ks.n_eff == (1 if plain_psi else 200)


def test_sweep_mu_plain_inputs_use_unit_grids():
    K, curve = _kernel_and_curve()
    (plain,), _ = sweep_mu(K.entries, curve.psi, [0.01])
    assert np.array_equal(plain.rebuilt.taus, np.arange(1.0, 7.0))
    assert np.array_equal(plain.spectrum.lambdas, np.arange(1.0, 7.0))
    assert plain.ks.n_eff == 1
    # a plain K keeps a curve's own tau grid and sample size
    shifted = SurvivalCurve(taus=K.taus + 2.0, psi=curve.psi, n_source=30)
    (kept,), _ = sweep_mu(K.entries, shifted, [0.01])
    assert np.array_equal(kept.rebuilt.taus, shifted.taus)
    assert kept.ks.n_eff == 30


def test_wrong_size_psi_raises_dimension():
    K, curve = _kernel_and_curve()
    short = SurvivalCurve(taus=K.taus[:-1], psi=curve.psi[:-1], n_source=200)
    g = np.zeros(6)
    for kernel in (K, K.entries):
        for psi in (short, short.psi):
            with pytest.raises(ValueError, match="dimension"):
                sweep_mu(kernel, psi, [0.1])
            with pytest.raises(ValueError, match="dimension"):
                eval_objective(kernel, g, psi, 0.1)


def test_kernel_with_a_curve_on_another_grid_raises():
    K, curve = _kernel_and_curve()
    other = SurvivalCurve(taus=K.taus * 2.0, psi=curve.psi, n_source=200)
    with pytest.raises(ValueError, match="psi is not sampled on the kernel's tau grid"):
        sweep_mu(K, other, [0.1])


def test_sweep_mu_builds_each_rebuilt_curve_on_first_access():
    K, curve = _kernel_and_curve()
    solutions, _ = sweep_mu(K, curve, default_mu_grid()[::10])
    assert all("rebuilt" not in vars(sol) for sol in solutions)
    for sol in solutions:
        rebuilt = sol.rebuilt
        assert vars(sol)["rebuilt"] is rebuilt
        assert rebuilt.taus.tobytes() == K.taus.tobytes()
        assert rebuilt.psi.tobytes() == (K.entries @ sol.spectrum.masses).tobytes()
        assert rebuilt.n_source == 0
        assert sol.ks == ks_compare(rebuilt, curve, 200)


def test_sweep_mu_refuses_a_non_finite_rebuilt_curve():
    # s / (s^2 + mu) * c overflows for s = 1e-160 and c ~ 1e300, so g and K g
    # hold nan
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^taus and psi must be finite$"):
        sweep_mu(np.diag([1.0, 1e-160]), np.array([1e300, 1e300]), [5e-324])


def test_negative_mass_is_never_negative_zero():
    assert str(SpectrumGrid.from_arrays([1.0, 2.0], [0.5, 0.0]).negative_mass) == "0.0"
    assert str(SpectrumGrid.from_arrays([1.0], [-0.0]).negative_mass) == "0.0"
    masses = np.array([-0.1, 0.3, -0.2, 1e-17])
    spectrum = SpectrumGrid.from_arrays(np.arange(1.0, 5.0), masses)
    assert spectrum.negative_mass == -masses[masses < 0].sum()


def test_mass_centroid_of_zero_total_mass_is_nan():
    # at h = 1e300 every kernel entry exp(-h*i*j) underflows to 0, so g = 0
    spectra = [SpectrumGrid.from_arrays([1.0, 2.0], [0.0, 0.0]),
               SpectrumGrid.from_arrays([1.0, 2.0], [1.0, -1.0]),
               sweep_mu(assemble_kernel(1e300, 4), np.full(4, 0.5), [0.1]).pick.spectrum]
    assert [np.isnan(s.mass_centroid) for s in spectra] == [True, True, True]


def test_spectrum_sums_past_the_float_range_do_not_warn():
    spectrum = SpectrumGrid.from_arrays([1.0, 2.0], [-1e308, -1e308])
    assert (spectrum.total_mass, spectrum.negative_mass) == (-np.inf, np.inf)
    assert np.isnan(spectrum.mass_centroid)
    assert SpectrumGrid.from_arrays([1e308], [40.0]).mass_centroid == np.inf


def test_cli_echoes_zero_negative_mass_without_a_sign(tmp_path, capsys):
    # at h = 1e300 every kernel entry exp(-h*i*j) underflows to 0, so g = 0
    raw = tmp_path / "a.txt"
    raw.write_text("1\n2\n3\n")
    prefix = str(tmp_path / "t")
    assert main(["tikhonov", "--input", str(raw), "--h", "1e300", "-o", prefix]) == 0
    assert "# neg_mass = 0\n" in capsys.readouterr().out
    rows = (tmp_path / "t_sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 200
    assert all(row.split(",")[3] == "0" for row in rows)
