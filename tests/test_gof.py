import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrakit import SurvivalCurve, ks_compare, ks_pvalue, ks_statistic
from spectrakit.gof import _SERIES_TOL, MAX_SWEEP_POINTS, sweep


def curve(psi, taus=None):
    psi = np.asarray(psi, dtype=float)
    if taus is None:
        taus = np.arange(1.0, psi.size + 1)
    return SurvivalCurve(taus=taus, psi=psi)


def test_statistic_identical_curves():
    a = curve([1, 0.5, 0.2])
    assert ks_statistic(a, a) == 0.0


def test_statistic_direct_max():
    assert ks_statistic(curve([1, 0.5]), curve([1, 0.3])) == pytest.approx(0.2)


def test_statistic_grid_mismatch():
    a = curve([1, 0.5], taus=np.array([1.0, 2.0]))
    b = curve([1, 0.5], taus=np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="grid"):
        ks_statistic(a, b)


def test_statistic_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pa, pb, pc = rng.random((3, 15))
        a, b, c = curve(pa), curve(pb), curve(pc)
        assert ks_statistic(a, b) == ks_statistic(b, a)
        assert ks_statistic(a, c) <= ks_statistic(a, b) + ks_statistic(b, c) + 1e-15


def test_pvalue_zero_distance_is_one():
    for n in (1, 10, 55559):
        assert ks_pvalue(0.0, n) == 1.0


def test_pvalue_at_lambda_one():
    # oracle: partial sum 2(e^-2 - e^-8 + e^-18 - ...)
    oracle = 2 * (math.exp(-2) - math.exp(-8) + math.exp(-18) - math.exp(-32))
    n = 100
    d = 1.0 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    assert ks_pvalue(d, n) == pytest.approx(oracle, abs=1e-9)
    assert ks_pvalue(d, n) == pytest.approx(0.2700, abs=1e-4)


def test_pvalue_overwhelming_rejection_clamps_to_zero():
    assert ks_pvalue(1.0, 10**4) == 0.0


def test_pvalue_decreasing_in_d():
    n = 1000
    ds = np.linspace(0.005, 0.5, 100)
    ps = [ks_pvalue(d, n) for d in ds]
    assert all(q <= p for p, q in zip(ps, ps[1:]))
    # strictly decreasing once out of the lam~0 plateau
    body = [p for p in ps if 0 < p < 1]
    assert all(q < p for p, q in zip(body, body[1:]))


def test_pvalue_decreasing_in_n():
    d = 0.05
    ns = [10, 30, 100, 300, 1000, 10000]
    ps = [ks_pvalue(d, n) for n in ns]
    assert all(q <= p for p, q in zip(ps, ps[1:]))


def test_series_truncation_stability():
    # 50- vs 100-term partial sums agree below 1e-12 where lam >= 0.2
    for lam in np.linspace(0.2, 3.0, 30):
        sums = []
        for terms in (50, 100):
            total = 0.0
            for k in range(1, terms + 1):
                total += (-1) ** (k - 1) * math.exp(-2 * (k * lam) ** 2)
            sums.append(2 * total)
        assert abs(sums[0] - sums[1]) < 1e-12


def test_pvalue_bounds_and_validation():
    assert 0.0 <= ks_pvalue(0.3, 50) <= 1.0
    with pytest.raises(ValueError):
        ks_pvalue(-0.1, 10)
    with pytest.raises(ValueError):
        ks_pvalue(1.1, 10)
    with pytest.raises(ValueError):
        ks_pvalue(0.5, 0)


def test_compare_report():
    a = curve([1, 0.6, 0.2])
    b = curve([1, 0.5, 0.2])
    rep = ks_compare(a, b, 100)
    assert rep.statistic == pytest.approx(0.1)
    assert rep.n_eff == 100
    assert rep.p_value == pytest.approx(ks_pvalue(0.1, 100))


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 10**7))
def test_pvalue_non_increasing_in_d(d1, d2, n):
    lo, hi = sorted((d1, d2))
    assert ks_pvalue(hi, n) <= ks_pvalue(lo, n) + _SERIES_TOL


@given(st.floats(0.0, 1.0), st.integers(1, 10**7), st.integers(1, 10**7))
def test_pvalue_non_increasing_in_n(d, n1, n2):
    lo, hi = sorted((n1, n2))
    assert ks_pvalue(d, hi) <= ks_pvalue(d, lo) + _SERIES_TOL


def _stub_solve(p_of):
    """A solve that records its calls and reports p = p_of[value]."""
    calls = []

    def solve(v):
        calls.append(v)
        return SimpleNamespace(value=v, ks=SimpleNamespace(p_value=p_of[v]))

    return solve, calls


def test_sweep_picks_highest_p_in_grid_order():
    # 2 and 3 tie below the best p, so the tie rule must not move the pick
    solve, calls = _stub_solve({1.0: 0.7, 2.0: 0.2, 3.0: 0.2})
    results, best = sweep("x", [3.0, 1.0, 2.0], solve)
    assert calls == [3.0, 1.0, 2.0]
    assert [r.value for r in results] == calls
    assert best == 1


@pytest.mark.parametrize("grid, larger", [([3.0, 1.0, 2.0], 0), ([1.0, 3.0, 2.0], 1),
                                          ([1.0, 2.0, 3.0], 2), ([2.0], 0)])
def test_sweep_ties_go_to_the_larger_value(grid, larger):
    solve, _ = _stub_solve({1.0: 0.5, 2.0: 0.5, 3.0: 0.5})
    assert sweep("x", grid, solve)[1] == larger


@pytest.mark.parametrize("grid, message", [
    ([], "mu sweep is empty"),
    ([1.0, float("nan")], "mu must be finite and > 0, got nan"),
    ([float("inf"), 1.0], "mu must be finite and > 0, got inf"),
    ([1.0, 0.0], "mu must be finite and > 0, got 0"),
    ([-2.0, 1.0], "mu must be finite and > 0, got -2"),
    ([[1.0, 2.0]], "mu sweep must be a 1-d"),
    (np.ones(MAX_SWEEP_POINTS + 1), "mu sweep has 1001 points .limit 1000."),
])
def test_sweep_rejects_bad_grid_before_any_solve(grid, message):
    solve, calls = _stub_solve({1.0: 0.5, 2.0: 0.5})
    with pytest.raises(ValueError, match=message):
        sweep("mu", grid, solve)
    assert calls == []


def test_sweep_unpacks_and_indexes_as_results_and_best():
    solve, _ = _stub_solve({1.0: 0.2, 2.0: 0.7, 3.0: 0.1})
    record = sweep("x", [1.0, 2.0, 3.0], solve)
    results, best = record
    assert (results, best) == (record.results, record.best) == (record[0], record[1])
    assert best == 1 and record.pick is results[1]
    assert record.name == "x" and record.grid.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(IndexError):
        record[2]


@pytest.mark.parametrize("grid, p_of, edge", [
    ([1.0, 2.0, 3.0], {1.0: 0.9, 2.0: 0.5, 3.0: 0.1}, "lower"),
    ([1.0, 2.0, 3.0], {1.0: 0.1, 2.0: 0.5, 3.0: 0.9}, "upper"),
    ([1.0, 2.0, 3.0], {1.0: 0.1, 2.0: 0.9, 3.0: 0.5}, None),
    ([3.0, 2.0, 1.0], {1.0: 0.9, 2.0: 0.5, 3.0: 0.1}, "lower"),
    ([3.0, 2.0, 1.0], {1.0: 0.1, 2.0: 0.5, 3.0: 0.9}, "upper"),
    ([2.0, 3.0, 1.0], {1.0: 0.1, 2.0: 0.9, 3.0: 0.5}, None),
    ([2.0], {2.0: 0.5}, None),
    ([2.0, 2.0, 2.0], {2.0: 0.5}, None),
])
def test_sweep_edge_is_the_end_of_the_grid_range_at_the_pick(grid, p_of, edge):
    solve, _ = _stub_solve(p_of)
    assert sweep("x", grid, solve).edge == edge
