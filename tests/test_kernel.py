import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from spectrakit import assemble_kernel, conditioning_ratio
from spectrakit.durations import MAX_GRID_POINTS
from spectrakit.kernel import check_kernel_size


def test_entries_match_formula():
    K = assemble_kernel(0.01, 20)
    i = np.arange(1, 21)
    expected = np.exp(-0.01 * np.outer(i, i))
    assert np.array_equal(K.entries, expected)


def test_production_scale_kernel():
    K = assemble_kernel(0.0015, 196)
    assert K.entries.shape == (196, 196)
    assert K.lambdas[0] == pytest.approx(0.0015)
    assert K.lambdas[-1] == pytest.approx(0.294)
    # lambda range ~ 2.6x the mean rate 1/8.85 of the target data scale
    assert K.lambdas[-1] / (1 / 8.85) == pytest.approx(2.6, rel=0.01)


def test_corner_entries_high_precision():
    # oracle: mpmath evaluation of exp(-h*i*j)
    K = assemble_kernel(0.0015, 196)
    assert K.entries[0, 0] == pytest.approx(0.9985011244, abs=1e-9)
    corner = float(mpmath.exp(mpmath.mpf("-0.0015") * 196 * 196))
    assert K.entries[-1, -1] == pytest.approx(corner, rel=1e-12)
    assert corner == pytest.approx(9.4e-26, rel=0.01)


def test_entries_in_open_unit_interval_and_decreasing():
    K = assemble_kernel(0.05, 30)
    assert np.all(K.entries > 0) and np.all(K.entries < 1)
    assert np.all(np.diff(K.entries, axis=0) < 0)
    assert np.all(np.diff(K.entries, axis=1) < 0)


def test_square_kernel_symmetric():
    K = assemble_kernel(0.0015, 196)
    assert np.array_equal(K.entries, K.entries.T)


def test_parameter_validation():
    with pytest.raises(ValueError):
        assemble_kernel(-1.0, 5)
    with pytest.raises(ValueError):
        assemble_kernel(0.0, 5)
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            assemble_kernel(h, 5)
    with pytest.raises(ValueError):
        assemble_kernel(0.1, 0)


def test_oversize_kernel_is_refused_before_allocation():
    check_kernel_size(3162)
    tracemalloc.start()
    try:
        for n in (3163, 100_000, 10**9):
            with pytest.raises(ValueError, match=f"kernel has .* entries .limit {MAX_GRID_POINTS}"):
                assemble_kernel(0.1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_conditioning_ratio_trivial_cases():
    assert conditioning_ratio(assemble_kernel(0.7, 1)) == 1.0
    assert conditioning_ratio(assemble_kernel(math.log(2), 2)) == pytest.approx(8.0, rel=1e-12)


def test_conditioning_ratio_past_the_float_range():
    # no entry quotient: the smallest entry underflows, or h * n * n overflows exp
    assert conditioning_ratio(assemble_kernel(0.05, 196)) == math.inf
    assert conditioning_ratio(assemble_kernel(1000.0, 1)) == 1.0
    assert conditioning_ratio(assemble_kernel(1000.0, 2)) == math.inf


def test_conditioning_ratio_matches_formula():
    for h, n in [(0.0015, 196), (0.01, 50), (0.2, 10)]:
        K = assemble_kernel(h, n)
        ratio = conditioning_ratio(K)
        elementwise = K.entries[0, 0] / K.entries[-1, -1]
        assert abs(ratio - elementwise) <= 1e-12 * elementwise
        assert ratio == pytest.approx(math.exp(h * (n * n - 1)), rel=1e-9)


def test_production_scale_conditioning_magnitude():
    ratio = conditioning_ratio(assemble_kernel(0.0015, 196))
    oracle = float(mpmath.exp(mpmath.mpf("57.6225")))
    assert ratio == pytest.approx(oracle, rel=1e-9)
    assert ratio == pytest.approx(1.05e25, rel=0.01)
