import numpy as np

from spectrakit import (DurationSeries, assemble_kernel, empirical_survival,
                        sweep_delta_t, sweep_mu)


def test_repeated_sweeps_are_bit_identical():
    K = assemble_kernel(0.01, 40)
    rng = np.random.default_rng(55)
    series = DurationSeries.from_values(rng.exponential(5.0, 3000))
    curve = empirical_survival(series, K.taus)
    mus = list(np.geomspace(1e-4, 1.0, 12))
    dts = list(np.geomspace(20, 500, 6))

    first_sols, first_best = sweep_mu(K, curve, mus)
    first_combs, first_cb = sweep_delta_t(series, dts, curve)

    again_sols, again_best = sweep_mu(K, curve, mus)
    again_combs, again_cb = sweep_delta_t(series, dts, curve)

    assert again_best == first_best and again_cb == first_cb
    for a, b in zip(first_sols, again_sols):
        assert a.mu == b.mu
        assert np.array_equal(a.spectrum.masses, b.spectrum.masses)
    for a, b in zip(first_combs, again_combs):
        assert a.comb.delta_t == b.comb.delta_t
        assert a.ks.statistic == b.ks.statistic
