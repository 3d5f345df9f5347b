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

    seq_sols, seq_best = sweep_mu(K, curve, mus)
    seq_combs, seq_cb = sweep_delta_t(series, dts, taus=K.taus)

    par_sols, par_best = sweep_mu(K, curve, mus)
    par_combs, par_cb = sweep_delta_t(series, dts, taus=K.taus)

    assert par_best == seq_best and par_cb == seq_cb
    for a, b in zip(seq_sols, par_sols):
        assert a.mu == b.mu
        assert np.array_equal(a.spectrum.masses, b.spectrum.masses)
    for a, b in zip(seq_combs, par_combs):
        assert a.comb.delta_t == b.comb.delta_t
        assert a.ks.statistic == b.ks.statistic
