"""Delta-comb spectrum estimation on regime-switching activity.

The time-splitting estimator assumes the event rate is approximately
constant within each window.  This demo builds a stream that alternates
between a quiet regime (0.05 events/s) and a busy one (0.4 events/s),
then shows how the fitted comb recovers both rates and how the window
length trades off rate resolution against per-window noise.

Note what it does NOT do: on an i.i.d. mixture (components shuffled
trade by trade) every window sees the same blended rate, so the comb
degenerates to a single exponential -- the method reads activity off
the time axis, not off the marginal distribution.
"""

import numpy as np

import spectrakit as sk

rng = np.random.default_rng(2)
RATES = (0.05, 0.4)
SEGMENT_SECONDS = 5000.0

segments = []
for _ in range(60):
    lam = RATES[rng.integers(2)]
    block = []
    total = 0.0
    while total < SEGMENT_SECONDS:
        tau = rng.exponential(1 / lam)
        block.append(tau)
        total += tau
    segments.append(np.array(block))
series = sk.DurationSeries.from_values(np.concatenate(segments))
print(f"n = {series.n} events over ~{60 * SEGMENT_SECONDS:.0f} s, "
      f"mean duration {series.mean:.2f} s")

taus = np.arange(1.0, 120.0)
dts = np.geomspace(100, 20000, 20)
results, best = sk.sweep_delta_t(series, dts, taus=taus)
print("\n delta_t      M    KS stat      KS p")
for r in results[::4]:
    print(f"{r.comb.delta_t:9.1f} {r.comb.m:6d}    "
          f"{r.ks.statistic:.5f}  {r.ks.p_value:.3g}")

comb, rep = results[best].comb, results[best].ks
print(f"\nbest delta_t = {comb.delta_t:.1f} s  (M = {comb.m} windows, "
      f"KS stat = {rep.statistic:.5f}, p = {rep.p_value:.3g})")

for lam in RATES:
    mask = (comb.rates > lam / 1.6) & (comb.rates < lam * 1.6)
    print(f"comb weight within [{lam/1.6:.3f}, {lam*1.6:.3f}] 1/s: "
          f"{comb.weights[mask].sum():.2f}")

h = sk.estimate_h(comb, n=196)
print(f"\nsuggested kernel spacing h = {h:.5f} "
      f"(lambda grid up to {h * 196:.3f} 1/s)")
