"""Walk through the headline calculation: how many intensity-only
measurements are enough (and how many are provably too few) to recover
most of a sparse support.

Run: python3 demos/threshold_curves.py
"""
import numpy as np

from phaselim import (DiscreteFlat, GaussianIID, GaussianNoise,
                      ThresholdQuery, figure_curves, measurement_thresholds,
                      snr_db)

p, k = 1000, 10
noise = GaussianNoise(1.0)

print("Setup: p =", p, "candidates, k =", k, "active, unit noise.")
print()

for c_beta in (1.0, 10.0, 100.0):
    flat = DiscreteFlat(c_beta=c_beta, k=k)
    gauss = GaussianIID(c_beta=c_beta, k=k)
    print(f"signal power {c_beta:g} (SNR {snr_db(flat, noise):+.1f} dB)")
    for name, sig in (("flat", flat), ("gaussian", gauss)):
        q = ThresholdQuery(p=p, signal=sig, alpha_star=0.1,
                           mode="asymptotic")
        r = measurement_thresholds(q)
        print(f"  {name:9s} achievable above n ~ {r.n_ach:8.1f} "
              f"(best alpha {r.alpha_ach:.3f}), impossible below "
              f"n ~ {r.n_con:7.1f}")
    print()

print("The gap between the two counts narrows as power grows; the curves")
print("below are the normalized versions (divide by k log(p/k)), which do")
print("not depend on p or k at all.")
print()

grid = np.arange(-10.0, 41.0, 10.0)
curves = figure_curves(alpha_star=0.1, snr_db_values=grid)
print(f"{'snr_db':>7} | {'flat ach':>10} {'flat con':>10} | "
      f"{'gauss ach':>10} {'gauss con':>10}")
for i, db in enumerate(grid):
    f = curves["flat"][i]
    g = curves["gaussian"][i]
    print(f"{db:7.0f} | {f[1]:10.3f} {f[2]:10.3f} | {g[1]:10.3f} {g[2]:10.3f}")
print()
print("Both columns drop monotonically with SNR and the converse never")
print("exceeds the achievability count. The `phaselim figure` command")
print("writes the full 1 dB resolution CSVs.")
