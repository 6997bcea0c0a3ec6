"""Tiny-scale reality check: exhaustive decoding actually works.

At p = 10, k = 2 we can afford the exact maximum-likelihood decoder (45
candidate supports). With measurement noise comparable to the signal the
empirical error probability should slide from near-certain failure (at
n = 0 the decoder can only guess) to zero, and the slide should be
(statistically) monotone.

Run: python3 demos/decoder_error_curve.py
"""
from phaselim import (DiscreteFlat, GaussianNoise, SimConfig, error_curve,
                      isotonic_residual)

config = SimConfig(
    p=10,
    signal=DiscreteFlat(c_beta=1.0, k=2),   # k = 2; flat-ml decodes it
    noise=GaussianNoise(0.5),
    alpha_star=0.5,                   # an error means missing >= 1 of 2
    n_grid=(0, 2, 4, 6, 8, 12, 16, 24),
    trials=300,
    master_seed=1,
)

curve = error_curve(config)
bar_width = 40
print("measurements | error rate")
for n, pe, se in zip(curve.n_values, curve.pe, curve.se):
    bar = "#" * round(bar_width * pe)
    print(f"{n:12d} | {pe:6.3f} +/- {se:.3f} {bar}")

residual, pooled = isotonic_residual(curve)
print()
print(f"deviation from the best monotone fit: {residual:.4f} "
      f"(pooled se {pooled:.4f})")
print("`phaselim simulate` writes the same curve as CSV, with the")
print("asymptotic reference thresholds appended as comments.")
