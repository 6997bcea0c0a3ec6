"""Watch the summed information density concentrate.

Support recovery proofs need the running sum of information densities to
stay near its mean. The guarantee has a computable (and deliberately
loose) scale constant: first we evaluate it, then we hammer it with
simulated sums and report how far below the bound the empirical tails sit.

Run: python3 demos/concentration_tails.py
"""
from phaselim import GaussianNoise, concentration_constant
from phaselim.verify import concentration_check

noise = GaussianNoise(1.0)
consts = concentration_constant(1.0, noise)
print("scale constant pieces for unit missed power, unit noise:")
print(f"  sup-of-moments value  {consts.moment:.4f}")
print(f"  noise density peak    {consts.noise_peak:.4f}")
print(f"  tail scale            {consts.scale:.1f}")
print()

# the check sums n = 20 densities of unit missed power under unit noise
reports = concentration_check(trials=5000, info_samples=1000000,
                              master_seed=7)
print(f"{'mu':>5} {'side':>6} | {'empirical':>10} {'bound':>10} | verdict")
for rep in reports:
    print(f"{rep.params['mu']:5.2f} {rep.params['side']:>6} | "
          f"{rep.estimate:10.4f} {rep.upper:10.3e} | {rep.verdict}")

print()
print("The bound is trivially slack (that is expected: the scale constant")
print("is conservative by construction), so the empirical tails vanish")
print("long before the guarantee runs out.")
