"""Monte Carlo and grid verification of the package's analytic claims.

Each check returns :class:`VerificationReport` records that are
self-certifying: the verdict is derived from the stored fields (estimate,
standard error, bounds, resolution), and reading a report back refuses a
record whose verdict disagrees. Pass means the estimate sits inside
``[lower - 3 se, upper + 3 se]``; a run whose standard error exceeds the
fixed resolution (or whose sampler clamped too often) is declared
inconclusive rather than pass or fail.

All randomness flows through seeded substreams keyed by the battery index,
so report bytes are identical across runs and across thread counts. The
batteries, resolutions, grids and tolerances are fixed module constants;
the only inputs are the trial budgets, the master seed and the thread cap.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .densities import (GaussianNoise, concentration_constant,
                        concentration_tail_bound, conditional_output_logpdf,
                        info_density)
from .limits import mi_pair_lower, mi_pair_upper, tail_power_fraction
from .model import GaussianIID, partition_powers, sample_signal_vector
from .rng import _UNIT_SCALE, _check_int, parallel_map, substream

__all__ = [
    "VerificationReport",
    "mi_estimate",
    "sandwich_check",
    "concentration_check",
    "tail_fraction_convergence_check",
    "logconcavity_check",
    "logconcavity_negative_control",
    "run_suite",
    "SUITE_NAMES",
    "DEFAULT_SANDWICH_BATTERY",
    "DEFAULT_LOGCONCAVITY_BATTERY",
]

# (miss_power, keep_power, sigma); full 3 x 2 x 2 grid.
DEFAULT_SANDWICH_BATTERY = tuple(
    (vd, ve, sg) for vd in (0.5, 1.0, 2.0) for ve in (0.0, 1.0) for sg in (0.5, 1.0)
)

# (known_sq, fresh_power, sigma) triples for the curvature scan.
DEFAULT_LOGCONCAVITY_BATTERY = (
    (0.0, 1.0, 1.0),
    (4.0, 0.5, 1.0),
    (1.0, 1.0, 0.5),
    (2.0, 2.0, 1.0),
    (0.0, 2.0, 0.5),
    (6.0, 1.0, 1.0),
)

# Fixed check definitions; a report's params record the ones that shape it.
_MI_RESOLUTION = 0.01          # sandwich: se above this is inconclusive,
_MAX_CLAMP_FRACTION = 1e-3     # as is this share of floored densities
_CONC_MISS_POWER = 1.0         # concentration: pair split and noise scale,
_CONC_KEEP_POWER = 0.0
_CONC_SIGMA = 1.0
_CONC_N = 20                   # densities per sum,
_CONC_MU_VALUES = (0.0, 0.01, 0.02, 0.05)
_CONC_REL_SE_LIMIT = 3e-3      # largest centering se relative to its mean
_GCONV_C_BETA = 1.0            # sorted-prefix convergence: signal power,
_GCONV_K = 10000               # length, seed count, alpha grid step and
_GCONV_SEEDS = 20              # tolerance in units of 1/sqrt(k)
_GCONV_ALPHA_STEP = 0.01
_GCONV_TOL_SCALE = 5.0
_SCAN_STEP_SCALE = 0.01        # curvature scans: grid step in noise widths,
_SCAN_POINTS = 2001            # grid points, and the largest second
_SCAN_TOL = 1e-6               # difference that still counts as concave
_NEG_SIGMA = 1.0               # negative control: two Gaussians of this
_NEG_SEPARATION = 8.0          # scale, this many scales apart
_INFO_BLOCK = 2**15            # information density samples per block

# A report writes a non-finite float as a string of its JSON spelling,
# which float() reads back, so the report stays strict JSON.
_NON_FINITE = ("Infinity", "-Infinity", "NaN")


def _encode(value):
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    return value


SUITE_NAMES = ("sandwich", "concentration", "gconv", "logconcavity", "all",
               "negative-control")


@dataclass(frozen=True)
class VerificationReport:
    check: str
    params: dict
    estimate: float
    se: float
    lower: float | None   # None means unbounded below
    upper: float | None   # None means unbounded above
    trials: int

    @property
    def verdict(self) -> str:
        if (self.params.get("forced_inconclusive")
                or self.se > self.params.get("resolution", math.inf)):
            return "inconclusive"
        lo = -math.inf if self.lower is None else self.lower - 3.0 * self.se
        hi = math.inf if self.upper is None else self.upper + 3.0 * self.se
        return "pass" if lo <= self.estimate <= hi else "fail"

    def to_json_line(self) -> str:
        """Strict JSON: a non-finite float is written as the string
        ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``."""
        rec = {
            "check": self.check,
            "params": self.params,
            "estimate": self.estimate,
            "se": self.se,
            "lower": self.lower,
            "upper": self.upper,
            "trials": self.trials,
            "verdict": self.verdict,
        }
        return json.dumps(_encode(rec), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    @classmethod
    def from_json_line(cls, line: str) -> "VerificationReport":
        """Read back a :meth:`to_json_line` record. Raises ``ValueError``
        when its verdict is not the one its fields give."""
        rec = json.loads(line, object_hook=lambda rec: {
            key: float(v) if v in _NON_FINITE else v
            for key, v in rec.items()})
        stored = rec.pop("verdict", None)
        report = cls(**rec)
        if stored != report.verdict:
            raise ValueError(f"stored verdict {stored!r} is not the "
                             f"{report.verdict!r} its fields give")
        return report


def _draw_info_samples(miss_power: float, keep_power: float,
                       noise: GaussianNoise, trials: int,
                       rng: np.random.Generator):
    """Sample per-observation information densities under the pair model.

    The stream is that of drawing the matched and missed projections with
    :func:`~phaselim.rng.sample_circular_gaussian` and then the noise, each
    at full length: five parts in the order keep-real, keep-imaginary,
    miss-real, miss-imaginary, noise, each made by ``rng.normal`` calls.
    numpy's normal sampler uses a variable number of words per value, so
    interleaving the parts block by block would change every value, but one
    part drawn in consecutive blocks equals one whole call.

    At positive ``keep_power`` both keep planes are drawn whole, and
    ``known_sq`` must outlive them: three float arrays of the run's length
    is the floor for these values. ``re`` and ``im`` take the keep planes,
    then add the missed planes block by block; ``re`` is then overwritten
    with ``full_sq`` and ``im`` with the densities (24 bytes a sample).

    At zero ``keep_power`` the keep planes are ``0 * draw`` and ``known_sq``
    is zero, so no value of theirs reaches a density. They are still drawn,
    since skipping them would shift every later value, but into the one
    array of the run's length, which ``standard_normal(out=...)`` fills
    with the words of ``rng.normal(0.0, _UNIT_SCALE, n)``. That array then
    takes the missed-real plane, becomes ``full_sq`` block by block and
    then the densities (8 bytes a sample). The sign of a zero plane value
    may differ from the general path, which no squared magnitude sees.

    The squared magnitudes go through a complex block buffer because
    numpy's complex ``abs`` is not ``np.hypot`` bit for bit. Every step is
    elementwise and a density does not depend on its batch, so the values
    are those of one whole-array pass, plus one ``_INFO_BLOCK`` of
    temporaries.
    """
    miss_scale = math.sqrt(miss_power)
    blocks = [slice(lo, min(lo + _INFO_BLOCK, trials))
              for lo in range(0, trials, _INFO_BLOCK)]
    buf = np.empty(min(trials, _INFO_BLOCK), dtype=complex)

    def abs_sq(re, im):
        n = len(re)
        buf.real[:n] = re
        buf.imag[:n] = im
        return np.abs(buf[:n]) ** 2

    def miss_block(s):
        return miss_scale * rng.normal(0.0, _UNIT_SCALE, s.stop - s.start)

    if keep_power == 0.0:
        vals = np.empty(trials)
        rng.standard_normal(out=vals)   # keep-real, dropped
        rng.standard_normal(out=vals)   # keep-imaginary, dropped
        rng.standard_normal(out=vals)   # miss-real
        vals *= _UNIT_SCALE     # rng.normal's rounding, then miss_block's
        vals *= miss_scale
        for s in blocks:
            vals[s] = abs_sq(vals[s], miss_block(s))
        full_sq, known_sq = vals, np.broadcast_to(0.0, trials)
    else:
        keep_scale = math.sqrt(keep_power)
        re = rng.normal(0.0, _UNIT_SCALE, trials)
        re *= keep_scale
        im = rng.normal(0.0, _UNIT_SCALE, trials)
        im *= keep_scale
        known_sq = np.empty(trials)
        for s in blocks:
            known_sq[s] = abs_sq(re[s], im[s])
        for plane in (re, im):
            for s in blocks:
                plane[s] += miss_block(s)
        for s in blocks:
            re[s] = abs_sq(re[s], im[s])
        full_sq, vals = re, im
    n_clamped = 0
    for s in blocks:
        y = full_sq[s] + noise.sample(rng, s.stop - s.start)
        vals[s], clamped = info_density(y, full_sq[s], known_sq[s],
                                        miss_power, noise)
        n_clamped += clamped
    return vals, n_clamped


def _mean_and_se(vals: np.ndarray) -> tuple[float, float]:
    """``np.mean(vals)`` and ``np.std(vals, ddof=1) / sqrt(n)``, bit for
    bit, with ``se = inf`` at ``n == 1``.

    The steps are numpy's own (a kept-dimension mean, the deviations
    squared, one add reduction, ``/ (n - 1)``, ``sqrt``), but the
    deviations are formed in ``vals``, which this consumes, rather than in
    a second array of its length.
    """
    n = vals.size
    mean = np.mean(vals, keepdims=True)
    if n == 1:
        return float(mean[0]), math.inf
    vals -= mean
    np.square(vals, out=vals)
    var = np.add.reduce(vals) / (n - 1)
    return float(mean[0]), float(np.sqrt(var) / math.sqrt(n))


def mi_estimate(miss_power: float, keep_power: float, noise: GaussianNoise,
                trials: int, rng: np.random.Generator) -> VerificationReport:
    """Monte Carlo mutual-information estimate checked against the
    analytic sandwich for the same power split; ``trials`` is at least 1,
    ``miss_power`` positive and finite, ``keep_power`` non-negative and
    finite."""
    _check_int("trials", trials, 1)
    if not 0.0 < miss_power < math.inf:     # NaN fails
        raise ValueError(f"miss_power must be positive and finite, "
                         f"got {miss_power!r}")
    if not 0.0 <= keep_power < math.inf:
        raise ValueError(f"keep_power must be non-negative and finite, "
                         f"got {keep_power!r}")
    vals, n_clamped = _draw_info_samples(miss_power, keep_power, noise,
                                         trials, rng)
    estimate, se = _mean_and_se(vals)
    lower = float(mi_pair_lower(miss_power, noise))
    upper = float(mi_pair_upper(miss_power, keep_power, noise))
    params = {
        "miss_power": miss_power,
        "keep_power": keep_power,
        "sigma": noise.sigma,
        "n_clamped": n_clamped,
        "resolution": _MI_RESOLUTION,
    }
    if n_clamped / trials > _MAX_CLAMP_FRACTION:
        params["forced_inconclusive"] = True
    return VerificationReport("mi_sandwich", params, estimate, se, lower,
                              upper, trials)


def sandwich_check(trials: int = 100000, master_seed: int = 0,
                   threads: int = 1) -> list[VerificationReport]:
    """Run :func:`mi_estimate` over :data:`DEFAULT_SANDWICH_BATTERY`.

    Combo ``i`` draws from substream ``(master_seed, i)``, so results do
    not depend on the thread count or completion order.
    """
    _check_int("trials", trials, 1)

    def one(idx_combo):
        idx, (miss, keep, sigma) = idx_combo
        return mi_estimate(miss, keep, GaussianNoise(sigma), trials,
                           substream(master_seed, idx))

    return parallel_map(one, list(enumerate(DEFAULT_SANDWICH_BATTERY)),
                        threads)


def concentration_check(trials: int = 10000, info_samples: int = 1000000,
                        master_seed: int = 0) -> list[VerificationReport]:
    """Empirical two-sided tails of the summed information density against
    the analytic bound ``exp(-n C r(mu)) + exp(-n C r(-mu))``.

    Sums of ``n = 20`` densities at unit missed power and unit noise are
    probed at ``mu`` in ``_CONC_MU_VALUES``. The centering constant is a
    Monte Carlo run of ``info_samples`` draws whose standard error must stay
    below 3e-3 of the estimate, else every report is marked inconclusive.
    The bound's scale constant is deliberately conservative, so large slack
    is the expected outcome. ``trials`` is at least 1 and ``info_samples``
    at least 2.
    """
    _check_int("trials", trials, 1)
    _check_int("info_samples", info_samples, 2)
    # substream would refuse a bad seed only after the constants
    _check_int("master_seed", master_seed, 0)
    miss, keep, sigma, n = (_CONC_MISS_POWER, _CONC_KEEP_POWER, _CONC_SIGMA,
                            _CONC_N)
    noise = GaussianNoise(sigma)
    consts = concentration_constant(miss + keep, noise)

    vals, _ = _draw_info_samples(miss, keep, noise, info_samples,
                                 substream(master_seed, 0))
    info_mean, info_se = _mean_and_se(vals)
    del vals    # freed before the tail run draws
    centering_bad = not (info_se <= _CONC_REL_SE_LIMIT * abs(info_mean))

    block, _ = _draw_info_samples(miss, keep, noise, trials * n,
                                  substream(master_seed, 1))
    sums = block.reshape(trials, n).sum(axis=1)
    centered = sums - n * info_mean

    base_params = {
        "miss_power": miss,
        "keep_power": keep,
        "sigma": sigma,
        "n": n,
        "scale": consts.scale,
        "moment": consts.moment,
        "info_mean": info_mean,
        "info_se": info_se,
    }
    if centering_bad:
        base_params["forced_inconclusive"] = True
    reports = []
    for mu in _CONC_MU_VALUES:
        deviation = 2.0 * n * consts.scale * mu
        bound = concentration_tail_bound(n, consts.scale, mu)
        for side, hit in (("lower", centered <= -deviation),
                          ("upper", centered >= deviation)):
            p_hat = float(np.mean(hit))
            se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
            params = dict(base_params, mu=mu, side=side)
            reports.append(VerificationReport(
                "concentration_tail", params, p_hat, se, None,
                float(bound), trials))
    return reports


def tail_fraction_convergence_check(master_seed: int = 0,
                                    threads: int = 1) -> list[VerificationReport]:
    """Sorted-prefix power sums of one Gaussian draw versus the limiting
    fraction curve, uniformly over the alpha grid, one report per seed.

    Twenty seeds of ``k = 10000`` coefficients on an alpha grid of step
    0.01; the tolerance ``5 / sqrt(k)`` tracks the root-k fluctuation scale
    of the empirical sorted sums.
    """
    c_beta, k, step = _GCONV_C_BETA, _GCONV_K, _GCONV_ALPHA_STEP
    alphas = np.clip(np.arange(0.0, 1.0 + step / 2, step), 0.0, 1.0)
    limit = c_beta * np.asarray(tail_power_fraction(alphas))
    tol = _GCONV_TOL_SCALE / math.sqrt(k)

    def one(seed_idx):
        beta = sample_signal_vector(GaussianIID(c_beta, k),
                                    substream(master_seed, seed_idx))
        prefix = partition_powers(beta, alphas, "floor")[0]
        dev = np.abs(prefix - limit) / c_beta
        return VerificationReport(
            "tail_fraction_convergence",
            {"seed_index": seed_idx, "k": k, "c_beta": c_beta,
             "alpha_step": step},
            float(np.max(dev)), 0.0, None, tol, trials=1)

    return parallel_map(one, list(range(_GCONV_SEEDS)), threads)


def _second_difference_scan(logpdf, center: float, sigma: float) -> float:
    """Max second difference of a log density on the fixed grid centered
    at ``center``, checked against ``_SCAN_TOL``."""
    step = _SCAN_STEP_SCALE * sigma
    ys = center + step * (np.arange(_SCAN_POINTS) - (_SCAN_POINTS - 1) / 2.0)
    lp = np.asarray(logpdf(ys), dtype=float)
    d2 = lp[2:] - 2.0 * lp[1:-1] + lp[:-2]
    return float(np.max(d2))


def logconcavity_check() -> list[VerificationReport]:
    """Second-difference log-concavity scan of the conditional output law
    over its bulk (grid centered at the mean, spanning ten noise widths on
    each side), one report per :data:`DEFAULT_LOGCONCAVITY_BATTERY` entry."""
    reports = []
    for known_sq, fresh, sigma in DEFAULT_LOGCONCAVITY_BATTERY:
        noise = GaussianNoise(sigma)
        est = _second_difference_scan(
            lambda ys: conditional_output_logpdf(ys, known_sq, fresh, noise),
            known_sq + fresh, sigma)
        reports.append(VerificationReport(
            "logconcavity",
            {"known_sq": known_sq, "fresh_power": fresh, "sigma": sigma,
             "step_scale": _SCAN_STEP_SCALE, "points": _SCAN_POINTS},
            est, 0.0, None, _SCAN_TOL, trials=_SCAN_POINTS))
    return reports


def logconcavity_negative_control() -> VerificationReport:
    """Deliberately bimodal mixture; the scan must fail on it.

    A correct curvature test rejects the equal mixture of two unit-weight
    Gaussians ``_NEG_SEPARATION`` widths apart, whose log density is convex
    between the modes.
    """
    sigma = _NEG_SIGMA
    mu2 = _NEG_SEPARATION * sigma

    def logpdf(y):
        y = np.asarray(y, dtype=float)
        a = -(y ** 2) / (2 * sigma ** 2)
        b = -((y - mu2) ** 2) / (2 * sigma ** 2)
        return np.logaddexp(a, b) + math.log(0.5) \
            - 0.5 * math.log(2 * math.pi * sigma ** 2)

    est = _second_difference_scan(logpdf, mu2 / 2.0, sigma)
    return VerificationReport(
        "logconcavity_negative_control",
        {"sigma": sigma, "separation": _NEG_SEPARATION,
         "step_scale": _SCAN_STEP_SCALE, "points": _SCAN_POINTS},
        est, 0.0, None, _SCAN_TOL, trials=_SCAN_POINTS)


def run_suite(suite: str, trials: int = 100000, master_seed: int = 0,
              threads: int = 1) -> list[VerificationReport]:
    """Dispatch a named verification suite with scaled sample budgets.

    ``trials`` is the sandwich budget, at least 1; the concentration suite
    uses a tenth of it for tail trials and ten times it for the centering
    run. ``master_seed`` is an int of at least 0 and ``threads`` one of at
    least 1; all three are checked before any suite runs.
    """
    _check_int("trials", trials, 1)
    _check_int("master_seed", master_seed, 0)
    _check_int("threads", threads, 1)
    if suite == "sandwich":
        return sandwich_check(trials=trials, master_seed=master_seed,
                              threads=threads)
    if suite == "concentration":
        return concentration_check(trials=max(trials // 10, 1),
                                   info_samples=max(trials * 10, 10),
                                   master_seed=master_seed)
    if suite == "gconv":
        return tail_fraction_convergence_check(master_seed=master_seed,
                                               threads=threads)
    if suite == "logconcavity":
        return logconcavity_check()
    if suite == "all":
        out = []
        for name in ("sandwich", "concentration", "gconv", "logconcavity"):
            out.extend(run_suite(name, trials=trials, master_seed=master_seed,
                                 threads=threads))
        return out
    if suite == "negative-control":
        return [logconcavity_negative_control()]
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
