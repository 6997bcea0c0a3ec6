"""Output densities, information densities, and concentration constants.

Conditioned on the part of the signal a candidate support gets right, one
observation decomposes as ``Y = U + Z`` where ``U`` is the squared magnitude
of a complex Gaussian whose mean power ``known_sq`` comes from the matched
projection and whose fluctuation power ``fresh_power`` comes from the missed
coordinates. ``U`` follows a scaled noncentral chi-square with two degrees
of freedom; its density is evaluated in exponentially scaled Bessel form::

    f_U(u) = (1/v) * exp(-(sqrt(u) - sqrt(lam))^2 / v) * I0e(2 sqrt(u lam) / v)

which never overflows. The density of ``Y`` is the convolution of ``f_U``
with the Gaussian noise density. ``f_U`` is a Poisson(``known_sq/v``)
mixture of Gamma(``j+1``, ``v``) laws (Johnson, Kotz & Balakrishnan, vol. 2,
ch. 29), so the convolution is a series whose ``j = 0`` term is the
exponentially-modified-Gaussian closed form and whose other terms are
truncated-normal partial moments (parabolic cylinder functions, DLMF 12.8),
given by a three-term recurrence run upward or downward (Miller's
algorithm, DLMF 3.6), whichever is stable for the sample, and summed as
plain floats rescaled by powers of two, with one log per sample.

Composite Gauss-Legendre quadrature in sqrt(u) space (the substitution
removes the square-root cusp of the exponent at u = 0) is the test oracle
and the fallback for samples whose series would be too long. Segment edges
are the points where either factor leaves its bulk, and the integrand is
log-concave in ``u``, so its maximum always lies inside the covered hull;
everything outside is smaller than the noise peak by at least exp(-36).

All log densities are exact logs, floored at ``LOG_FLOOR`` (the smallest
exponent a float64 exponential survives) with the clamp count reported.

Every kernel here runs on numpy alone. The EMG term and the series take
``erfcx`` from ``_erfcx``, a numpy version in the layout of the Faddeeva
package; :func:`noncentral_chi2_scaled_logpdf` takes ``I0e`` from
``_i0e``, which wraps numpy's ``i0``; and the quadrature sums its grid by
``_logsumexp``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOG_FLOOR",
    "GaussianNoise",
    "noncentral_chi2_scaled_logpdf",
    "conditional_output_logpdf",
    "info_density",
    "concentration_rate",
    "output_law_peak",
    "concentration_constant",
    "ConcentrationConstants",
    "concentration_tail_bound",
    "golden_max",
]

LOG_FLOOR = -745.0

# Bulk half-widths: the noise strip spans 8.5 sigma on each side (mass
# < 1e-16 outside) and the chi-square bulk 7 fluctuation scales in sqrt
# space (exp(-49) relative outside).
_NOISE_BULK = 8.5
_SQRT_BULK = 7.0

# Noise scales whose square, and the entropy power 2 pi e sigma^2 of the
# rate forms, stay normal floats with room to divide by.
_SIGMA_MIN, _SIGMA_MAX = 1e-150, 1e150

# Smallest fresh power, relative to the matched power. The quadrature
# fallback's error grows like eps sqrt(known_sq/v), and past that the
# chi-square bulk is narrower than the float spacing near known_sq
# (known_sq 5, sigma 1: -0.9459 at v = 1e-30 and -1.03e28 at 1e-35 against
# -0.9189). Above the bound the fallback holds mpmath to about 1e-7
# relative. At zero matched power the EMG form holds for any v whose
# sigma^2 / v is a finite float.
_FRESH_MIN_RATIO = 1e-16

_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianNoise:
    """Additive ``N(0, sigma^2)`` noise with ``sigma`` in [1e-150, 1e150]."""

    sigma: float = 1.0

    def __post_init__(self):
        if not _SIGMA_MIN <= self.sigma <= _SIGMA_MAX:   # NaN fails too
            raise ValueError(f"sigma must lie in [{_SIGMA_MIN:g}, "
                             f"{_SIGMA_MAX:g}], got {self.sigma!r}")

    def logpdf(self, z):
        """Log density at ``z``. Where ``z * z`` overflows, the exponent is
        formed as ``(z / sigma)^2 / 2`` instead, which stays finite while
        the true value does."""
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            res = np.negative(z * z)
            res /= 2.0 * self.sigma**2
            if not res.min(initial=0.0) > -math.inf:    # NaN too
                res = np.where(np.isneginf(res),
                               -0.5 * np.square(z / self.sigma), res)
        res -= 0.5 * math.log(2.0 * math.pi * self.sigma**2)
        return res

    def sample(self, rng: np.random.Generator, size):
        return rng.normal(0.0, self.sigma, size)

    def entropy(self) -> float:
        """Differential entropy in nats."""
        return 0.5 * math.log(2.0 * math.pi * math.e * self.sigma**2)

    def peak(self) -> float:
        """Sup of the density."""
        return 1.0 / math.sqrt(2.0 * math.pi * self.sigma**2)

    def exp_2h(self) -> float:
        """exp(2 * entropy); the entropy-power scale of the noise."""
        return float(np.exp(2.0 * self.entropy()))


def noncentral_chi2_scaled_logpdf(u, known_sq, fresh_power):
    """Log density of ``|W|^2`` for complex Gaussian ``W`` with mean power
    ``known_sq`` and fluctuation power ``fresh_power``."""
    if not 0 < fresh_power < math.inf:
        raise ValueError("fresh_power must be positive and finite")
    u = np.asarray(u, dtype=float)
    lam = np.asarray(known_sq, dtype=float)
    if np.any(lam < 0):
        raise ValueError("known_sq must be nonnegative")
    su = np.sqrt(np.clip(u, 0.0, None))
    sl = np.sqrt(lam)
    out = (-math.log(fresh_power)
           - (su - sl) ** 2 / fresh_power
           + np.log(_i0e(2.0 * su * sl / fresh_power)))
    return np.where(u < 0, -np.inf, out)


def _i0e(x):
    """``exp(-x) I0(x)`` of a nonnegative float array: numpy's ``i0``
    (Cephes' Chebyshev series, S. L. Moshier 1989) times ``exp(-x)`` up to
    ``x = 700``, where ``I0`` is still far from overflow, and above it the
    first 7 terms of the asymptotic series (DLMF 10.40.1), whose term
    ratios are ``(2k - 1)^2 / (8k x)``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x <= 700.0
    xn = x[near]
    out[near] = np.i0(xn) * np.exp(-xn)
    far = ~near     # NaN too
    if far.any():
        xf = x[far]
        r = 1.0 / xf
        s = np.ones_like(xf)
        for k in range(6, 0, -1):   # Horner in 1/x
            s *= (2 * k - 1) ** 2 / (8.0 * k) * r
            s += 1.0
        out[far] = s * _INV_SQRT_2PI / np.sqrt(xf)
    return out


def _emg_logpdf(y, v, sigma):
    """Log density of Exp(mean ``v``) + N(0, sigma^2) at a 1-d ``y``: the
    zero-matched-power output law.

    The density is ``exp(sigma^2/(2v^2) - y/v) Phi(tau) / v`` with
    ``tau = (y - sigma^2/v) / sigma``. With ``e = erfcx(|tau|/sqrt 2)``,
    ``Phi(tau) = exp(-tau^2/2) e/2`` for ``tau < 0``, and there the exponent
    and ``-tau^2/2`` cancel analytically to ``-y^2/(2 sigma^2)``; for
    ``tau >= 0``, ``log Phi(tau) = log1p(-exp(-tau^2/2) e/2)``. Where
    ``sigma/v`` is so large that ``sigma^2/(2v^2)`` overflows, the right
    branch's exponent is taken as ``-(y - sigma^2/(2v))/v`` instead, which
    is finite or ``-inf``; where ``y * y`` overflows, ``y^2/(2 sigma^2)``
    is formed as ``(y / sigma)^2 / 2``. Computed in place: a call holds
    three float arrays of ``y``'s size, the result among them, and one
    mask.
    """
    s2 = sigma * sigma
    tau = (y - s2 / v) / sigma
    right = tau >= 0
    with np.errstate(over="ignore"):
        e = np.abs(tau)
        e *= _SQRT_HALF
        _erfcx(e, out=e)
        tmp = np.multiply(tau, tau, out=tau)    # tau >= 0
        tmp *= -0.5
        np.exp(tmp, out=tmp)
        tmp *= e
        tmp *= -0.5
        np.log1p(tmp, out=tmp)
        out = np.log(e, out=e)                  # tau < 0
        scratch = np.multiply(y, y)
        scratch *= 1.0 / (2.0 * s2)
        if not scratch.max(initial=0.0) < math.inf:     # NaN too
            far = np.isinf(scratch)     # y * y overflowed
            scratch[far] = 0.5 * np.square(y[far] / sigma)
        out -= scratch
        out += -math.log(2.0 * v)
        half_sq = 0.5 * (sigma / v) * (sigma / v)
        if half_sq < math.inf:
            np.multiply(y, 1.0 / v, out=scratch)
            tmp -= scratch
            tmp += half_sq - math.log(v)
        else:   # -y/v and half_sq would be inf - inf: take one quotient
            np.subtract(y, s2 / (2.0 * v), out=scratch)
            scratch /= v
            tmp -= scratch
            tmp -= math.log(v)
    np.copyto(out, tmp, where=right)
    return out


# Grid elements (samples x 4 segments x nodes) one quadrature chunk holds;
# the chunk's other temporaries are of the same size, 512 kB each, so a
# chunk runs in cache and its memory is reused by the next. Large chunks
# (32 MB temporaries at 4e6 elements) spend about a fifth of the run in
# page faults, a cost that varies from one process to the next.
_QUAD_ELEMENT_BUDGET = 2**16


@functools.cache   # per order; orders stay single-digit counts
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _quadrature_logpdf(ys, lams, v, noise: GaussianNoise, nodes: int = 80):
    """Quadrature log densities at 1-d ``ys`` with matched powers ``lams``
    of the same length and fresh power ``v``, ``nodes`` Gauss-Legendre
    nodes per segment, at most ``_QUAD_ELEMENT_BUDGET`` grid elements at a
    time: the series' fallback and the tests' oracle."""
    gx, gw = _gl_nodes(nodes)
    hw = _NOISE_BULK * noise.sigma
    sv = math.sqrt(v)
    step = max(1, _QUAD_ELEMENT_BUDGET // (4 * nodes))
    out = np.empty_like(ys)
    for lo in range(0, ys.size, step):
        y, lam = ys[lo:lo + step], lams[lo:lo + step]
        sl = np.sqrt(lam)
        top = np.clip(y, 0.0, None) + hw
        edges = np.stack([np.zeros_like(y),
                          np.clip(sl - _SQRT_BULK * sv, 0.0, None) ** 2,
                          (sl + _SQRT_BULK * sv) ** 2,
                          np.clip(y - hw, 0.0, None), top], axis=-1)
        edges = np.minimum(edges, top[:, None])
        edges.sort(axis=-1)
        a = np.sqrt(edges[:, :-1])  # (samples, 4) segment edges in sqrt space
        b = np.sqrt(edges[:, 1:])
        half = 0.5 * (b - a)
        s = a[..., None] + half[..., None] * (gx + 1.0)  # (samples, 4, nodes)
        u = s * s
        log_fu = noncentral_chi2_scaled_logpdf(u, lam[:, None, None], v)
        log_fz = noise.logpdf(y[:, None, None] - u)
        with np.errstate(divide="ignore"):
            log_w = (np.where(half > 0, np.log(np.clip(half, 1e-300, None)),
                              -np.inf)[..., None]
                     + np.log(gw) + np.log(np.clip(2.0 * s, 1e-300, None)))
        terms = log_fu + log_fz + log_w
        out[lo:lo + step] = _logsumexp(terms.reshape(len(y), -1))
    return out


def _logsumexp(a):
    """``log(sum(exp(a)))`` over the last axis of a float array, each row
    shifted by its maximum; a row of ``-inf`` gives ``-inf``."""
    top = a.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=-1)) + top[..., 0]


# Series form. With a = lam/v and mu = y - sigma^2/v the density is
#
#     f(y) = EMG(y) * sum_j e^-a a^j/j! * R_j,   R_j = M_j / (M_0 j! v^j),
#
# the Poisson(a) mixture of Gamma(j+1, v) laws, each convolved with the
# noise. M_j = int_0^inf u^j phi_sigma(u - mu) du are truncated-normal
# partial moments; their ratios t_j = M_j/M_{j-1} obey
# t_j = mu + (j-1) sigma^2 / t_{j-1}, with t_1 = mu + sigma phi/Phi(tau) at
# tau = mu/sigma. Run upward, this recurrence damps rounding errors when
# tau >= 0 and amplifies them by about exp(2 |tau| sqrt(j)) when tau < 0;
# run downward from an estimate (Miller's algorithm, DLMF 3.6) it damps the
# start error by about exp(-|tau| / sqrt(j)) per step when tau < 0.
#
# A sample runs upward while tau >= _FORWARD_MIN_TAU and |tau| sqrt(c) <=
# _FORWARD_GROWTH, c being the index of its largest term (error growth up
# to there at most e^8), and downward otherwise, from a start far enough
# above c that the damping down to c reaches about e^-25.
#
# Both directions sum in scaled linear space: each sample's terms and sum
# are plain floats, each step one ratio a t_j / (j^2 v) and one add, and
# every _RESCALE_STEPS-th j (the same j for every sample, so a value does
# not depend on its batch) the sum and what it carries are divided by the
# sum's power of two, whose exponent adds to the sample's offset; one log
# at the end. A ratio is at most about c^2 <= 4096^2, so the sum grows by
# less than 2^192 between rescales.
_FORWARD_MIN_TAU = -1.5
_FORWARD_GROWTH = 4.0
_BACKWARD_DAMPING = 12.5
# Samples whose series would run past this many terms, or is not finite,
# take the quadrature instead. The mpmath tests validate the series up to
# this length, where its rounding error (about eps * known_sq/v) stays
# near 1e-11.
_SERIES_MAX_TERMS = 4096
_RESCALE_STEPS = 8
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LN2 = math.log(2.0)


def _term_counts(mu, a, v, sigma):
    """Per-sample ``(c, J)``: ``c`` bounds the index of the largest mixture
    term and ``J = c + 12 sqrt(c) + 20`` terms cover it.

    The ratio of consecutive terms is ``a t_j / (j^2 v)``, and
    ``t_j <= max(mu, 0) + sqrt(j) sigma`` (and ``<= j sigma^2 / |mu|`` for
    ``mu < 0``), so past ``c`` the terms fall at least like a Poisson tail;
    12 of its standard deviations leave less than e^-72.
    """
    up = np.sqrt(a * np.maximum(mu, 0.0) / v) + np.cbrt(a * sigma / v) ** 2
    with np.errstate(divide="ignore"):
        down = np.where(mu < 0, a * sigma * sigma / (-mu * v), np.inf)
    c = np.minimum(up, down)
    return c, np.floor(c + 12.0 * np.sqrt(c) + 20.0)


def _forward_log_sums(mu, tau, a, terms, v, sigma):
    """``log sum_{j <= J} e^-a a^j/j! R_j`` by the upward recurrence.

    Each sample carries its term ``a^j/j! R_j`` and the running sum as
    plain floats from 1 at ``j = 0``: step ``j`` multiplies the term by
    ``(t_j / v) a / j^2`` and adds it. Every ``_RESCALE_STEPS``-th step
    divides both by the power of two of the sum and adds its exponent to
    the sample's offset, so the sum is ``tot 2^off`` and one log at the end
    gives the result. Samples are visited in order of their term count, so
    the ones still running are a suffix and each sample stops at its own
    ``J``.
    """
    order = np.argsort(terms, kind="stable")
    mu, a, terms = mu[order], a[order], terms[order]
    s2 = sigma * sigma
    t = mu + sigma * _SQRT_2_OVER_PI / _erfcx(tau[order] * -_SQRT_HALF)
    term = np.ones_like(mu)         # a^j/j! R_j, divided by 2^off
    tot = np.ones_like(mu)          # running sum from j = 0, divided by 2^off
    off = np.zeros_like(mu)
    ratio = np.empty_like(mu)
    top = int(terms[-1])
    starts = np.searchsorted(terms, np.arange(1, top + 1)).tolist()
    for j, lo in enumerate(starts, 1):
        tt, r, tm = t[lo:], ratio[lo:], term[lo:]
        if j > 1:
            np.divide((j - 1) * s2, tt, out=tt)
            tt += mu[lo:]
        np.divide(tt, v, out=r)
        r *= a[lo:]
        r /= j * j
        tm *= r
        tot[lo:] += tm
        if j % _RESCALE_STEPS == 0:
            frac, exp2 = np.frexp(tot[lo:])
            tot[lo:] = frac
            np.ldexp(tm, -exp2, out=tm)
            off[lo:] += exp2
    return _unscaled_log(tot, off, a, order)


def _backward_log_sums(mu, a, start, v, sigma):
    """The same sums by the downward recurrence from ``t_start``, estimated
    by the fixed point of ``t^2 = mu t + (start - 1/2) sigma^2``, summed by
    Horner's rule ``H_{j-1} = 1 + q_j H_j`` with ``q_j = (t_j / v) a / j^2``.

    Each sample carries ``H`` divided by ``2^off`` and the scale
    ``s = 2^-off`` that stands for the 1, as plain floats: a step is
    ``H = s + q_j H``, and every ``_RESCALE_STEPS``-th ``j`` divides ``H``
    and ``s`` by the power of two of ``H``, as in the upward sums.
    """
    order = np.argsort(start, kind="stable")
    mu, a, start = mu[order], a[order], start[order]
    s2 = sigma * sigma
    t = np.empty_like(mu)
    h = np.ones_like(mu)            # H_j, divided by 2^off
    scale = np.ones_like(mu)        # 2^-off
    off = np.zeros_like(mu)
    q = np.empty_like(mu)
    top = int(start[-1])
    # bounds[j - 1] is the first sample whose run starts at j or above
    bounds = np.searchsorted(start, np.arange(1, top + 2)).tolist()
    for j in range(top, 0, -1):
        lo, hi = bounds[j - 1], bounds[j]
        if hi > lo:     # samples whose run starts here
            m = mu[lo:hi]
            e = (j - 0.5) * s2
            t[lo:hi] = 2.0 * e / (np.sqrt(m * m + 4.0 * e) - m)
        tt, qq, hh = t[lo:], q[lo:], h[lo:]
        np.divide(tt, v, out=qq)
        qq *= a[lo:]
        qq /= j * j
        qq *= hh
        np.add(qq, scale[lo:], out=hh)
        if j % _RESCALE_STEPS == 0:
            frac, exp2 = np.frexp(hh)
            hh[:] = frac
            np.ldexp(scale[lo:], -exp2, out=scale[lo:])
            off[lo:] += exp2
        if j > 1:
            np.subtract(tt, mu[lo:], out=tt)
            np.divide((j - 1) * s2, tt, out=tt)
    return _unscaled_log(h, off, a, order)


def _unscaled_log(tot, off, a, order):
    """``log(tot 2^off) - a`` in the samples' original order."""
    log_sums = np.log(tot)
    log_sums += off * _LN2
    log_sums -= a
    out = np.empty_like(log_sums)
    out[order] = log_sums
    return out


def _conv_logpdf_series(ys, lams, v, sigma):
    """Series log densities at 1-d ``ys``; NaN marks a sample left to the
    quadrature."""
    out = _emg_logpdf(ys, v, sigma)
    idx = np.flatnonzero(lams > 0)
    if idx.size == 0:
        return out
    # extreme powers give inf/NaN counts or sums; those samples fall back
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        a = lams[idx] / v
        mu = ys[idx] - sigma * sigma / v
        tau = mu / sigma
        c, terms = _term_counts(mu, a, v, sigma)
        forward = ((tau >= _FORWARD_MIN_TAU)
                   & (-tau * np.sqrt(c) <= _FORWARD_GROWTH))
        reach = np.ceil((np.sqrt(c) - _BACKWARD_DAMPING / tau) ** 2)
        start = np.where(forward, terms, np.maximum(terms + 20.0, reach))
        run = start <= _SERIES_MAX_TERMS
        log_sums = np.full_like(mu, np.nan)
        # a sum within the cap stays below about e^(2c), so it cannot lift
        # an EMG term of -inf (y/v past the float range, where t_j/v may
        # overflow too): such a sample stays -inf
        dead = run & np.isneginf(out[idx])
        log_sums[dead] = 0.0
        run &= ~dead
        sel = forward & run
        if sel.any():
            log_sums[sel] = _forward_log_sums(mu[sel], tau[sel], a[sel],
                                              terms[sel], v, sigma)
        sel = ~forward & run
        if sel.any():
            log_sums[sel] = _backward_log_sums(mu[sel], a[sel], start[sel],
                                               v, sigma)
    out[idx] += log_sums
    return out


def conditional_output_logpdf(y, known_sq, fresh_power, noise: GaussianNoise):
    """Log density of one observation given the matched projection power.

    Sums the Poisson mixture series of the convolution, whose zero-power
    term is the exponentially-modified-Gaussian closed form; a sample whose
    series is too long or not finite is integrated numerically by
    :func:`_quadrature_logpdf`. A value does not depend on the batch it is
    computed in. Raises on non-finite ``y``, on a negative or non-finite
    ``known_sq``, and on a ``fresh_power`` below ``1e-16 * known_sq`` or
    with an overflowing ``sigma^2 / fresh_power``, which no form here
    resolves. May return values below ``LOG_FLOOR`` or ``-inf``; flooring
    is the caller's choice (see :func:`info_density`).
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("observations must be finite")
    lam = np.asarray(known_sq, dtype=float)
    lam_max = float(lam.max(initial=0.0))
    if not (lam.min(initial=0.0) >= 0.0 and lam_max < math.inf):  # NaN fails
        raise ValueError("known_sq must be nonnegative and finite")
    if not 0 < fresh_power < math.inf:
        raise ValueError("fresh_power must be positive and finite")
    if fresh_power < _FRESH_MIN_RATIO * lam_max:
        raise ValueError(f"fresh_power must be at least {_FRESH_MIN_RATIO:g} "
                         f"times the largest known_sq {lam_max:g}, "
                         f"got {fresh_power!r}")
    if not noise.sigma ** 2 / fresh_power < math.inf:
        raise ValueError(f"sigma^2 / fresh_power overflows at sigma "
                         f"{noise.sigma!r}, fresh_power {fresh_power!r}")
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    ys = y_arr.ravel()
    lams = np.broadcast_to(lam, y_arr.shape).ravel()
    v = float(fresh_power)
    out = _conv_logpdf_series(ys, lams, v, noise.sigma)
    redo = np.flatnonzero(np.isnan(out))
    if redo.size:
        out[redo] = _quadrature_logpdf(ys[redo], lams[redo], v, noise)
    out = out.reshape(y_arr.shape)
    return float(out[0]) if scalar else out


def info_density(y, full_sq, known_sq, fresh_power, noise: GaussianNoise):
    """Per-observation information density samples.

    ``full_sq`` is the squared magnitude of the complete projection,
    ``known_sq`` that of its matched part. Returns ``(values, n_clamped)``
    where values are ``log f_Z(y - full_sq) - log f_{Y|matched}(y)`` and
    ``n_clamped`` counts denominators lifted to ``LOG_FLOOR``.
    """
    y = np.asarray(y, dtype=float)
    num = noise.logpdf(y - np.asarray(full_sq, dtype=float))
    den = np.atleast_1d(np.asarray(conditional_output_logpdf(
        y, known_sq, fresh_power, noise)))
    clamped = ~(den >= LOG_FLOOR)  # catches -inf and nan
    n_clamped = int(np.count_nonzero(clamped))
    den = np.where(clamped, LOG_FLOOR, den)
    vals = np.atleast_1d(num) - den
    return vals, n_clamped


def concentration_rate(u):
    """Tail exponent ``u - log(1 + u)`` for ``u > -1``, +inf otherwise."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(u > -1.0, u - np.log1p(u), np.inf)
    return float(out) if out.ndim == 0 else out


# Golden-section steps at most; 200 shrink the bracket by 0.618^200 ~ 1e-42.
_GOLDEN_MAX_ITER = 200


def golden_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximization of a unimodal ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x))``; converges to the boundary if ``f`` is monotone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < _GOLDEN_MAX_ITER:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    x = c if fc >= fd else d
    return x, max(fc, fd)


def output_law_peak(total_power: float, noise: GaussianNoise):
    """Sup of the zero-matched-power output density and its location.

    The density is log-concave (both convolution factors are), so a golden
    search over the hull of the two bulks finds the global mode. It is the
    noise density averaged over the signal, so its sup is at most the noise
    peak; the EMG form's rounding, which can overshoot that peak by an ulp
    or two where ``total_power`` is far below ``sigma``, is clipped to it.
    """
    th = _NOISE_BULK * noise.sigma
    ym, logm = golden_max(
        lambda t: conditional_output_logpdf(t, 0.0, total_power, noise),
        -th, total_power + th, tol=1e-12)
    return min(float(np.exp(logm)), noise.peak()), ym


def _power_integral_edges(t: float, total_power: float, noise_scale: float,
                          y_mode: float) -> np.ndarray:
    # Right of the mode f^t decays like exp(-t*y/v): geometric panels over
    # that scale. Left of the mode the noise tail rules: noise-scale panels.
    right_span = total_power * (50.0 / t + 6.0) + 10.0 * noise_scale
    left_span = noise_scale * (math.sqrt(2.0 * (50.0 / t + 2.0)) + 4.0)
    fr = np.array([1 / 256, 1 / 128, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
    fl = np.array([1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0])
    edges = np.concatenate([(y_mode - left_span * fl)[::-1], [y_mode],
                            y_mode + right_span * fr])
    return edges


def _log_moment_objective(t: float, total_power: float, noise: GaussianNoise,
                          peak: tuple[float, float]) -> float:
    """Log of ``t * (M+1)^{-t} * integral f^t`` for the zero-matched-power
    output law ``f`` whose sup ``M`` sits at ``ym``, ``peak = (M, ym)``.
    Log-concave in ``t``."""
    M, ym = peak
    lnM = math.log(M)
    edges = _power_integral_edges(t, total_power, noise.sigma, ym)
    gx, gw = _gl_nodes(64)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    ys = a[:, None] + half[:, None] * (gx + 1.0)
    log_f = conditional_output_logpdf(ys, 0.0, total_power, noise)
    val = float(np.sum(half[:, None] * gw * np.exp(t * (log_f - lnM))))
    if val <= 0.0:
        return -np.inf
    return math.log(t) - t * math.log1p(M) + t * lnM + math.log(val)


@dataclass(frozen=True)
class ConcentrationConstants:
    moment: float       # sup-of-moments constant of the output law
    scale: float        # multiplier entering the tail exponent
    noise_peak: float


def concentration_constant(total_power: float,
                           noise: GaussianNoise) -> ConcentrationConstants:
    """Concentration constants of the zero-matched-power output law.

    ``moment`` is the sup over ``t in [1e-3, 1e3]`` of the moment objective
    (linear scale), found by golden-section search on ``ln t``; valid
    because the objective is log-concave in ``t``, hence unimodal. The scale
    is ``150 * max(2 * moment * (noise_peak + 1), 1)``.
    """
    law_peak = output_law_peak(total_power, noise)
    obj = lambda lt: _log_moment_objective(math.exp(lt), total_power, noise,
                                           law_peak)
    lo, hi = math.log(1e-3), math.log(1e3)
    _, best = golden_max(obj, lo, hi, tol=1e-10)
    best = max(best, obj(lo), obj(hi))
    moment = float(np.exp(best))
    noise_peak = noise.peak()
    return ConcentrationConstants(
        moment=moment,
        scale=150.0 * max(2.0 * moment * (noise_peak + 1.0), 1.0),
        noise_peak=noise_peak,
    )


def concentration_tail_bound(n: int, scale: float, mu: float) -> float:
    """Two-sided tail bound ``exp(-n*scale*rate(mu)) + exp(-n*scale*rate(-mu))``."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lo = math.exp(-n * scale * float(concentration_rate(mu)))
    rm = float(concentration_rate(-mu))
    hi = 0.0 if math.isinf(rm) else math.exp(-n * scale * rm)
    return lo + hi


# erfcx(x) = exp(x^2) erfc(x), laid out as in S. G. Johnson's Faddeeva
# package (after W. J. Cody, Math. Comp. 23 (1969)). For 0 <= x <= 50,
# y = 400/(4 + x) lies in (7.4, 100], and polynomial i = int(y) is the
# degree-6 truncated Chebyshev series of erfcx on y in [i, i + 1], in
# t = 2y - (2i + 1), rounded from 40 digits to monomial float64
# coefficients; row d of _ERFCX_COEF holds every polynomial's t^d
# coefficient (tests/test_densities.py rebuilds the table with mpmath).
# Past 50 a continued fraction takes over, and negative x reflect through
# erfcx(x) = 2 exp(x^2) - erfcx(-x). The polynomials run in blocks of
# _ERFCX_BLOCK samples so that their gathers and Horner steps stay in cache.
_ERFCX_BLOCK = 2**14
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _erfcx(x, out=None):
    """``exp(x^2) erfc(x)`` of a float array, within an ulp or two of
    ``scipy.special.erfcx``; ``out`` (a contiguous float array of its shape,
    which may be ``x`` itself) receives the values."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    xs, outs = x.reshape(-1), out.reshape(-1)
    m = max(min(xs.size, _ERFCX_BLOCK), 1)
    y, t, c = np.empty(m), np.empty(m), np.empty(m)
    i = np.empty(m, dtype=np.intp)
    for lo in range(0, xs.size, m):
        xb = xs[lo:lo + m]
        n = xb.size
        yb, tb, cb, ib = y[:n], t[:n], c[:n], i[:n]
        np.abs(xb, out=yb)
        np.fmin(yb, 50.0, out=yb)    # NaN and |x| > 50 evaluate at 50
        yb += 4.0
        np.divide(400.0, yb, out=yb)
        np.copyto(ib, yb, casting="unsafe")     # int(y)
        np.minimum(ib, 99, out=ib)      # y = 100 at |x| < 4.4e-16
        np.subtract(yb, ib, out=tb)     # exact, as are the next two steps
        tb *= 2.0
        tb -= 1.0
        _ERFCX_COEF[6].take(ib, out=yb, mode="clip")
        for row in _ERFCX_COEF[5::-1]:
            yb *= tb
            row.take(ib, out=cb, mode="clip")
            yb += cb
        if not (xb.min() >= 0.0 and xb.max() <= 50.0):   # NaN fails too
            _erfcx_outside(xb, yb)
        outs[lo:lo + n] = yb
    return out


def _erfcx_outside(x, r):
    """Overwrite the entries of ``r`` whose ``x`` lies outside [0, 50] (``r``
    holds the polynomial at ``min(|x|, 50)``); each branch evaluates only
    its own entries."""
    sel = x > 50.0
    if sel.any():
        b = x[sel]
        c = np.minimum(b, 5e7)
        c2 = c * c
        val = (_INV_SQRT_PI * (c2 * (c2 + 4.5) + 2.0)
               / (c * (c2 * (c2 + 5.0) + 3.75)))
        np.divide(_INV_SQRT_PI, b, out=val, where=b > 5e7)
        r[sel] = val
    sel = ~(x >= 0.0)   # NaN too
    if sel.any():
        b = x[sel]
        with np.errstate(over="ignore"):    # inf below x = -26.6
            e = np.exp(b * b)
            e *= 2.0
        np.subtract(e, r[sel], out=e, where=b >= -6.1)
        r[sel] = e


_ERFCX_COEF = np.array([
    [0.0007087803245410644, 0.0021479143208285143, 0.0036165255935630175,
     0.005115498386003198, 0.006645751317267305, 0.008208238997024121,
     0.009803953727535219, 0.011433927298290302, 0.013099232878814654,
     0.014800987015587536, 0.01654035173939407, 0.018318536789842393,
     0.020136801964214277, 0.021996459598282742, 0.02389887718722632,
     0.025845480155298518, 0.027837754783474698, 0.029877251304899308,
     0.03196558717859645, 0.03410445055258834, 0.036295603928292425,
     0.03854088803884051, 0.04084222595478596, 0.04320162743154022,
     0.04562119351381047, 0.048103121413299865, 0.05064970967698334,
     0.053263363664388864, 0.05594660135350001, 0.058702059496154084,
     0.061532500145144775, 0.06444081757665329, 0.06743004563313039,
     0.07050336551333886, 0.0736641140379446, 0.07691579242081956,
     0.08026207557809462, 0.08370682200898036, 0.08725408428446171,
     0.09090812018217274, 0.09467340450807549, 0.09855464164800445,
     0.1025567788947009, 0.10668502059865094, 0.11094484319386444,
     0.11534201115268805, 0.11988259392684095, 0.12457298393509812,
     0.12941991566142438, 0.13443048593088697, 0.13961217543434562,
     0.144972871576738, 0.15052089272774619, 0.1562650139577461,
     0.16221449434620738, 0.1683791059541213, 0.1747691645565937,
     0.18139556223643702, 0.18826980194443665, 0.19540403413693969,
     0.20281109560651886, 0.21050455062669335, 0.21849873453703333,
     0.2268087999004323, 0.23545076536988704, 0.24444156740777434,
     0.25379911500634267, 0.26354234756393613, 0.27369129607732345,
     0.28426714781640317, 0.2952923146534852, 0.3067905052252884,
     0.3187868011117332, 0.33130773722152623, 0.34438138658041334,
     0.35803744972380175, 0.37230734890119727, 0.3872243273055545,
     0.4028235535461694, 0.4191422315891379, 0.43621971639463786,
     0.4540976354853433, 0.4728200166851233, 0.4924334222717984,
     0.5129870897920926, 0.5345330797910137, 0.557126430711693,
     0.5808253212251933, 0.6056912402529337, 0.6317891649471572,
     0.6591877468972532, 0.6879595068317443, 0.7181810380872997,
     0.7499332191172625, 0.7833014353128349, 0.8183758104102381,
     0.8552514477568512, 0.8940286817084994, 0.9348133394287079,
     0.9777170133588503],
    [0.000712340910470263, 0.0007268640236737999, 0.0007418209232355551,
     0.0007572284073479166, 0.0007731040605444745, 0.0007894662961188171,
     0.0008063344010834284, 0.0008237285838319657, 0.0008416700246790696,
     0.0008601809294634594, 0.0008792845864124146, 0.0008990054264789172,
     0.0009193690873767368, 0.0009404024815536678, 0.0009621338683590018,
     0.0009845929306782012, 0.0010078108563256892, 0.001031820424505735,
     0.0010566560976716574, 0.0010823541191350532, 0.0011089526167995269,
     0.001136491713417542, 0.0011650136437945675, 0.0011945628793917271,
     0.001225186260806753, 0.0012569331386432195, 0.0012898555233099055,
     0.0013240082443256975, 0.001359449119740819, 0.0013962391363223647,
     0.0014344426411912014, 0.0014741275456383132, 0.001515365541891654,
     0.001558232333649571, 0.001602807881243882, 0.0016491766623447889,
     0.0016974279491709504, 0.0017476561032212657, 0.0017999608886001962,
     0.00185444780506577, 0.0019112284419887304, 0.0019704208544725622,
     0.0020321499629472857, 0.002096547977614873, 0.002163754849190817,
     0.002233918747454642, 0.002307196569191869, 0.0023837544771809576,
     0.002463768471950886, 0.0025474249981080823, 0.0026349215871051762,
     0.002726467538398244, 0.0028222846410136237, 0.0029226079376196627,
     0.0030276865332726477, 0.0031377844510793083, 0.0032531815370903066,
     0.0033741744168097, 0.0035010775057740316, 0.0036342240767211326,
     0.00377396738593236, 0.003920681861392565, 0.004074764355468959,
     0.004236635464862852, 0.004406740920636517, 0.004585553051160578,
     0.004773572320865003, 0.0049713289477083785, 0.005179384602305264,
     0.005398334191669514, 0.0056288077305420795, 0.00587147230327454,
     0.00612703411923391, 0.006396240664679808, 0.0066798829540414,
     0.006978797883488269, 0.007293870689646138, 0.00762603751625498,
     0.007976288091502973, 0.008345668518695046, 0.00873528418282895,
     0.009146302775554824, 0.009579957440886046, 0.010037550043909497,
     0.010520454564612427, 0.011030120618800727, 0.011568077107929736,
     0.012135935999503878, 0.01273539623952555, 0.013368247798287032,
     0.014036375850601992, 0.014741765091365868, 0.015486504187117112,
     0.016272790364044783, 0.01710293413265243, 0.017979364149044223,
     0.01890463221254756, 0.0198814183991272, 0.02091253632978037,
     0.02200093857283048],
    [3.5779077297601016e-06, 3.6843175430938994e-06, 3.794831995752824e-06,
     3.90964257267357e-06, 4.028951058939944e-06, 4.152970155262265e-06,
     4.281924132973699e-06, 4.416049531176544e-06, 4.555595898845751e-06,
     4.700826584881687e-06, 4.852019579300175e-06, 5.009468408955337e-06,
     5.1734830914104276e-06, 5.344391150804117e-06, 5.5225386998049015e-06,
     5.708291592005185e-06, 5.9020366493792216e-06, 6.104182969716206e-06,
     6.315163319241458e-06, 6.535435615955393e-06, 6.765484509551836e-06,
     7.005823064124631e-06, 7.2569945502343e-06, 7.51957435328492e-06,
     7.794172005555192e-06, 8.081433349636768e-06, 8.38204284145688e-06,
     8.696726001500767e-06, 9.026252023301638e-06, 9.371436548731279e-06,
     9.733144620101681e-06, 1.0112293819576438e-05, 1.0509857606888329e-05,
     1.092686886686523e-05, 1.1364423678778208e-05, 1.1823685320041301e-05,
     1.2305888517309893e-05, 1.2812343958540764e-05, 1.3344443080089493e-05,
     1.390366314342612e-05, 1.4491572616545005e-05, 1.5109836875625445e-05,
     1.576022424296218e-05, 1.6444612377624982e-05, 1.7164995035719656e-05,
     1.7923489217504226e-05, 1.8722342718958937e-05, 1.956394210571161e-05,
     2.0450821127475882e-05, 2.1385669591362916e-05, 2.2371342712572568e-05,
     2.3410870961050952e-05, 2.4507470422713398e-05, 2.566455369376845e-05,
     2.6885741326534563e-05, 2.8174873844911173e-05, 2.9536024347344365e-05,
     3.09735117147095e-05, 3.249191444001427e-05, 3.4096085096200906e-05,
     3.579116545759241e-05, 3.7582602289680105e-05, 3.947616382098671e-05,
     4.1477956909656896e-05, 4.35944449162247e-05, 4.5832466292683086e-05,
     4.8199253896534185e-05, 5.070245503693037e-05, 5.33501522583266e-05,
     5.615088486525581e-05, 5.911367118991331e-05, 6.224803160219768e-05,
     6.556401225970764e-05, 6.90722095929424e-05, 7.278379551860356e-05,
     7.671054337145482e-05, 8.086485454267072e-05, 8.525978581000461e-05,
     8.990907734243825e-05, 9.482718135925016e-05, 0.000100029291420668,
     0.00010553137232446167, 0.00011135019058000067, 0.00011750334542845235,
     0.00012400930037494997, 0.0001308874151957227, 0.00013815797838036652,
     0.0001458422399666584, 0.00015396244472258864, 0.00016254186562762076,
     0.00017160483760259707, 0.00018117679143520433, 0.00019128428784550924,
     0.00020195505163377912, 0.00021321800585063328, 0.0002251033059275313,
     0.00023764237370371255, 0.00025086793128395994, 0.0002648140346599848,
     0.0002795161070268238],
    [1.7403143962938388e-08, 1.80718412721492e-08, 1.8771627021793087e-08,
     1.950416870430047e-08, 2.0271233238288382e-08, 2.1074693344544657e-08,
     2.191653434690717e-08, 2.2798861426211984e-08, 2.3723907357214177e-08,
     2.4694040760197315e-08, 2.571177490088171e-08, 2.677977707421807e-08,
     2.7900878609710436e-08, 2.907808553804911e-08, 3.0314589961047687e-08,
     3.161378216916483e-08, 3.297926355324665e-08, 3.4414860359542725e-08,
     3.592463833952196e-08, 3.751291834853352e-08, 3.918429294991359e-08,
     4.094364408371859e-08, 4.279616186185505e-08, 4.474736455396099e-08,
     4.680311983095446e-08, 4.896966733568201e-08, 5.1253642652551835e-08,
     5.366210275039679e-08, 5.620255297505664e-08, 5.8882975670265225e-08,
     6.171186050734703e-08, 6.469823660593306e-08, 6.78517065293634e-08,
     7.118248223961343e-08, 7.47014230974231e-08, 7.842007599378162e-08,
     8.235071769897892e-08, 8.650639951503666e-08, 9.090099431642895e-08,
     9.554924606254986e-08, 1.004668218633358e-07, 1.0567036667675971e-07,
     1.1117756071353519e-07, 1.170071796202614e-07, 1.2317915750735903e-07,
     1.2971465288246e-07, 1.366361175433798e-07, 1.4396736847739494e-07,
     1.5173366280523917e-07, 1.599617757990044e-07, 1.6868008199296815e-07,
     1.779186393952638e-07, 1.8770927679626158e-07, 1.980856841565447e-07,
     2.0908350604346402e-07, 2.207404380704582e-07, 2.3309632627767074e-07,
     2.461932693759228e-07, 2.6007572375886304e-07, 2.747906111701763e-07,
     2.903874288941617e-07, 3.06918362318869e-07, 3.2443839970139927e-07,
     3.4300544894502794e-07, 3.6268045617760415e-07, 3.835275259003301e-07,
     4.056140424556473e-07, 4.2901079254268174e-07, 4.537920884886501e-07,
     4.800358919649474e-07, 5.078239378174486e-07, 5.372418576620093e-07,
     5.68379302878377e-07, 6.013300666188594e-07, 6.361922044322881e-07,
     6.730681530891737e-07, 7.120648471806268e-07, 7.532938330517133e-07,
     7.968713796195618e-07, 8.42918585617832e-07, 8.915614828021984e-07,
     9.429311346463862e-07, 9.971637300550905e-07, 1.0544006716188963e-06,
     1.1147886579371267e-06, 1.178479759537452e-06, 1.2456314879260903e-06,
     1.3164068573095715e-06, 1.3909744385382826e-06, 1.4695084048334057e-06,
     1.5521885688723181e-06, 1.6392004108230584e-06, 1.7307350969359973e-06,
     1.8269894883203343e-06, 1.9281661395543917e-06, 2.0344732868018167e-06,
     2.1461248251306377e-06, 2.2633402747585237e-06, 2.386344735975492e-06,
     2.515368832524531e-06],
    [8.171065894465059e-11, 8.549644929604024e-11, 8.948471512241503e-11,
     9.368750306318273e-11, 9.811763132170746e-11, 1.0278874108587666e-10,
     1.0771535136565444e-10, 1.1291291745878635e-10, 1.1839789326602456e-10,
     1.2418779768752021e-10, 1.3030128534231157e-10, 1.3675822186304318e-10,
     1.4357976402809408e-10, 1.5078844500306466e-10, 1.5840826497296047e-10,
     1.664647874552827e-10, 1.749852415924451e-10, 1.839986307293281e-10,
     1.9353584758817261e-10, 2.036297963582208e-10, 2.1431552202131994e-10,
     2.2563034723689726e-10, 2.376140171100486e-10, 2.50308852164713e-10,
     2.6375990983976425e-10, 2.780151548190588e-10, 2.9312563849676195e-10,
     3.0914568786632803e-10, 3.26133104105047e-10, 3.441493711057913e-10,
     3.632598741832073e-10, 3.8353412915281186e-10, 4.050460219480016e-10,
     4.27874058901601e-10, 4.52101627775037e-10, 4.778172695693177e-10,
     5.05114961097549e-10, 5.340944082386034e-10, 5.648613497256875e-10,
     5.975278712518922e-10, 6.322127295973913e-10, 6.690416863998661e-10,
     7.081478511011279e-10, 7.496720325090386e-10, 7.937630983149836e-10,
     8.405783418037369e-10, 8.902838548850488e-10, 9.430549064652349e-10,
     9.990763250631018e-10, 1.0585428844584348e-09, 1.12165969104379e-09,
     1.1886425714323778e-09, 1.2597184587573254e-09, 1.3351257759815838e-09,
     1.415114814424284e-09, 1.4999481055995142e-09, 1.5899007843584951e-09,
     1.6852609412270836e-09, 1.7863299617386522e-09, 1.8934228504788416e-09,
     2.006868537484616e-09, 2.1270101645766087e-09, 2.2542053491519926e-09,
     2.3888264229261044e-09, 2.5312606430856903e-09, 2.6819103733058423e-09,
     2.8411932320871834e-09, 3.009542205890312e-09, 3.1874057245814406e-09,
     3.3752476967569855e-09, 3.5735475025858393e-09, 3.7827999418962735e-09,
     4.00351513533991e-09, 4.236218376587716e-09, 4.481449933652208e-09,
     4.739764797585581e-09, 5.0117323769745016e-09, 5.297936136838288e-09,
     5.598973180736967e-09, 5.915453775108441e-09, 6.248000815078387e-09,
     6.597249231221342e-09, 6.963845336995326e-09, 7.3484461168238625e-09,
     7.751718455056822e-09, 8.174338306303566e-09, 8.6169898078968e-09,
     9.080364335511654e-09, 9.565159503230136e-09, 1.0072078109604653e-08,
     1.0601827031533949e-08, 1.115511606801918e-08, 1.1732656736115079e-08,
     1.233516102163005e-08, 1.2963340087357766e-08, 1.3617902941840473e-08,
     1.4299555071868963e-08, 1.500899704211538e-08, 1.5746923065471184e-08,
     1.651401954782299e-08],
    [3.6884993217662323e-13, 3.8852037518545194e-13, 4.093585851775371e-13,
     4.3143925959046697e-13, 4.548420740596378e-13, 4.796520139061962e-13,
     5.059597262353423e-13, 5.338618936597124e-13, 5.634616306729173e-13,
     5.948689037023499e-13, 6.282009758670397e-13, 6.635828774545128e-13,
     7.011479031091028e-13, 7.410381366916662e-13, 7.834050047258186e-13,
     8.284098592872048e-13, 8.762245911184465e-13, 9.270322736617565e-13,
     9.810278385921925e-13, 1.0384187833055824e-12, 1.0994259106647269e-12,
     1.1642841011340508e-12, 1.2332431172349725e-12, 1.3065684400305578e-12,
     1.3845421370972857e-12, 1.4674637611629625e-12, 1.5556512782821372e-12,
     1.6494420240832783e-12, 1.7491936862551829e-12, 1.8552853110437586e-12,
     1.9681183311049275e-12, 2.088117611605942e-12, 2.2157325109872936e-12,
     2.3514379522926437e-12, 2.495735500447334e-12, 2.649154440320167e-12,
     2.8122528498420217e-12, 2.985618661882838e-12, 3.1698707080105113e-12,
     3.365659736676866e-12, 3.5736693978032738e-12, 3.7946171851783026e-12,
     4.0292553275392525e-12, 4.278371618696092e-12, 4.542790176578184e-12,
     4.82337212064938e-12, 5.121016156754054e-12, 5.436659058133728e-12,
     5.771276031099484e-12, 6.125880953667495e-12, 6.5015264753713904e-12,
     6.899303966463224e-12, 7.320343304811032e-12, 7.765812489001379e-12,
     8.236917066464755e-12, 8.734899365864404e-12, 9.261037523527721e-12,
     9.81664429435574e-12, 1.0403065638420515e-11, 1.1021679075351631e-11,
     1.1673891799618947e-11, 1.2361138550935636e-11, 1.3084879235227738e-11,
     1.3846596292937786e-11, 1.464779181284204e-11, 1.5489984391054485e-11,
     1.6374705736455313e-11, 1.730349702540558e-11, 1.827790501028036e-11,
     1.9299477888056652e-11, 2.0369760936915443e-11, 2.1490291930544758e-11,
     2.266259634154756e-11, 2.3888182347049505e-11, 2.5168535651251904e-11,
     2.6505114141269454e-11, 2.7899342394116206e-11, 2.935260605414229e-11,
     3.0866246101565084e-11, 3.2441553033969036e-11, 3.407976098375704e-11,
     3.578204179551192e-11, 3.754949908806138e-11, 3.93831623267242e-11,
     4.128398093174448e-11, 4.325281844928835e-11, 4.529044681158094e-11,
     4.7397540712797626e-11, 4.9574672127193183e-11, 5.1822304995655474e-11,
     5.4140790106409384e-11, 5.653036019497591e-11, 5.899112528771511e-11,
     6.152306831235698e-11, 6.412604099785805e-11, 6.679976008472272e-11,
     6.954380386560631e-11, 7.235760907458128e-11, 7.52404681419111e-11,
     7.819152682954833e-11],
    [1.5925146889023857e-15, 1.6868473578975735e-15, 1.787206146278851e-15,
     1.893992641114547e-15, 2.0076352224590625e-15, 2.128590739004347e-15,
     2.2573462677044642e-15, 2.394420958473424e-15, 2.540367964569974e-15,
     2.695776458713629e-15, 2.861273734316915e-15, 3.0375273904624077e-15,
     3.225247598392887e-15, 3.4251894463122035e-15, 3.638155358207298e-15,
     3.864997581192897e-15, 4.106620734545444e-15, 4.3639844121286035e-15,
     4.6381058283176215e-15, 4.930062495803834e-15, 5.240994921805955e-15,
     5.572109307235689e-15, 5.924680231268864e-15, 6.3000533015694495e-15,
     6.699647748115806e-15, 7.124958936202584e-15, 7.577560771758199e-15,
     8.059107969650456e-15, 8.57133815317952e-15, 9.116073750509544e-15,
     9.695223651403372e-15, 1.0310784585337687e-14, 1.0964842179931376e-14,
     1.1659571656662944e-14, 1.2397238119131604e-14, 1.3180196387680908e-14,
     1.4010890333104629e-14, 1.48918516614434e-14, 1.5825698101608376e-14,
     1.6815130947784246e-14, 1.786293190931529e-14, 1.8971959222107654e-14,
     2.014514297752759e-14, 2.1385479627370618e-14, 2.2696025626746695e-14,
     2.4079890180687903e-14, 2.554022706494703e-14, 2.708022549681511e-14,
     2.870310003783222e-14, 3.0412079516974704e-14, 3.221039497023909e-14,
     3.41012666004621e-14, 3.608788976965976e-14, 3.8173420045067553e-14,
     4.036095732933994e-14, 4.2653529114930605e-14, 4.505407291242905e-14,
     4.7565417912467935e-14, 5.019026595062919e-14, 5.2931171854448876e-14,
     5.579052326103357e-14, 5.877052000283515e-14, 6.187315316766756e-14,
     6.510018394697341e-14, 6.84531223935483e-14, 7.193320621630216e-14,
     7.554137974508298e-14, 7.927827320302116e-14, 8.314418242719738e-14,
     8.713904918062873e-14, 9.126244219955652e-14, 9.551353911976774e-14,
     9.989110942417058e-14, 1.043934985510634e-13, 1.0901861329849642e-13,
     1.1376390865484928e-13, 1.1862637617927213e-13, 1.2360253404801675e-13,
     1.2868841887398071e-13, 1.3387957939708106e-13, 1.391710721324499e-13,
     1.4455745905200348e-13, 1.500328073627837e-13, 1.5559069143271964e-13,
     1.6122419690122544e-13, 1.669259269984622e-13, 1.7268801108326997e-13,
     1.7850211539584508e-13, 1.843594560073241e-13, 1.9025081393465886e-13,
     1.96166552375646e-13, 2.020966360058221e-13, 2.0803065226625914e-13,
     2.1395783455919394e-13, 2.1986708725699195e-13, 2.2574701241926307e-13,
     2.315859381030885e-13, 2.373719481423479e-13, 2.4309291326410894e-13,
     2.487365234029973e-13],
])
