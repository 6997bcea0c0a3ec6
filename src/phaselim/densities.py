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
summed by a three-term recurrence run upward or downward (Miller's
algorithm, DLMF 3.6), whichever is stable for the sample.

Composite Gauss-Legendre quadrature in sqrt(u) space (the substitution
removes the square-root cusp of the exponent at u = 0) is the test oracle
and the fallback for samples whose series would be too long. Segment edges
are the points where either factor leaves its bulk, and the integrand is
log-concave in ``u``, so its maximum always lies inside the covered hull;
everything outside is smaller than the noise peak by at least exp(-36).

All log densities are exact logs, floored at ``LOG_FLOOR`` (the smallest
exponent a float64 exponential survives) with the clamp count reported.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, i0e, logsumexp

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


@dataclass(frozen=True)
class GaussianNoise:
    """Additive ``N(0, sigma^2)`` noise with ``sigma`` in [1e-150, 1e150]."""

    sigma: float = 1.0

    def __post_init__(self):
        if not _SIGMA_MIN <= self.sigma <= _SIGMA_MAX:   # NaN fails too
            raise ValueError(f"sigma must lie in [{_SIGMA_MIN:g}, "
                             f"{_SIGMA_MAX:g}], got {self.sigma!r}")

    def logpdf(self, z):
        z = np.asarray(z, dtype=float)
        return self.joint_logpdf(z * z, 1)

    def joint_logpdf(self, sum_sq, count: int):
        """Log density of ``count`` independent noise values whose squares
        sum to ``sum_sq``."""
        return (-sum_sq / (2.0 * self.sigma**2)
                - count * (0.5 * math.log(2.0 * math.pi * self.sigma**2)))

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
           + np.log(i0e(2.0 * su * sl / fresh_power)))
    return np.where(u < 0, -np.inf, out)


def _emg_logpdf(y, v, sigma):
    """Log density of Exp(mean ``v``) + N(0, sigma^2) at a 1-d ``y``: the
    zero-matched-power output law.

    The density is ``exp(sigma^2/(2v^2) - y/v) Phi(tau) / v`` with
    ``tau = (y - sigma^2/v) / sigma``. With ``e = erfcx(|tau|/sqrt 2)``,
    ``Phi(tau) = exp(-tau^2/2) e/2`` for ``tau < 0``, and there the exponent
    and ``-tau^2/2`` cancel analytically to ``-y^2/(2 sigma^2)``; for
    ``tau >= 0``, ``log Phi(tau) = log1p(-exp(-tau^2/2) e/2)``. Computed in
    place, three arrays at a time: the concentration suite passes a
    million samples per call.
    """
    s2 = sigma * sigma
    tau = (y - s2 / v) / sigma
    right = tau >= 0
    with np.errstate(over="ignore"):
        e = np.abs(tau)
        e *= _SQRT_HALF
        erfcx(e, out=e)
        tmp = np.multiply(tau, tau, out=tau)    # tau >= 0
        tmp *= -0.5
        np.exp(tmp, out=tmp)
        tmp *= e
        tmp *= -0.5
        np.log1p(tmp, out=tmp)
        out = np.log(e, out=e)                  # tau < 0
        scratch = np.multiply(y, y)
        scratch *= 1.0 / (2.0 * s2)
        out -= scratch
        out += -math.log(2.0 * v)
        np.multiply(y, 1.0 / v, out=scratch)
        tmp -= scratch
        tmp += 0.5 * (sigma / v) * (sigma / v) - math.log(v)
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


def _conv_logpdf_quadrature(y, lam, fresh_power, noise: GaussianNoise,
                            nodes: int):
    """Quadrature log densities at 1-d ``y`` with matched powers ``lam`` of
    the same length."""
    v = float(fresh_power)
    hw = _NOISE_BULK * noise.sigma
    sl = np.sqrt(lam)
    sv = math.sqrt(v)
    top = np.clip(y, 0.0, None) + hw
    edges = np.stack(
        [
            np.zeros_like(y),
            np.clip(sl - _SQRT_BULK * sv, 0.0, None) ** 2,
            (sl + _SQRT_BULK * sv) ** 2,
            np.clip(y - hw, 0.0, None),
            top,
        ],
        axis=-1,
    )
    edges = np.minimum(edges, top[..., None])
    edges.sort(axis=-1)

    gx, gw = _gl_nodes(nodes)
    a = np.sqrt(edges[..., :-1])  # (..., 4) segment edges in sqrt space
    b = np.sqrt(edges[..., 1:])
    half = 0.5 * (b - a)
    s = a[..., None] + half[..., None] * (gx + 1.0)  # (..., 4, nodes)
    u = s * s
    log_fu = noncentral_chi2_scaled_logpdf(u, lam[..., None, None], v)
    log_fz = noise.logpdf(y[..., None, None] - u)
    with np.errstate(divide="ignore"):
        log_w = (np.where(half > 0, np.log(np.clip(half, 1e-300, None)), -np.inf)[..., None]
                 + np.log(gw) + np.log(np.clip(2.0 * s, 1e-300, None)))
    return logsumexp(log_fu + log_fz + log_w, axis=(-1, -2))


def _quadrature_logpdf(ys, lams, v, noise: GaussianNoise, nodes: int):
    """Chunked :func:`_conv_logpdf_quadrature` over 1-d ``ys``/``lams``."""
    step = max(1, _QUAD_ELEMENT_BUDGET // (4 * nodes))
    out = np.empty_like(ys)
    for lo in range(0, ys.size, step):
        sl = slice(lo, lo + step)
        out[sl] = _conv_logpdf_quadrature(ys[sl], lams[sl], v, noise, nodes)
    return out


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
_FORWARD_MIN_TAU = -1.5
_FORWARD_GROWTH = 4.0
_BACKWARD_DAMPING = 12.5
# Samples whose series would run past this many terms, or is not finite,
# take the quadrature instead. The mpmath tests validate the series up to
# this length, where its rounding error (about eps * known_sq/v) stays
# near 1e-11.
_SERIES_MAX_TERMS = 4096
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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

    Samples are visited in order of their term count, so the ones still
    running are a suffix and each sample stops at its own ``J``.
    """
    order = np.argsort(terms, kind="stable")
    mu, a, terms = mu[order], a[order], terms[order]
    log_a = np.log(a)
    s2 = sigma * sigma
    t = mu + sigma * _SQRT_2_OVER_PI / erfcx(tau[order] * -_SQRT_HALF)
    log_term = np.zeros_like(mu)    # log(a^j/j! R_j)
    acc = np.zeros_like(mu)         # running log-sum-exp, from j = 0
    for j in range(1, int(terms[-1]) + 1):
        lo = np.searchsorted(terms, j)
        tt = t[lo:]
        if j > 1:
            np.divide((j - 1) * s2, tt, out=tt)
            tt += mu[lo:]
        log_term[lo:] += np.log(tt) + (log_a[lo:] - math.log(j * j * v))
        np.logaddexp(acc[lo:], log_term[lo:], out=acc[lo:])
    out = np.empty_like(acc)
    out[order] = acc - a
    return out


def _backward_log_sums(mu, a, start, v, sigma):
    """The same sums by the downward recurrence from ``t_start``, estimated
    by the fixed point of ``t^2 = mu t + (start - 1/2) sigma^2``, summed by
    Horner's rule in log space (``H_{j-1} = 1 + q_j H_j``)."""
    order = np.argsort(start, kind="stable")
    mu, a, start = mu[order], a[order], start[order]
    log_a = np.log(a)
    s2 = sigma * sigma
    t = np.empty_like(mu)
    h = np.zeros_like(mu)           # log H_j
    for j in range(int(start[-1]), 0, -1):
        lo = np.searchsorted(start, j)
        hi = np.searchsorted(start, j, side="right")
        if hi > lo:     # samples whose run starts here
            m = mu[lo:hi]
            e = (j - 0.5) * s2
            t[lo:hi] = 2.0 * e / (np.sqrt(m * m + 4.0 * e) - m)
        tt = t[lo:]
        q = np.log(tt) + (log_a[lo:] - math.log(j * j * v))
        np.logaddexp(0.0, q + h[lo:], out=h[lo:])
        if j > 1:
            np.subtract(tt, mu[lo:], out=tt)
            np.divide((j - 1) * s2, tt, out=tt)
    out = np.empty_like(h)
    out[order] = h - a
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


def conditional_output_logpdf(y, known_sq, fresh_power, noise: GaussianNoise,
                              nodes: int = 80, force_quadrature: bool = False):
    """Log density of one observation given the matched projection power.

    Sums the Poisson mixture series of the convolution, whose zero-power
    term is the exponentially-modified-Gaussian closed form; a sample whose
    series is too long or not finite is integrated numerically, at most
    ``_QUAD_ELEMENT_BUDGET`` grid elements at a time, as is every sample
    under ``force_quadrature`` (``nodes`` is the quadrature order). A value
    does not depend on the batch it is computed in. Raises on non-finite
    ``y``, on a negative or non-finite ``known_sq``, and on a
    ``fresh_power`` below ``1e-16 * known_sq`` or with an overflowing
    ``sigma^2 / fresh_power``, which no form here resolves. May return
    values below ``LOG_FLOOR`` or ``-inf``; flooring is the caller's choice
    (see :func:`info_density`).
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
    if force_quadrature:
        out = _quadrature_logpdf(ys, lams, v, noise, nodes)
    else:
        out = _conv_logpdf_series(ys, lams, v, noise.sigma)
        redo = np.flatnonzero(np.isnan(out))
        if redo.size:
            out[redo] = _quadrature_logpdf(ys[redo], lams[redo], v, noise,
                                           nodes)
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
    search over the hull of the two bulks finds the global mode.
    """
    th = _NOISE_BULK * noise.sigma
    ym, logm = golden_max(
        lambda t: conditional_output_logpdf(t, 0.0, total_power, noise),
        -th, total_power + th, tol=1e-12)
    return float(np.exp(logm)), ym


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
