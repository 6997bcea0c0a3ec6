"""Output densities, information densities, and concentration constants.

Conditioned on the part of the signal a candidate support gets right, one
observation decomposes as ``Y = U + Z`` where ``U`` is the squared magnitude
of a complex Gaussian whose mean power ``known_sq`` comes from the matched
projection and whose fluctuation power ``fresh_power`` comes from the missed
coordinates. ``U`` follows a scaled noncentral chi-square with two degrees
of freedom; its density is evaluated in exponentially scaled Bessel form::

    f_U(u) = (1/v) * exp(-(sqrt(u) - sqrt(lam))^2 / v) * I0e(2 sqrt(u lam) / v)

which never overflows. The density of ``Y`` is the convolution of ``f_U``
with the noise density. For zero ``known_sq`` and Gaussian noise the
convolution has the exponentially-modified-Gaussian closed form; otherwise
it is integrated with composite Gauss-Legendre quadrature in sqrt(u) space
(the substitution removes the square-root cusp of the exponent at u = 0).
Segment edges are the points where either factor leaves its bulk, and the
integrand is log-concave in ``u``, so its maximum always lies inside the
covered hull; everything outside is smaller by at least exp(-36).

All log densities are exact logs, floored at ``LOG_FLOOR`` (the smallest
exponent a float64 exponential survives) with the clamp count reported.
"""
from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, log_ndtr, logsumexp

__all__ = [
    "LOG_FLOOR",
    "NoiseModel",
    "GaussianNoise",
    "noncentral_chi2_scaled_logpdf",
    "exp_modified_gaussian_logpdf",
    "ConditionalOutputLaw",
    "conditional_output_logpdf",
    "info_density",
    "info_density_sum",
    "concentration_rate",
    "output_law_peak",
    "log_moment_objective",
    "concentration_moment",
    "concentration_scale_from_moment",
    "concentration_constant",
    "ConcentrationConstants",
    "concentration_tail_bound",
    "golden_max",
]

LOG_FLOOR = -745.0

# Bulk half-widths, in factor-specific units: the noise strip is
# tail_halfwidth() wide (8.5 sigma for Gaussian, mass < 1e-16 outside) and
# the chi-square bulk spans 7 fluctuation scales in sqrt space
# (exp(-49) relative outside).
_SQRT_BULK = 7.0


class NoiseModel(abc.ABC):
    """Additive noise with a log-concave density (extension point)."""

    @abc.abstractmethod
    def logpdf(self, z): ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size): ...

    @abc.abstractmethod
    def entropy(self) -> float:
        """Differential entropy in nats."""

    @abc.abstractmethod
    def peak(self) -> float:
        """Sup of the density."""

    @abc.abstractmethod
    def tail_halfwidth(self) -> float:
        """Half-width outside which the density mass is negligible (<1e-16)."""

    def pdf(self, z):
        return np.exp(self.logpdf(z))

    def exp_2h(self) -> float:
        """exp(2 * entropy); the entropy-power scale of the noise."""
        return float(np.exp(2.0 * self.entropy()))


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")

    def logpdf(self, z):
        z = np.asarray(z, dtype=float)
        return -(z * z) / (2.0 * self.sigma**2) - 0.5 * math.log(2.0 * math.pi * self.sigma**2)

    def sample(self, rng: np.random.Generator, size):
        return rng.normal(0.0, self.sigma, size)

    def entropy(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e * self.sigma**2)

    def peak(self) -> float:
        return 1.0 / math.sqrt(2.0 * math.pi * self.sigma**2)

    def tail_halfwidth(self) -> float:
        return 8.5 * self.sigma


def noncentral_chi2_scaled_logpdf(u, known_sq, fresh_power):
    """Log density of ``|W|^2`` for complex Gaussian ``W`` with mean power
    ``known_sq`` and fluctuation power ``fresh_power``."""
    if not fresh_power > 0:
        raise ValueError("fresh_power must be positive")
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


def exp_modified_gaussian_logpdf(y, fresh_power, sigma):
    """Closed-form log density of Exp(mean fresh_power) + N(0, sigma^2)."""
    y = np.asarray(y, dtype=float)
    v = float(fresh_power)
    return (-math.log(v) + sigma**2 / (2.0 * v * v) - y / v
            + log_ndtr((y - sigma**2 / v) / sigma))


_QUAD_ELEMENT_BUDGET = 4_000_000  # grid elements per quadrature call


@functools.cache   # per order; orders stay single-digit counts
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _conv_logpdf_quadrature(y, known_sq, fresh_power, noise: NoiseModel, nodes: int):
    y = np.asarray(y, dtype=float)
    lam = np.broadcast_to(np.asarray(known_sq, dtype=float), y.shape)
    v = float(fresh_power)
    hw = noise.tail_halfwidth()
    sl = np.sqrt(lam)
    sv = math.sqrt(v)
    top = np.clip(y + hw, 0.0, None)
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


def conditional_output_logpdf(y, known_sq, fresh_power, noise: NoiseModel,
                              nodes: int = 80, force_quadrature: bool = False):
    """Log density of one observation given the matched projection power.

    Dispatches to the exponentially-modified-Gaussian closed form when the
    matched power is identically zero and the noise is Gaussian; otherwise
    integrates the convolution numerically. Raises on non-finite ``y``.
    May return values below ``LOG_FLOOR`` or ``-inf``; flooring is the
    caller's choice (see :func:`info_density`).
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("observations must be finite")
    lam = np.asarray(known_sq, dtype=float)
    if np.any(lam < 0):
        raise ValueError("known_sq must be nonnegative")
    if not fresh_power > 0:
        raise ValueError("fresh_power must be positive")
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if (not force_quadrature and isinstance(noise, GaussianNoise)
            and np.all(lam == 0.0)):
        out = exp_modified_gaussian_logpdf(y_arr, fresh_power, noise.sigma)
    elif y_arr.ndim == 1 and y_arr.size * nodes > _QUAD_ELEMENT_BUDGET:
        # chunk big 1-d batches: the quadrature grid is (size, 4, nodes)
        # and would otherwise allocate multi-GB temporaries
        lam_b = np.broadcast_to(lam, y_arr.shape)
        step = max(1, _QUAD_ELEMENT_BUDGET // (4 * nodes))
        out = np.empty_like(y_arr)
        for lo in range(0, y_arr.size, step):
            sl = slice(lo, lo + step)
            out[sl] = _conv_logpdf_quadrature(y_arr[sl], lam_b[sl],
                                              fresh_power, noise, nodes)
    else:
        out = _conv_logpdf_quadrature(y_arr, lam, fresh_power, noise, nodes)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ConditionalOutputLaw:
    """Law of one observation given matched power ``known_sq`` and missed
    power ``fresh_power`` (the convolution described in the module docs)."""

    known_sq: float
    fresh_power: float
    noise: NoiseModel

    def __post_init__(self):
        if self.known_sq < 0 or not self.fresh_power > 0:
            raise ValueError("need known_sq >= 0 and fresh_power > 0")

    def logpdf(self, y, force_quadrature: bool = False):
        return conditional_output_logpdf(
            y, self.known_sq, self.fresh_power, self.noise,
            force_quadrature=force_quadrature)

    def pdf(self, y, force_quadrature: bool = False):
        return np.exp(self.logpdf(y, force_quadrature=force_quadrature))


def info_density(y, full_sq, known_sq, fresh_power, noise: NoiseModel,
                 nodes: int = 80):
    """Per-observation information density samples.

    ``full_sq`` is the squared magnitude of the complete projection,
    ``known_sq`` that of its matched part. Returns ``(values, n_clamped)``
    where values are ``log f_Z(y - full_sq) - log f_{Y|matched}(y)`` and
    ``n_clamped`` counts denominators lifted to ``LOG_FLOOR``.
    """
    y = np.asarray(y, dtype=float)
    num = noise.logpdf(y - np.asarray(full_sq, dtype=float))
    den = np.atleast_1d(np.asarray(conditional_output_logpdf(
        y, known_sq, fresh_power, noise, nodes=nodes)))
    clamped = ~(den >= LOG_FLOOR)  # catches -inf and nan
    n_clamped = int(np.count_nonzero(clamped))
    den = np.where(clamped, LOG_FLOOR, den)
    vals = np.atleast_1d(num) - den
    return vals, n_clamped


def info_density_sum(y, full_sq, known_sq, fresh_power, noise: NoiseModel,
                     nodes: int = 80):
    """Summed information density over a block of observations.

    Empty blocks sum to zero. Returns ``(total, n_clamped)``.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return 0.0, 0
    vals, n_clamped = info_density(y, full_sq, known_sq, fresh_power, noise,
                                   nodes=nodes)
    return float(np.sum(vals)), n_clamped


def concentration_rate(u):
    """Tail exponent ``u - log(1 + u)`` for ``u > -1``, +inf otherwise."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(u > -1.0, u - np.log1p(u), np.inf)
    return float(out) if out.ndim == 0 else out


def golden_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section maximization of a unimodal ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x))``; converges to the boundary if ``f`` is monotone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < max_iter:
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


def output_law_peak(total_power: float, noise: NoiseModel):
    """Sup of the zero-matched-power output density and its location.

    The density is log-concave (both convolution factors are), so a golden
    search over the hull of the two bulks finds the global mode.
    """
    law = ConditionalOutputLaw(0.0, total_power, noise)
    th = noise.tail_halfwidth()
    ym, logm = golden_max(lambda t: float(law.logpdf(t)), -th, total_power + th,
                          tol=1e-12)
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


def log_moment_objective(t: float, total_power: float, noise: NoiseModel,
                         nodes: int = 64, _peak_cache=None) -> float:
    """Log of ``t * (M+1)^{-t} * integral f^t`` for the zero-matched-power
    output law ``f`` with sup ``M``. Log-concave in ``t``."""
    if not t > 0:
        raise ValueError("t must be positive")
    if _peak_cache is None:
        M, ym = output_law_peak(total_power, noise)
    else:
        M, ym = _peak_cache
    law = ConditionalOutputLaw(0.0, total_power, noise)
    lnM = math.log(M)
    scale = noise.tail_halfwidth() / 8.5
    edges = _power_integral_edges(t, total_power, scale, ym)
    gx, gw = _gl_nodes(nodes)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    ys = a[:, None] + half[:, None] * (gx + 1.0)
    integrand = np.exp(t * (np.asarray(law.logpdf(ys.ravel())).reshape(ys.shape) - lnM))
    val = float(np.sum(half[:, None] * gw * integrand))
    if val <= 0.0:
        return -np.inf
    return math.log(t) - t * math.log1p(M) + t * lnM + math.log(val)


def concentration_moment(total_power: float, noise: NoiseModel,
                         t_lo: float = 1e-3, t_hi: float = 1e3,
                         nodes: int = 64) -> float:
    """Sup over ``t in [t_lo, t_hi]`` of the moment objective (linear scale).

    Golden-section search on ``ln t``; valid because the objective is
    log-concave in ``t``, hence unimodal.
    """
    pk = output_law_peak(total_power, noise)
    obj = lambda lt: log_moment_objective(math.exp(lt), total_power, noise,
                                          nodes=nodes, _peak_cache=pk)
    _, best = golden_max(obj, math.log(t_lo), math.log(t_hi), tol=1e-10)
    best = max(best, obj(math.log(t_lo)), obj(math.log(t_hi)))
    return float(np.exp(best))


def concentration_scale_from_moment(moment: float, noise_peak: float) -> float:
    """Scale constant ``150 * max(2 * moment * (noise_peak + 1), 1)``."""
    return 150.0 * max(2.0 * moment * (noise_peak + 1.0), 1.0)


@dataclass(frozen=True)
class ConcentrationConstants:
    moment: float       # sup-of-moments constant of the output law
    scale: float        # multiplier entering the tail exponent
    noise_peak: float


def concentration_constant(total_power: float, noise: NoiseModel,
                           **moment_kwargs) -> ConcentrationConstants:
    moment = concentration_moment(total_power, noise, **moment_kwargs)
    peak = noise.peak()
    return ConcentrationConstants(
        moment=moment,
        scale=concentration_scale_from_moment(moment, peak),
        noise_peak=peak,
    )


def concentration_tail_bound(n: int, scale: float, mu: float) -> float:
    """Two-sided tail bound ``exp(-n*scale*rate(mu)) + exp(-n*scale*rate(-mu))``."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lo = math.exp(-n * scale * float(concentration_rate(mu)))
    rm = float(concentration_rate(-mu))
    hi = 0.0 if math.isinf(rm) else math.exp(-n * scale * rm)
    return lo + hi
