"""Mutual-information proxies and measurement-count thresholds.

For a miss fraction ``alpha`` the sorted signal splits into the power a
decoder may miss and the power it must keep; the pairwise
mutual-information between the missed coordinates and one observation is
sandwiched between two closed forms (entropy-power below, reverse
entropy-power plus a max-entropy variance bound above). Dividing the
support-counting budget ``k * log(p/k)`` by those forms and maximizing over
``alpha`` yields the achievability threshold (enough measurements above)
and the converse threshold (failure below).

Everything here is leading-order in ``k -> infinity`` with
``log(p/k) -> infinity``; results carry a regime note saying so.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .densities import GaussianNoise
from .model import (_FLOOR_SNAP, DiscreteFlat, DiscreteGeneral, GaussianIID,
                    SignalModel, SortedSignal, floor_count,
                    partition_power_arrays)

__all__ = [
    "tail_power_fraction",
    "mi_pair_lower",
    "mi_pair_upper",
    "ThresholdQuery",
    "ThresholdResult",
    "ThresholdInfeasibleError",
    "measurement_thresholds",
    "snr_db",
    "c_beta_from_snr_db",
    "figure_curves",
    "write_figure_csv",
    "MAX_SNR_GRID",
]

REGIME_NOTE = ("asymptotic regime: thresholds are leading-order as k and "
               "p/k grow; finite-size corrections are not modeled")

_HALF_LOG_PI_E_2 = 0.5 * math.log(math.pi * math.e / 2.0)

# tail_power_fraction sums its series below this alpha; the coefficients
# 1 / (n (n - 1)) for n = 8 down to 2 are in Horner order, and the first
# omitted term is about 3e-23 relative at the switch.
_TAIL_SERIES_BELOW = 1e-3
_TAIL_SERIES = tuple(1.0 / (n * (n - 1)) for n in range(8, 1, -1))

# Missed power, in units of the noise scale sqrt(exp(2h)), past which the
# rate forms are evaluated in log-scaled form: the plain forms square it,
# and the square overflows near 1e154. Far below that cutoff, at every
# power a query uses in practice, the plain forms run unchanged. A missed
# power past _SCALED_POWER is scaled at any noise scale (it only matters
# for sigma above about 1e49).
_SCALED_RATIO = 1e100
_SCALED_POWER = 1e150
# Missed power whose square is no longer a normal float: below it the rate
# forms square v / sqrt(exp(2h)) instead, which keeps every digit down to
# the same SNR at any noise scale.
_TINY_POWER = math.sqrt(np.finfo(float).tiny)

# Most alpha grid entries a threshold search may use. Several float arrays
# of the grid's length are live at once, so this bounds the search memory.
_MAX_ALPHA_GRID = 1e7

# The smooth searches zoom in on the best grid point: each round evaluates
# _ZOOM_POINTS alphas across the best point's two neighbours, so the next
# bracket is 1/16 as wide, until it is narrower than _ZOOM_WIDTH.
_ZOOM_POINTS = 33
_ZOOM_WIDTH = 1e-12

# Most SNR points figure_curves takes; each costs one threshold search per
# curve kind (about 1 ms), so this bounds a figure at tens of seconds.
MAX_SNR_GRID = 10000


class ThresholdInfeasibleError(ValueError):
    """No finite measurement count: the missable power is zero somewhere on
    the optimization range (e.g. an all-zero signal)."""


def tail_power_fraction(alpha):
    """Limiting fraction of total power in the weakest ``alpha`` fraction of
    i.i.d. complex Gaussian coefficients.

    The squared magnitudes follow the unit-mean exponential law, whose
    lowest ``alpha`` quantile carries ``g(alpha) = alpha + (1 - alpha)
    log(1 - alpha)`` of the mean power. Below ``alpha = 1e-3`` the two
    terms cancel to about ``alpha^2 / 2``, so ``g`` is summed there from its
    series ``sum_{n>=2} alpha^n / (n (n - 1))`` instead. Endpoints are
    exact: 0 at 0 and 1 at 1.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    out = np.ones_like(a)
    small = a < _TAIL_SERIES_BELOW
    inner = ~small & (a < 1.0)
    s = a[small]
    series = np.zeros_like(s)
    for coef in _TAIL_SERIES:
        series = series * s + coef
    out[small] = s * s * series
    ai = a[inner]
    out[inner] = ai + (1.0 - ai) * np.log1p(-ai)
    return float(out[0]) if scalar else out


def _power_classes(v: np.ndarray, e2h: float):
    """``None`` when every missed power takes the plain rate forms, else the
    masks ``(big, tiny)``: past ``_SCALED_RATIO`` noise scales or past
    ``_SCALED_POWER``, and below ``_TINY_POWER``."""
    cut = min(_SCALED_RATIO * math.sqrt(e2h), _SCALED_POWER)
    if v.size and v.min() >= _TINY_POWER and v.max() <= cut:
        return None
    return v > cut, v < _TINY_POWER


def _half_log1p_sq(coef: float, v: np.ndarray, e2h: float, classes):
    """``0.5 log1p(coef v^2 / e2h)``. Entries flagged ``big`` use the equal
    form ``log v + 0.5 log(coef / e2h) + 0.5 log1p(e2h / (coef v^2))``,
    which never squares ``v``; entries flagged ``tiny`` square ``v /
    sqrt(e2h)``, which stays normal where ``v^2`` would not."""
    if classes is None:
        return 0.5 * np.log1p(coef * v * v / e2h)
    big, tiny = classes
    out = np.empty(v.shape)
    mid = ~(big | tiny)
    s = v[mid]
    out[mid] = 0.5 * np.log1p(coef * s * s / e2h)
    b = v[big]
    out[big] = (np.log(b) + 0.5 * math.log(coef / e2h)
                + 0.5 * np.log1p(e2h / coef / b / b))
    r = v[tiny] / math.sqrt(e2h)
    out[tiny] = 0.5 * np.log1p(coef * r * r)
    return out


def mi_pair_lower(miss_power, noise: GaussianNoise):
    """Entropy-power lower form ``0.5 log(1 + 4 v^2 / exp(2h))``."""
    v = np.asarray(miss_power, dtype=float)
    e2h = noise.exp_2h()
    out = _half_log1p_sq(4.0, v, e2h, _power_classes(v, e2h))
    return float(out) if out.ndim == 0 else out


def mi_pair_upper(miss_power, keep_power, noise: GaussianNoise):
    """Reverse-entropy-power upper form: max-entropy term, cross-power
    term, and the additive ``0.5 log(pi e / 2)`` gap."""
    v, w = np.broadcast_arrays(np.asarray(miss_power, dtype=float),
                               np.asarray(keep_power, dtype=float))
    e2h = noise.exp_2h()
    classes = _power_classes(v, e2h)
    offset = e2h / (2.0 * math.pi * math.e)
    if classes is None:
        cross = v * w / (v * v + offset)
    else:
        big, tiny = classes
        cross = np.empty(v.shape)
        mid = ~(big | tiny)
        s, t = v[mid], w[mid]
        cross[mid] = s * t / (s * s + offset)
        # numerator and denominator divided by v^2
        b = v[big]
        cross[big] = (w[big] / b) / (1.0 + offset / b / b)
        # ... and by exp(2h), of which offset is 1 / (2 pi e)
        q = math.sqrt(e2h)
        r = v[tiny] / q
        cross[tiny] = (r * (w[tiny] / q)
                       / (r * r + 1.0 / (2.0 * math.pi * math.e)))
    out = (_HALF_LOG_PI_E_2
           + _half_log1p_sq(2.0 * math.pi * math.e, v, e2h, classes)
           + 0.5 * np.log1p(cross))
    return float(out) if out.ndim == 0 else out


def _check_alpha_search(alpha_star: float, grid_step: float) -> None:
    """Reject a maximization range or grid step the alpha search cannot use."""
    if not 0.0 < alpha_star < 1.0:
        raise ValueError("alpha_star must lie in (0, 1)")
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError("grid_step must be finite and positive")
    if (1.0 - alpha_star) / grid_step > _MAX_ALPHA_GRID:
        raise ValueError(f"grid_step {grid_step!r} gives more than "
                         f"{_MAX_ALPHA_GRID:.0e} alpha grid points")


@dataclass(frozen=True)
class ThresholdQuery:
    p: int
    signal: SignalModel
    noise: GaussianNoise = field(default_factory=GaussianNoise)
    alpha_star: float = 0.1
    mode: str = "floor"          # ignored for GaussianIID (always limiting)
    grid_step: float = 1e-3

    def __post_init__(self):
        _check_alpha_search(self.alpha_star, self.grid_step)
        k = self.signal.k
        if self.p < k:
            raise ValueError("need k <= p")
        if self.mode not in ("floor", "asymptotic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "floor" and not isinstance(self.signal, GaussianIID):
            # the search evaluates alpha = l/k from l = alpha_star * k on
            count = floor_count(self.alpha_star, k)
            whole = abs(self.alpha_star * k - count) <= _FLOOR_SNAP
            if count < 1 or not whole:
                raise ValueError(f"floor mode needs alpha_star * k to be a "
                                 f"whole count >= 1, got {self.alpha_star!r} "
                                 f"* {k}")


@dataclass(frozen=True)
class ThresholdResult:
    n_ach: float
    n_con: float
    alpha_ach: float
    alpha_con: float
    n_ach_norm: float
    n_con_norm: float
    regime_note: str = REGIME_NOTE

    def to_dict(self) -> dict:
        return asdict(self)


def _split_total(c: float, missed_fraction):
    f = np.asarray(missed_fraction, dtype=float)
    return c * f, c * (1.0 - f)


def _power_split(signal: SignalModel, mode: str):
    """Vectorized ``alpha -> (miss_power, keep_power)``: how a miss fraction
    splits the signal power is all that differs between models."""
    if isinstance(signal, GaussianIID):
        return lambda a: _split_total(signal.c_beta, tail_power_fraction(a))
    if isinstance(signal, DiscreteFlat) and mode == "asymptotic":
        return lambda a: _split_total(signal.c_beta, a)
    if isinstance(signal, DiscreteFlat):
        sorted_sig = SortedSignal.flat(signal.c_beta, signal.k)
    elif isinstance(signal, DiscreteGeneral):
        sorted_sig = SortedSignal(np.asarray(signal.values, dtype=complex))
    else:
        raise TypeError(f"unknown signal model {type(signal).__name__}")
    return lambda a: partition_power_arrays(sorted_sig, a, mode)


def _search_max(objective, alphas: np.ndarray, zoom: bool):
    """Largest value of ``objective`` at ``alphas`` and where it is. With
    ``zoom``, rounds of ``_ZOOM_POINTS`` alphas then search between the
    round's best point's neighbours (the first and last cells included)
    until they are ``_ZOOM_WIDTH`` apart; the best value seen is kept."""
    best_a, best_v = math.nan, -math.inf
    while True:
        values = objective(alphas)
        i = int(np.argmax(values))
        if values[i] > best_v:
            best_a, best_v = float(alphas[i]), float(values[i])
        lo, hi = alphas[max(i - 1, 0)], alphas[min(i + 1, alphas.size - 1)]
        if not zoom or hi - lo <= _ZOOM_WIDTH:
            return best_a, best_v
        alphas = np.linspace(lo, hi, _ZOOM_POINTS)


def _check_finite(*counts: float) -> None:
    if not all(math.isfinite(c) for c in counts):
        raise FloatingPointError("measurement count is not a finite float")


def _normalized_thresholds(signal: SignalModel, mode: str,
                           noise: GaussianNoise, alpha_star: float,
                           grid_step: float):
    split = _power_split(signal, mode)
    zoom = mode != "floor" or isinstance(signal, GaussianIID)
    if zoom:
        alphas = np.arange(alpha_star, 1.0, grid_step)
        # arange can overshoot its stop by rounding (0.1 + 900000 * 1e-6 > 1)
        alphas = np.append(alphas[alphas < 1.0], 1.0)
    else:
        # the missed power is a step function of alpha, so only alpha = l/k
        # for l = alpha_star k, ..., k can be a maximizer; alpha_star itself
        # stands for the first, so no reported alpha falls below it
        k = signal.k
        alphas = np.append(alpha_star, np.arange(
            floor_count(alpha_star, k) + 1, k + 1) / k)
    if np.any(mi_pair_lower(split(alphas)[0], noise) == 0.0):
        # the missed power grows with alpha, so it is least at alpha_star
        if split(alpha_star)[0] == 0.0:
            raise ThresholdInfeasibleError(
                "missable power vanishes on the optimization range")
        raise FloatingPointError(
            "lower rate underflows to 0 at positive missed power")

    def ach(a):
        with np.errstate(over="ignore"):    # _check_finite refuses an inf
            return np.asarray(a) / mi_pair_lower(split(a)[0], noise)

    def con(a):
        return (np.asarray(a) - alpha_star) / mi_pair_upper(*split(a), noise)

    a_ach, v_ach = _search_max(ach, alphas, zoom)
    a_con, v_con = _search_max(con, alphas, zoom)
    _check_finite(v_ach, v_con)
    return v_ach, v_con, a_ach, a_con


def measurement_thresholds(query: ThresholdQuery) -> ThresholdResult:
    """Achievability and converse measurement counts for the query.

    ``n_ach``: above this count the decoder's miss fraction stays below
    ``alpha_star`` with vanishing error probability; ``n_con``: below it no
    decoder can. Both are maxima over ``alpha in [alpha_star, 1]``. Raises
    ``FloatingPointError`` when a count leaves the float range (a missed
    power whose square underflows) and ``ThresholdInfeasibleError`` when
    the missable power is zero.

    In floor mode a sorted signal's missed power is constant on each
    ``[l/k, (l+1)/k)``, and the discrete-signal bounds of arXiv 1901.10647
    are a maximum over the number ``l`` of missed support entries, with
    the counting term and the mutual information of the same ``l``. So
    the search evaluates exactly ``alpha = l/k``, for ``l = alpha_star k,
    ..., k``, and does not use ``grid_step``. The smooth objectives zoom in
    on the best ``grid_step`` grid point (see ``_search_max``).

    At high power (i.i.d. Gaussian model) both maximizers tend to
    ``alpha = 1``; the achievability one sits about ``exp(-L(1))`` below
    it (``L`` the lower rate), 2.1e-6 at ``c_beta / sigma = 1e6``. The
    ratio ``n_ach / n_con`` tends to ``1 / (1 - alpha_star)`` only as a
    limit: the excess ``(n_ach / n_con) (1 - alpha_star) - 1`` is about
    ``log(pi e / 2) / log(c_beta / sigma)``, so it shrinks only like ``1 /
    log`` of the power (for ``alpha_star = 0.1`` the ratio is within 5% of
    the limit only above ``c_beta / sigma ~ 8.4e12``).
    """
    v_ach, v_con, a_ach, a_con = _normalized_thresholds(
        query.signal, query.mode, query.noise, query.alpha_star,
        query.grid_step)
    k = query.signal.k
    budget = k * math.log(query.p / k)
    n_ach, n_con = v_ach * budget, v_con * budget
    _check_finite(n_ach, n_con)
    return ThresholdResult(
        n_ach=n_ach,
        n_con=n_con,
        alpha_ach=a_ach,
        alpha_con=a_con,
        n_ach_norm=v_ach,
        n_con_norm=v_con,
    )


def snr_db(signal: SignalModel, noise: GaussianNoise) -> float:
    """Caption convention: ``10 log10(2 * power^2 / sigma^2)`` where power
    is the (expected) total signal power. Base-10 decibels; the i.i.d.
    Gaussian model drops its vanishing ``1/k`` correction. Taken in logs,
    so no square overflows or underflows."""
    if not isinstance(signal, (DiscreteFlat, DiscreteGeneral, GaussianIID)):
        raise TypeError(f"unknown signal model {type(signal).__name__}")
    return 10.0 * (math.log10(2.0) + 2.0 * math.log10(signal.total_power)
                   - 2.0 * math.log10(noise.sigma))


def c_beta_from_snr_db(db: float, sigma: float = 1.0) -> float:
    """Inverse of :func:`snr_db` for the flat and Gaussian models. Raises
    ``ValueError`` when the power is not a finite positive float."""
    try:
        c = sigma * math.sqrt(10.0 ** (db / 10.0) / 2.0)
    except OverflowError:
        c = math.inf
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"SNR {db!r} dB gives no finite positive signal "
                         "power")
    return c


_CURVE_MODELS = {"flat": DiscreteFlat, "gaussian": GaussianIID}


def figure_curves(alpha_star: float = 0.1, snr_db_values=None,
                  sigma: float = 1.0,
                  grid_step: float = 1e-3) -> dict[str, np.ndarray]:
    """Normalized threshold curves versus SNR.

    Returns, for ``"flat"`` and for ``"gaussian"``, rows ``(snr_db,
    n_ach_norm, n_con_norm)`` where the normalization divides out
    ``k * log(p/k)``. Curves use the limiting (asymptotic) forms, so they
    are size-free.
    """
    if snr_db_values is None:
        snr_db_values = np.arange(-10.0, 41.0, 1.0)
    snr_db_values = np.asarray(snr_db_values, dtype=float)
    if snr_db_values.size == 0 or not np.all(np.isfinite(snr_db_values)):
        raise ValueError("snr_db_values must be a non-empty set of finite "
                         "values")
    if snr_db_values.size > MAX_SNR_GRID:
        raise ValueError(f"more than {MAX_SNR_GRID} SNR points")
    _check_alpha_search(alpha_star, grid_step)
    noise = GaussianNoise(sigma)
    c_values = [c_beta_from_snr_db(float(db), sigma) for db in snr_db_values]
    out: dict[str, np.ndarray] = {}
    for kind, model in _CURVE_MODELS.items():
        rows = np.empty((snr_db_values.size, 3))
        for i, (db, c) in enumerate(zip(snr_db_values, c_values)):
            signal = model(c_beta=c, k=1)   # the limiting forms ignore k
            v_ach, v_con, _, _ = _normalized_thresholds(
                signal, "asymptotic", noise, alpha_star, grid_step)
            rows[i] = (db, v_ach, v_con)
        out[kind] = rows
    return out


def write_figure_csv(rows: np.ndarray, path) -> None:
    """``snr_db,n_ach_norm,n_con_norm`` CSV with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("snr_db,n_ach_norm,n_con_norm\n")
        for db, ach, con in rows:
            fh.write(f"{db:.17g},{ach:.17g},{con:.17g}\n")
