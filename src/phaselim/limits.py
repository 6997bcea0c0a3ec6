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
                    SignalModel, SortedSignal, _check_power_and_size,
                    floor_count, partition_power_arrays)
from .rng import _check_int

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
_ZOOM_RAMP = np.arange(_ZOOM_POINTS, dtype=float)
_NEIGHBOURS = np.array([-1, 0, 1])

# Most grid entries the threshold search hands the objective in one call:
# a round evaluates its rows in chunks of at most this many alphas (one
# row at least), which bounds the search's temporaries near 1 MB.
_ROW_CHUNK = 2 ** 14

# Most SNR points figure_curves takes; each adds four rows to its one
# search, so this bounds a figure at a few seconds.
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
    v = np.asarray(miss_power, dtype=float)
    w = np.asarray(keep_power, dtype=float)
    if v.shape != w.shape:
        v, w = np.broadcast_arrays(v, w)
    e2h = noise.exp_2h()
    classes = _power_classes(v, e2h)
    offset = e2h / (2.0 * math.pi * math.e)
    q = math.sqrt(e2h)
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
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
            r = v[tiny] / q
            cross[tiny] = (r * (w[tiny] / q)
                           / (r * r + 1.0 / (2.0 * math.pi * math.e)))
    half_log_cross = np.asarray(0.5 * np.log1p(cross))
    if not np.isfinite(cross).all():
        redo = ~np.isfinite(cross)
        # v w (or w / sqrt(exp(2h))) passed the float range, so the cross
        # term came out inf (or nan, at v = 0 where it is 0): take its log
        # from logs of the parts, in units of the noise scale, and log1p(x)
        # as logaddexp(0, log x)
        r = v[redo] / q
        with np.errstate(divide="ignore"):      # log 0 = -inf at v = 0
            log_cross = (np.log(r) + (np.log(w[redo]) - math.log(q))
                         - np.log(r * r + 1.0 / (2.0 * math.pi * math.e)))
        half_log_cross[redo] = 0.5 * np.logaddexp(0.0, log_cross)
    out = (_HALF_LOG_PI_E_2
           + _half_log1p_sq(2.0 * math.pi * math.e, v, e2h, classes)
           + half_log_cross)
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


def _steps_by_count(signal: SignalModel, mode: str) -> bool:
    """Whether the search evaluates only ``alpha = l/k``: floor mode of a
    discrete signal, whose missed power is a step function of alpha. Every
    other query zooms in from the ``grid_step`` grid."""
    return mode == "floor" and not isinstance(signal, GaussianIID)


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
        _check_int("p", self.p, k)
        if self.mode not in ("floor", "asymptotic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if _steps_by_count(self.signal, self.mode):
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


def _smooth_grid(alpha_star: float, grid_step: float) -> np.ndarray:
    """The ``grid_step`` grid from ``alpha_star`` that the zoom starts on,
    with 1 as its last point."""
    alphas = np.arange(alpha_star, 1.0, grid_step)
    # arange can overshoot its stop by rounding (0.1 + 900000 * 1e-6 > 1)
    return np.append(alphas[alphas < 1.0], 1.0)


def _zoom_grids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.linspace(lo[r], hi[r], _ZOOM_POINTS)`` for every row ``r``, in
    numpy's own arithmetic: ``arange * step + lo`` with ``hi`` as the last
    point, and divide-then-multiply only in a row whose step is 0."""
    div = _ZOOM_POINTS - 1
    delta = (hi - lo)[:, None]
    step = delta / div
    grids = _ZOOM_RAMP * step
    if not step.all():
        flat = step[:, 0] == 0.0
        grids[flat] = _ZOOM_RAMP / div * delta[flat]
    grids += lo[:, None]
    grids[:, -1] = hi
    return grids


def _search_max(objective, alphas: np.ndarray, rows: int, zoom: bool):
    """Largest value of each of ``rows`` objectives on the grid ``alphas``
    and where it is, as arrays ``(best_a, best_v)``.

    ``objective(r, a)`` returns the values, shape ``(r.size, m)``, of the
    rows ``r`` (an index array) at ``a``: the shared grid ``alphas`` (1-d)
    in the first round, the rows' own grids (shape ``(r.size, m)``) after
    it. With ``zoom``, each row then searches rounds of ``_ZOOM_POINTS``
    alphas between its round's best point's neighbours (the first and last
    cells included) until they are ``_ZOOM_WIDTH`` apart, and keeps the
    best value it saw; a row whose bracket is that narrow leaves. Each
    round calls ``objective`` on as many rows as keep ``r.size * m``
    within ``_ROW_CHUNK`` (one row at least), and builds the zoom grids
    chunk by chunk too.
    """
    best_a = np.full(rows, math.nan)
    best_v = np.full(rows, -math.inf)
    # the rows still zooming (ascending), the best they have seen, and
    # their brackets (None: the shared grid)
    active, act_a, act_v = np.arange(rows), best_a.copy(), best_v.copy()
    lo = hi = None
    while True:
        chunk = max(1, _ROW_CHUNK // (alphas.size if lo is None
                                      else _ZOOM_POINTS))
        found = [_round_best(objective, active[s:s + chunk], alphas
                             if lo is None else _zoom_grids(lo[s:s + chunk],
                                                            hi[s:s + chunk]))
                 for s in range(0, active.size, chunk)]
        a, v, lo, hi = (found[0] if len(found) == 1
                        else (np.concatenate(x) for x in zip(*found)))
        better = v > act_v
        act_a, act_v = np.where(better, a, act_a), np.where(better, v, act_v)
        if not zoom:
            return act_a, act_v
        wide = hi - lo > _ZOOM_WIDTH
        left = active.size - np.count_nonzero(wide)
        if left:
            done = active[~wide]
            best_a[done], best_v[done] = act_a[~wide], act_v[~wide]
            if left == active.size:
                return best_a, best_v
            active, act_a, act_v, lo, hi = (x[wide] for x in
                                            (active, act_a, act_v, lo, hi))


def _round_best(objective, r: np.ndarray, grids: np.ndarray):
    """One round of rows ``r`` on ``grids`` (1-d: every row's): each row's
    first argmax, the value there, and the alphas beside it (clipped to
    the grid), as ``(alpha, value, lo, hi)``."""
    values = objective(r, grids)
    i = values.argmax(axis=1)
    at = np.minimum(np.maximum(i[:, None] + _NEIGHBOURS, 0),
                    values.shape[1] - 1)
    lo, a, hi = (grids[at] if grids.ndim == 1
                 else grids[np.arange(r.size)[:, None], at]).T
    return a, values[np.arange(r.size), i], lo, hi


_NOT_FINITE = "measurement count is not a finite float"


def _threshold_rows(split, points: int, noise: GaussianNoise,
                    alpha_star: float, alphas: np.ndarray, zoom: bool):
    """Normalized thresholds of ``points`` signals in one row search.

    Point ``q`` owns row ``q``, which maximizes the achievability
    objective ``alpha / L``, and row ``points + q``, which maximizes the
    converse objective ``(alpha - alpha_star) / U``; ``split(r, a)`` gives
    the missed and kept power of rows ``r`` at ``a`` (shapes broadcasting
    to ``(r.size, m)``). Returns ``(v_ach, v_con, a_ach, a_con, errors)``,
    arrays over the points and, per point, the error that ends its query
    (``None`` if none): a lower rate of 0 on the grid, or a value that is
    not a finite float.
    """
    zero = np.zeros(points, dtype=bool)

    def rows(x, part):
        # a 1-d x (the shared grid, or a split that ignores the rows) is
        # every row's
        return x[part] if x.ndim == 2 else x

    def objective(r, a):
        miss, keep = split(r, a)
        out = np.empty((r.size, a.shape[-1]))
        k = int(np.searchsorted(r, points))     # r ascends: ach rows first
        ach, con = slice(None, k), slice(k, None)
        if k:
            lower = mi_pair_lower(rows(miss, ach), noise)
            if a.ndim == 1:
                zero[r[ach]] = np.any(lower == 0.0, axis=-1)
            out[ach] = rows(a, ach) / lower
        if k < r.size:
            out[con] = ((rows(a, con) - alpha_star)
                        / mi_pair_upper(rows(miss, con), rows(keep, con),
                                        noise))
        return out

    # a lower rate of 0, or a value past the float range, is one of the
    # errors below
    with np.errstate(divide="ignore", over="ignore"):
        best_a, best_v = _search_max(objective, alphas, 2 * points, zoom)
    v_ach, v_con = best_v[:points], best_v[points:]
    errors = [None] * points
    for q in range(points):
        if zero[q]:
            # the missed power grows with alpha, so it is least at
            # alpha_star
            if split(np.array([q]), np.array([alpha_star]))[0] == 0.0:
                errors[q] = ThresholdInfeasibleError(
                    "missable power vanishes on the optimization range")
            else:
                errors[q] = FloatingPointError(
                    "lower rate underflows to 0 at positive missed power")
        elif not (math.isfinite(v_ach[q]) and math.isfinite(v_con[q])):
            errors[q] = FloatingPointError(_NOT_FINITE)
    return v_ach, v_con, best_a[:points], best_a[points:], errors


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
    on the best ``grid_step`` grid point. Both objectives are two rows of
    one search (see ``_search_max``), whose first round also supplies the
    lower rates the zero-rate check reads.

    At high power (i.i.d. Gaussian model) both maximizers tend to
    ``alpha = 1``; the achievability one sits about ``exp(-L(1))`` below
    it (``L`` the lower rate), 2.1e-6 at ``c_beta / sigma = 1e6``. The
    ratio ``n_ach / n_con`` tends to ``1 / (1 - alpha_star)`` only as a
    limit: the excess ``(n_ach / n_con) (1 - alpha_star) - 1`` is about
    ``log(pi e / 2) / log(c_beta / sigma)``, so it shrinks only like ``1 /
    log`` of the power (for ``alpha_star = 0.1`` the ratio is within 5% of
    the limit only above ``c_beta / sigma ~ 8.4e12``).
    """
    signal, alpha_star = query.signal, query.alpha_star
    k = signal.k
    zoom = not _steps_by_count(signal, query.mode)
    if zoom:
        alphas = _smooth_grid(alpha_star, query.grid_step)
    else:
        # only alpha = l/k for l = alpha_star k, ..., k can be a maximizer;
        # alpha_star itself stands for the first, so no reported alpha
        # falls below it
        alphas = np.append(alpha_star, np.arange(
            floor_count(alpha_star, k) + 1, k + 1) / k)
    split = _power_split(signal, query.mode)
    v_ach, v_con, a_ach, a_con, errors = _threshold_rows(
        lambda r, a: split(a), 1, query.noise, alpha_star, alphas, zoom)
    if errors[0] is not None:
        raise errors[0]
    v_ach, v_con = float(v_ach[0]), float(v_con[0])
    budget = k * math.log(query.p / k)
    n_ach, n_con = v_ach * budget, v_con * budget
    if not (math.isfinite(n_ach) and math.isfinite(n_con)):
        raise FloatingPointError(_NOT_FINITE)
    return ThresholdResult(
        n_ach=n_ach,
        n_con=n_con,
        alpha_ach=float(a_ach[0]),
        alpha_con=float(a_con[0]),
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


def figure_curves(alpha_star: float = 0.1, snr_db_values=None,
                  sigma: float = 1.0,
                  grid_step: float = 1e-3) -> dict[str, np.ndarray]:
    """Normalized threshold curves versus SNR.

    Returns, for ``"flat"`` and for ``"gaussian"``, rows ``(snr_db,
    n_ach_norm, n_con_norm)`` where the normalization divides out
    ``k * log(p/k)``. Curves use the limiting (asymptotic) forms, so they
    are size-free. Every SNR point of both curves is searched in one row
    search (four rows a point), with the values of one query per point;
    a grid with several bad points raises the error of the first, flat
    curve first, as one query after another would.
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
    powers = np.array([c_beta_from_snr_db(float(db), sigma)
                       for db in snr_db_values])
    # point q is SNR point q % n of the flat curve, then of the Gaussian
    # one; rows q and 2n + q are its two objectives
    n = snr_db_values.size
    row_power = np.tile(powers, 4)
    row_tail = np.tile(np.repeat([False, True], n), 2)

    def split(r, a):
        # the limiting forms ignore k: the flat model misses alpha of the
        # power, the Gaussian one tail_power_fraction(alpha)
        tail = row_tail[r, None]
        f = np.where(tail, tail_power_fraction(a), a) if tail.any() else a
        return _split_total(row_power[r, None], f)

    v_ach, v_con, _, _, errors = _threshold_rows(
        split, 2 * n, noise, alpha_star, _smooth_grid(alpha_star, grid_step),
        True)
    for q, error in enumerate(errors):
        _check_power_and_size(powers[q % n], 1)     # as the signal models do
        if error is not None:
            raise error
    return {kind: np.column_stack((snr_db_values, v_ach[i * n:(i + 1) * n],
                                   v_con[i * n:(i + 1) * n]))
            for i, kind in enumerate(("flat", "gaussian"))}


def write_figure_csv(rows: np.ndarray, path) -> None:
    """``snr_db,n_ach_norm,n_con_norm`` CSV with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("snr_db,n_ach_norm,n_con_norm\n")
        for db, ach, con in rows:
            fh.write(f"{db:.17g},{ach:.17g},{con:.17g}\n")
