"""Exhaustive-search recovery simulator for tiny problem sizes.

Intended for sanity-checking the threshold story at sizes where exact
maximum-likelihood decoding over all ``C(p, k)`` candidate supports is
affordable (the config guard caps it at 1e4 candidates). The signal model
fixes the decoder (``_decoder_for``), and both decoders score a candidate
by its likelihood averaged over coefficient draws:

``flat-ml``
    Exact ML when every support coefficient is the same known value, the
    one "draw".

``mc-marginal``
    For i.i.d. Gaussian coefficients, marginalize the likelihood over
    coefficient draws by Monte Carlo, with common random numbers (one
    shared draw block scored against every candidate).

Ties resolve to the lexicographically smallest candidate, which makes the
zero-measurement limit exactly analyzable.

Cost and memory of one decode: candidates run in super-chunks whose
``candidates x mc_samples`` log-likelihoods fit in ``_SCORE_ELEMENTS``
doubles (2 MB), and one log-mean-exp per super-chunk runs in place. One of
two forms fills them, picked per decode from ``(k, n)`` by
``_lifted_pays``; a simulation cell scores its flat-ml trials in blocks
(trial blocks, below):

direct
    Per super-chunk, the products ``conj(x[:, c]) * draw[j]`` of every
    column it takes and every slot are formed once per block of draws, in
    a table of at most ``_CHUNK_ELEMENTS`` products (one draw's ``k p n``
    if that is more). Per (candidate, draw, row) element a chunk then makes
    ``k`` gathers and six arithmetic passes, and the Gaussian
    log-likelihood, without its normalizing term, is taken once per
    (candidate, draw) from the sum of squared residuals: ``O(C m n k)``
    for ``C`` candidates and ``m`` draws. flat-ml, with its one draw,
    always takes this form.

lifted
    The lifting of PhaseLift (Candes, Strohmer and Voroninski, arXiv
    1109.4499), ``|x^H b|^2 = <x x^H, b b^H>``, makes a row's intensity
    linear in ``k^2`` real features of the candidate's sensing entries.
    With the observation prepended, the summed squared residual of a
    (candidate, draw) pair is a quadratic form in the draw's features,
    whose ``(k^2 + 1)(k^2 + 2) / 2`` Gram coefficients each candidate
    sums over its rows once: a setup of ``O(C n k^4)``, then ``O(k^4)``
    per (candidate, draw) whatever ``n``, ``O(C m k^4)`` in all. It pays
    from about 3 rows for ``k <= 2``, 4 for ``k = 3`` and 8 for ``k = 4``
    (256 draws). Where the expanded square may have cancelled (a draw that
    fits a candidate's rows to within the rounding of the expansion) or
    overflowed, the candidate is scored directly instead.

trial blocks
    Every trial of a cell has the same ``n``, ``p`` and ``k``, and
    flat-ml's one known draw is the same in all of them. So ``_run_cell``
    draws a block of trials, each from its own stream, and stages their
    sensing matrices and observations in the workspace. Trial ``t`` of cell
    ``n_idx`` draws from the stream that ``substream(master_seed, n_idx,
    t)`` gives, bit for bit: ``rng._trial_streams`` derives the PCG64
    states of 256 trials at a time by ``SeedSequence``'s own hashing,
    written as array arithmetic, and reseeds one generator per cell in
    place. Each trial calls ``sample_support``, ``sample_signal_vector``
    (the flat vector, which draws nothing, is built once per cell),
    ``sample_circular_gaussian`` and ``observe``, in that order, and stages
    its ``x`` and ``y`` in the block. The cell then scores the whole block
    in one direct-form pass with a leading trial axis: a pass's fixed numpy
    call cost (about 20 ufunc calls and 8 workspace requests) is paid once
    per block, not once per trial. A trial errs when its decoded support
    misses at least ``floor(alpha_star k)`` of the ``k`` true indices, and
    so adds as many; the errors are counted from the true and decoded index
    arrays. A block holds ``max(1, _CHUNK_ELEMENTS // (max(C(p, k), k p) *
    max(n, 1)))`` trials (``_trial_block``), so that its projections and
    its product table each fit one chunk budget: 7 trials at ``p = 10``,
    ``k = 2``, ``n = 50``, 72 at ``n = 5`` and one at 9,880 candidates.
    Each (candidate, trial) sum runs over the contiguous rows of that trial
    alone, so a block scores every trial bit for bit as its own decode
    does, a block of one trial included. An mc-marginal block is one trial:
    it takes its Monte Carlo coefficient draws from the trial's stream
    after its data and scores them as ``decode`` does (in the form
    ``_lifted_pays`` picks), without ``decode``'s config checks, which
    ``SimConfig`` has made once.

Every pass writes into a buffer of a per-thread workspace that is grown on
demand and reused by later decodes, so a chunk allocates nothing of its
own size; fresh arrays of that size were mapped from the system and
faulted in again on every chunk. The workspace holds at most
``_SCORE_ELEMENTS`` doubles of log-likelihoods, the direct form's eight
buffers of at most ``_CHUNK_ELEMENTS`` elements (the product table, the
tiled draws of one slot, the tiled observations, two complex and two
float chunk buffers and the residual sums), the lifted form's four (the
super-chunk's Gram coefficients, which bound it to ``_CHUNK_ELEMENTS``
coefficients, and the slot-pair products, their right-hand factors and the
features of one setup chunk) and a cell's staged trial block (sensing
matrices and observations, two more). A pass needs more only when
``mc_samples`` passes ``_SCORE_ELEMENTS``, or ``k p n``, ``n p``, ``n``,
the lifted form's ``(k^2 + 1) n`` or its coefficient count passes
``_CHUNK_ELEMENTS``; it then gets a fresh array that is not kept. So a
thread holds at most 4.625 MiB for as long as it lives, whatever
``C(p, k)`` or the number of trials. A decode, or a block, still
allocates arrays the size of its ``x`` (the conjugate), of the candidate
list (column offsets, scores) and, in the lifted form, of the draws'
``(k^2 + 1)(k^2 + 2) / 2`` weights each; each trial's draws (its ``x``,
coefficients and noise) are fresh arrays too, and a cell's streams hold
one chunk of 256 trials' key words (8 kB).
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .densities import GaussianNoise, _check_noise
from .model import (DiscreteFlat, DiscreteGeneral, GaussianIID, SignalModel,
                    _check_signal_model, floor_count, observe,
                    sample_signal_vector, sample_support)
from .rng import (_check_int, _trial_streams, parallel_map,
                  sample_circular_gaussian)

__all__ = [
    "SimConfig",
    "ErrorCurve",
    "decode",
    "error_curve",
    "pava_nonincreasing",
    "isotonic_residual",
    "MAX_CANDIDATES",
]

MAX_CANDIDATES = 10000
# Most projections (candidates x draws x rows) one scoring chunk holds, and
# most products (slots x columns x draws x rows) one draw block's table
# holds; the chunk's other temporaries are of the same size. Larger chunks
# leave the cache and were measured slower (2^15 and up).
_CHUNK_ELEMENTS = 1 << 14
# Most log-likelihoods (candidates x draws) one super-chunk of candidates
# holds before their log-mean-exp, 2 MB. Each super-chunk rebuilds the
# product table of the columns it takes, which costs about p / candidates
# of its gathers; smaller super-chunks were measured slower.
_SCORE_ELEMENTS = 1 << 18
# A lifted sum of squared residuals below this fraction of its rounding
# scale (see ``_lifted_draw_terms``) is scored directly instead.
_LIFT_FLOOR = 2.0 ** -16
# Log-mean-exp terms below exp(_EXP_FLOOR) are raised to it before exp.
_EXP_FLOOR = -700.0
# Largest signal power, and power over noise sigma, a simulation takes (the
# bound GaussianNoise puts on sigma). Past about 1e155 every candidate's
# summed squared residual overflows, all scores tie at -inf, and the first
# candidate wins: mc-marginal read pe near 1 from c_beta 1e155 (p 6, k 2,
# sigma 1), flat-ml from 1e170.
_POWER_MAX = 1e150


class _Workspace:
    """Named scoring buffers, grown on demand and reused across decodes.

    A buffer's contents are never read before a pass writes them, so a
    score does not depend on what the workspace held before. A request
    past the buffer's budget gets a fresh array that is not kept.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """An uninitialized contiguous ``shape`` view of buffer ``name``."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            budget = _SCORE_ELEMENTS if name == "loglik" else _CHUNK_ELEMENTS
            if size > budget:
                return np.empty(shape, dtype)
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_local = threading.local()


def _thread_workspace() -> _Workspace:
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = _Workspace()
    return ws


@functools.cache
def _candidates(p: int, k: int) -> np.ndarray:
    """All size-``k`` supports of ``{0..p-1}``, lexicographic, read-only."""
    cands = np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
    cands.flags.writeable = False
    return cands


def _lifted_pays(k: int, n: int, m: int) -> bool:
    """Whether the lifted form scores a decode of ``m`` draws, ``k`` slots
    and ``n`` rows faster than the direct form.

    Per (candidate, draw) the lifted form makes about ``k^2 (k^2 + 3) / 2``
    multiply-adds and the direct form ``n (k + 6)`` passes, a pass costing
    about two multiply-adds. Timed with 256 draws, the two forms
    alternating, the lifted form took 1.05x the direct time at ``(p, k,
    n)`` = (12, 4, 7) and 1.09x at (14, 3, 3), then 0.97x at (12, 4, 8)
    and 0.78x at (14, 3, 4). Below 3 rows many draws fit every row almost
    exactly, and the lifted form passes most candidates on to the direct
    one: (12, 2, 2) took 1.04x, (12, 2, 3) 0.67x. One draw (flat-ml)
    leaves the setup nothing to amortize.
    """
    return m > 1 and n >= 3 and k * k * (k * k + 3) < 4 * n * (k + 6)


def _decoder_for(signal: SignalModel) -> tuple[str, float]:
    """The decoder a signal model fixes, and the scale of its draws:
    ``flat-ml`` for one known coefficient value (``DiscreteFlat``, or
    ``DiscreteGeneral`` with a single value), scaled by that value's
    squared magnitude; ``mc-marginal`` for ``GaussianIID``, whose draws
    carry their power, scaled by 1. Any other signal, such as a
    multi-valued ``DiscreteGeneral``, is refused."""
    _check_signal_model(signal)
    if isinstance(signal, GaussianIID):
        return "mc-marginal", 1.0
    if isinstance(signal, DiscreteFlat):
        return "flat-ml", signal.c_beta / signal.k
    if isinstance(signal, DiscreteGeneral) and len(set(signal.values)) == 1:
        return "flat-ml", abs(signal.values[0]) ** 2
    raise ValueError(f"no decoder for {signal!r}: flat-ml needs one known "
                     "coefficient value, mc-marginal the Gaussian iid model")


def _decoder_draws(signal: SignalModel, mc_samples: int,
                   rng: np.random.Generator | None):
    """The ``(draws, scale)`` a decode averages its likelihood over:
    flat-ml's one unit draw, or ``mc_samples`` draws of mc-marginal's
    coefficients from ``rng``."""
    decoder, scale = _decoder_for(signal)
    if decoder == "flat-ml":
        return np.ones((1, signal.k)), scale
    if rng is None:
        raise ValueError("mc-marginal needs an rng for its draws")
    return sample_circular_gaussian(rng, (mc_samples, signal.k),
                                    power=signal.sigma_beta_sq), scale


def _check_decode(p: int, signal: SignalModel, noise: GaussianNoise,
                  mc_samples: int) -> str:
    """The signal's decoder, once ``SimConfig``'s or ``decode``'s decodes
    are affordable: 1 to ``MAX_CANDIDATES`` candidates, at least one draw,
    and a power, and power over sigma, within ``_POWER_MAX``."""
    decoder, _ = _decoder_for(signal)
    _check_noise(noise)
    _check_int("p", p, signal.k)
    count = math.comb(p, signal.k)
    if count > MAX_CANDIDATES:
        raise ValueError(f"C(p,k) = {count} must lie in [1, {MAX_CANDIDATES}]")
    _check_int("mc_samples", mc_samples, 1)
    power = signal.total_power
    if not (power <= _POWER_MAX and power / noise.sigma <= _POWER_MAX):
        raise ValueError(f"signal power {power!r} must not pass "
                         f"{_POWER_MAX:g}, nor {_POWER_MAX:g} times "
                         f"sigma {noise.sigma!r}")
    return decoder


def _trial_block(p: int, k: int, n: int) -> int:
    """Flat-ml trials of ``n`` rows that one direct-form pass scores: their
    ``C(p, k)`` projections of every row, and their ``k p`` product-table
    columns of every row, fit in one chunk budget (at least one trial)."""
    return max(1, _CHUNK_ELEMENTS // (max(math.comb(p, k), k * p) * max(n, 1)))


def decode(x: np.ndarray, y: np.ndarray, signal: SignalModel,
           noise: GaussianNoise, decoder: str = "flat-ml",
           mc_samples: int = 256,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Pick the highest-scoring size-``k`` support for observations ``y``,
    as its sorted index array. ``decoder`` must be the one the signal
    model fixes. ``x`` must be a finite ``(n, p)`` matrix and ``y`` a
    finite vector of its ``n`` rows, ``n = 0`` included."""
    x, y = np.asarray(x), np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-d, got shape {x.shape}")
    if y.shape != x.shape[:1]:
        raise ValueError(f"y must be 1-d with x's {x.shape[0]} rows, got "
                         f"shape {y.shape}")
    for name, a in (("x", x), ("y", y)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    p = x.shape[1]
    fixed = _check_decode(p, signal, noise, mc_samples)
    if decoder != fixed:
        raise ValueError(f"decoder {decoder!r} does not decode "
                         f"{type(signal).__name__}, which takes {fixed!r}")
    draws, scale = _decoder_draws(signal, mc_samples, rng)
    [scores] = _candidate_scores(x[None], y[None], noise, draws, scale)
    # the first highest score: ties go to the lexicographically smallest
    return _candidates(p, signal.k)[np.argmax(scores)].copy()


# Overflowing intensities or Gram entries are handled: their candidates
# score -inf or are rescored directly, so numpy's warnings are silenced.
@np.errstate(over="ignore", invalid="ignore")
def _candidate_scores(x: np.ndarray, y: np.ndarray, noise: GaussianNoise,
                      draws: np.ndarray, scale: float) -> np.ndarray:
    """Per trial ``t`` and candidate, in lexicographic order: the log of the
    likelihood of ``y[t]`` averaged over the rows of ``draws``, with mean
    intensities ``scale * |conj(x[t][:, S]) @ draw|^2``. ``x`` holds a
    block of trials ``(trials, n, p)`` and ``y`` their ``(trials, n)``
    observations; the scores come back as ``(trials, candidates)``.

    The scores omit the noise density's normalizing term ``-n log(2 pi
    sigma^2) / 2``, which every candidate shares: each log-likelihood is
    ``sum_sq / (-2 sigma^2)``, which scales exactly with the units, where
    that term does not. Adding it could round two close scores into a tie,
    or move the argmax with the units.

    Candidates run in super-chunks whose ``(candidates, trials, draws)``
    log-likelihoods fit in ``_SCORE_ELEMENTS``; the direct or the lifted
    form fills them, and one log-mean-exp runs over them in place. One
    trial takes the form ``_lifted_pays`` picks for its shape; a block of
    trials takes the direct form. Neither form sums by a BLAS call whose
    rounding depends on the array shape, so a score does not depend on its
    super-chunk, chunk, draw block or trial block or on what the thread's
    workspace held before.
    """
    ws = _thread_workspace()
    trials, n, p = x.shape
    m, k = draws.shape
    cands = _candidates(p, k)
    # row c, trial t: conj of column c of trial t
    xt = np.conjugate(x).transpose(2, 0, 1)
    span = max(1, _SCORE_ELEMENTS // (trials * m))  # candidates a super-chunk
    lifted = trials == 1 and _lifted_pays(k, n, m)
    if lifted:
        weights, floor = _lifted_draw_terms(x[0], y[0], draws, scale)
        span = min(span, max(1, _CHUNK_ELEMENTS // len(weights)))
    scores = np.empty((cands.shape[0], trials))
    for c0 in range(0, cands.shape[0], span):
        sup = cands[c0:c0 + span]
        loglik = ws.take("loglik", (len(sup), trials, m), float)
        if lifted:
            _lifted_loglik(xt[:, 0], y[0], noise, draws, scale, weights,
                           floor, sup, loglik[:, 0], ws)
        else:
            _direct_loglik(xt, y, noise, draws, scale, sup, loglik, ws)
        top = loglik.max(axis=2, keepdims=True)
        dead = np.isneginf(top[..., 0])  # no possible draw: -inf, not NaN
        top[dead] = 0.0
        loglik -= top
        # A term under exp(_EXP_FLOOR) moves a mean of at least 1/m by
        # less than m 1e-304 relative; clipped, exp skips numpy's slow
        # underflow path (6-125 ns against 1.3 ns an element).
        np.maximum(loglik, _EXP_FLOOR, out=loglik)
        np.exp(loglik, out=loglik)
        part = top[..., 0] + np.log(loglik.mean(axis=2))
        part[dead] = -np.inf
        scores[c0:c0 + len(sup)] = part
    return scores.T


def _direct_loglik(xt, y, noise, draws, scale, sup, out, ws) -> None:
    """Fill ``out[i, t, s]`` with the log-likelihood, without its
    normalizing term, of candidate ``sup[i]`` in trial ``t`` under draw
    ``s``, from its residuals row by row.

    The products ``conj(x[t][:, c]) * draws[s, j]`` of every column ``c``
    the candidates take, trial ``t``, slot ``j`` and draw ``s`` are formed
    once per block of draws, and a chunk of candidates only gathers and
    adds them. The projection is summed slot by slot and the squared
    residuals over the contiguous row axis, one (candidate, trial, draw)
    at a time, so a sum is the same whatever trials or draws share its
    pass.
    """
    trials, n = y.shape
    m, k = draws.shape
    rows = max(n, 1)
    lo, hi = int(sup.min()), int(sup.max()) + 1   # columns they take
    pos = sup - lo
    # draws per block: the block's product table fits in one chunk budget
    block = max(1, _CHUNK_ELEMENTS // (k * (hi - lo) * trials * rows))
    for d0 in range(0, m, block):
        d = draws[d0:d0 + block]
        b = len(d)
        lanes = trials * b                  # (trial, draw) pairs
        step = max(1, _CHUNK_ELEMENTS // (rows * lanes))
        # Operands are tiled to full shape by copyto: a ufunc that
        # broadcasts, or reads a strided operand, over inner runs
        # shorter than numpy's buffer size allocates buffers of up to
        # 8192 elements per operand per call.
        cells = (hi - lo, trials, b, n)
        table = ws.take("table", (k,) + cells, complex)
        for j in range(k):
            np.copyto(table[j], xt[lo:hi, :, None, :])
            if b == 1:      # a scalar; the table may pass the budget
                table[j] *= d[0, j]
            else:
                ds = ws.take("draw_rows", cells, complex)
                np.copyto(ds, d[None, None, :, j, None])
                table[j] *= ds
        ys = ws.take("y_rows", (min(step, len(sup)), trials, b, n), float)
        np.copyto(ys, y[:, None, :])
        for c in range(0, len(sup), step):
            idx = pos[c:c + step]
            shape = (len(idx), trials, b, n)
            # mode="clip": with the default "raise", take copies via a
            # fresh array before writing to out
            proj = np.take(table[0], idx[:, 0], axis=0, mode="clip",
                           out=ws.take("proj", shape, complex))
            for j in range(1, k):
                proj += np.take(table[j], idx[:, j], axis=0, mode="clip",
                                out=ws.take("gather", shape, complex))
            resid = np.square(proj.real, out=ws.take("resid", shape, float))
            resid += np.square(proj.imag, out=ws.take("imag_sq", shape, float))
            resid *= scale
            np.subtract(ys[:len(idx)], resid, out=resid)
            # one (candidate, lane) per row of n, as a one-trial decode sums
            flat = resid.reshape(len(idx), lanes, n)
            sum_sq = np.einsum("cln,cln->cl", flat, flat,
                               out=ws.take("sum_sq", (len(idx), lanes), float))
            sum_sq /= -2.0 * noise.sigma**2
            out[c:c + step, :, d0:d0 + b] = sum_sq.reshape(shape[:3])


@functools.cache
def _lift_index(k: int):
    """Index tables of the lifted form with ``k`` slots.

    ``pj`` and ``pl`` list the slot pairs ``j <= l``, the ``k`` diagonal
    ones first. A row's ``k^2 + 1`` extended features are the observation,
    the real parts of ``z_j conj(z_l)`` at these pairs and the imaginary
    parts off the diagonal. The Gram entries ``(a, b)`` with ``a <= b`` are
    kept in row-major order, row ``a`` from ``rows[a]``; ``a`` and ``b``
    list them.
    """
    off_j, off_l = np.triu_indices(k, 1)
    pj = np.concatenate([np.arange(k), off_j])
    pl = np.concatenate([np.arange(k), off_l])
    feats = k * k + 1
    a, b = np.triu_indices(feats)
    rows = np.concatenate([[0], np.cumsum(np.arange(feats, 0, -1))])
    return pj, pl, a, b, rows


def _lifted_draw_terms(x, y, draws, scale):
    """Per draw ``s``: the weight of each kept Gram entry ``(a, b)`` in a
    candidate's summed squared residual, ``V_a V_b`` (doubled off the
    diagonal), one row per entry; and the floor under which that expanded
    sum may have cancelled.

    With ``e = d_j conj(d_l)`` at the slot pairs, the intensity
    ``|z . d|^2`` is the sum of ``Re(z_j conj(z_l)) Re(e)`` on the
    diagonal and of ``2 Re(z_j conj(z_l)) Re(e) - 2 Im(z_j conj(z_l))
    Im(e)`` off it. So ``V`` is 1, then ``-scale Re(e)`` (doubled off the
    diagonal), then ``2 scale Im(e)`` off the diagonal, and a row's
    residual is ``H . V``. The expanded sum errs by a few ulps (times
    ``n`` and the entry count) of ``sum_r (|y_r| + |z_r|^2 D_s)^2 <=
    2 (sum y^2 + Z D_s^2)``, with ``D_s = scale |d_s|^2`` and ``Z`` the sum
    over rows of the squared power of the row's ``k`` strongest entries,
    which bounds every candidate's ``sum_r |z_r|^4``. The floor is
    ``_LIFT_FLOOR`` times that.
    """
    k = draws.shape[1]
    pj, pl, a, b, _ = _lift_index(k)
    e = draws[:, pj] * np.conjugate(draws[:, pl])
    v = np.ones((k * k + 1, len(draws)))
    np.multiply(e.real.T, np.where(pj == pl, -scale, -2.0 * scale)[:, None],
                out=v[1:len(pj) + 1])
    np.multiply(e.imag[:, k:].T, 2.0 * scale, out=v[len(pj) + 1:])
    weights = v[a]
    weights *= v[b]
    weights[a != b] *= 2.0
    power = np.sort(np.square(np.abs(x)), axis=1)[:, x.shape[1] - k:]
    strong = float(np.sum(np.square(power.sum(axis=1))))
    d_pow = scale * np.square(np.abs(draws)).sum(axis=1)
    floor = _LIFT_FLOOR * (float(np.dot(y, y)) + strong * np.square(d_pow))
    return weights, floor


def _lifted_loglik(xt, y, noise, draws, scale, weights, floor, sup, out,
                   ws) -> None:
    """Fill ``out[i, s]`` with the log-likelihood, without its normalizing
    term, of candidate ``sup[i]`` under draw ``s``, in lifted form, for one
    trial.

    The intensity ``|z . d|^2`` of a row's conjugated sensing entries ``z``
    and a draw ``d`` is linear in the ``k^2`` real features of ``z z^H``
    (the lifting of PhaseLift, arXiv 1109.4499). With the observation
    prepended, a row's residual is ``H . V``, and the summed squared
    residual is ``V^T G V`` with ``G = sum_r H_r H_r^T``. The kept entries
    of ``G`` are summed over the contiguous row axis once per candidate;
    then each (candidate, draw) takes ``(k^2 + 1)(k^2 + 2) / 2``
    multiply-adds whatever ``n``. ``np.einsum`` (which never calls BLAS)
    runs them as ``out[c, :] += G_t[c] * weights[t, :]`` for the entries
    ``t`` in order, so a sum does not depend on the candidates beside it.
    Candidates with a sum under ``floor`` (it may have cancelled) or not
    finite (overflow) are scored by ``_direct_loglik`` instead.
    """
    n = len(y)
    k = sup.shape[1]
    pj, pl, _, _, rows = _lift_index(k)
    feats = k * k + 1
    gram = ws.take("lift_gram", (len(sup), rows[-1]), float)
    step = max(1, _CHUNK_ELEMENTS // (feats * max(n, 1)))
    for c in range(0, len(sup), step):
        part = sup[c:c + step]
        shape = (len(part), len(pj), n)
        zz = np.take(xt, part[:, pj], axis=0, mode="clip",
                     out=ws.take("lift_pairs", shape, complex))
        zl = np.take(xt, part[:, pl], axis=0, mode="clip",
                     out=ws.take("lift_right", shape, complex))
        zz *= np.conjugate(zl, out=zl)          # z_j conj(z_l)
        # copyto, unlike a ufunc, reads the strided parts without buffers
        h = ws.take("lift_feats", (len(part), feats, n), float)
        np.copyto(h[:, 0], y)
        np.copyto(h[:, 1:len(pj) + 1], zz.real)
        np.copyto(h[:, len(pj) + 1:], zz.imag[:, k:])
        for a in range(feats):
            np.einsum("cn,cbn->cb", h[:, a], h[:, a:],
                      out=gram[c:c + step, rows[a]:rows[a + 1]])
    np.einsum("ct,ts->cs", gram, weights, out=out)
    redo = None
    if not (np.all(out.min(axis=0) >= floor) and out.max() < math.inf):
        redo = np.flatnonzero(~((out >= floor) & (out < math.inf)).all(axis=1))
        direct = np.empty((len(redo), out.shape[1]))
        _direct_loglik(xt[:, None], y[None], noise, draws, scale, sup[redo],
                       direct[:, None], ws)
    out /= -2.0 * noise.sigma**2
    if redo is not None:
        out[redo] = direct


@dataclass(frozen=True)
class SimConfig:
    p: int
    signal: SignalModel
    noise: GaussianNoise = field(default_factory=GaussianNoise)
    alpha_star: float = 0.5
    n_grid: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    trials: int = 400
    mc_samples: int = 256
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _check_decode(self.p, self.signal, self.noise, self.mc_samples)
        if not 0.0 < self.alpha_star <= 1.0:
            raise ValueError("alpha_star must lie in (0, 1]")
        if floor_count(self.alpha_star, self.signal.k) < 1:
            raise ValueError("need floor(alpha_star * k) >= 1")
        _check_int("trials", self.trials, 1)
        _check_int("master_seed", self.master_seed, 0)
        _check_int("threads", self.threads, 1)
        if not self.n_grid:
            raise ValueError("empty measurement grid")
        for n in self.n_grid:
            _check_int("n_grid entry", n, 0)

    @property
    def decoder(self) -> str:
        return _decoder_for(self.signal)[0]


@dataclass(frozen=True)
class ErrorCurve:
    n_values: np.ndarray
    pe: np.ndarray
    trials: int

    @property
    def se(self) -> np.ndarray:
        """Binomial standard error of each ``pe``."""
        return np.sqrt(self.pe * (1.0 - self.pe) / self.trials)

    def to_csv(self, path, reference: dict | None = None) -> None:
        """``n,pe,se,trials`` rows; optional reference thresholds appended
        as comment lines (asymptotic claims, not finite-size predictions)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,pe,se,trials\n")
            for n, pe, se in zip(self.n_values, self.pe, self.se):
                fh.write(f"{int(n)},{pe:.17g},{se:.17g},{self.trials}\n")
            if reference:
                for key in ("n_ach", "n_con"):
                    if key in reference:
                        fh.write(f"# reference {key} = {reference[key]:.17g} "
                                 "(asymptotic, not a finite-size prediction)\n")


def _coefficient_draw(signal: SignalModel):
    """``sample_signal_vector(signal, rng)`` as a function of ``rng``; the
    flat vector, which draws nothing, is built once."""
    if isinstance(signal, DiscreteFlat):
        beta = sample_signal_vector(signal, None)
        return lambda rng: beta
    return functools.partial(sample_signal_vector, signal)


def _run_cell(args) -> float:
    config, n_idx, n = args
    p, signal, noise = config.p, config.signal, config.noise
    k = signal.k
    # flat-ml's one known draw lets a block of trials score in one pass;
    # mc-marginal draws its coefficients per trial, from the trial's rng
    # once its data are drawn, so it scores one trial at a time
    block = 1 if config.decoder == "mc-marginal" else _trial_block(p, k, n)
    coefficients = _coefficient_draw(signal)
    # a trial errs when its decode misses, and so adds, at least
    # floor(alpha_star k) of the k true indices: when the two share at
    # most this many
    most_shared = k - floor_count(config.alpha_star, k)
    ws = _thread_workspace()
    streams = _trial_streams(config.master_seed, n_idx, 0, config.trials)
    errors = 0
    for t0 in range(0, config.trials, block):
        size = min(block, config.trials - t0)
        x = ws.take("trial_x", (size, n, p), complex)
        y = ws.take("trial_y", (size, n), float)
        truth = np.empty((size, k), dtype=np.intp)
        for t, rng in zip(range(size), streams):
            truth[t] = support = sample_support(p, k, rng)
            beta = coefficients(rng)
            x[t] = sample_circular_gaussian(rng, (n, p))
            y[t] = observe(x[t][:, support], beta, noise, rng)
        # mc-marginal's one trial draws them from its stream after its data
        draws, scale = _decoder_draws(signal, config.mc_samples, rng)
        scores = _candidate_scores(x, y, noise, draws, scale)
        decoded = _candidates(p, k)[np.argmax(scores, axis=1)]
        shared = (truth[:, :, None] == decoded[:, None, :]).sum(axis=(1, 2))
        errors += int(np.count_nonzero(shared <= most_shared))
    return errors / config.trials


def error_curve(config: SimConfig) -> ErrorCurve:
    """Empirical error probability per measurement count.

    Cell ``(n_idx, trial)`` draws from the stream of
    ``substream(master_seed, n_idx, trial)``, so the curve is
    byte-reproducible for a fixed master seed regardless of thread count.
    Each measurement count runs on one worker thread. Flat-ml scores its
    trials in blocks of ``_trial_block(p, k, n)``, one direct-form pass a
    block, with every score bit for bit that of one decode per trial;
    mc-marginal scores one trial at a time. A thread holds one block, one
    chunk of trial keys and its workspace (at most 4.625 MiB, see the
    module docstring) whatever ``trials`` is.
    """
    cells = [(config, i, n) for i, n in enumerate(config.n_grid)]
    pe = np.array(parallel_map(_run_cell, cells, config.threads))
    return ErrorCurve(n_values=np.asarray(config.n_grid, dtype=int),
                      pe=pe, trials=config.trials)


def pava_nonincreasing(values) -> np.ndarray:
    """Best nonincreasing fit (least squares) by pool-adjacent-violators."""
    means, sizes = [], []
    for val in np.asarray(values, dtype=float):
        means.append(val); sizes.append(1)
        # merge while the tail violates the nonincreasing constraint
        while len(means) > 1 and means[-2] < means[-1]:
            m2, s2 = means.pop(), sizes.pop()
            m1, s1 = means.pop(), sizes.pop()
            means.append((m1 * s1 + m2 * s2) / (s1 + s2))
            sizes.append(s1 + s2)
    return np.repeat(means, sizes)


def isotonic_residual(curve: ErrorCurve) -> tuple[float, float]:
    """Max deviation from the best nonincreasing fit, and the pooled
    standard error to judge it against."""
    fit = pava_nonincreasing(curve.pe)
    residual = float(np.max(np.abs(curve.pe - fit)))
    pooled = float(np.sqrt(np.mean(curve.se ** 2)))
    return residual, pooled
