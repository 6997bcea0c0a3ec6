"""Exhaustive-search recovery simulator for tiny problem sizes.

Intended for sanity-checking the threshold story at sizes where exact
maximum-likelihood decoding over all ``C(p, k)`` candidate supports is
affordable (the config guard caps it at 1e4 candidates). Both decoders
score a candidate by its likelihood averaged over coefficient draws:

``flat-ml``
    Exact ML when every support coefficient is the same known value, the
    one "draw".

``mc-marginal``
    For i.i.d. Gaussian coefficients, marginalize the likelihood over
    coefficient draws by Monte Carlo, with common random numbers (one
    shared draw block scored against every candidate).

Ties resolve to the lexicographically smallest candidate, which makes the
zero-measurement limit exactly analyzable.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .densities import GaussianNoise, NoiseModel
from .model import (DiscreteFlat, DiscreteGeneral, GaussianIID, SignalModel,
                    SupportSet, floor_count, observe, sample_signal_vector,
                    sample_support)
from .rng import parallel_map, sample_circular_gaussian, substream

__all__ = [
    "SimConfig",
    "ErrorCurve",
    "decode",
    "error_event",
    "error_curve",
    "pava_nonincreasing",
    "isotonic_residual",
    "MAX_CANDIDATES",
]

MAX_CANDIDATES = 10000
# Most projections (candidates x rows x draws) one scoring chunk holds;
# the chunk's other temporaries are of the same size.
_CHUNK_ELEMENTS = 1 << 14


@functools.cache
def _candidates(p: int, k: int) -> np.ndarray:
    """All size-``k`` supports of ``{0..p-1}``, lexicographic, read-only."""
    cands = np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
    cands.flags.writeable = False
    return cands


def _flat_value(signal: SignalModel) -> float:
    """Common coefficient magnitude squared of a flat-like signal."""
    if isinstance(signal, DiscreteFlat):
        return signal.c_beta / signal.k
    if not isinstance(signal, DiscreteGeneral):
        raise ValueError("flat-ml requires a flat signal model")
    if len(set(signal.values)) > 1:
        raise ValueError("flat-ml needs a single coefficient value; "
                         "multi-valued assignment search is unsupported")
    return abs(signal.values[0]) ** 2


def decode(x: np.ndarray, y: np.ndarray, signal: SignalModel,
           noise: NoiseModel, decoder: str = "flat-ml",
           mc_samples: int = 256,
           rng: np.random.Generator | None = None) -> SupportSet:
    """Pick the highest-scoring size-``k`` support for observations ``y``."""
    x, y = np.asarray(x), np.asarray(y, dtype=float)
    p, k = x.shape[1], signal.k
    count = math.comb(p, k)
    if count > MAX_CANDIDATES:
        raise ValueError(f"C(p,k) = {count} exceeds {MAX_CANDIDATES}")

    if decoder == "flat-ml":
        scale = _flat_value(signal)
        draws = np.ones((1, k))
    elif decoder == "mc-marginal":
        if not isinstance(signal, GaussianIID):
            raise ValueError("mc-marginal requires the Gaussian iid model")
        if rng is None:
            raise ValueError("mc-marginal needs an rng for its draws")
        if mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        draws = sample_circular_gaussian(rng, (mc_samples, k),
                                         power=signal.sigma_beta_sq)
        scale = 1.0
    else:
        raise ValueError(f"unknown decoder {decoder!r}")

    # first max: lexicographic tie-break
    best = int(np.argmax(_candidate_scores(x, y, noise, draws, scale)))
    return SupportSet(indices=tuple(int(i) for i in _candidates(p, k)[best]),
                      universe=p)


def _candidate_scores(x: np.ndarray, y: np.ndarray, noise: NoiseModel,
                      draws: np.ndarray, scale: float) -> np.ndarray:
    """Per candidate, in lexicographic order: the log of the likelihood of
    ``y`` averaged over the rows of ``draws``, with mean intensities
    ``scale * |conj(x_S) @ draw|^2``. The projection is summed column by
    column, not by a BLAS matmul whose rounding depends on the matrix
    shape, so a score does not depend on the chunk it is computed in."""
    n, p = x.shape
    m, k = draws.shape
    cands = _candidates(p, k)
    xt = np.ascontiguousarray(np.conjugate(x).T)   # row j: conj of column j
    step = max(1, _CHUNK_ELEMENTS // (max(n, 1) * m))
    scores = np.empty(cands.shape[0])
    for lo in range(0, cands.shape[0], step):
        idx = cands[lo:lo + step]
        proj = sum(xt[idx[:, j], :, None] * draws[:, j] for j in range(k))
        loglik = noise.logpdf(y[:, None]
                              - scale * np.abs(proj) ** 2).sum(axis=1)
        top = loglik.max(axis=1, keepdims=True)
        top[np.isneginf(top)] = 0.0   # no possible draw: -inf, not NaN
        scores[lo:lo + len(idx)] = (
            top[:, 0] + np.log(np.exp(loglik - top).mean(axis=1)))
    return scores


def error_event(true_support: SupportSet, decoded: SupportSet,
                alpha_star: float, k: int) -> bool:
    """Approximate-recovery failure: at least ``floor(alpha_star * k)``
    indices missed or spuriously added."""
    thr = floor_count(alpha_star, k)
    if thr < 1:
        raise ValueError("alpha_star too small: floor(alpha_star * k) < 1")
    return (true_support.missed_by(decoded) >= thr
            or decoded.missed_by(true_support) >= thr)


@dataclass(frozen=True)
class SimConfig:
    p: int
    k: int
    signal: SignalModel
    noise: NoiseModel = field(default_factory=GaussianNoise)
    alpha_star: float = 0.5
    n_grid: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    trials: int = 400
    decoder: str = "flat-ml"
    mc_samples: int = 256
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.k < 1 or self.k > self.p:
            raise ValueError("need 1 <= k <= p")
        if math.comb(self.p, self.k) > MAX_CANDIDATES:
            raise ValueError(f"C(p,k) exceeds {MAX_CANDIDATES}")
        if not 0.0 < self.alpha_star <= 1.0:
            raise ValueError("alpha_star must lie in (0, 1]")
        if floor_count(self.alpha_star, self.k) < 1:
            raise ValueError("need floor(alpha_star * k) >= 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if any(n < 0 for n in self.n_grid):
            raise ValueError("measurement counts must be nonnegative")
        if self.decoder not in ("flat-ml", "mc-marginal"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        if getattr(self.signal, "k") != self.k:
            raise ValueError("signal model k must match config k")


@dataclass(frozen=True)
class ErrorCurve:
    n_values: np.ndarray
    pe: np.ndarray
    se: np.ndarray
    trials: int

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


def _run_cell(args) -> float:
    config, n_idx, n = args
    errors = 0
    for j in range(config.trials):
        rng = substream(config.master_seed, n_idx, j)
        support = sample_support(config.p, config.k, rng)
        beta = sample_signal_vector(config.signal, rng)
        x = sample_circular_gaussian(rng, (n, config.p))
        y = observe(x[:, support.indices], beta, config.noise, rng)
        decoded = decode(x, y, config.signal, config.noise, config.decoder,
                         mc_samples=config.mc_samples, rng=rng)
        errors += error_event(support, decoded, config.alpha_star, config.k)
    return errors / config.trials


def error_curve(config: SimConfig) -> ErrorCurve:
    """Empirical error probability per measurement count.

    Cell ``(n_idx, trial)`` draws from its own substream, so the curve is
    byte-reproducible for a fixed master seed regardless of thread count.
    """
    cells = [(config, i, n) for i, n in enumerate(config.n_grid)]
    pe = np.array(parallel_map(_run_cell, cells, config.threads))
    se = np.sqrt(pe * (1.0 - pe) / config.trials)
    return ErrorCurve(n_values=np.asarray(config.n_grid, dtype=int),
                      pe=pe, se=se, trials=config.trials)


def pava_nonincreasing(values, weights=None) -> np.ndarray:
    """Best nonincreasing fit (least squares) by pool-adjacent-violators."""
    v = np.asarray(values, dtype=float)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    means, wsum, sizes = [], [], []
    for val, wt in zip(v, w):
        means.append(val); wsum.append(wt); sizes.append(1)
        # merge while the tail violates the nonincreasing constraint
        while len(means) > 1 and means[-2] < means[-1]:
            m2, w2, s2 = means.pop(), wsum.pop(), sizes.pop()
            m1, w1, s1 = means.pop(), wsum.pop(), sizes.pop()
            wt_tot = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt_tot)
            wsum.append(wt_tot)
            sizes.append(s1 + s2)
    return np.repeat(means, sizes)


def isotonic_residual(curve: ErrorCurve) -> tuple[float, float]:
    """Max deviation from the best nonincreasing fit, and the pooled
    standard error to judge it against."""
    fit = pava_nonincreasing(curve.pe)
    residual = float(np.max(np.abs(curve.pe - fit)))
    pooled = float(np.sqrt(np.mean(curve.se ** 2)))
    return residual, pooled
