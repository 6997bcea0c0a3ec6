"""Measurement model: sparse coefficient vectors observed through squared
magnitudes of random complex projections plus additive noise.

The support ``S`` is a size-``k`` subset of ``{0..p-1}``, ``b`` the
coefficient vector on it, and the sensing rows ``x_i`` have i.i.d.
unit-power circular complex Gaussian entries. Row ``i`` of the observation
obeys::

    y[i] = |<x_i restricted to S, b>|^2 + z[i]

with the inner product conjugating the first argument.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .rng import _check_int, sample_circular_gaussian

__all__ = [
    "SupportSet",
    "DiscreteFlat",
    "DiscreteGeneral",
    "GaussianIID",
    "SortedSignal",
    "floor_count",
    "sample_support",
    "sample_signal_vector",
    "observe",
    "partition_powers",
    "partition_power_arrays",
]

# Fractions within 1e-9 of the next integer count as that integer, so that
# binary-float artifacts (0.3 * 10 = 2.999...96) do not change counts.
_FLOOR_SNAP = 1e-9


def floor_count(alpha: float, k: int) -> int:
    """``floor(alpha * k)`` with a snap-up guard against float artifacts.

    Raises ``ValueError`` for a ``k`` that is not an int >= 1, and for a
    NaN ``alpha * k``; ``OverflowError`` for an infinite one.
    """
    _check_int("k", k, 1)
    ak = float(alpha) * k
    if math.isnan(ak):
        raise ValueError(f"alpha * k is NaN (alpha {alpha!r}, k {k!r})")
    if math.isinf(ak):
        raise OverflowError(f"alpha * k is infinite (alpha {alpha!r}, "
                            f"k {k!r})")
    return int(_snapped_floor(ak))


def _snapped_floor(ak):
    """``floor(ak)`` of a float or float array, one more where ``ak`` lies
    within ``_FLOOR_SNAP`` below the next integer."""
    m = np.floor(ak)
    return m + (ak - m > 1.0 - _FLOOR_SNAP)


@dataclass(frozen=True)
class SupportSet:
    """Distinct index tuple inside a universe of size ``p``, stored sorted."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        object.__setattr__(self, "indices", idx)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("support indices must be distinct")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError("support index outside universe")

    def __len__(self) -> int:
        return len(self.indices)


def _check_normal_power(power: float) -> None:
    """Refuse a positive power below the normal float range: its missed
    shares lose digits or round to 0, so a query would end in whichever
    error the rounding picks."""
    if 0.0 < power < sys.float_info.min:
        raise ValueError(f"signal power below the normal float range "
                         f"({sys.float_info.min!r})")


def _check_power_and_size(c_beta: float, k: int) -> None:
    if not (math.isfinite(c_beta) and c_beta > 0):
        raise ValueError("need finite c_beta > 0")
    _check_normal_power(c_beta)
    _check_int("k", k, 1)


@dataclass(frozen=True)
class DiscreteFlat:
    """All ``k`` support coefficients equal ``sqrt(c_beta / k)``."""

    c_beta: float
    k: int

    def __post_init__(self):
        _check_power_and_size(self.c_beta, self.k)

    @property
    def total_power(self) -> float:
        return float(self.c_beta)


@dataclass(frozen=True)
class DiscreteGeneral:
    """Known multiset of complex coefficient values, assigned to the support
    uniformly at random (a fresh permutation per draw)."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least one coefficient value")
        try:
            power = self.total_power
        except OverflowError:   # a square past the float range
            power = math.inf
        if not power < math.inf:    # NaN or infinite values fail too
            raise ValueError("coefficient values and their total power "
                             "must be finite")
        _check_normal_power(power)  # an all-zero signal stays valid

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def total_power(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.values))


@dataclass(frozen=True)
class GaussianIID:
    """I.i.d. circular complex Gaussian coefficients with per-entry power
    ``c_beta / k`` (so the expected total power is ``c_beta``)."""

    c_beta: float
    k: int

    def __post_init__(self):
        _check_power_and_size(self.c_beta, self.k)

    @property
    def sigma_beta_sq(self) -> float:
        return float(self.c_beta) / self.k

    @property
    def total_power(self) -> float:
        return float(self.c_beta)


SignalModel = DiscreteFlat | DiscreteGeneral | GaussianIID


class SortedSignal:
    """Squared coefficient magnitudes sorted ascending, with prefix sums.

    ``prefix[m]`` is the summed power of the ``m`` weakest coefficients,
    accumulated left to right over the sorted entries (order pinned for
    bitwise reproducibility). ``prefix[0] == 0`` and ``prefix[k]`` is the
    total power.
    """

    def __init__(self, beta: np.ndarray):
        beta = np.asarray(beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("coefficient vector must be 1-d and nonempty")
        mags = np.sort(np.abs(beta) ** 2)
        self.sq_magnitudes = mags
        self.prefix = np.concatenate(([0.0], np.cumsum(mags)))

    @classmethod
    def flat(cls, c_beta: float, k: int) -> "SortedSignal":
        return cls(np.full(k, np.sqrt(c_beta / k), dtype=complex))

    @property
    def k(self) -> int:
        return self.sq_magnitudes.size

    @property
    def total_power(self) -> float:
        return float(self.prefix[-1])


def partition_powers(signal: SortedSignal, alpha: float,
                     mode: str = "floor") -> tuple[float, float]:
    """Split sorted power at fraction ``alpha`` of the ``k`` entries into
    ``(miss_power, keep_power)``: the power of the weakest entries a decoder
    may miss, and the rest.

    ``mode="floor"`` takes the exact ``floor(alpha*k)``-entry prefix;
    ``mode="asymptotic"`` linearly interpolates the prefix sums at the real
    point ``alpha*k`` (the large-``k`` limiting curve). The rate forms use
    :func:`partition_power_arrays`; this scalar form is its reference.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    k = signal.k
    m = floor_count(alpha, k)
    if mode == "floor":
        miss = float(signal.prefix[m])
    elif mode == "asymptotic":
        ak = alpha * k
        m = min(m, k)
        frac = ak - m
        miss = float(signal.prefix[m])
        if frac > 0 and m < k:
            miss += frac * float(signal.sq_magnitudes[m])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return miss, signal.total_power - miss


def partition_power_arrays(signal: SortedSignal, alpha, mode: str = "floor"):
    """Array form of :func:`partition_powers`: ``(miss_power, keep_power)``
    for every entry of ``alpha`` (scalar in, scalar out).

    Indexes ``signal.prefix`` directly with the same snapped
    ``floor(alpha*k)`` count and the same ``asymptotic`` interpolation, so
    each entry equals the scalar split bit for bit.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    if mode not in ("floor", "asymptotic"):
        raise ValueError(f"unknown mode {mode!r}")
    k = signal.k
    ak = a * k
    m = _snapped_floor(ak).astype(np.intp)
    miss = signal.prefix[m]
    if mode == "asymptotic":
        frac = ak - m
        step = signal.sq_magnitudes[np.minimum(m, k - 1)]
        miss = miss + np.where((frac > 0) & (m < k), frac * step, 0.0)
    return miss, signal.prefix[-1] - miss


def sample_support(p: int, k: int, rng: np.random.Generator) -> SupportSet:
    """Uniformly random size-``k`` subset of ``{0..p-1}``, stored sorted."""
    _check_int("k", k, 1)
    _check_int("p", p, k)
    return SupportSet(indices=rng.choice(p, size=k, replace=False), universe=p)


def sample_signal_vector(model: SignalModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one coefficient vector (length ``k``, complex) from the model.

    The flat model is deterministic and consumes no randomness.
    """
    if isinstance(model, DiscreteFlat):
        return np.full(model.k, np.sqrt(model.c_beta / model.k), dtype=complex)
    if isinstance(model, DiscreteGeneral):
        return rng.permutation(np.asarray(model.values, dtype=complex))
    if isinstance(model, GaussianIID):
        return sample_circular_gaussian(rng, model.k, power=model.sigma_beta_sq)
    raise TypeError(f"unknown signal model {type(model).__name__}")


def observe(x_rows: np.ndarray, beta: np.ndarray, noise, rng: np.random.Generator) -> np.ndarray:
    """Observation vector ``|<x_i, b>|^2 + z_i`` for sensing rows ``x_rows``
    (shape ``(n, k)``), conjugating the first argument."""
    x_rows = np.atleast_2d(np.asarray(x_rows))
    if x_rows.shape[1] != np.asarray(beta).shape[0]:
        raise ValueError("row width must match coefficient length")
    mean = np.abs(np.conjugate(x_rows) @ beta) ** 2
    return mean + noise.sample(rng, mean.shape[0])
