"""Measurement model: sparse coefficient vectors observed through squared
magnitudes of random complex projections plus additive noise.

A problem instance is built from four independent sub-draws of one master
seed: the support (a uniform size-``k`` subset of ``{0..p-1}``), the
coefficient vector on that support, the ``n x p`` sensing matrix with
i.i.d. unit-power circular complex Gaussian entries, and the noise vector.
Row ``i`` of the observation obeys::

    y[i] = |<x_i restricted to S, b>|^2 + z[i]

with the inner product conjugating the first argument. Identical seeds give
byte-identical instances; the sensing matrix is regenerable from the seed
and is therefore never serialized.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .rng import sample_circular_gaussian, substream

__all__ = [
    "SupportSet",
    "DiscreteFlat",
    "DiscreteGeneral",
    "GaussianIID",
    "SortedSignal",
    "PartitionPowers",
    "ProblemInstance",
    "floor_count",
    "sample_support",
    "sample_signal_vector",
    "observe",
    "partition_powers",
    "partition_power_arrays",
]

# Sub-draw paths under one instance seed.
_SUB_SUPPORT, _SUB_SIGNAL, _SUB_MATRIX, _SUB_NOISE = 0, 1, 2, 3

# Fractions within 1e-9 of the next integer count as that integer, so that
# binary-float artifacts (0.3 * 10 = 2.999...96) do not change counts.
_FLOOR_SNAP = 1e-9


def floor_count(alpha: float, k: int) -> int:
    """``floor(alpha * k)`` with a snap-up guard against float artifacts."""
    ak = float(alpha) * int(k)
    m = math.floor(ak)
    if ak - m > 1.0 - _FLOOR_SNAP:
        m += 1
    return m


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

    def missed_by(self, other: "SupportSet") -> int:
        """Number of own indices absent from ``other``."""
        return len(set(self.indices) - set(other.indices))


def _check_power_and_size(c_beta: float, k: int) -> None:
    if not (math.isfinite(c_beta) and c_beta > 0) or k < 1:
        raise ValueError("need finite c_beta > 0 and k >= 1")


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

    def prefix_power(self, count: int) -> float:
        return float(self.prefix[count])


@dataclass(frozen=True)
class PartitionPowers:
    """Power split of a sorted signal at a miss fraction ``alpha``.

    ``miss_power`` is the power of the weakest entries a decoder may miss,
    ``keep_power`` the rest, ``miss_count`` the number of missable entries.
    ``miss_power + keep_power`` reproduces the stored total exactly.
    """

    miss_power: float
    keep_power: float
    miss_count: int

    @property
    def total_power(self) -> float:
        return self.miss_power + self.keep_power


def partition_powers(signal: SortedSignal, alpha: float, mode: str = "floor") -> PartitionPowers:
    """Split sorted power at fraction ``alpha`` of the ``k`` entries.

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
        miss = signal.prefix_power(m)
    elif mode == "asymptotic":
        ak = alpha * k
        m = min(m, k)
        frac = ak - m
        miss = signal.prefix_power(m)
        if frac > 0 and m < k:
            miss += frac * float(signal.sq_magnitudes[m])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    keep = signal.total_power - miss
    return PartitionPowers(miss_power=miss, keep_power=keep, miss_count=m)


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
    m = np.floor(ak)
    m = (m + (ak - m > 1.0 - _FLOOR_SNAP)).astype(np.intp)
    miss = signal.prefix[m]
    if mode == "asymptotic":
        frac = ak - m
        step = signal.sq_magnitudes[np.minimum(m, k - 1)]
        miss = miss + np.where((frac > 0) & (m < k), frac * step, 0.0)
    return miss, signal.prefix[-1] - miss


def sample_support(p: int, k: int, rng: np.random.Generator) -> SupportSet:
    """Uniformly random size-``k`` subset of ``{0..p-1}``, stored sorted."""
    if k < 1 or k > p:
        raise ValueError("need 1 <= k <= p")
    idx = np.sort(rng.choice(p, size=k, replace=False))
    return SupportSet(indices=tuple(int(i) for i in idx), universe=p)


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


def _projection_power(x_rows: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``|<x_i, b>|^2`` per row, conjugating the first argument."""
    return np.abs(np.conjugate(x_rows) @ beta) ** 2


def observe(x_rows: np.ndarray, beta: np.ndarray, noise, rng: np.random.Generator) -> np.ndarray:
    """Observation vector for sensing rows ``x_rows`` (shape ``(n, k)``)."""
    x_rows = np.atleast_2d(np.asarray(x_rows))
    if x_rows.shape[1] != np.asarray(beta).shape[0]:
        raise ValueError("row width must match coefficient length")
    mean = _projection_power(x_rows, beta)
    return mean + noise.sample(rng, mean.shape[0])


@dataclass(frozen=True)
class ProblemInstance:
    """One realized recovery problem, regenerable from ``(p, k, n, seed)``
    plus the stored support, coefficients, and observations."""

    p: int
    k: int
    n: int
    seed: int
    support: SupportSet
    beta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def generate(cls, p: int, k: int, n: int, signal: SignalModel, noise,
                 seed: int) -> "ProblemInstance":
        if getattr(signal, "k") != k:
            raise ValueError("signal model k must match instance k")
        support = sample_support(p, k, substream(seed, _SUB_SUPPORT))
        beta = sample_signal_vector(signal, substream(seed, _SUB_SIGNAL))
        x = sample_circular_gaussian(substream(seed, _SUB_MATRIX), (n, p))
        z = noise.sample(substream(seed, _SUB_NOISE), n)
        y = _projection_power(x[:, support.indices], beta) + z
        return cls(p=p, k=k, n=n, seed=seed, support=support, beta=beta,
                   x=x, y=y, z=z)

    def to_json(self) -> str:
        rec = {
            "p": self.p,
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "support": list(self.support.indices),
            "beta_re": [float(v) for v in self.beta.real],
            "beta_im": [float(v) for v in self.beta.imag],
            "y": [float(v) for v in self.y],
        }
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        rec = json.loads(text)
        p, k, n, seed = rec["p"], rec["k"], rec["n"], rec["seed"]
        support = SupportSet(indices=tuple(rec["support"]), universe=p)
        beta = np.asarray(rec["beta_re"], dtype=float) + 1j * np.asarray(
            rec["beta_im"], dtype=float)
        y = np.asarray(rec["y"], dtype=float)
        x = sample_circular_gaussian(substream(seed, _SUB_MATRIX), (n, p))
        z = y - _projection_power(x[:, support.indices], beta)
        return cls(p=p, k=k, n=n, seed=seed, support=support, beta=beta,
                   x=x, y=y, z=z)
