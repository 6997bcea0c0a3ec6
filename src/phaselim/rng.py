"""Deterministic random-stream helpers.

Every stochastic routine in this package draws from a Generator built by
:func:`substream`. Streams are keyed by a master seed plus an integer path,
so trial ``j`` of batch ``i`` sees the same draws no matter how many worker
threads run the batch or in which order blocks complete.
"""
from __future__ import annotations

import concurrent.futures

import numpy as np

__all__ = ["substream", "sample_circular_gaussian", "parallel_map"]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by ``(master_seed, *path)``.

    Built on ``SeedSequence`` spawn keys: distinct paths give statistically
    independent streams and the mapping is stable across platforms and
    process/thread counts.
    """
    # a list: ``tuple`` of a generator over-allocates and then shrinks, so
    # each call would add a pair to CPython's tuple free list
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=[int(p) for p in path]
    )
    return np.random.Generator(np.random.PCG64(ss))


def sample_circular_gaussian(rng: np.random.Generator, size, power: float = 1.0):
    """Circularly-symmetric complex Gaussian samples with ``E|W|^2 = power``.

    The variance splits evenly between the real and imaginary parts
    (``power/2`` each).
    """
    scale = np.sqrt(power / 2.0)
    return rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)


def parallel_map(fn, args_list, threads: int = 1) -> list:
    """Map ``fn`` over ``args_list`` with results in argument order.

    Results are collected by index, so the output (and anything reduced from
    it in order) is independent of the thread count. ``threads <= 1`` runs
    sequentially.
    """
    if threads is None or threads <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with concurrent.futures.ThreadPoolExecutor(max_workers=int(threads)) as ex:
        return list(ex.map(fn, args_list))
