"""Deterministic random-stream helpers.

Every stochastic routine in this package draws from a generator keyed by a
master seed plus an integer path, so trial ``j`` of batch ``i`` sees the
same draws no matter how many worker threads run the batch or in which
order blocks complete. :func:`substream` builds one from numpy's
``SeedSequence`` and ``PCG64``; it is the reference for every stream.

A simulation cell keys its trials ``(master_seed, n_idx, t)``, and one
``substream`` call builds two numpy objects and hashes every key word.
:func:`_trial_streams` yields the same streams from one ``PCG64``
reseeded in place through its ``state`` setter. It writes
``SeedSequence``'s mixing (numpy's ``bit_generator.pyx``, whose streams
numpy keeps stable, NEP 19) as uint32 arithmetic: the key words that a
cell's trials share are hashed once, and the trial indices of a chunk of
``_KEY_CHUNK`` trials in one array pass. Trial ``t`` starts from
``substream(master_seed, n_idx, t)``'s state, bit for bit.
"""
from __future__ import annotations

import concurrent.futures

import numpy as np

__all__ = ["substream", "sample_circular_gaussian", "parallel_map"]

# numpy's SeedSequence: pool words, hash and mix constants
_POOL_SIZE = 4
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Trials whose keys one array pass derives: a chunk's arrays take some
# 15 kB, and its words 8 kB, whatever the number of trials.
_KEY_CHUNK = 256


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by ``(master_seed, *path)``.

    Built on ``SeedSequence`` spawn keys: distinct paths give statistically
    independent streams and the mapping is stable across platforms and
    process/thread counts. The seed and every path key must be
    non-negative ints, not bools.
    """
    _check_int("master_seed", master_seed, 0)
    for key in path:
        _check_int("path key", key, 0)
    # a list: ``tuple`` of a generator over-allocates and then shrinks, so
    # each call would add a pair to CPython's tuple free list
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=list(path))
    return np.random.Generator(np.random.PCG64(ss))


def _check_int(name: str, value, least: int) -> None:
    """Refuse a ``value`` that is not an int, or is a bool, or is below
    ``least``: the one rule for seeds and stream keys (``least`` 0), thread
    caps, Monte Carlo budgets (an empty budget's mean is NaN) and counts."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, "
                         f"got {value!r}")


# ``_hashmix`` and ``_mix`` take Python ints, which they mask to 32 bits,
# or uint32 arrays, which wrap.
def _hashmix(value, hash_const: int):
    """``SeedSequence``'s hash of one word, and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """``SeedSequence``'s mix of two words."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)
    result &= _MASK32
    return result ^ result >> 16


def _key_words(value: int) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of a key value, least
    significant first; 0 is one word."""
    _check_int("stream key", value, 0)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _chunk_words(pool: list[int], hash_const: int, t0: int,
                 t1: int) -> np.ndarray:
    """``generate_state(4, uint64)`` of trials ``t0 .. t1 - 1``, one row a
    trial, whose key's last word is the trial index: from the pool and
    hash constant that every word before it left."""
    t = np.arange(t0, t1, dtype=np.uint32)
    mixed = []
    for word in pool:
        hashed, hash_const = _hashmix(t, hash_const)
        mixed.append(_mix(word, hashed))
    # little-endian words, as generate_state pairs them into uint64s
    out = np.empty((t1 - t0, 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = mixed[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out[:, i] = value ^ value >> 16
    return out.view("<u8")


def _trial_streams(master_seed: int, n_idx: int, start: int, stop: int):
    """For ``t`` in ``range(start, stop)``, yield one generator in the state
    that ``substream(master_seed, n_idx, t)`` starts from.

    Every yield is the same ``Generator``, reseeded in place: draw from it
    before taking the next. Keys are derived ``_KEY_CHUNK`` trials at a
    time. A trial index past ``2^32 - 1`` (two key words) is refused, as
    is a key part that is not a non-negative int.
    """
    if not 0 <= start <= stop <= _MASK32 + 1:
        raise ValueError(f"trial range [{start}, {stop}) must lie in "
                         f"[0, 2^32]")
    run = _key_words(master_seed)
    # a spawned SeedSequence pads its run entropy to the pool size
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _key_words(n_idx)
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for t0 in range(start, stop, _KEY_CHUNK):
        words = _chunk_words(pool, hash_const, t0, min(t0 + _KEY_CHUNK, stop))
        for i in range(len(words)):
            s_hi, s_lo, i_hi, i_lo = words[i].tolist()
            # pcg64's srandom: an odd increment, then two LCG steps
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
        del words       # before the next chunk's are derived


_UNIT_SCALE = np.sqrt(0.5)  # sample_circular_gaussian's scale at power 1


def sample_circular_gaussian(rng: np.random.Generator, size, power: float = 1.0):
    """Circularly-symmetric complex Gaussian samples with ``E|W|^2 = power``.

    The variance splits evenly between the real and imaginary parts
    (``power/2`` each). Both planes come from one ``rng.normal`` call, the
    real one first, which draws the same values as two calls of ``size``.
    """
    out = np.empty(size, dtype=complex)
    parts = rng.normal(0.0, np.sqrt(power / 2.0), (2,) + out.shape)
    out.real = parts[0]
    out.imag = parts[1]
    return out


def parallel_map(fn, args_list, threads: int = 1) -> list:
    """Map ``fn`` over ``args_list`` with results in argument order.

    Results are collected by index, so the output (and anything reduced from
    it in order) is independent of the thread count. ``threads`` is a
    worker cap of at least 1, which :class:`~phaselim.simulate.SimConfig`
    and :func:`~phaselim.verify.run_suite` check with :func:`_check_int`;
    a cap of 1, or a single argument, runs sequentially in the calling
    thread.
    """
    if threads <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, args_list))
