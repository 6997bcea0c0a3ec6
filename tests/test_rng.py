"""Seeded substreams and order-preserving parallel evaluation."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselim import verify
from phaselim.densities import GaussianNoise
from phaselim.model import GaussianIID
from phaselim.rng import (_trial_streams, parallel_map,
                          sample_circular_gaussian, substream)
from phaselim.simulate import SimConfig, decode


def test_substream_reproducible_and_distinct():
    a = substream(3, 1, 2).normal(size=5)
    b = substream(3, 1, 2).normal(size=5)
    c = substream(3, 1, 3).normal(size=5)
    d = substream(4, 1, 2).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_path_is_not_flattened():
    # (0, 12) and (01, 2) style collisions must not happen
    a = substream(0, 1, 0).normal(size=4)
    b = substream(0, 10).normal(size=4)
    assert not np.array_equal(a, b)


def test_circular_gaussian_shape_and_dtype():
    z = sample_circular_gaussian(substream(0, 0), (3, 4), power=2.0)
    assert z.shape == (3, 4)
    assert z.dtype == np.complex128


def test_circular_gaussian_bytes_match_sum_of_draws():
    # filling one complex array in place keeps the draws of the form
    # real + 1j * imag, in the same order, bit for bit
    for size in ((30, 10), 7, (3, 4, 5), 0, 1000):
        for power in (1.0, 2.5, 1e-300, 1e300):
            rng = substream(5, 1)
            scale = np.sqrt(power / 2.0)
            ref = rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale,
                                                                 size)
            z = sample_circular_gaussian(substream(5, 1), size, power)
            assert z.shape == ref.shape and z.dtype == ref.dtype
            assert z.tobytes() == ref.tobytes(), (size, power)


def test_parallel_map_preserves_order():
    args = list(range(20))
    seq = parallel_map(lambda i: i * i, args, threads=1)
    par = parallel_map(lambda i: i * i, args, threads=5)
    assert seq == [i * i for i in args]
    assert par == seq


@settings(max_examples=60, deadline=None)
@given(master=st.one_of(st.integers(0, 2**33), st.integers(0, 2**140)),
       n_idx=st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
       start=st.one_of(st.integers(0, 600), st.integers(0, 2**32 - 1)),
       length=st.integers(0, 600))
@example(master=0, n_idx=0, start=0, length=256)
@example(master=2**32 - 1, n_idx=9, start=100, length=300)
@example(master=2**96, n_idx=2**32, start=255, length=258)
@example(master=2**128 + 1, n_idx=3, start=2**32 - 300, length=300)
@example(master=2**130 + 12345, n_idx=2**32 - 1, start=2**32 - 1,
         length=1)
def test_trial_streams_match_substream(master, n_idx, start, length):
    # master seeds past 2^128 hash words past SeedSequence's 4-word pool;
    # runs start and end inside key chunks, up to the last one-word index
    stop = min(start + length, 2**32)
    seen = 0
    for t, rng in zip(range(start, stop),
                      _trial_streams(master, n_idx, start, stop)):
        ref = substream(master, n_idx, t)
        assert rng.bit_generator.state == ref.bit_generator.state, t
        assert rng.choice(10, size=2, replace=False).tolist() == \
            ref.choice(10, size=2, replace=False).tolist(), t
        assert rng.normal(size=3).tobytes() == ref.normal(size=3).tobytes()
        seen += 1
    assert seen == stop - start


def test_trial_streams_refuse_keys_they_cannot_take():
    # a trial index of two key words, a negative or non-int key part and a
    # reversed range are refused, not hashed into some other stream
    for args in ((0, 0, 2**32, 2**32 + 1), (0, 0, 0, 2**32 + 1),
                 (0, 0, 5, 4), (-1, 0, 0, 1), (0, -2, 0, 1),
                 (1.5, 0, 0, 1), (True, 0, 0, 1), (0, np.int64(1), 0, 1)):
        with pytest.raises(ValueError):
            next(_trial_streams(*args))
    assert list(_trial_streams(3, 1, 7, 7)) == []


def _no_draw(*args, **kwargs):
    raise AssertionError("drew before refusing")


def _entries():
    """``(parameter, least, call)`` for each public entry that takes a seed
    or a budget; ``call(value, rng)`` passes ``value`` as that parameter."""
    noise, signal = GaussianNoise(1.0), GaussianIID(1.0, 2)
    x, y = np.ones((3, 4), dtype=complex), np.ones(3)
    entries = [
        ("master_seed", 0, lambda v, rng: substream(v, 1)),
        ("path key", 0, lambda v, rng: substream(1, 0, v)),
        ("trials", 1, lambda v, rng: verify.mi_estimate(1.0, 0.0, noise, v,
                                                        rng)),
        ("trials", 1, lambda v, rng: verify.sandwich_check(trials=v)),
        ("master_seed", 0, lambda v, rng: verify.sandwich_check(
            trials=10, master_seed=v, threads=2)),
        ("trials", 1, lambda v, rng: verify.concentration_check(trials=v)),
        ("info_samples", 2, lambda v, rng: verify.concentration_check(
            trials=10, info_samples=v)),
        ("master_seed", 0, lambda v, rng: verify.concentration_check(
            trials=10, info_samples=10, master_seed=v)),
        ("master_seed", 0, lambda v, rng:
            verify.tail_fraction_convergence_check(master_seed=v)),
        ("trials", 1, lambda v, rng: SimConfig(10, signal, trials=v)),
        ("mc_samples", 1, lambda v, rng: SimConfig(10, signal,
                                                   mc_samples=v)),
        ("master_seed", 0, lambda v, rng: SimConfig(10, signal,
                                                    master_seed=v)),
        ("mc_samples", 1, lambda v, rng: decode(
            x, y, signal, noise, "mc-marginal", mc_samples=v, rng=rng)),
    ]
    for suite in verify.SUITE_NAMES:
        entries += [
            ("trials", 1, lambda v, rng, s=suite: verify.run_suite(
                s, trials=v)),
            ("master_seed", 0, lambda v, rng, s=suite: verify.run_suite(
                s, master_seed=v))]
    return entries


def _bad_ints(least):
    return st.one_of(st.integers(max_value=least - 1), st.floats(),
                     st.booleans(), st.just(float("nan")))


@pytest.mark.parametrize("name,least,call", _entries())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_seeds_and_budgets_refused_before_any_draw(name, least, call, data):
    # a float seed ran its integer part, a bool ran seed 0 or 1, a negative
    # one failed inside numpy or ran, and a float budget ended in numpy's
    # TypeError; each is a ValueError that names the parameter, raised
    # before the entry draws or computes its constants
    value = data.draw(_bad_ints(least))
    rng = substream(0, 0)
    state = rng.bit_generator.state
    with pytest.MonkeyPatch.context() as mp:
        for fn in ("_draw_info_samples", "sample_signal_vector",
                   "concentration_constant", "logconcavity_check",
                   "logconcavity_negative_control"):
            mp.setattr(verify, fn, _no_draw)
        with pytest.raises(ValueError, match=name):
            call(value, rng)
    assert rng.bit_generator.state == state
