"""Seeded substreams and order-preserving parallel evaluation."""
import numpy as np

from phaselim.rng import parallel_map, sample_circular_gaussian, substream


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
