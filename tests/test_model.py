"""Signal models, supports, sorted prefixes, and power splits."""
import math
import sys

import numpy as np
import pytest
from scipy import stats

from phaselim.model import (DiscreteFlat, DiscreteGeneral, GaussianIID,
                            SortedSignal, floor_count, observe,
                            partition_powers, sample_signal_vector,
                            sample_support)
from phaselim.densities import GaussianNoise
from phaselim.rng import sample_circular_gaussian, substream


def test_floor_count_table():
    assert floor_count(0.0, 10) == 0
    assert floor_count(1.0, 10) == 10
    assert floor_count(0.29, 10) == 2
    # 0.3 * 10 lands just below 3 in binary floats; must still count 3
    assert floor_count(0.3, 10) == 3
    assert floor_count(0.1, 3) == 0
    assert floor_count(0.5, 2) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, k", [
    (math.inf, 3), (-math.inf, 3), (1e308, 10),     # alpha * k infinite
    (math.nan, 3), (math.inf, 0),                   # alpha * k NaN
])
def test_floor_count_refuses_non_finite_product(alpha, k):
    # the error math.floor gives, raised before the snap forms inf - inf
    with np.errstate(all="raise"):
        ak = alpha * k
        with pytest.raises(ValueError if math.isnan(ak) else OverflowError):
            math.floor(ak)
        with pytest.raises(ValueError if math.isnan(ak) else OverflowError):
            floor_count(alpha, k)


def test_floor_count_range_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 40))
        m = floor_count(a, k)
        assert 0 <= m <= k
        assert m <= a * k + 1e-6


def test_signal_total_power():
    assert DiscreteFlat(c_beta=2.0, k=4).total_power == 2.0
    vals = (1 + 1j, 2.0, 0.5j)
    gen = DiscreteGeneral(values=vals)
    assert gen.k == 3
    assert gen.total_power == pytest.approx(2 + 4 + 0.25)
    g = GaussianIID(c_beta=3.0, k=6)
    assert g.sigma_beta_sq == pytest.approx(0.5)
    assert g.total_power == 3.0


def test_signal_validation():
    with pytest.raises(ValueError):
        DiscreteFlat(c_beta=0.0, k=3)
    with pytest.raises(ValueError):
        GaussianIID(c_beta=1.0, k=0)
    with pytest.raises(ValueError):
        DiscreteGeneral(values=())
    for model in (DiscreteFlat, GaussianIID):
        for c_beta in (math.nan, math.inf):
            with pytest.raises(ValueError):
                model(c_beta=c_beta, k=3)
    # non-finite values, and values whose total power leaves the float
    # range (a square that raises OverflowError, or a sum that reaches inf)
    for values in ((math.nan,), (math.nan, 1.0), (math.inf,),
                   (complex(1.0, -math.inf),), (complex(math.nan, 0.0),),
                   (1e200, 1e200), (1e154,) * 3):
        with pytest.raises(ValueError):
            DiscreteGeneral(values=values)
    # all-zero values are a valid signal; the threshold search refuses them
    assert DiscreteGeneral(values=(0.0, 0.0)).total_power == 0.0
    assert DiscreteGeneral(values=(1e150j,)).total_power == pytest.approx(1e300)


def test_subnormal_power_refused():
    # a positive power below the normal float range loses digits in its
    # missed shares; an all-zero signal and the least normal power pass
    for model in (DiscreteFlat, GaussianIID):
        for c_beta in (5e-323, 1e-320, sys.float_info.min / 2):
            with pytest.raises(ValueError, match="normal float range"):
                model(c_beta=c_beta, k=3)
        assert model(c_beta=sys.float_info.min, k=3).total_power > 0.0
    with pytest.raises(ValueError, match="normal float range"):
        DiscreteGeneral(values=(1e-160, 1e-160j))
    assert DiscreteGeneral(values=(0.0, 0.0)).total_power == 0.0
    assert DiscreteGeneral(values=(1e-153,)).total_power >= sys.float_info.min


def test_flat_vector_deterministic():
    sig = DiscreteFlat(c_beta=1.0, k=4)
    b1 = sample_signal_vector(sig, substream(0, 1))
    b2 = sample_signal_vector(sig, substream(99, 5))
    assert np.array_equal(b1, b2)
    assert np.allclose(np.abs(b1) ** 2, 0.25)


def test_general_vector_is_permutation():
    vals = (1.0, 2.0, 3.0 + 1j, 0.25j)
    sig = DiscreteGeneral(values=vals)
    b = sample_signal_vector(sig, substream(3, 0))
    assert sorted(np.abs(b) ** 2) == pytest.approx(sorted(abs(v) ** 2 for v in vals))


def test_gaussian_vector_moments():
    sig = GaussianIID(c_beta=2.0, k=50000)
    b = sample_signal_vector(sig, substream(11, 0))
    # per-entry power c/k, circular symmetry kills the pseudo-variance
    assert np.mean(np.abs(b) ** 2) == pytest.approx(sig.sigma_beta_sq, rel=0.02)
    assert abs(np.mean(b ** 2)) < 3 * sig.sigma_beta_sq / math.sqrt(b.size)


def test_gaussian_magnitudes_exponential():
    # |CN(0, v)|^2 is exponential with mean v
    sig = GaussianIID(c_beta=1.0, k=20000)
    b = sample_signal_vector(sig, substream(13, 0))
    u = np.abs(b) ** 2 / sig.sigma_beta_sq
    d, _ = stats.kstest(u, "expon")
    assert d < 1.63 / math.sqrt(u.size)  # 1% asymptotic KS band


def test_sample_support_uniform_chi2():
    p, k, draws = 5, 2, 4000
    rng = substream(21, 0)
    counts = {}
    for _ in range(draws):
        s = tuple(sample_support(p, k, rng).tolist())
        counts[s] = counts.get(s, 0) + 1
    cells = math.comb(p, k)
    assert len(counts) == cells
    observed = np.array(list(counts.values()))
    chi2 = float(np.sum((observed - draws / cells) ** 2 / (draws / cells)))
    # dof = 9; 0.999 quantile ~ 27.9
    assert chi2 < 27.9


def test_sample_support_is_sorted_distinct_index_array():
    # the guarantee the decoder's candidates and the error count rely on
    rng = substream(22, 0)
    for p, k in ((1, 1), (5, 2), (5, 5), (40, 3), (1000, 7)):
        for _ in range(50):
            s = sample_support(p, k, rng)
            assert s.shape == (k,) and s.dtype.kind == "i"
            assert np.all(np.diff(s) > 0)
            assert 0 <= s[0] and s[-1] < p


def test_sorted_signal_prefix():
    sig = SortedSignal(np.array([3.0, 1.0, 2.0j]))
    assert sig.k == 3
    assert np.allclose(sig.sq_magnitudes, [1.0, 4.0, 9.0])
    assert sig.prefix[0] == 0.0
    assert sig.prefix[2] == pytest.approx(5.0)
    assert sig.total_power == pytest.approx(14.0)
    flat = SortedSignal.flat(2.0, 8)
    assert flat.prefix[4] == pytest.approx(1.0)


def test_library_refusals():
    # each refusal through its public entry, with its message
    for bad in (np.ones((2, 2)), np.array([])):
        with pytest.raises(ValueError, match="1-d and nonempty"):
            SortedSignal(bad)
    sig = SortedSignal.flat(1.0, 4)
    with pytest.raises(ValueError, match="unknown mode 'nope'"):
        partition_powers(sig, np.array([0.1, 0.5]), mode="nope")
    with pytest.raises(TypeError, match="unknown signal model SortedSignal"):
        sample_signal_vector(sig, substream(0, 0))


def test_partition_modes():
    sig = SortedSignal.flat(1.0, 10)
    lo_miss, _ = partition_powers(sig, 0.25, mode="floor")
    assert floor_count(0.25, sig.k) == 2
    assert lo_miss == pytest.approx(0.2)
    hi_miss, hi_keep = partition_powers(sig, 0.25, mode="asymptotic")
    assert hi_miss == pytest.approx(0.25)
    assert hi_miss + hi_keep == pytest.approx(sig.total_power)
    _, full_keep = partition_powers(sig, 1.0, mode="floor")
    assert full_keep == pytest.approx(0.0)
    with pytest.raises(ValueError):
        partition_powers(sig, 1.5)
    with pytest.raises(ValueError):
        partition_powers(sig, 0.5, mode="nope")


def test_partition_split_exact_on_battery():
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(1, 30))
        sig = SortedSignal(rng.normal(size=k) + 1j * rng.normal(size=k))
        a = float(rng.uniform(0, 1))
        for mode in ("floor", "asymptotic"):
            miss, keep = partition_powers(sig, a, mode=mode)
            assert miss + keep == pytest.approx(sig.total_power, abs=1e-12)
            assert miss >= -1e-15
            assert keep >= -1e-12


def test_projection_convention():
    # <x, b> conjugates the sensing row: [1, i] against [1, i] doubles
    x = np.array([[1.0, 1.0j]])
    beta = np.array([1.0, 1.0j])
    noise = GaussianNoise(1e-12)
    y = observe(x, beta, noise, substream(0, 0))
    assert y[0] == pytest.approx(4.0, abs=1e-6)


def test_observe_shape_check():
    with pytest.raises(ValueError):
        observe(np.ones((2, 3)), np.ones(2), GaussianNoise(1.0), substream(0, 0))


def test_circular_gaussian_component_variance():
    rng = substream(1, 2)
    z = sample_circular_gaussian(rng, 200000, power=3.0)
    assert np.var(z.real) == pytest.approx(1.5, rel=0.02)
    assert np.var(z.imag) == pytest.approx(1.5, rel=0.02)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(3.0, rel=0.02)
