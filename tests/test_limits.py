"""Rate forms, the tail power fraction, and threshold optimization."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phaselim.densities import GaussianNoise
from phaselim.limits import (MAX_SNR_GRID, ThresholdInfeasibleError,
                             ThresholdQuery, c_beta_from_snr_db,
                             figure_curves, measurement_thresholds,
                             mi_pair_lower, mi_pair_upper, snr_db,
                             tail_power_fraction, write_figure_csv)
from phaselim.limits import _power_split, _search_max
from phaselim.model import (DiscreteFlat, DiscreteGeneral, GaussianIID,
                            SortedSignal, floor_count, partition_power_arrays,
                            partition_powers)


# ------------------------------------------------- tail power fraction

def _g_closed_form(a):
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(a < 1.0, (1.0 - a) * np.log1p(-a), 0.0)
    return a + term


def test_tail_fraction_against_closed_form():
    grid = np.linspace(0.0, 1.0, 1001)
    ours = tail_power_fraction(grid)
    assert np.max(np.abs(ours - _g_closed_form(grid))) < 1e-8


def test_tail_fraction_endpoints_exact():
    assert tail_power_fraction(0.0) == 0.0
    assert tail_power_fraction(1.0) == 1.0


def test_tail_fraction_pinned_value():
    assert tail_power_fraction(0.5) == pytest.approx(0.15342640972002736,
                                                     abs=1e-10)


def test_tail_fraction_shape():
    grid = np.linspace(0.0, 1.0, 401)
    g = np.asarray(tail_power_fraction(grid))
    assert np.all(np.diff(g) > 0)          # strictly increasing
    assert np.all(g <= grid + 1e-15)       # weakest entries carry less power
    with pytest.raises(ValueError):
        tail_power_fraction(1.5)


def test_tail_fraction_against_mpmath():
    # independent oracle: the power below the alpha quantile t = -log(1-alpha)
    # of the unit exponential, int_0^t u e^-u du = gammainc(2, 0, t), at 60
    # digits; the grid straddles the series/closed-form switch at 1e-3
    alphas = np.concatenate((np.logspace(-12, -0.3, 48),
                             1.0 - np.logspace(-12, -1, 23),
                             [np.nextafter(1e-3, 0.0), 1e-3]))
    ours = tail_power_fraction(alphas)
    worst = 0.0
    with mpmath.workdps(60):
        for a, g in zip(alphas, ours):
            t = -mpmath.log1p(-mpmath.mpf(float(a)))
            exact = mpmath.gammainc(2, 0, t)
            worst = max(worst, float(abs(mpmath.mpf(float(g)) - exact) / exact))
    assert worst < 1e-12


# --------------------------------------------------- pair rate forms

def _lower_oracle(vd, sigma):
    # independent transcription of the achievability rate
    e2h = 2.0 * math.pi * math.e * sigma * sigma
    return 0.5 * math.log(1.0 + 4.0 * vd * vd / e2h)


def _upper_oracle(vd, ve, sigma):
    # independent transcription of the converse rate
    e2h = 2.0 * math.pi * math.e * sigma * sigma
    pe2 = 2.0 * math.pi * math.e
    first = 0.5 * math.log(math.pi * math.e / 2.0)
    second = 0.5 * math.log(1.0 + pe2 * vd * vd / e2h)
    third = 0.5 * math.log(1.0 + vd * ve / (vd * vd + e2h / pe2))
    return first + second + third


def test_pair_rates_match_transcription():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        vd = float(rng.uniform(0.01, 5.0))
        ve = float(rng.uniform(0.0, 5.0))
        sigma = float(rng.uniform(0.1, 3.0))
        noise = GaussianNoise(sigma)
        assert float(mi_pair_lower(vd, noise)) == pytest.approx(
            _lower_oracle(vd, sigma), abs=1e-12)
        assert float(mi_pair_upper(vd, ve, noise)) == pytest.approx(
            _upper_oracle(vd, ve, sigma), abs=1e-12)


def test_pair_rates_ordering():
    rng = np.random.default_rng(3)
    vd = rng.uniform(0.01, 5.0, size=1000)
    ve = rng.uniform(0.0, 5.0, size=1000)
    for sigma in (0.25, 1.0, 2.5):
        noise = GaussianNoise(sigma)
        lo = np.asarray(mi_pair_lower(vd, noise))
        hi = np.asarray(mi_pair_upper(vd, ve, noise))
        assert np.all(lo <= hi)
        assert np.all(lo >= 0)


def test_pair_rates_pinned_values():
    noise = GaussianNoise(1.0)
    assert float(mi_pair_lower(1.0, noise)) == pytest.approx(
        0.10521122044037967, abs=1e-14)
    assert float(mi_pair_upper(1.0, 0.0, noise)) == pytest.approx(
        1.0723649429247, abs=1e-12)


def test_power_split_per_model():
    # the one per-model step of the threshold search: how alpha splits the
    # power, bit for bit as each model defines it
    alphas = np.array([0.0, 1e-4, 0.2, 0.5, 0.9, 1.0])
    c = 1.7
    g = tail_power_fraction(alphas)
    values = (0.3 + 1j, -0.2, 0.9j, 0.4)
    cases = [
        (GaussianIID(c_beta=c, k=10), "floor", (c * g, c * (1.0 - g))),
        (DiscreteFlat(c_beta=c, k=10), "asymptotic",
         (alphas * c, (1.0 - alphas) * c)),
        (DiscreteFlat(c_beta=c, k=10), "floor", partition_power_arrays(
            SortedSignal.flat(c, 10), alphas, "floor")),
        (DiscreteGeneral(values=values), "asymptotic", partition_power_arrays(
            SortedSignal(np.asarray(values)), alphas, "asymptotic")),
    ]
    for signal, mode, (miss, keep) in cases:
        got_miss, got_keep = _power_split(signal, mode)(alphas)
        assert np.array_equal(got_miss, miss), signal
        assert np.array_equal(got_keep, keep), signal
    with pytest.raises(TypeError):
        _power_split(SortedSignal.flat(c, 10), "floor")


def test_sorted_rates_flat_floor():
    noise = GaussianNoise(1.0)
    sig = SortedSignal.flat(1.0, 10)
    # floor(0.25 * 10) = 2 entries carry power 0.2
    miss, keep = partition_power_arrays(sig, 0.25, "floor")
    assert float(mi_pair_lower(miss, noise)) == pytest.approx(
        float(mi_pair_lower(0.2, noise)), abs=1e-14)
    assert float(mi_pair_upper(miss, keep, noise)) == pytest.approx(
        float(mi_pair_upper(0.2, 0.8, noise)), abs=1e-14)


def test_pair_rates_against_mpmath_over_all_powers():
    # missed powers from 1e-3 to 1e300 cross the log-scaled cutoff (1e100
    # noise scales, or 1e150 at the largest sigma) and the old overflow of
    # v*v near 1e154, in one array, up to both ends of the sigma range
    for sigma in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        noise = GaussianNoise(sigma)
        e2h = noise.exp_2h()
        # from 1e-12 noise scales: at sigma 1e-150 the square of v is
        # subnormal up to 1.5e-154, and was off by 1e-3 relative at 1e-160
        v = np.concatenate([sigma * np.logspace(-12, -4, 9),
                            np.logspace(-3, 300, 102)])
        for ratio in (0.0, 0.5, 3.0):
            w = ratio * v
            lo = mi_pair_lower(v, noise)
            hi = mi_pair_upper(v, w, noise)
            with mpmath.workdps(60):
                for vi, wi, l, h in zip(v, w, lo, hi):
                    vm, wm, em = (mpmath.mpf(float(x)) for x in (vi, wi, e2h))
                    pe2 = 2 * mpmath.pi * mpmath.e
                    l_ref = 0.5 * mpmath.log1p(4 * vm**2 / em)
                    h_ref = (0.5 * mpmath.log(mpmath.pi * mpmath.e / 2)
                             + 0.5 * mpmath.log1p(pe2 * vm**2 / em)
                             + 0.5 * mpmath.log1p(vm * wm / (vm**2 + em / pe2)))
                    assert abs(l - l_ref) <= 1e-13 * l_ref
                    assert abs(h - h_ref) <= 1e-13 * h_ref
    noise = GaussianNoise(1.0)
    assert math.isfinite(mi_pair_lower(1e200, noise))
    assert math.isfinite(mi_pair_upper(1e200, 1e200, noise))


def test_sorted_rates_match_per_alpha_partition():
    # the array path reproduces partition_powers -> mi_pair_* alpha by alpha,
    # bit for bit, including alphas whose alpha*k sits within the 1e-9 floor
    # snap just below an integer
    rng = np.random.default_rng(11)
    noise = GaussianNoise(0.7)
    signals = [SortedSignal.flat(2.5, 10), SortedSignal.flat(1.0, 1000)]
    for _ in range(6):
        k = int(rng.integers(1, 50))
        general = DiscreteGeneral(values=tuple(rng.normal(size=k)
                                               + 1j * rng.normal(size=k)))
        signals.append(SortedSignal(np.asarray(general.values)))
    assert floor_count((3 - 5e-10) / 10, 10) == 3   # the snap case occurs
    for sig in signals:
        counts = np.arange(1, sig.k + 1)
        alphas = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 64),
                                 counts / sig.k, (counts - 5e-10) / sig.k,
                                 (counts - 2e-9) / sig.k))
        for mode in ("floor", "asymptotic"):
            miss, keep = partition_power_arrays(sig, alphas, mode)
            lo = mi_pair_lower(miss, noise)
            hi = mi_pair_upper(miss, keep, noise)
            for j, a in enumerate(alphas):
                ref_miss, ref_keep = partition_powers(sig, float(a), mode)
                assert miss[j] == ref_miss and keep[j] == ref_keep
                assert lo[j] == mi_pair_lower(ref_miss, noise)
                assert hi[j] == mi_pair_upper(ref_miss, ref_keep, noise)
            for bad in (-0.1, 1.5, np.nan):
                bad_alphas = np.append(alphas, bad)
                with pytest.raises(ValueError):
                    mi_pair_lower(partition_power_arrays(
                        sig, bad_alphas, mode)[0], noise)
                with pytest.raises(ValueError):
                    mi_pair_upper(*partition_power_arrays(
                        sig, bad_alphas, mode), noise)


# ------------------------------------------------- threshold queries

def test_threshold_query_validation():
    sig = DiscreteFlat(c_beta=1.0, k=4)
    with pytest.raises(ValueError):
        ThresholdQuery(p=10, signal=sig, alpha_star=0.0)
    with pytest.raises(ValueError):
        ThresholdQuery(p=10, signal=sig, alpha_star=1.0)
    with pytest.raises(ValueError):
        ThresholdQuery(p=3, signal=sig)
    with pytest.raises(ValueError):
        ThresholdQuery(p=10, signal=sig, mode="bogus")
    # floor mode with floor(alpha* k) = 0 cannot express the error event
    with pytest.raises(ValueError):
        ThresholdQuery(p=10, signal=sig, alpha_star=0.1, mode="floor")
    # 1e-10 would ask for a 5e9-entry alpha grid (more than 1e7)
    for step in (0.0, -0.01, math.nan, math.inf, 1e-10):
        with pytest.raises(ValueError):
            ThresholdQuery(p=10, signal=sig, alpha_star=0.5,
                           grid_step=step)


def test_threshold_example_value():
    q = ThresholdQuery(p=1000, signal=GaussianIID(c_beta=1.0, k=10),
                       noise=GaussianNoise(1.0), alpha_star=0.999999999)
    r = measurement_thresholds(q)
    assert r.n_ach == pytest.approx(437.707, rel=1e-4)
    assert r.alpha_ach == pytest.approx(1.0, abs=1e-6)
    budget = 10 * math.log(100.0)
    assert r.n_ach_norm == pytest.approx(r.n_ach / budget, rel=1e-12)


def test_threshold_determinism():
    q = ThresholdQuery(p=500, signal=DiscreteFlat(c_beta=2.0, k=5),
                       alpha_star=0.3, mode="asymptotic")
    a = measurement_thresholds(q)
    b = measurement_thresholds(q)
    assert a == b


def test_threshold_ach_above_converse_needs_margin():
    # the converse optimizes (alpha - alpha*), so it never exceeds the
    # achievability numerator at equal denominator quality; check the
    # ordering on a few concrete queries
    for c in (0.5, 1.0, 4.0):
        q = ThresholdQuery(p=200, signal=DiscreteFlat(c_beta=c, k=8),
                           alpha_star=0.25, mode="asymptotic")
        r = measurement_thresholds(q)
        assert r.n_con <= r.n_ach
        assert r.n_con > 0


def _threshold_outcome(signal, sigma, alpha_star, mode):
    """Result of a query, or the name of the error that ends it."""
    try:
        return measurement_thresholds(ThresholdQuery(
            p=1000, signal=signal, noise=GaussianNoise(sigma),
            alpha_star=alpha_star, mode=mode))
    except (FloatingPointError, ThresholdInfeasibleError) as exc:
        return type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(["flat", "gaussian", "general"]),
       mode=st.sampled_from(["floor", "asymptotic"]),
       log_c=st.floats(-290.0, 300.0), log_sigma=st.floats(-150.0, 150.0),
       half_j=st.integers(-500, 500), alpha_star=st.sampled_from([0.25, 0.5]))
def test_thresholds_invariant_under_joint_scaling(model, mode, log_c,
                                                  log_sigma, half_j,
                                                  alpha_star):
    # the rates see the powers only through v^2 / exp(2h), so scaling the
    # signal power and sigma by one power of two leaves every count (and
    # every refusal) as it was; amplitudes scale by 2^half_j
    c, sigma, j = 10.0 ** log_c, 10.0 ** log_sigma, 2 * half_j
    assume(1e-150 <= sigma * 2.0 ** j <= 1e150)
    # a power of two scales a float exactly only while it stays normal: at
    # 1e-290 and up every missed share of the power does
    assume(c * 2.0 ** j >= 1e-290)
    shape = (0.25, 0.5, 1.0, 2.0)

    def signal(scale):
        if model == "general":
            amp = math.sqrt(c) * 2.0 ** (half_j if scale else 0)
            return DiscreteGeneral(tuple(amp * a for a in shape))
        power = c * 2.0 ** (j if scale else 0)
        return (DiscreteFlat if model == "flat" else GaussianIID)(power, 4)

    try:
        scaled = signal(True)
    except (ValueError, OverflowError):     # the scaled power leaves the
        assume(False)                       # float range
    base = _threshold_outcome(signal(False), sigma, alpha_star, mode)
    other = _threshold_outcome(scaled, sigma * 2.0 ** j, alpha_star, mode)
    if isinstance(base, str) or isinstance(other, str):
        assert base == other
    else:
        assert other.n_ach == pytest.approx(base.n_ach, rel=1e-12)
        assert other.n_con == pytest.approx(base.n_con, rel=1e-12)


def test_threshold_infeasible_zero_mass():
    # bottom coefficient carries no power: nothing to miss at small alpha
    sig = DiscreteGeneral(values=(0.0, 0.0, 1.0, 1.0))
    q = ThresholdQuery(p=50, signal=sig, alpha_star=0.5, mode="floor")
    with pytest.raises(ThresholdInfeasibleError):
        measurement_thresholds(q)


def test_threshold_underflow_is_numeric_failure():
    # the missed power is positive but v^2 / exp(2h) leaves the float range
    # (sigma 1): at 1e-155 the lower rate is subnormal and the count
    # overflows, at 1e-170 and below the rate underflows to 0
    for signal in (GaussianIID(c_beta=1e-155, k=10),
                   GaussianIID(c_beta=1e-170, k=10),
                   DiscreteFlat(c_beta=1e-170, k=10),
                   DiscreteGeneral(values=(1e-160, 1e-160, 1.0, 1.0))):
        q = ThresholdQuery(p=1000, signal=signal,
                           alpha_star=0.5, mode="asymptotic")
        with pytest.raises(FloatingPointError):
            measurement_thresholds(q)
    with pytest.raises(FloatingPointError):
        figure_curves(snr_db_values=[-3100.0])


def test_threshold_monotone_in_snr():
    prev = None
    for c in (0.25, 1.0, 4.0, 16.0):
        q = ThresholdQuery(p=100, signal=DiscreteFlat(c_beta=c, k=4),
                           alpha_star=0.1, mode="asymptotic")
        r = measurement_thresholds(q)
        if prev is not None:
            assert r.n_ach < prev
        prev = r.n_ach


def test_thresholds_finite_at_extreme_power():
    # at alpha = 1 the forms are L(1) = 0.5 log1p(4 c^2 / exp(2h)) and
    # U(1) = 0.5 log(pi e / 2) + 0.5 log1p(c^2 / sigma^2), so
    # n_ach / n_con = U(1) / ((1 - alpha_star) L(1)); the plain forms
    # overflowed here (n_ach 0, n_con nan)
    for c_beta in (1e200, 1e300):
        q = ThresholdQuery(p=1000, signal=GaussianIID(c_beta=c_beta, k=10),
                           alpha_star=0.1)
        r = measurement_thresholds(q)
        assert math.isfinite(r.n_ach) and math.isfinite(r.n_con)
        assert 0.0 < r.n_con <= r.n_ach
        assert r.alpha_ach == 1.0 and r.alpha_con == 1.0
        with mpmath.workdps(60):
            c = mpmath.mpf(c_beta)
            lower = 0.5 * mpmath.log1p(2 * c**2 / (mpmath.pi * mpmath.e))
            upper = (0.5 * mpmath.log(mpmath.pi * mpmath.e / 2)
                     + 0.5 * mpmath.log1p(c**2))
            ratio = float(upper / (mpmath.mpf(1.0 - 0.1) * lower))
        assert r.n_ach / r.n_con == pytest.approx(ratio, rel=1e-12)


def test_threshold_grid_never_passes_one():
    # np.arange(0.1, 1.0, 1e-6) ends at 1.0000000000009 > 1, which the rate
    # forms reject as an alpha outside [0, 1]
    for signal in (GaussianIID(c_beta=1.0, k=10), DiscreteFlat(c_beta=1.0, k=10)):
        q = ThresholdQuery(p=1000, signal=signal, alpha_star=0.1,
                           mode="asymptotic", grid_step=1e-6)
        r = measurement_thresholds(q)
        assert 0.1 <= r.alpha_ach <= 1.0 and 0.1 <= r.alpha_con <= 1.0
        assert 0.0 < r.n_con <= r.n_ach


def test_general_signal_floor_thresholds():
    sig = DiscreteGeneral(values=(0.5, 1.0, 1.5, 2.0))
    q = ThresholdQuery(p=40, signal=sig, alpha_star=0.25, mode="floor")
    r = measurement_thresholds(q)
    assert r.n_ach > 0 and r.n_con >= 0
    assert math.isfinite(r.n_ach)


def _floor_brute_force(q):
    # n_ach, n_con, alpha_ach, alpha_con as the max over l missed entries
    # of l/k over the rate of those same l entries (alpha_star itself for
    # the first l), one scalar l at a time
    k = q.signal.k
    sig = (SortedSignal.flat(q.signal.c_beta, k)
           if isinstance(q.signal, DiscreteFlat)
           else SortedSignal(np.asarray(q.signal.values, dtype=complex)))
    first = floor_count(q.alpha_star, k)
    points = [(q.alpha_star if l == first else l / k, l)
              for l in range(first, k + 1)]
    ach = [(a / mi_pair_lower(sig.prefix[l], q.noise), a) for a, l in points]
    con = [((a - q.alpha_star) / mi_pair_upper(
        sig.prefix[l], sig.total_power - sig.prefix[l], q.noise), a)
        for a, l in points]
    (v_ach, a_ach), (v_con, a_con) = (max(ach, key=lambda t: t[0]),
                                      max(con, key=lambda t: t[0]))
    budget = k * math.log(q.p / k)
    return v_ach * budget, v_con * budget, a_ach, a_con


def test_floor_thresholds_are_the_max_over_missed_counts():
    # the missed power is constant on each [l/k, (l+1)/k), so a search over
    # a grid climbed to just below the next step and paired the numerator
    # of l + 1 missed entries with the rate of l (2x too high for flat
    # k = 10 at alpha_star 0.1, and with the answer moving with grid_step
    # for flat k = 100)
    cases = [(DiscreteFlat(c_beta=0.1, k=10), 0.1),
             (DiscreteFlat(c_beta=10.0, k=10), 0.1),
             (DiscreteGeneral(values=(0.5, 1.0, 1.5, 2.0)), 0.25),
             (DiscreteGeneral(values=(0.5, 1.0, 1.5, 2.0)), 0.5),
             (DiscreteFlat(c_beta=1.0, k=100), 0.1),
             # 0.3 * 10 is 3.0000000000000004, a whole count within the snap
             (DiscreteFlat(c_beta=1.0, k=10), 0.3)]
    for signal, alpha_star in cases:
        results = []
        for step in (1e-3, 1e-2, 0.05):
            q = ThresholdQuery(p=1000, signal=signal,
                               noise=GaussianNoise(1.0),
                               alpha_star=alpha_star, mode="floor",
                               grid_step=step)
            r = measurement_thresholds(q)
            assert (r.n_ach, r.n_con, r.alpha_ach, r.alpha_con) == \
                _floor_brute_force(q), (signal, alpha_star, step)
            assert alpha_star <= r.alpha_ach <= 1.0
            assert alpha_star <= r.alpha_con <= 1.0
            results.append(r)
        assert results[0] == results[1] == results[2]
    # 0.3 * 4 = 1.2 missed entries is no whole count
    with pytest.raises(ValueError, match="whole count"):
        ThresholdQuery(p=40, signal=DiscreteGeneral(
            values=(0.5, 1.0, 1.5, 2.0)), alpha_star=0.3, mode="floor")
    # the Gaussian model has no floor mode, so any alpha_star is accepted
    ThresholdQuery(p=40, signal=GaussianIID(c_beta=1.0, k=4),
                   alpha_star=0.3, mode="floor")


def _smooth_objectives(signal, noise, alpha_star):
    split = _power_split(signal, "asymptotic")

    def ach(a):
        return np.asarray(a) / mi_pair_lower(split(a)[0], noise)

    def con(a):
        return (np.asarray(a) - alpha_star) / mi_pair_upper(*split(a), noise)

    return ach, con


@settings(max_examples=40, deadline=None)
@given(gaussian=st.booleans(), log_c=st.floats(-1.0, 8.0),
       log_sigma=st.floats(-2.0, 2.0), alpha_star=st.floats(0.05, 0.6),
       step=st.sampled_from([1e-3, 1e-2, 0.05]))
def test_refine_step_beats_dense_grid(gaussian, log_c, log_sigma, alpha_star,
                                      step):
    # the zoom of _search_max on the smooth objectives of the threshold
    # search (Gaussian model, and flat power split in asymptotic mode): its
    # value is at least every grid value and within 1e-12 relative of the
    # largest on a dense grid over the cells beside the best grid point,
    # and over the first and the last cell
    c_beta, noise = 10.0 ** log_c, GaussianNoise(10.0 ** log_sigma)
    signal = (GaussianIID(c_beta=c_beta, k=10) if gaussian
              else DiscreteFlat(c_beta=c_beta, k=10))
    grid = np.arange(alpha_star, 1.0, step)
    grid = np.append(grid[grid < 1.0], 1.0)
    for objective in _smooth_objectives(signal, noise, alpha_star):
        values = objective(grid)
        a, best = _search_max(objective, grid, zoom=True)
        assert alpha_star <= a <= 1.0
        assert best >= np.max(values)
        i = int(np.argmax(values))
        for lo, hi in ((grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                       (grid[0], grid[1]), (grid[-2], grid[-1])):
            cells = np.linspace(lo, hi, 4001)
            assert best >= np.max(objective(cells)) * (1.0 - 1e-12)


def test_refine_searches_last_cell():
    # Gaussian model, c_beta 1, sigma 1, alpha_star 0.5: the converse
    # objective is 0.4662592 at alpha = 1 but 0.4662797 near 0.9998
    _, con = _smooth_objectives(GaussianIID(c_beta=1.0, k=10),
                                GaussianNoise(1.0), 0.5)
    grid = np.arange(0.5, 1.0, 1e-3)
    grid = np.append(grid[grid < 1.0], 1.0)
    a, best = _search_max(con, grid, zoom=True)
    cell = np.linspace(grid[-2], 1.0, 4001)
    assert best >= np.max(con(cell)) * (1.0 - 1e-12)
    assert a < 1.0
    r = measurement_thresholds(ThresholdQuery(
        p=1000, signal=GaussianIID(c_beta=1.0, k=10), alpha_star=0.5))
    assert r.n_con_norm >= 0.4662797 and r.alpha_con < 1.0


# ----------------------------------------------------- SNR and curves

def test_snr_roundtrip():
    noise = GaussianNoise(0.5)
    sig = DiscreteFlat(c_beta=2.0, k=3)
    db = snr_db(sig, noise)
    assert db == pytest.approx(10 * math.log10(2 * 4.0 / 0.25))
    assert c_beta_from_snr_db(db, 0.5) == pytest.approx(2.0, rel=1e-12)
    # the square of the power would underflow or overflow as a float
    unit = GaussianNoise(1.0)
    assert snr_db(DiscreteFlat(c_beta=1e-200, k=1), unit) == pytest.approx(
        10 * math.log10(2.0) - 4000.0, rel=1e-14)
    assert snr_db(DiscreteFlat(c_beta=1e200, k=1), unit) == pytest.approx(
        10 * math.log10(2.0) + 4000.0, rel=1e-14)


def test_figure_curves_shape():
    grid = np.arange(-6.0, 31.0, 3.0)
    curves = figure_curves(alpha_star=0.1, snr_db_values=grid,
                           grid_step=2e-3)
    for kind in ("flat", "gaussian"):
        rows = curves[kind]
        assert rows.shape == (grid.size, 3)
        assert np.array_equal(rows[:, 0], grid)
        assert np.all(np.diff(rows[:, 1]) < 0)   # ach strictly decreasing
        assert np.all(np.diff(rows[:, 2]) < 0)   # con strictly decreasing
        assert np.all(rows[:, 2] <= rows[:, 1])  # converse below achievability


def test_figure_curves_reject_bad_input():
    for kwargs in ({"grid_step": 0.0}, {"grid_step": math.nan},
                   {"alpha_star": 1.0},
                   {"snr_db_values": []}, {"snr_db_values": [0.0, math.nan]},
                   {"snr_db_values": [math.inf]},
                   {"snr_db_values": np.zeros(MAX_SNR_GRID + 1)},
                   # powers that overflow or underflow the float range
                   {"snr_db_values": [40.0, 1e300]},
                   {"snr_db_values": [3100.0]},
                   {"snr_db_values": [-1e300]},
                   {"sigma": 1e-155}, {"sigma": 1e160}):
        with pytest.raises(ValueError):
            figure_curves(**kwargs)


def test_write_figure_csv_roundtrip(tmp_path):
    grid = np.array([0.0, 10.0])
    curves = figure_curves(alpha_star=0.1, snr_db_values=grid)
    path = tmp_path / "rows.csv"
    write_figure_csv(curves["flat"], path)
    text = path.read_text().splitlines()
    assert text[0] == "snr_db,n_ach_norm,n_con_norm"
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in text[1:]])
    assert np.allclose(parsed, curves["flat"], rtol=0, atol=0)
