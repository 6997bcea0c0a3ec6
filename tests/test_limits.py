"""Rate forms, the tail power fraction, and threshold optimization."""
import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phaselim.densities import GaussianNoise
from phaselim.limits import (MAX_SNR_GRID, ThresholdInfeasibleError,
                             ThresholdQuery, c_beta_from_snr_db,
                             figure_curves, measurement_thresholds,
                             mi_pair_lower, mi_pair_upper, snr_db,
                             tail_power_fraction, write_figure_csv)
from phaselim import limits
from phaselim.cli import main
from phaselim.limits import (_ROW_CHUNK, _ZOOM_POINTS, _ZOOM_WIDTH,
                             _power_split, _search_max, _threshold_rows)
from phaselim.model import (DiscreteFlat, DiscreteGeneral, GaussianIID,
                            floor_count, partition_powers)


def _flat(c_beta, k):
    # the coefficient vector of DiscreteFlat(c_beta, k)
    return np.full(k, np.sqrt(c_beta / k), dtype=complex)


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
        (DiscreteFlat(c_beta=c, k=10), "floor", partition_powers(
            _flat(c, 10), alphas, "floor")),
        (DiscreteGeneral(values=values), "asymptotic", partition_powers(
            np.asarray(values), alphas, "asymptotic")),
    ]
    for signal, mode, (miss, keep) in cases:
        got_miss, got_keep = _power_split(signal, mode)(alphas)
        assert np.array_equal(got_miss, miss), signal
        assert np.array_equal(got_keep, keep), signal
    # a coefficient vector is no signal model: the query refuses it
    with pytest.raises(TypeError, match="unknown signal model ndarray"):
        ThresholdQuery(p=10, signal=_flat(c, 10))


def test_sorted_rates_flat_floor():
    noise = GaussianNoise(1.0)
    # floor(0.25 * 10) = 2 entries carry power 0.2
    miss, keep = partition_powers(_flat(1.0, 10), 0.25, "floor")
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


def test_upper_rate_cross_term_past_float_range():
    # v w (or w / sqrt(exp(2h))) past the float range made the cross term
    # inf, so U was inf and a converse value 0, with an overflow warning
    # (a kept power of 1.2e275 beside a missed one of 1.5e33, at sigma 1)
    pe2 = 2 * mpmath.pi * mpmath.e
    for sigma in (1e-150, 1.0, 1e150):
        noise = GaussianNoise(sigma)
        v = np.array([1e-170, 1e-160, 1e-100, 1.0, 1.5e33, 1e100, 1e150,
                      1e200])
        for keep in (1e250, 1.2e275, 1e300, 1.7e308):
            hi = mi_pair_upper(v, np.full(v.shape, keep), noise)
            with mpmath.workdps(60):
                em, wm = mpmath.mpf(noise.exp_2h()), mpmath.mpf(keep)
                for vi, h in zip(v, hi):
                    vm = mpmath.mpf(float(vi))
                    ref = (0.5 * mpmath.log(mpmath.pi * mpmath.e / 2)
                           + 0.5 * mpmath.log1p(pe2 * vm**2 / em)
                           + 0.5 * mpmath.log1p(vm * wm / (vm**2 + em / pe2)))
                    assert abs(h - ref) <= 1e-13 * ref, (sigma, vi, keep)
            assert mi_pair_upper(float(v[4]), keep, noise) == hi[4]
            # no missed power: the cross term is 0, not 0 * inf
            assert mi_pair_upper(0.0, keep, noise) == pytest.approx(
                0.5 * math.log(math.pi * math.e / 2.0), rel=1e-15)


def _sorted_prefix(beta):
    # squared magnitudes (numpy's complex abs), ascending, and their sums
    # left to right, in Python floats
    squares = sorted((np.abs(np.asarray(beta)) ** 2).tolist())
    prefix = [0.0]
    for sq in squares:
        prefix.append(prefix[-1] + sq)
    return squares, prefix


def _partition_oracle(beta, alpha, mode):
    # one alpha at a time through floor_count, in Python floats
    squares, prefix = _sorted_prefix(beta)
    k = len(squares)
    m = floor_count(alpha, k)
    miss = prefix[m]
    if mode == "asymptotic":
        frac = alpha * k - m
        if frac > 0 and m < k:
            miss += frac * squares[m]
    return miss, prefix[-1] - miss


def test_sorted_rates_match_per_alpha_partition():
    # partition_powers of an array and of each float reproduce the
    # one-alpha oracle, and mi_pair_* of the array its rates alpha by
    # alpha, bit for bit, including alphas whose alpha*k sits within the
    # 1e-9 floor snap just below an integer
    rng = np.random.default_rng(11)
    noise = GaussianNoise(0.7)
    signals = [_flat(2.5, 10), _flat(1.0, 1000)]
    for _ in range(6):
        k = int(rng.integers(1, 50))
        general = DiscreteGeneral(values=tuple(rng.normal(size=k)
                                               + 1j * rng.normal(size=k)))
        signals.append(np.asarray(general.values))
    assert floor_count((3 - 5e-10) / 10, 10) == 3   # the snap case occurs
    for sig in signals:
        counts = np.arange(1, sig.size + 1)
        alphas = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 64),
                                 counts / sig.size, (counts - 5e-10) / sig.size,
                                 (counts - 2e-9) / sig.size))
        for mode in ("floor", "asymptotic"):
            miss, keep = partition_powers(sig, alphas, mode)
            lo = mi_pair_lower(miss, noise)
            hi = mi_pair_upper(miss, keep, noise)
            for j, a in enumerate(alphas):
                ref_miss, ref_keep = _partition_oracle(sig, float(a), mode)
                assert miss[j] == ref_miss and keep[j] == ref_keep
                one = partition_powers(sig, float(a), mode)
                assert [np.ndim(x) for x in one] == [0, 0]
                assert one == (ref_miss, ref_keep)
                assert lo[j] == mi_pair_lower(ref_miss, noise)
                assert hi[j] == mi_pair_upper(ref_miss, ref_keep, noise)
            for bad in (-0.1, 1.5, np.nan):
                bad_alphas = np.append(alphas, bad)
                with pytest.raises(ValueError):
                    partition_powers(sig, bad_alphas, mode)
                with pytest.raises(ValueError):
                    partition_powers(sig, bad, mode)


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


def test_threshold_query_refuses_a_non_model():
    # object() raised AttributeError on its missing k; an object with a k
    # got floor mode's whole-count ValueError, or a TypeError only once
    # measurement_thresholds ran
    class Fake:
        k = 4
        c_beta = 1.0

    for signal in (object(), Fake()):
        for mode in ("floor", "asymptotic"):
            with pytest.raises(TypeError, match="unknown signal model "
                               f"{type(signal).__name__}$"):
                ThresholdQuery(p=10, signal=signal, alpha_star=0.25,
                               mode=mode)


def test_threshold_example_value():
    q = ThresholdQuery(p=1000, signal=GaussianIID(c_beta=1.0, k=10),
                       noise=GaussianNoise(1.0), alpha_star=0.999999999)
    r = measurement_thresholds(q)
    assert r.n_ach == pytest.approx(437.707, rel=1e-4)
    assert r.alpha_ach == pytest.approx(1.0, abs=1e-6)
    budget = 10 * math.log(100.0)
    assert r.n_ach_norm == pytest.approx(r.n_ach / budget, rel=1e-12)


def test_threshold_budget_past_float_range():
    # p / k of a whole p past the float range overflowed, though the budget
    # k log(p/k) is about 9190; counts whose p / k is a float keep their
    # bytes, 2^1024 included (its quotient by k is in range)
    sig = DiscreteFlat(c_beta=1.0, k=10)
    r = measurement_thresholds(ThresholdQuery(p=10**400, signal=sig))
    budget = 10 * 399 * math.log(10.0)
    assert math.isfinite(r.n_ach) and math.isfinite(r.n_con)
    assert r.n_ach == pytest.approx(r.n_ach_norm * budget, rel=1e-12)
    assert r.n_con == pytest.approx(r.n_con_norm * budget, rel=1e-12)
    for p in (10**300, 2**1024):
        r = measurement_thresholds(ThresholdQuery(p=p, signal=sig))
        assert r.n_ach == r.n_ach_norm * (10 * math.log(p / 10))


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


def test_count_past_float_range_is_numeric_failure():
    # the normalized count is finite (1.0089e306 at any p); its product
    # with k log(p/k) passes the float range from some p on
    signal = DiscreteFlat(c_beta=9.2e-153, k=1000)
    ok = measurement_thresholds(ThresholdQuery(
        p=1100, signal=signal, alpha_star=0.1, mode="floor"))
    assert 1e306 < ok.n_ach_norm < ok.n_ach < math.inf
    with pytest.raises(FloatingPointError,
                       match="measurement count is not a finite float"):
        measurement_thresholds(ThresholdQuery(
            p=10 ** 5, signal=signal, alpha_star=0.1, mode="floor"))


def test_upper_rate_broadcasts_a_scalar_against_an_array():
    noise = GaussianNoise(0.8)
    keep = np.array([0.0, 1.0, 2.0, 1e200])
    for miss in (0.5, 1e-160, 1e160):
        got = mi_pair_upper(miss, keep, noise)
        assert got.shape == keep.shape
        assert got.tolist() == [mi_pair_upper(miss, w, noise) for w in keep]
        flipped = mi_pair_upper(keep, miss, noise)
        assert flipped.tolist() == [mi_pair_upper(v, miss, noise)
                                    for v in keep]


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
    # np.arange(0.283, 1.0, 1e-3) ends at 1.0000000000000007 > 1, which the
    # rate forms reject as an alpha outside [0, 1]
    assert np.arange(0.283, 1.0, 1e-3)[-1] > 1.0
    grid = limits._smooth_grid(0.283)
    assert grid[-1] == 1.0 and np.all(grid[:-1] < 1.0)
    for signal in (GaussianIID(c_beta=1.0, k=10), DiscreteFlat(c_beta=1.0, k=10)):
        q = ThresholdQuery(p=1000, signal=signal, alpha_star=0.283,
                           mode="asymptotic")
        r = measurement_thresholds(q)
        assert 0.283 <= r.alpha_ach <= 1.0 and 0.283 <= r.alpha_con <= 1.0
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
    _, prefix = _sorted_prefix(_flat(q.signal.c_beta, k)
                               if isinstance(q.signal, DiscreteFlat)
                               else q.signal.values)
    first = floor_count(q.alpha_star, k)
    points = [(q.alpha_star if l == first else l / k, l)
              for l in range(first, k + 1)]
    ach = [(a / mi_pair_lower(prefix[l], q.noise), a) for a, l in points]
    con = [((a - q.alpha_star) / mi_pair_upper(
        prefix[l], prefix[-1] - prefix[l], q.noise), a)
        for a, l in points]
    (v_ach, a_ach), (v_con, a_con) = (max(ach, key=lambda t: t[0]),
                                      max(con, key=lambda t: t[0]))
    budget = k * math.log(q.p / k)
    return v_ach * budget, v_con * budget, a_ach, a_con


def test_floor_thresholds_are_the_max_over_missed_counts():
    # the missed power is constant on each [l/k, (l+1)/k), so a search over
    # a grid climbed to just below the next step and paired the numerator
    # of l + 1 missed entries with the rate of l (2x too high for flat
    # k = 10 at alpha_star 0.1)
    cases = [(DiscreteFlat(c_beta=0.1, k=10), 0.1),
             (DiscreteFlat(c_beta=10.0, k=10), 0.1),
             (DiscreteGeneral(values=(0.5, 1.0, 1.5, 2.0)), 0.25),
             (DiscreteGeneral(values=(0.5, 1.0, 1.5, 2.0)), 0.5),
             (DiscreteFlat(c_beta=1.0, k=100), 0.1),
             # 0.3 * 10 is 3.0000000000000004, a whole count within the snap
             (DiscreteFlat(c_beta=1.0, k=10), 0.3)]
    for signal, alpha_star in cases:
        q = ThresholdQuery(p=1000, signal=signal, noise=GaussianNoise(1.0),
                           alpha_star=alpha_star, mode="floor")
        r = measurement_thresholds(q)
        assert (r.n_ach, r.n_con, r.alpha_ach, r.alpha_con) == \
            _floor_brute_force(q), (signal, alpha_star)
        assert alpha_star <= r.alpha_ach <= 1.0
        assert alpha_star <= r.alpha_con <= 1.0
    # 0.3 * 4 = 1.2 missed entries is no whole count
    with pytest.raises(ValueError, match="whole count"):
        ThresholdQuery(p=40, signal=DiscreteGeneral(
            values=(0.5, 1.0, 1.5, 2.0)), alpha_star=0.3, mode="floor")
    # the Gaussian model has no floor mode, so any alpha_star is accepted
    ThresholdQuery(p=40, signal=GaussianIID(c_beta=1.0, k=4),
                   alpha_star=0.3, mode="floor")


def _search_max_one_row(objective, alphas, zoom):
    # the threshold search before it ran rows together: one objective,
    # one call per round, the zoom grid from np.linspace
    best_a, best_v = math.nan, -math.inf
    while True:
        values = objective(alphas)
        i = int(np.argmax(values))
        if values[i] > best_v:
            best_a, best_v = float(alphas[i]), float(values[i])
        lo, hi = alphas[max(i - 1, 0)], alphas[min(i + 1, alphas.size - 1)]
        if not zoom or hi - lo <= _ZOOM_WIDTH:
            return best_a, best_v
        alphas = np.linspace(lo, hi, _ZOOM_POINTS)


def _smooth_objectives(signal, noise, alpha_star):
    split = _power_split(signal, "asymptotic")

    def ach(a):
        with np.errstate(divide="ignore", over="ignore"):
            return np.asarray(a) / mi_pair_lower(split(a)[0], noise)

    def con(a):
        return (np.asarray(a) - alpha_star) / mi_pair_upper(*split(a), noise)

    return ach, con


def _one_by_one(objectives):
    # row objective of _search_max that evaluates row q by objectives[q]
    def objective(r, a):
        return np.array([objectives[q](a if a.ndim == 1 else a[t])
                         for t, q in enumerate(r)])
    return objective


def _smooth_grid_of(alpha_star, step):
    grid = np.arange(alpha_star, 1.0, step)
    return np.append(grid[grid < 1.0], 1.0)


def _oracle_thresholds(signal, noise, alpha_star, step):
    """``(v_ach, v_con, a_ach, a_con)`` of the asymptotic-mode query by the
    one-row search, or the error that ends it, as the search before rows
    found them: the zero-rate check first, then the two searches."""
    try:
        ach, con = _smooth_objectives(signal, noise, alpha_star)
        split = _power_split(signal, "asymptotic")
        grid = _smooth_grid_of(alpha_star, step)
        if np.any(mi_pair_lower(split(grid)[0], noise) == 0.0):
            if split(alpha_star)[0] == 0.0:
                raise ThresholdInfeasibleError(
                    "missable power vanishes on the optimization range")
            raise FloatingPointError(
                "lower rate underflows to 0 at positive missed power")
        a_ach, v_ach = _search_max_one_row(ach, grid, True)
        a_con, v_con = _search_max_one_row(con, grid, True)
        if not (math.isfinite(v_ach) and math.isfinite(v_con)):
            raise FloatingPointError("measurement count is not a finite float")
    except (ValueError, FloatingPointError) as exc:
        return exc
    return v_ach, v_con, a_ach, a_con


@settings(max_examples=40, deadline=None)
@given(gaussian=st.booleans(), log_c=st.floats(-1.0, 8.0),
       log_sigma=st.floats(-2.0, 2.0), alpha_star=st.floats(0.05, 0.6),
       step=st.sampled_from([1e-3, 1e-2, 0.05]))
def test_refine_step_beats_dense_grid(gaussian, log_c, log_sigma, alpha_star,
                                      step):
    # the zoom of _search_max on the smooth objectives of the threshold
    # search (Gaussian model, and flat power split in asymptotic mode), as
    # two rows of one search: each value is at least every grid value and
    # within 1e-12 relative of the largest on a dense grid over the cells
    # beside the best grid point, and over the first and the last cell
    c_beta, noise = 10.0 ** log_c, GaussianNoise(10.0 ** log_sigma)
    signal = (GaussianIID(c_beta=c_beta, k=10) if gaussian
              else DiscreteFlat(c_beta=c_beta, k=10))
    grid = _smooth_grid_of(alpha_star, step)
    objectives = _smooth_objectives(signal, noise, alpha_star)
    found_a, found_v = _search_max(_one_by_one(objectives), grid, 2, True)
    for objective, a, best in zip(objectives, found_a, found_v):
        values = objective(grid)
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
    grid = _smooth_grid_of(0.5, 1e-3)
    (a,), (best,) = _search_max(_one_by_one([con]), grid, 1, True)
    cell = np.linspace(grid[-2], 1.0, 4001)
    assert best >= np.max(con(cell)) * (1.0 - 1e-12)
    assert a < 1.0
    r = measurement_thresholds(ThresholdQuery(
        p=1000, signal=GaussianIID(c_beta=1.0, k=10), alpha_star=0.5))
    assert r.n_con_norm >= 0.4662797 and r.alpha_con < 1.0


def test_zoom_grids_are_numpy_linspace():
    # every row bit for bit as np.linspace builds it, also where the step
    # is 0 (a subnormal or no width), and numpy divides before it multiplies
    rng = np.random.default_rng(17)
    lo = np.concatenate((rng.uniform(0.0, 1.0, 200), [0.0, 0.3, 0.5, 0.0]))
    hi = np.concatenate((lo[:200] + rng.uniform(0.0, 1.0, 200) ** 9,
                         [5e-323, 0.3, np.nextafter(0.5, 1.0), 1e-310]))
    grids = limits._zoom_grids(lo, hi)
    for row, a, b in zip(grids, lo, hi):
        assert row.tobytes() == np.linspace(a, b, _ZOOM_POINTS).tobytes()


def _row_batch(signals, noise, alpha_star, step):
    """``_threshold_rows`` over the signals' asymptotic splits, and the
    number of rows in each objective call."""
    splits = [_power_split(signal, "asymptotic") for signal in signals]
    calls = []

    def split(r, a):
        if a.shape[-1] > 1:     # not the zero-rate check at alpha_star
            calls.append(r.size)
        parts = [splits[q % len(signals)](a if a.ndim == 1 else a[t])
                 for t, q in enumerate(r)]
        return np.array([m for m, _ in parts]), np.array([k for _, k in parts])

    out = _threshold_rows(split, len(signals), noise, alpha_star,
                          _smooth_grid_of(alpha_star, step), True)
    return out, calls


def _same_outcome(got, expected):
    if isinstance(expected, Exception):
        return (type(got) is type(expected)
                and str(got) == str(expected))
    return got == expected      # bit for bit


def _batch_matches_oracle(signals, noise, alpha_star, step):
    (v_ach, v_con, a_ach, a_con, errors), calls = _row_batch(
        signals, noise, alpha_star, step)
    for q, signal in enumerate(signals):
        expected = _oracle_thresholds(signal, noise, alpha_star, step)
        got = errors[q]
        if got is None:
            got = (v_ach[q], v_con[q], a_ach[q], a_con[q])
        assert _same_outcome(got, expected), (signal, got, expected)
    return calls


_SIGNAL_KINDS = st.sampled_from(["flat", "gaussian", "general"])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_SIGNAL_KINDS, st.floats(-300.0, 300.0)),
                     min_size=1, max_size=6),
       log_sigma=st.floats(-150.0, 150.0),
       alpha_star=st.floats(0.01, 0.95),
       step=st.sampled_from([1e-3, 3e-3, 0.02, 0.1, 0.5]))
@example(rows=[("gaussian", 0.0), ("flat", 0.0), ("general", 200.0),
               ("flat", -160.0), ("gaussian", -310.0)],
         log_sigma=0.0, alpha_star=0.1, step=1e-3)
def test_row_search_matches_one_row_oracle(rows, log_sigma, alpha_star,
                                           step):
    # every row of a mixed batch (models, powers in the tiny, plain and
    # log-scaled classes of the rate forms, rows that leave at different
    # rounds) returns the one-row search's (alpha, value) bit for bit, or
    # its error, on starting grids of several spacings
    noise = GaussianNoise(10.0 ** log_sigma)
    signals = []
    for kind, log_power in rows:
        power = 10.0 ** log_power
        if kind == "general":
            amp = math.sqrt(power)
            signals.append(DiscreteGeneral(tuple(amp * a for a in
                                                 (0.3, 1.0, 0.5j, 1.7))))
        elif power >= sys.float_info.min:
            model = DiscreteFlat if kind == "flat" else GaussianIID
            signals.append(model(power, 4))
    assume(signals)
    _batch_matches_oracle(signals, noise, alpha_star, step)


def test_row_search_rows_leave_at_different_rounds():
    # the mixed example above: a row whose best point is an end of its
    # grid leaves rounds before an interior one, and the rest go on
    signals = [GaussianIID(1.0, 4), DiscreteFlat(1.0, 4),
               DiscreteGeneral((0.3e100, 1e100, 0.5e100j, 1.7e100)),
               DiscreteFlat(1e-160, 4), GaussianIID(1e-300, 4)]
    sizes = _batch_matches_oracle(signals, GaussianNoise(1.0), 0.1, 1e-3)
    assert sizes[0] == 2 * len(signals)
    assert 0 < sizes[-1] < sizes[0], sizes


# ----------------------------------------------------- SNR and curves

def test_snr_db_refuses_a_non_model():
    with pytest.raises(TypeError, match="unknown signal model ndarray"):
        snr_db(_flat(1.0, 3), GaussianNoise())


@pytest.mark.parametrize("entry", ["ThresholdQuery", "snr_db"])
@pytest.mark.parametrize("noise", [1.0, None])
def test_unknown_noise_refused(entry, noise):
    # a float noise constructed a query that then failed with
    # AttributeError in measurement_thresholds; snr_db read its sigma
    signal = DiscreteFlat(1.0, 4)
    with pytest.raises(TypeError, match="unknown noise model "
                       f"{type(noise).__name__}$"):
        if entry == "snr_db":
            snr_db(signal, noise)
        else:
            ThresholdQuery(p=10, signal=signal, noise=noise, alpha_star=0.25)


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
    curves = figure_curves(alpha_star=0.1, snr_db_values=grid)
    for kind in ("flat", "gaussian"):
        rows = curves[kind]
        assert rows.shape == (grid.size, 3)
        assert np.array_equal(rows[:, 0], grid)
        assert np.all(np.diff(rows[:, 1]) < 0)   # ach strictly decreasing
        assert np.all(np.diff(rows[:, 2]) < 0)   # con strictly decreasing
        assert np.all(rows[:, 2] <= rows[:, 1])  # converse below achievability


def test_figure_curves_reject_bad_input():
    for kwargs in ({"alpha_star": 1.0},
                   {"snr_db_values": []}, {"snr_db_values": [0.0, math.nan]},
                   {"snr_db_values": [math.inf]},
                   {"snr_db_values": np.zeros(MAX_SNR_GRID + 1)},
                   # powers that overflow or underflow the float range
                   {"snr_db_values": [40.0, 1e300]},
                   {"snr_db_values": [3100.0]},
                   {"snr_db_values": [-1e300]}):
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


def _figure_one_by_one(alpha_star=0.1, snr_db_values=()):
    # the figure as one query after another, flat curve first, through the
    # signal models and the one-row search on the 1e-3 grid: the curves, or
    # the first error
    noise = GaussianNoise()
    try:
        powers = [c_beta_from_snr_db(float(db)) for db in snr_db_values]
        out = {}
        for kind, model in (("flat", DiscreteFlat), ("gaussian", GaussianIID)):
            rows = []
            for db, c in zip(snr_db_values, powers):
                found = _oracle_thresholds(model(c_beta=c, k=1), noise,
                                           alpha_star, 1e-3)
                if isinstance(found, Exception):
                    raise found
                rows.append((db, found[0], found[1]))
            out[kind] = np.array(rows)
    except (ValueError, FloatingPointError) as exc:
        return exc
    return out


@pytest.mark.parametrize("kwargs", [
    {"snr_db_values": [0.0, -3100.0, 3000.0]},
    # the Gaussian curve fails first in SNR order (-3050 dB), the flat one
    # first in query order, and with another message (-3220 dB)
    {"snr_db_values": [-3050.0, -3220.0, -3100.0]},
    {"snr_db_values": [-3220.0, -3050.0]},
    # a power that is 0 as a float is refused before any query
    {"snr_db_values": [-3100.0, -3300.0]},
    # at alpha_star 1e-310 the missed power is subnormal (0 dB) or 0
    # (-300 dB)
    {"snr_db_values": [0.0, -300.0], "alpha_star": 1e-310},
    {"snr_db_values": [-300.0, 0.0], "alpha_star": 1e-310},
    {"snr_db_values": [-2.0, 1.5, 7.0], "alpha_star": 0.3},
])
def test_figure_matches_one_query_after_another(kwargs):
    # values bit for bit, and on a grid bad at several points the error
    # type and message of the first bad query
    expected = _figure_one_by_one(**kwargs)
    try:
        got = figure_curves(**kwargs)
    except (ValueError, FloatingPointError) as exc:
        got = exc
    if isinstance(expected, Exception):
        assert _same_outcome(got, expected)
    else:
        for kind in ("flat", "gaussian"):
            assert got[kind].tobytes() == expected[kind].tobytes()


def test_figure_cli_error_is_the_first_bad_query(tmp_path, capsys,
                                                 monkeypatch):
    # -3220 and -3050 dB: the flat query at -3220 fails first (a lower
    # rate of 0), before the Gaussian one at -3050 (a count past the
    # float range)
    monkeypatch.chdir(tmp_path)
    expected = _figure_one_by_one(snr_db_values=[-3220.0, -3050.0])
    assert isinstance(expected, FloatingPointError)
    code = main(["figure", "--snr-min", "-3220", "--snr-max", "-3050",
                 "--snr-step", "170", "--out-dir", "figs"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"phaselim: numeric failure: {expected}\n"


@pytest.mark.parametrize("step", [1e-3, 1e-5])
def test_figure_objective_calls_stay_in_the_chunk_budget(step, monkeypatch):
    # no objective call takes more than _ROW_CHUNK alphas, but for a single
    # row whose grid alone is larger (90001 alphas at a step of 1e-5): the
    # default figure's rows, flat and Gaussian, searched by the row search
    # from a grid of that step
    snr = np.arange(-10.0, 41.0)
    n = snr.size
    powers = np.array([c_beta_from_snr_db(db) for db in snr])
    gaussian = np.arange(2 * n) // n == 1

    def split(r, a):
        f = np.where(gaussian[r % (2 * n), None], tail_power_fraction(a), a)
        return limits._split_total(powers[r % n, None], f)

    calls = []

    def spy(objective, alphas, rows, zoom):
        def counted(r, a):
            calls.append((r.size, a.shape[-1]))
            return objective(r, a)
        return search(counted, alphas, rows, zoom)

    search = limits._search_max
    monkeypatch.setattr(limits, "_search_max", spy)
    grid = _smooth_grid_of(0.1, step)
    _threshold_rows(split, 2 * n, GaussianNoise(), 0.1, grid, True)
    assert calls
    for size, width in calls:
        assert size * width <= _ROW_CHUNK or size == 1, (size, width)
    grid = grid.size
    assert calls[0] == ((max(1, _ROW_CHUNK // grid)), grid)


# ------------------------------------------------------------- byte pins
# sha256 of outputs as the one-row search wrote them: thresholds --json
# stdout for the benchmark's four query shapes at three (c_beta,
# alpha_star), and the default figure CSVs

_THRESHOLD_PINS = {
    ("gaussian", 1000, 10, None, "0.05", "0.1"):
        "1fccbea1bd33dda8e73f538ce5cc473378f387c520dc41c8ee13650c20fa9a07",
    ("gaussian", 1000, 10, None, "3.0", "0.3"):
        "db4558a6b36fc9806b746a84c7a6023d28f7253b03093d417d6b016e4330e12c",
    ("gaussian", 1000, 10, None, "20000.0", "0.5"):
        "49053d7c60c30350cae7e979cb83658c184b0924152b4d666b53d5e2b6f4f641",
    ("flat", 1000, 10, "floor", "0.05", "0.1"):
        "b33af24f5ccfb29e296c2a486bc9e9b3aded10c8fb99f44a06f73508968b8328",
    ("flat", 1000, 10, "floor", "3.0", "0.3"):
        "df93bb7936809ed890dc4388f60fa243324b16d54a28da98cc378fbeec19b40d",
    ("flat", 1000, 10, "floor", "20000.0", "0.5"):
        "acc677a183840c7f1e5fbf6c89f03bc7e91febc4c44ed1449a9a06d535a223be",
    ("flat", 1000, 10, "asymptotic", "0.05", "0.1"):
        "1bdf5addc732b79864f7f5cbbb4c04bf59806a85305aa7957b91cfedc12c6303",
    ("flat", 1000, 10, "asymptotic", "3.0", "0.3"):
        "882debd94cf0f807507f81c1bcd8299111a8ae0c6daaa2a1c85944b63f01449f",
    ("flat", 1000, 10, "asymptotic", "20000.0", "0.5"):
        "045d1b8df78c8897250cbbf66ee477027e3e795e310c54495eb6f575a5eaf6eb",
    ("flat", 100000, 1000, "floor", "0.05", "0.1"):
        "4b222dc158d0827781d8ee97e484e84d7fd387f83f4b42dc8da493e2d96262ad",
    ("flat", 100000, 1000, "floor", "3.0", "0.3"):
        "bf7220cc846b96f30419ea456ba56faec390a4c485edbcf6ea9f9fa957033d40",
    ("flat", 100000, 1000, "floor", "20000.0", "0.5"):
        "ad869fce1ac94719dbd7ac3332fa25a2d321b2ae2d77ba078143fd9dc1ec15a9",
}

_FIGURE_PINS = {
    "flat": "1661b860b116d91b1d297ac54b2fb664cddd69165f94ebee3916d09807a0fe04",
    "gaussian":
        "20c69cf6d6fbdae15cb1062ea7cd932c12b3229ca4a9f656deb6aa3db8ca537f",
}


# sha256 of the reprs of DiscreteGeneral outcomes, which no CLI query
# reaches: floor mode indexes the sorted prefix sums, asymptotic mode
# interpolates between them; each pin covers its alphas at sigma 1 and 0.05
_GENERAL_VALUES = {
    "complex": (0.3 + 1j, -0.2, 0.9j, 0.4, 1.1 - 0.5j),
    "real": (0.5, 1.0, 1.5, 2.0, -0.75),
    "zeros": (0.0, 0.7, 0.0, 1.2j, 0.5),
}
_GENERAL_ALPHAS = {"floor": (0.2, 0.4, 0.6, 0.8),
                   "asymptotic": (0.1, 0.35, 0.5, 0.9)}
_GENERAL_PINS = {
    ("complex", "floor"):
        "a29218f8125af231185ebf369565946d46907eb39031b9196026a154ce036ff7",
    ("complex", "asymptotic"):
        "18139c637b54b56bf1571903cec0481398eaf9f3a9f2371041786d600314b866",
    ("real", "floor"):
        "2274eccf3f55f5a538905c0786658cf63e1c5499a10e22a3f6ecd639eab86c46",
    ("real", "asymptotic"):
        "f6fcad2e2146150f83588f7fa73b1e09ed3231375d46fc1f96ced6fdc0cf4d63",
    ("zeros", "floor"):
        "d5df70620547fb3db11d48dc70b51066a837da8634b44b89fda882299132a8b0",
    ("zeros", "asymptotic"):
        "c1a83d28df99e5472846c7d1fcf6cbf30fffa899ba3f05153977e83b27fb7ce7",
}


def test_general_threshold_bytes_pinned():
    for (name, mode), pin in _GENERAL_PINS.items():
        signal = DiscreteGeneral(_GENERAL_VALUES[name])
        text = "\n".join(
            repr(_threshold_outcome(signal, sigma, alpha_star, mode))
            for alpha_star in _GENERAL_ALPHAS[mode] for sigma in (1.0, 0.05))
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (name, mode)


def test_threshold_json_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for (model, p, k, mode, c_beta, alpha_star), pin in \
            _THRESHOLD_PINS.items():
        argv = ["thresholds", "--model", model, "--p", str(p), "--k", str(k),
                "--c-beta", c_beta, "--alpha-star", alpha_star, "--json"]
        if mode is not None:
            argv += ["--mode", mode]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == pin, argv


def test_figure_csv_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "--out-dir", "figs"]) == 0
    for kind, pin in _FIGURE_PINS.items():
        data = (tmp_path / "figs" / f"{kind}_thresholds.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == pin, kind


# ------------------------------------------ relations over the whole range

_LOG_POWER = st.floats(math.log10(sys.float_info.min), 308.0)


def _power(log_power):
    # 10 ** log10(min) rounds below the least normal float
    return max(10.0 ** log_power, sys.float_info.min)
_LOG_SIGMA = st.floats(-150.0, 150.0)


@settings(max_examples=60, deadline=None)
@given(log_c=_LOG_POWER, log_sigma=_LOG_SIGMA,
       k=st.integers(1, 60), data=st.data())
def test_flat_floor_counts_within_asymptotic_counts(log_c, log_sigma, k,
                                                    data):
    # floor mode maximizes over alpha = l/k, where its missed power is
    # asymptotic mode's up to rounding; asymptotic mode maximizes over all
    # of [alpha_star, 1], so its counts are the larger
    count = data.draw(st.integers(1, k))
    signal = DiscreteFlat(_power(log_c), k)
    alpha_star = count / k
    assume(alpha_star < 1.0)
    sigma = 10.0 ** log_sigma
    floor = _threshold_outcome(signal, sigma, alpha_star, "floor")
    asym = _threshold_outcome(signal, sigma, alpha_star, "asymptotic")
    assume(not isinstance(floor, str) and not isinstance(asym, str))
    assert floor.n_ach <= asym.n_ach * (1.0 + 1e-12)
    assert floor.n_con <= asym.n_con * (1.0 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(model=st.sampled_from(["flat", "gaussian", "general"]),
       mode=st.sampled_from(["floor", "asymptotic"]),
       log_c=_LOG_POWER, log_sigma=_LOG_SIGMA,
       alpha_star=st.sampled_from([0.25, 0.5, 0.75]))
def test_converse_count_below_achievability(model, mode, log_c, log_sigma,
                                            alpha_star):
    # (alpha - alpha_star) / U < alpha / L at every alpha, as U >= L
    c = _power(log_c)
    try:
        if model == "general":
            amp = math.sqrt(c / 4.5)
            signal = DiscreteGeneral(tuple(amp * a
                                           for a in (0.5, 1.0, 1.0, 1.5)))
        else:
            signal = (DiscreteFlat if model == "flat" else GaussianIID)(c, 4)
    except ValueError:      # the power rounds out of the normal range
        assume(False)
    r = _threshold_outcome(signal, 10.0 ** log_sigma, alpha_star, mode)
    assume(not isinstance(r, str))
    assert 0.0 <= r.n_con <= r.n_ach


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.complex_numbers(max_magnitude=1e150,
                                          allow_nan=False,
                                          allow_infinity=False),
                       min_size=2, max_size=8),
       log_sigma=_LOG_SIGMA, mode=st.sampled_from(["floor", "asymptotic"]),
       data=st.data())
def test_general_thresholds_ignore_value_order(values, log_sigma, mode,
                                               data):
    # the model assigns the values to the support at random, so only their
    # multiset, sorted by power, enters the thresholds
    order = data.draw(st.permutations(values))
    alpha_star = data.draw(st.integers(1, len(values) - 1)) / len(values)
    try:
        signals = (DiscreteGeneral(tuple(values)),
                   DiscreteGeneral(tuple(order)))
    except ValueError:      # the total power leaves the normal range
        assume(False)
    sigma = 10.0 ** log_sigma
    first, second = (_threshold_outcome(s, sigma, alpha_star, mode)
                     for s in signals)
    assert first == second
