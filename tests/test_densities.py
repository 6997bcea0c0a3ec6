"""Density formulas against independent oracles, plus the concentration
constants machinery."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats
from scipy.special import erfc, erfcx

from phaselim import densities
from phaselim.densities import (LOG_FLOOR, GaussianNoise,
                                concentration_constant, concentration_rate,
                                concentration_tail_bound,
                                conditional_output_logpdf, golden_max,
                                info_density, noncentral_chi2_scaled_logpdf,
                                output_law_peak)
from phaselim.rng import sample_circular_gaussian, substream


# --------------------------------------------------------------- noise

def test_gaussian_noise_against_norm():
    noise = GaussianNoise(0.7)
    ys = np.linspace(-3, 3, 41)
    assert np.allclose(noise.logpdf(ys), stats.norm.logpdf(ys, scale=0.7),
                       atol=1e-12)
    assert noise.entropy() == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e * 0.49), abs=1e-14)
    assert noise.exp_2h() == pytest.approx(2 * math.pi * math.e * 0.49)
    assert noise.peak() == pytest.approx(1.0 / (0.7 * math.sqrt(2 * math.pi)))
    for bad in (0.0, math.nan, math.inf, 1e-155, 1e160, 1e300, -1.0):
        with pytest.raises(ValueError):
            GaussianNoise(bad)
    # the range edges: every derived scale is a finite positive float
    for edge in (1e-150, 1e150):
        noise = GaussianNoise(edge)
        assert math.isfinite(noise.entropy())
        assert 0.0 < noise.exp_2h() < math.inf
        assert 0.0 < noise.peak() < math.inf
        assert np.isfinite(noise.logpdf(edge))


def test_gaussian_noise_sampling_moments():
    noise = GaussianNoise(2.0)
    z = noise.sample(substream(0, 0), 100000)
    assert np.mean(z) == pytest.approx(0.0, abs=0.03)
    assert np.std(z) == pytest.approx(2.0, rel=0.02)


# --------------------------------------- squared-magnitude density

def test_magnitude_sq_matches_scipy_ncx2():
    # |CN(m, v)|^2 with |m|^2 = lam is (v/2) * chi2_2(noncentrality 2 lam/v)
    for lam, v in [(0.0, 1.0), (1.0, 1.0), (4.0, 0.5), (0.3, 2.0)]:
        u = np.linspace(0.01, 15.0, 200)
        ours = noncentral_chi2_scaled_logpdf(u, lam, v)
        oracle = stats.ncx2.logpdf(2 * u / v, df=2, nc=2 * lam / v) + math.log(2 / v)
        assert np.allclose(ours, oracle, atol=1e-10), (lam, v)


def test_magnitude_sq_central_case_exponential():
    u = np.linspace(0.0, 20.0, 100)
    ours = noncentral_chi2_scaled_logpdf(u, 0.0, 2.0)
    assert np.allclose(ours, -math.log(2.0) - u / 2.0, atol=1e-14)


def test_magnitude_sq_support_and_moments():
    assert noncentral_chi2_scaled_logpdf(-0.5, 1.0, 1.0) == -np.inf
    for lam, v in [(0.5, 1.0), (3.0, 0.25)]:
        total, _ = integrate.quad(
            lambda u: math.exp(noncentral_chi2_scaled_logpdf(u, lam, v)),
            0, lam + 60 * v + 20 * math.sqrt(lam * v), limit=200)
        mean, _ = integrate.quad(
            lambda u: u * math.exp(noncentral_chi2_scaled_logpdf(u, lam, v)),
            0, lam + 80 * v + 30 * math.sqrt(lam * v), limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(lam + v, abs=1e-8)


def test_magnitude_sq_refuses_negative_known_power():
    with pytest.raises(ValueError, match="known_sq must be nonnegative"):
        noncentral_chi2_scaled_logpdf(np.array([1.0, 2.0]), -1e-300, 1.0)


def test_magnitude_sq_past_float_range():
    # an exponent (su - sl)^2 / v past the float range gives the -inf that
    # the value rounds to, without numpy's overflow warning (an error under
    # the test filter); the first point reaches it through the quadrature
    # fallback of a sample far above its matched power
    assert noncentral_chi2_scaled_logpdf(1e306, 1e-300, 1e-200) == -np.inf
    assert conditional_output_logpdf(
        1e10, 1e-290, 1e-300, GaussianNoise(1e-150)) == -np.inf
    # a Bessel argument 2 su sl / v past it, beside a finite exponent,
    # leaves a finite value
    for u, lam, v in [(1e300, 1e300, 1e-10), (1.7e308, 1.7e308, 1e-300),
                      (1e300, 1.0000001e300, 1e-10)]:
        ours = float(noncentral_chi2_scaled_logpdf(u, lam, v))
        with mp.workdps(40):
            mu, mlam, mv = mp.mpf(u), mp.mpf(lam), mp.mpf(v)
            x = 2 * mp.sqrt(mu * mlam) / mv
            ref = float(-mp.log(mv) - (mp.sqrt(mu) - mp.sqrt(mlam)) ** 2 / mv
                        + _mp_log_ive(0, x))
        assert abs(ours - ref) <= 1e-14 * (1.0 + abs(ref) + abs(u - lam) / v), \
            (u, lam, v, ours, ref)
    # in one array, beside values inside the range, which keep theirs
    both = noncentral_chi2_scaled_logpdf(np.array([1e300, 4.0, 1e306]),
                                         np.array([1e300, 1.0, 1e-300]), 1e-10)
    assert both[1] == noncentral_chi2_scaled_logpdf(4.0, 1.0, 1e-10)
    assert np.isfinite(both[0]) and both[2] == -np.inf


def test_magnitude_sq_monte_carlo():
    rng = substream(17, 0)
    lam, v = 2.0, 0.5
    w = math.sqrt(lam) + sample_circular_gaussian(rng, 200000, power=v)
    u = np.abs(w) ** 2
    assert np.mean(u) == pytest.approx(lam + v, rel=0.02)
    assert np.var(u) == pytest.approx(v * v + 2 * v * lam, rel=0.05)


@settings(max_examples=60, deadline=None)
@given(log_x=st.floats(-6.0, 300.0), log_v=st.floats(-100.0, 100.0),
       log_ratio=st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-8, 1e-8)))
@example(log_x=300.0, log_v=0.0, log_ratio=0.0)
@example(log_x=300.0, log_v=-100.0, log_ratio=1e-9)
@example(log_x=300.0, log_v=100.0, log_ratio=-2.0)
def test_magnitude_sq_against_mpmath(log_x, log_v, log_ratio):
    # x = 2 sqrt(u lam)/v from 1e-6 to 1e300 and u/lam from 1e-2 to 1e2,
    # including u next to lam; the tolerance is the form's own conditioning:
    # sqrt(u) and sqrt(lam) carry one rounding each, which moves
    # (sqrt(u) - sqrt(lam))^2 / v by about eps |u - lam| / v
    log_lam = log_x + log_v - math.log10(2.0) - log_ratio / 2.0
    assume(-300.0 < log_lam < 300.0 and -300.0 < log_lam + log_ratio < 300.0)
    lam, u, v = 10.0 ** log_lam, 10.0 ** (log_lam + log_ratio), 10.0 ** log_v
    ours = float(noncentral_chi2_scaled_logpdf(u, lam, v))
    with mp.workdps(40):
        mu, mlam, mv = mp.mpf(u), mp.mpf(lam), mp.mpf(v)
        x = 2 * mp.sqrt(mu * mlam) / mv
        ref = float(-mp.log(mv) - (mp.sqrt(mu) - mp.sqrt(mlam)) ** 2 / mv
                    + _mp_log_ive(0, x))
    assert abs(ours - ref) <= 1e-14 * (1.0 + abs(ref) + abs(u - lam) / v), \
        (u, lam, v, ours, ref)


# Relative errors in units of float64's epsilon 2^-52.
_EPS = 2.0 ** -52


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 1000.0),
                   st.floats(1e3, 1e8)))
@example(x=0.0)
@example(x=8.0)
@example(x=700.0)
@example(x=math.nextafter(700.0, math.inf))
@example(x=1e300)
def test_i0e_against_mpmath(x):
    # numpy's i0 times exp(-x) up to 700, the asymptotic series above;
    # scipy's Cephes i0e reaches 3.0 of these units on the same kind of
    # points
    [ours] = densities._i0e(np.array([x]))
    with mp.workdps(50):
        ref = mp.exp(_mp_log_ive(0, mp.mpf(x)))
        err = float(abs(mp.mpf(float(ours)) - ref) / ref) / _EPS
    assert err <= 4.0, (x, ours, err)


@pytest.mark.filterwarnings("error")
def test_i0e_past_the_drawn_range():
    # beyond 1e300, infinity and NaN, without a warning; any shape
    x = np.array([0.0, 700.0, 1.7e308, np.inf, np.nan])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        out = densities._i0e(x)
    assert out[2] > 0.0 and out[3] == 0.0 and np.isnan(out[4])
    assert densities._i0e(np.empty(0)).shape == (0,)
    assert np.array_equal(densities._i0e(x.reshape(5, 1))[:, 0], out,
                          equal_nan=True)


# ----------------------------------------------- closed form vs quadrature

def _emg_logpdf(y, v, sigma):
    # zero matched power: the output law is Exp(mean v) + N(0, sigma^2)
    return conditional_output_logpdf(y, 0.0, v, GaussianNoise(sigma))


def _emg_oracle(y, v, sigma):
    # independent transcription: exp(s^2/(2 v^2) - y/v) * Phi(y/s - s/v) / v
    t = y / sigma - sigma / v
    return (math.exp(sigma ** 2 / (2 * v ** 2) - y / v) / v
            * 0.5 * erfc(-t / math.sqrt(2.0)))


def test_emg_against_erfc_transcription():
    for v, sigma in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.3)]:
        for y in np.linspace(-4 * sigma, 8 * v, 60):
            ours = _emg_logpdf(y, v, sigma)
            assert ours == pytest.approx(math.log(_emg_oracle(y, v, sigma)),
                                         abs=1e-12)


def _mp_emg_logpdf(y, v, sigma, dps=40):
    with mp.workdps(dps):
        y, v, sigma = mp.mpf(y), mp.mpf(v), mp.mpf(sigma)
        tau = (y - sigma ** 2 / v) / sigma
        return float(sigma ** 2 / (2 * v ** 2) - y / v - mp.log(v)
                     + mp.log(mp.ncdf(tau)))


def test_emg_against_mpmath_down_to_tiny_power():
    # the exponent sigma^2/(2v^2) - y/v and log Phi(tau) cancel for small v;
    # summed as two floats they are off by 2.1 nats at v = 1e-8, sigma 1
    for sigma in (1e-4, 1e-2, 1.0, 10.0):
        for v in (1e-10, 1e-8, 1e-6, 1e-3, 1.0, 1e3):
            ys = np.concatenate([np.linspace(-8 * sigma, 8 * sigma, 9),
                                 [v, 5 * v, 30 * v + 3 * sigma]])
            ours = _emg_logpdf(ys, v, sigma)
            for y, val in zip(ys, ours):
                ref = _mp_emg_logpdf(y, v, sigma)
                assert val == pytest.approx(ref, rel=1e-13, abs=1e-12), \
                    (y, v, sigma)


def test_output_law_peak_below_noise_peak():
    # a convolution with the noise cannot rise above the noise peak; the
    # 1e-12 allowance is rounding in logs of size |log v| <= 25
    for sigma in (1e-2, 1.0, 10.0):
        noise = GaussianNoise(sigma)
        for power in np.logspace(-10, 3, 14):
            peak, _ = output_law_peak(power, noise)
            assert peak <= noise.peak() * (1 + 1e-12), (power, sigma)


@pytest.mark.filterwarnings("error")
def test_emg_right_branch_overflow_is_minus_inf(monkeypatch):
    # sigma / v = 1e200: sigma^2/(2 v^2) and y/v both overflow, and their
    # difference was NaN, which sent the samples to the quadrature
    def no_fallback(*args):
        raise AssertionError("quadrature fallback taken")

    monkeypatch.setattr(densities, "_quadrature_logpdf", no_fallback)
    out = conditional_output_logpdf([1e201, 1e200 * (1 + 1e-15)], 0.0,
                                    1e-200, GaussianNoise(1))
    assert np.array_equal(out, [-np.inf, -np.inf])


def test_emg_is_quadrature_fast_path():
    # down to 12.5 noise widths below zero, where the quadrature's noise
    # strip must start from max(y, 0)
    noise = GaussianNoise(0.8)
    ys = np.concatenate([np.linspace(-10, -3.2, 18), np.linspace(-3, 12, 80)])
    fast = conditional_output_logpdf(ys, 0.0, 1.3, noise)
    slow = densities._quadrature_logpdf(ys, np.zeros_like(ys), 1.3, noise)
    assert np.allclose(fast, slow, atol=5e-13)


def test_conditional_logpdf_normalization_and_mean():
    for lam, v, sigma in [(0.0, 1.0, 1.0), (2.0, 0.5, 1.0), (1.0, 2.0, 0.5),
                          (5.0, 1.0, 0.25)]:
        noise = GaussianNoise(sigma)

        def pdf(y):
            return np.exp(conditional_output_logpdf(y, lam, v, noise))

        lo = -10 * sigma
        hi = lam + v * 50 + 20 * math.sqrt(lam * v + 1) + 10 * sigma
        total, _ = integrate.quad(pdf, lo, hi, limit=400)
        mean, _ = integrate.quad(lambda y: y * pdf(y), lo, hi, limit=400)
        assert total == pytest.approx(1.0, abs=5e-7), (lam, v, sigma)
        assert mean == pytest.approx(lam + v, abs=5e-6), (lam, v, sigma)


def _mp_log_ive(order, x):
    # log(I_order(x) e^-x); Hankel's asymptotic series past x = 1e3, where
    # mpmath's besseli is slow
    if x < 1000:
        return mp.log(mp.besseli(order, x)) - x
    total = term = mp.mpf(1)
    for k in range(1, 80):
        term *= mp.mpf((2 * k - 1) ** 2 - 4 * order ** 2) / (8 * k * x)
        total += term
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps - 2):
            break
    return mp.log(total / mp.sqrt(2 * mp.pi * x))


def _mp_conditional_logpdf(y, lam, v, sigma, dps=20):
    """log int_0^inf f_U(u) phi_sigma(y - u) du in mpmath. The integrand is
    log-concave in u, so it is split at its mode (found by bisection on the
    derivative's sign) and at doubling distances from it, out to where it
    has dropped by more than e^-500."""
    with mp.workdps(dps):
        y, lam, v, sigma = (mp.mpf(float(z)) for z in (y, lam, v, sigma))
        const = -mp.log(v) - mp.log(sigma * mp.sqrt(2 * mp.pi))

        def logg(u):
            x = 2 * mp.sqrt(u * lam) / v
            return (const - (mp.sqrt(u) - mp.sqrt(lam)) ** 2 / v
                    + _mp_log_ive(0, x) - (y - u) ** 2 / (2 * sigma ** 2))

        def slope(u):
            if lam == 0 or u == 0:
                return -1 / v + lam / v ** 2 + (y - u) / sigma ** 2
            x = 2 * mp.sqrt(u * lam) / v
            ratio = mp.exp(_mp_log_ive(1, x) - _mp_log_ive(0, x))
            return -1 / v + ratio * mp.sqrt(lam / u) / v + (y - u) / sigma ** 2

        mode = mp.mpf(0)
        if slope(mode) > 0:
            lo, hi = mp.mpf(0), max(y, lam, mp.mpf(0)) + 10 * (sigma + v)
            while slope(hi) > 0:
                hi *= 2
            for _ in range(70):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            mode = (lo + hi) / 2
        top = logg(mode)

        def reach(sign):
            # distance at which logg has dropped by 1; None if u = 0 first
            d = (sigma + v + mp.sqrt(lam * v)) * mp.mpf(1e-3)
            while True:
                if mode + sign * d <= 0:
                    return None
                if logg(mode + sign * d) <= top - 1:
                    break
                d *= 2
            lo, hi = d / 2, d
            for _ in range(30):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if logg(mode + sign * mid) > top - 1 else (lo, mid)
            return hi

        right = reach(+1)
        pts = [mode + right * 2 ** k for k in range(10)]
        left = reach(-1) if mode > 0 else None
        if left is not None:
            pts = [mode - left * 2 ** k for k in range(10)
                   if mode - left * 2 ** k > 0][::-1] + pts
        pts = [mp.mpf(0)] + ([] if mode == 0 else [mode]) + pts
        pts = sorted(set(pts))
        return float(top + mp.log(mp.quad(lambda u: mp.exp(logg(u) - top),
                                          pts)))


def _spy_quadrature(monkeypatch):
    calls = []
    quadrature = densities._quadrature_logpdf
    monkeypatch.setattr(densities, "_quadrature_logpdf",
                        lambda ys, *rest: calls.append(ys.size)
                        or quadrature(ys, *rest))
    return calls


def test_conditional_logpdf_against_mpmath(monkeypatch):
    # known_sq in [0, 1e6], fresh_power in [1e-10, 1e3], sigma in [1e-4, 10],
    # y within 5 standard deviations of the output mean; the corners first.
    # The series error grows like eps * (a + |log f|) with a = known_sq/v
    # (its terms and prefactor are of that size); a sample whose series
    # would run past _SERIES_MAX_TERMS takes the 80-node quadrature, held
    # to its own accuracy at these extremes.
    rng = substream(41, 0)
    cases = [(0.0, 1e-10, 1e-4), (0.0, 1e3, 10.0), (1e6, 1e3, 10.0),
             (1e6, 1e-10, 1e-4), (1e-8, 1e-10, 10.0), (1e3, 1.0, 1e-4),
             (1.0, 1e-3, 10.0), (5.0, 1.0, 1.0)]
    cases += [(0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-8, 6),
               10 ** rng.uniform(-10, 3), 10 ** rng.uniform(-4, 1))
              for _ in range(22)]
    n_series = n_quadrature = 0
    for lam, v, sigma in cases:
        sd = math.sqrt(sigma ** 2 + v * v + 2 * v * lam)
        y = lam + v + rng.uniform(-5.0, 5.0) * sd
        calls = _spy_quadrature(monkeypatch)
        ours = conditional_output_logpdf(y, lam, v, GaussianNoise(sigma))
        ref = _mp_conditional_logpdf(y, lam, v, sigma)
        if calls:
            n_quadrature += 1
            tol = 1e-7 * max(1.0, abs(ref))
        else:
            n_series += 1
            tol = 5e-14 * (1.0 + lam / v + abs(ref))
        assert abs(ours - ref) <= tol, (y, lam, v, sigma, ours, ref)
    assert n_series >= 20 and n_quadrature >= 5


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(st.floats(-800.0, 50.0),
                                        st.just(-math.inf)),
                              min_size=4, max_size=4),
                     min_size=1, max_size=30),
       dead=st.integers(0, 30))
def test_logsumexp_against_scipy(rows, dead):
    # a row of -inf gives -inf, without a warning
    a = np.array(rows)
    a[:dead] = -np.inf
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        ours = densities._logsumexp(a)
    ref = special.logsumexp(a, axis=-1)
    assert np.array_equal(np.isneginf(ours), np.isneginf(ref))
    live = np.isfinite(ref)
    assert np.all(np.abs(ours[live] - ref[live])
                  <= 4 * _EPS * np.maximum(1.0, np.abs(ref[live])))


def test_quadrature_matches_its_scipy_form(monkeypatch):
    # the quadrature's own numpy I0e and log-sum-exp against scipy's, over
    # matched powers from 0 to 1e5 fresh powers (the fallback's region
    # included) and y within six standard deviations of the mean; values
    # near 0 are held to an absolute 1e-15
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(20):
        v, sigma = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-2, 1)
        lams = np.where(rng.random(100) < 0.1, 0.0,
                        v * 10 ** rng.uniform(-3, 5, 100))
        sd = np.sqrt(sigma ** 2 + v * v + 2 * v * lams)
        ys = lams + v + rng.uniform(-6.0, 6.0, 100) * sd
        cases.append((ys, lams, v, GaussianNoise(sigma)))
    ours = [densities._quadrature_logpdf(*case) for case in cases]
    monkeypatch.setattr(densities, "_i0e", special.i0e)
    monkeypatch.setattr(densities, "_logsumexp",
                        lambda a: special.logsumexp(a, axis=-1))
    for case, got in zip(cases, ours):
        ref = densities._quadrature_logpdf(*case)
        assert np.all(np.abs(got - ref)
                      <= 1e-15 * np.maximum(1.0, np.abs(ref))), case[2:]


def test_series_matches_quadrature_across_switch_and_cap(monkeypatch):
    # both sides of tau = mu/sigma = _FORWARD_MIN_TAU, of the growth edge
    # |tau| sqrt(c) = _FORWARD_GROWTH and of the term cap, with
    # known_sq + v near sigma^2/v so that the scanned y stay in the bulk;
    # mpmath settles the samples at each change of direction
    for lam, v, sigma in [(0.5, 0.5, 1.0), (3.0, 1.0, 2.0), (24.0, 1.0, 5.0),
                          (99.0, 1.0, 10.0), (35.0, 0.2, 2.65)]:
        taus = np.linspace(-2.5, 0.5, 601)
        ys = sigma * taus + sigma ** 2 / v
        mu = ys - sigma ** 2 / v
        c, _ = densities._term_counts(mu, np.full_like(ys, lam / v), v, sigma)
        forward = ((taus >= densities._FORWARD_MIN_TAU)
                   & (-taus * np.sqrt(c) <= densities._FORWARD_GROWTH))
        assert forward.any() and (~forward).any()
        noise = GaussianNoise(sigma)
        calls = _spy_quadrature(monkeypatch)
        series = conditional_output_logpdf(ys, lam, v, noise)
        assert calls == []
        quad = densities._quadrature_logpdf(ys, np.full_like(ys, lam), v,
                                            noise)
        assert np.max(np.abs(series - quad)) <= 1e-12, (lam, v, sigma)
        for i in np.flatnonzero(forward[1:] != forward[:-1]):
            for j in (i, i + 1):
                ref = _mp_conditional_logpdf(ys[j], lam, v, sigma)
                assert abs(series[j] - ref) <= 5e-14 * (1 + lam / v + abs(ref))
    # a bulk sample just inside the cap runs the series, one just past it
    # takes the quadrature; both agree with the quadrature oracle
    v, sigma = 1.0, 0.5
    noise = GaussianNoise(sigma)
    cap = densities._SERIES_MAX_TERMS
    lams = np.linspace(2500.0, 4500.0, 2001)
    ys = lams + v
    _, terms = densities._term_counts(ys - sigma ** 2 / v, lams / v, v, sigma)
    inside = lams[terms <= cap][-1]
    outside = lams[terms > cap][0]
    for lam, expect_quadrature in ((inside, False), (outside, True)):
        y = lam + v
        calls = _spy_quadrature(monkeypatch)
        ours = conditional_output_logpdf(y, lam, v, noise)
        assert bool(calls) == expect_quadrature
        [quad] = densities._quadrature_logpdf(np.array([y]), np.array([lam]),
                                              v, noise)
        assert abs(ours - quad) <= 1e-9, lam


def _spy_strict_sums(monkeypatch):
    """Record each series sum's direction and its term counts or starts,
    and run it with overflow and invalid operations raised, which the
    series' own error state would otherwise ignore."""
    calls = []
    for name in ("_forward_log_sums", "_backward_log_sums"):
        sums = getattr(densities, name)

        def strict(*args, _sums=sums, _name=name):
            counts = args[3] if _name == "_forward_log_sums" else args[2]
            calls.append((_name, counts.tolist()))
            with np.errstate(over="raise", invalid="raise"):
                return _sums(*args)
        monkeypatch.setattr(densities, name, strict)
    return calls


@pytest.mark.parametrize("y, lam, v, sigma, direction, count", [
    # tau = _FORWARD_MIN_TAU exactly, runs upward
    (-0.5, 2.0, 1.0, 1.0, "_forward_log_sums", None),
    (85.0, 1.0, 1.0, 10.0, "_forward_log_sums", None),
    # large positive tau (1e7, 1e12) with ratios up to about c^2
    (1000.0, 1000.0, 1.0, 1e-4, "_forward_log_sums", None),
    (100.0, 100.0, 1.0, 1e-10, "_forward_log_sums", None),
    # a = 1e-300: every term past the first underflows
    (1.0, 1e-300, 1.0, 1.0, "_forward_log_sums", None),
    (1e5, 1e-300, 1.0, 1.0, "_forward_log_sums", None),
    (-3.0, 1e-300, 1.0, 1.0, "_backward_log_sums", None),
    # J at the cap: the first ratio is about c^2 = 3240^2
    (3241.5, 3240.5, 1.0, 0.5, "_forward_log_sums", 4096),
    # a downward run that starts at the cap, in the bulk (tau = -0.5)
    (1501.5, 1520.5, 1.0, 39.0, "_backward_log_sums", 4096),
])
def test_series_rescale_at_its_extremes(monkeypatch, y, lam, v, sigma,
                                        direction, count):
    # the scaled sums neither overflow nor lose accuracy where their terms
    # grow fastest, underflow, or run longest; mpmath settles each value
    quadrature = _spy_quadrature(monkeypatch)
    sums = _spy_strict_sums(monkeypatch)
    with np.errstate(over="raise", invalid="raise"):
        ours = conditional_output_logpdf(y, lam, v, GaussianNoise(sigma))
    assert quadrature == []
    assert [name for name, _ in sums] == [direction]
    if count is not None:
        assert sums[0][1] == [count]
    ref = _mp_conditional_logpdf(y, lam, v, sigma)
    assert abs(ours - ref) <= 5e-14 * (1.0 + lam / v + abs(ref)), (ours, ref)


@pytest.mark.filterwarnings("error")
def test_series_leaves_minus_inf_emg_terms_alone(monkeypatch):
    # y/v = 1e309 puts the EMG term at -inf with a = 1e-302 and c near 3162
    # inside the cap; no sum within the cap lifts it, so the sample stays
    # -inf without a sum (whose t_j / v would overflow) or the quadrature,
    # while a finite neighbour in the same batch runs its sum
    quadrature = _spy_quadrature(monkeypatch)
    sums = _spy_strict_sums(monkeypatch)
    with np.errstate(over="raise", invalid="raise"):
        out = conditional_output_logpdf([1e300, 1.0], [1e-311, 1e-311], 1e-9,
                                        GaussianNoise(1.0))
    assert out[0] == -math.inf and math.isfinite(out[1])
    assert quadrature == []
    assert sums == [("_backward_log_sums", [40.0])]


@settings(max_examples=30, deadline=None)
@given(log_a=st.floats(-3.0, 2.5), u=st.floats(-4.0, 4.0),
       log_sigma=st.floats(-1.0, 1.0), log_v=st.floats(-1.0, 1.0),
       at=st.integers(0, 600))
def test_series_bits_do_not_depend_on_rescale_neighbours(log_a, u, log_sigma,
                                                         log_v, at):
    # the rescale schedule is fixed by j alone: a sample keeps its bits when
    # batched with samples whose term counts fall on every side of the
    # multiples of _RESCALE_STEPS, in both directions
    sigma, v = 10.0 ** log_sigma, 10.0 ** log_v
    lam = v * 10.0 ** log_a
    noise = GaussianNoise(sigma)
    y = lam + v + u * math.sqrt(sigma ** 2 + v * v + 2.0 * v * lam)
    alone = conditional_output_logpdf(y, lam, v, noise)
    lams = v * np.geomspace(1e-2, 1e3, 600)
    sds = np.sqrt(sigma ** 2 + v * v + 2.0 * v * lams)
    ys = lams + v + np.resize([-3.0, -1.0, 0.0, 1.0, 3.0], lams.size) * sds
    _, terms = densities._term_counts(ys - sigma ** 2 / v, lams / v, v, sigma)
    step = densities._RESCALE_STEPS
    assert {step - 1, 0, 1} <= set((terms % step).tolist())
    batch = conditional_output_logpdf(np.insert(ys, at, y),
                                      np.insert(lams, at, lam), v, noise)
    assert np.array_equal(batch[at], alone)


@settings(max_examples=25, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(1e-6, 30.0)),
       v=st.floats(0.05, 5.0), sigma=st.floats(0.05, 3.0))
def test_conditional_density_normalized(lam, v, sigma):
    # trapezoid steps of sigma/8 on the smooth (noise-convolved) density
    noise = GaussianNoise(sigma)
    lo = -12.0 * sigma
    hi = lam + 46.0 * v + 14.0 * math.sqrt(lam * v) + 12.0 * sigma
    ys = np.linspace(lo, hi, int((hi - lo) / (sigma / 8.0)) + 2)
    pdf = np.exp(conditional_output_logpdf(ys, lam, v, noise))
    h = ys[1] - ys[0]
    total = h * (pdf.sum() - 0.5 * (pdf[0] + pdf[-1]))
    mean = h * np.sum(ys * pdf)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(lam + v, abs=1e-8 * (1.0 + lam + v))


@settings(max_examples=200, deadline=None)
@given(log_sigma=st.floats(-150.0, 150.0), log_v=st.floats(-3.0, 3.0),
       log_a=st.one_of(st.none(), st.floats(-3.0, 3.0)),
       u=st.floats(-10.0, 10.0), w=st.floats(-2.0, 10.0),
       j=st.integers(-1000, 1000))
@example(log_sigma=0.0, log_v=0.0, log_a=0.0, u=0.0, w=0.0, j=400)
@example(log_sigma=0.0, log_v=0.0, log_a=None, u=-3.0, w=0.0, j=-400)
@example(log_sigma=-140.0, log_v=2.0, log_a=3.0, u=5.0, w=-1.0, j=900)
@example(log_sigma=140.0, log_v=-2.0, log_a=-3.0, u=-8.0, w=4.0, j=-900)
def test_conditional_logpdf_shifts_by_log_scale(log_sigma, log_v, log_a, u,
                                                w, j):
    # Y = |W|^2 + Z scales by s = 2^j when known_sq, fresh_power and sigma
    # do, so log f shifts by exactly -log s, up to the series' rounding;
    # drawn over the whole sigma range, fresh power within three decades
    # of sigma, matched power within three decades of it (or 0), and y
    # within ten noise widths and a few fresh powers of the mean. Not
    # beyond: where the series hands a sample to the quadrature fallback
    # (matched power past about 3000 fresh powers) the fallback's error
    # moves with the scale, and far below the mean y * y overflows at one
    # scale and not at the other
    sigma = 10.0 ** log_sigma
    v = sigma * 10.0 ** log_v
    lam = 0.0 if log_a is None else v * 10.0 ** log_a
    y = lam + v + sigma * u + v * w
    point, scale = (y, lam, v, sigma), 2.0 ** j
    assume(1e-150 <= sigma * scale <= 1e150)
    # exact only while every scaled value stays normal (or 0)
    assume(all(x * scale * 2.0 ** -j == x for x in point))
    base = conditional_output_logpdf(y, lam, v, GaussianNoise(sigma))
    ys, lams, vs, sigmas = (x * scale for x in point)
    scaled = conditional_output_logpdf(ys, lams, vs, GaussianNoise(sigmas))
    assert abs(scaled + j * math.log(2.0) - base) <= 1e-11 * (1.0 + abs(base))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y, lam, v, sigma", [
    (-2e154, 0.0, 1e149, 1e149),             # EMG term: y * y overflows
    (1.00000001e156, 1e156, 1e148, 1e148),   # the fallback's noise factor
])
def test_far_observations_do_not_overflow(y, lam, v, sigma):
    # where y * y overflows, the noise exponent is formed from y / sigma;
    # the value then shifts by -log s under an even power-of-two scaling s,
    # at which the fallback's nodes in sqrt space scale exactly too
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        base = conditional_output_logpdf(y, lam, v, GaussianNoise(sigma))
        assert math.isfinite(base)
        for j in (-900, -600, -2, 2):
            s = 2.0 ** j
            scaled = conditional_output_logpdf(y * s, lam * s, v * s,
                                               GaussianNoise(sigma * s))
            assert abs(scaled + j * math.log(2.0) - base) <= \
                1e-15 * (1.0 + abs(base)), j


def test_conditional_logpdf_validation():
    noise = GaussianNoise(1.0)
    with pytest.raises(ValueError):
        conditional_output_logpdf(np.inf, 0.0, 1.0, noise)
    # a NaN matched power was read as zero (the EMG value, -1.193 here)
    for bad in (-0.1, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError):
            conditional_output_logpdf(1.0, bad, 1.0, noise)
    with pytest.raises(ValueError):
        conditional_output_logpdf(1.0, 0.0, 0.0, noise)
    # an infinite fresh power used to give -inf everywhere without an error
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            conditional_output_logpdf(1.0, 0.0, bad, noise)
        with pytest.raises(ValueError):
            noncentral_chi2_scaled_logpdf(1.0, 0.0, bad)
    out = conditional_output_logpdf(2.0, 1.0, 1.0, noise)
    assert isinstance(out, float)
    arr = conditional_output_logpdf(np.array([1.0, 2.0]), 1.0, 1.0, noise)
    assert arr.shape == (2,)


def test_conditional_logpdf_tiny_fresh_power():
    # below 1e-16 * known_sq the chi-square bulk is narrower than the float
    # spacing near known_sq: for the N(5, 1) limit -0.9189 the quadrature
    # gave -0.9459 at 1e-30, -1.03e28 at 1e-35 and -1.03e293 at 1e-300; and
    # an overflowing sigma^2 / fresh_power took the EMG term to -inf
    noise = GaussianNoise(1.0)
    for fresh in (1e-30, 1e-35, 1e-300, 4e-16):
        with pytest.raises(ValueError):
            conditional_output_logpdf(5.0, 5.0, fresh, noise)
    with pytest.raises(ValueError):     # the largest matched power decides
        conditional_output_logpdf([5.0, 5.0], [0.0, 5.0], 1e-16, noise)
    with pytest.raises(ValueError):
        conditional_output_logpdf(0.0, 0.0, 1e-9, GaussianNoise(1e150))
    with pytest.raises(ValueError):
        conditional_output_logpdf(0.0, 0.0, 5e-324, noise)
    assert conditional_output_logpdf(5.0, 5.0, 1e-15, noise) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi), abs=1e-8)
    # just above the bound the quadrature and the EMG hold against mpmath,
    # also where the fresh power is far below sigma^2
    for lam, sigma in [(5.0, 1.0), (1e-6, 1e-2), (1e3, 1e-4), (1e6, 10.0),
                       (1.0, 10.0), (1e-6, 1.0)]:
        v = 2e-16 * lam
        sd = math.sqrt(sigma ** 2 + 2.0 * lam * v)
        for y in (lam + v, lam + v + 3.0 * sd):
            ours = conditional_output_logpdf(y, lam, v, GaussianNoise(sigma))
            ref = _mp_conditional_logpdf(y, lam, v, sigma, dps=30)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref)), (y, lam, v)
    for sigma in (1e-4, 1.0, 1e150):
        v = 2e-16 * sigma ** 2
        for y in (0.0, 3.0 * sigma):
            assert _emg_logpdf(y, v, sigma) == pytest.approx(
                _mp_emg_logpdf(y, v, sigma, dps=80), rel=1e-13, abs=1e-12)
    # at zero matched power no ratio applies: the EMG holds at any fresh
    # power whose sigma^2 / fresh_power is finite, and the output law's
    # peak is the noise peak
    for y in (-2.0, 0.0, 3.0, 5.0):
        assert conditional_output_logpdf(y, 0.0, 1e-20, noise) == pytest.approx(
            _mp_emg_logpdf(y, 1e-20, 1.0, dps=80), rel=1e-13, abs=1e-12)
    for v in (1e-100, 1e-300):
        ys = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(conditional_output_logpdf(ys, 0.0, v, noise),
                           noise.logpdf(ys), rtol=0.0, atol=1e-12)
    peak, mode = output_law_peak(1e-17, noise)
    assert peak == pytest.approx(noise.peak(), rel=1e-12)
    assert abs(mode) < 1e-6


def test_conditional_logpdf_chunked_batch_identical(monkeypatch):
    # a value does not depend on the chunk it is computed in: one chunk for
    # the whole batch, 100-sample batches, and 37-sample chunks of both
    noise = GaussianNoise(1.0)
    rng = substream(23, 0)
    ys = rng.normal(3.0, 2.0, size=2000)
    lams = rng.uniform(0.0, 4.0, size=2000)
    quadrature = densities._quadrature_logpdf
    nodes = densities._QUAD_NODES
    monkeypatch.setattr(densities, "_QUAD_NODES", 40)
    monkeypatch.setattr(densities, "_QUAD_ELEMENT_BUDGET", 2000 * 4 * 40)
    one_chunk = quadrature(ys, lams, 1.0, noise)
    monkeypatch.setattr(densities, "_QUAD_ELEMENT_BUDGET", 37 * 4 * 40)
    # the quadrature evaluates the chi-square kernel once per chunk, on
    # its (samples, 4, nodes) grid
    chunks = []
    kernel = densities.noncentral_chi2_scaled_logpdf
    monkeypatch.setattr(densities, "noncentral_chi2_scaled_logpdf",
                        lambda u, *rest: chunks.append(len(u))
                        or kernel(u, *rest))
    whole = quadrature(ys, lams, 1.0, noise)
    parts = np.concatenate([
        quadrature(ys[i:i + 100], lams[i:i + 100], 1.0, noise)
        for i in range(0, 2000, 100)])
    assert chunks[:55] == [37] * 54 + [2000 - 54 * 37]
    assert chunks[55:58] == [37, 37, 26]
    assert np.array_equal(whole, one_chunk)
    assert np.array_equal(parts, one_chunk)

    # the series: each sample's term count, direction and start are its
    # own, so a sample gives the same bits alone, in a batch, in any slice
    # of it and in any order; the batch mixes zero matched power, both
    # directions and samples left to the quadrature
    monkeypatch.setattr(densities, "_QUAD_NODES", nodes)
    chunks.clear()
    noise = GaussianNoise(0.5)
    ys = np.concatenate([rng.normal(3.0, 2.0, size=1500),
                         rng.uniform(-3.0, 0.5, size=400),
                         [2.0, -1.0, 0.3, 1e4, 3e4]])
    lams = np.concatenate([rng.uniform(0.0, 4.0, size=1500),
                           rng.uniform(0.0, 60.0, size=400),
                           [0.0, 0.0, 0.0, 1e4, 3e4]])
    v = 0.25
    mu = ys - 0.25 / v
    _, terms = densities._term_counts(mu, lams / v, v, 0.5)
    tau = mu / 0.5
    series = lams > 0
    assert np.any(series & (tau >= densities._FORWARD_MIN_TAU))
    assert np.any(series & (tau < densities._FORWARD_MIN_TAU))
    assert np.any(terms > densities._SERIES_MAX_TERMS)
    batch = conditional_output_logpdf(ys, lams, v, noise)
    assert np.all(np.isfinite(batch))
    # only the two huge-power samples take the quadrature
    assert sum(chunks) == 2
    perm = substream(23, 1).permutation(ys.size)
    shuffled = conditional_output_logpdf(ys[perm], lams[perm], v, noise)
    assert np.array_equal(shuffled, batch[perm])
    for size in (7, 100, 1000):
        parts = np.concatenate([
            conditional_output_logpdf(ys[i:i + size], lams[i:i + size], v,
                                      noise)
            for i in range(0, ys.size, size)])
        assert np.array_equal(parts, batch), size
    alone = [conditional_output_logpdf(float(ys[i]), float(lams[i]), v, noise)
             for i in range(0, ys.size, 17)]
    assert np.array_equal(np.array(alone), batch[::17])
    grid = conditional_output_logpdf(ys[:1900].reshape(38, 50),
                                     lams[:1900].reshape(38, 50), v, noise)
    assert np.array_equal(grid.ravel(), batch[:1900])
    # a grid that is not 1-d of samples past the term cap: all of them take
    # the quadrature, chunked (18 samples of 80 nodes) as a 1-d batch is
    chunks.clear()
    big = np.linspace(1e4, 3e4, 60)
    grid = conditional_output_logpdf(big.reshape(6, 10) + 1.0,
                                     big.reshape(6, 10), v, noise)
    assert chunks == [18, 18, 18, 6]
    assert np.array_equal(grid.ravel(), quadrature(big + 1.0, big, v, noise))


def test_conditional_logpdf_narrow_noise():
    # sigma far below the signal scale: the density is close to the
    # squared-magnitude density itself
    noise = GaussianNoise(1e-3)
    for u in [0.5, 1.0, 3.0]:
        [ours] = densities._quadrature_logpdf(np.array([u]), np.array([1.0]),
                                              1.0, noise)
        ref = noncentral_chi2_scaled_logpdf(u, 1.0, 1.0)
        assert ours == pytest.approx(ref, abs=1e-5)


# ------------------------------------------------------- info density

def test_info_density_clamp_counting():
    noise = GaussianNoise(1.0)
    y = np.array([1.0, 2.0, 1e6])   # huge y: denominator underflows
    vals, n_clamped = info_density(y, np.zeros(3), np.zeros(3), 1.0, noise)
    assert n_clamped >= 1
    assert np.all(np.isfinite(vals) | (vals == -np.inf))


def test_info_density_importance_identity():
    # E[exp(-i)] = 1 when i is the information density of the sample
    noise = GaussianNoise(1.0)
    rng = substream(29, 0)
    trials = 40000
    w = sample_circular_gaussian(rng, trials, power=1.0)
    full_sq = np.abs(w) ** 2
    y = full_sq + noise.sample(rng, trials)
    vals, n_clamped = info_density(y, full_sq, np.zeros(trials), 1.0, noise)
    assert n_clamped == 0
    est = float(np.mean(np.exp(-vals)))
    se = float(np.std(np.exp(-vals)) / math.sqrt(trials))
    assert abs(est - 1.0) <= 5 * se


def test_info_density_mean_positive():
    noise = GaussianNoise(1.0)
    rng = substream(31, 0)
    trials = 20000
    w = sample_circular_gaussian(rng, trials, power=2.0)
    full_sq = np.abs(w) ** 2
    y = full_sq + noise.sample(rng, trials)
    vals, _ = info_density(y, full_sq, np.zeros(trials), 2.0, noise)
    assert np.mean(vals) > 0.1


# ------------------------------------------------- optimization helpers

def test_golden_max_quadratic():
    x, fx = golden_max(lambda t: -(t - math.pi) ** 2, 0.0, 5.0, tol=1e-12)
    assert x == pytest.approx(math.pi, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_golden_max_monotone_hits_boundary():
    x, _ = golden_max(lambda t: t, 0.0, 2.0, tol=1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)


def test_concentration_rate_properties():
    assert concentration_rate(0.0) == 0.0
    assert concentration_rate(-1.0) == np.inf
    assert concentration_rate(-2.0) == np.inf
    u = np.linspace(-0.9, 3.0, 200)
    r = concentration_rate(u)
    assert np.all(r >= 0)
    # convex with minimum at zero: second differences nonnegative
    d2 = r[2:] - 2 * r[1:-1] + r[:-2]
    assert np.all(d2 >= -1e-12)
    pos = u[u > 0]
    assert np.all(concentration_rate(pos) <= pos ** 2 / 2 + 1e-12)


def test_output_law_peak_matches_grid():
    noise = GaussianNoise(1.0)
    peak, ym = output_law_peak(2.0, noise)
    ys = np.linspace(-8, 20, 20001)
    grid_max = float(np.max(np.exp(conditional_output_logpdf(ys, 0.0, 2.0,
                                                             noise))))
    assert peak == pytest.approx(grid_max, rel=1e-6)
    assert peak >= grid_max - 1e-12


@settings(max_examples=40, deadline=None)
@given(log_power=st.floats(-6.0, 6.0), log_sigma=st.floats(-2.0, 2.0))
@example(log_power=-6.0, log_sigma=2.0)
@example(log_power=6.0, log_sigma=-2.0)
def test_output_law_peak_beats_dense_grid(log_power, log_sigma):
    # golden_max on the log-concave output law: the log peak it returns is
    # at least the largest log density on a dense grid over the search hull
    # and around the returned mode, within 1e-12 (1 + |log peak|)
    total, noise = 10.0 ** log_power, GaussianNoise(10.0 ** log_sigma)
    peak, ym = output_law_peak(total, noise)
    hull = densities._NOISE_BULK * noise.sigma
    width = min(noise.sigma, total)
    ys = np.concatenate([np.linspace(-hull, total + hull, 4001),
                         ym + width * np.linspace(-5.0, 5.0, 4001)])
    grid = float(np.max(conditional_output_logpdf(ys, 0.0, total, noise)))
    log_peak = math.log(peak)
    assert log_peak >= grid - 1e-12 * (1.0 + abs(log_peak))


def _emg_log_mp(y, v, sigma):
    return (sigma ** 2 / (2 * v ** 2) - y / v - mp.log(v)
            + mp.log(mp.ncdf(y / sigma - sigma / v)))


def _moment_objective_mp(t, v, sigma, peak, base):
    # log(t (M+1)^-t integral f^t) by tanh-sinh over panels that double in
    # width away from the mode, from base times the narrower of sigma and
    # the Gaussian width sigma / sqrt(t), out to e^-75 on either side
    M, ym = peak
    h = base * min(sigma / math.sqrt(t), sigma)
    left = sigma * (math.sqrt(150.0 / t) + 8.0)
    right = max(left, v * (80.0 / t + 10.0) + 10.0 * sigma)
    offsets = ([-h * 2.0 ** j for j in range(math.ceil(math.log2(left / h)),
                                             -1, -1)]
               + [0.0] + [h * 2.0 ** j for j in range(
                   math.ceil(math.log2(right / h)) + 1)])
    with mp.workdps(20):
        t_, v_, s_ = mp.mpf(t), mp.mpf(v), mp.mpf(sigma)
        val = mp.quad(lambda y: mp.exp(t_ * _emg_log_mp(y, v_, s_)),
                      [mp.mpf(ym) + o for o in offsets])
        return float(mp.log(t_) - t_ * mp.log1p(M) + mp.log(val))


_MOMENT_TS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


@pytest.mark.parametrize("v", [1e-6, 1e-3, 1.0, 1e3])
def test_output_law_peak_and_moment_objective_against_mpmath(v):
    # sigma 1; v = 1 is verify's concentration split. Where v is far below
    # sigma the right tail of f^t is Gaussian, of width sigma / sqrt(t):
    # the right span covered a third of it at t = 1e-3 and read -3.0067
    # there at v = 1e-6, against -2.5362
    noise = GaussianNoise(1.0)
    peak = output_law_peak(v, noise)
    with mp.workdps(40):
        v_, s_ = mp.mpf(v), mp.mpf(1)
        # the mode solves phi(z) / Phi(z) = sigma / v, z = y/sigma - sigma/v
        z = mp.findroot(lambda z: mp.npdf(z) / mp.ncdf(z) - s_ / v_,
                        (-s_ / v_ - 2, mp.mpf(40)), solver="illinois",
                        verify=False)
        y_ref = s_ * (z + s_ / v_)
        m_ref = float(mp.exp(_emg_log_mp(y_ref, v_, s_)))
    assert peak[0] == pytest.approx(m_ref, rel=1e-12)
    assert abs(peak[1] - float(y_ref)) <= 1e-6 * (1.0 + v)
    checked = 0
    for t in _MOMENT_TS:
        ours = densities._log_moment_objective(t, v, noise, peak)
        ref = _moment_objective_mp(t, v, 1.0, peak, 0.25)
        # the same rule on panels whose edges fall between these
        if abs(_moment_objective_mp(t, v, 1.0, peak, 0.25 * math.sqrt(2.0))
               - ref) > 1e-10 * (1.0 + abs(ref)):
            continue    # the reference has not converged
        assert abs(ours - ref) <= 1e-8 * (1.0 + abs(ref)), t
        checked += 1
        if v <= 1e-6:
            # the Gaussian limit: integral f^t = (2 pi)^((1-t)/2) / sqrt(t)
            limit = (0.5 * math.log(t) - t * math.log1p(peak[0])
                     + 0.5 * (1.0 - t) * math.log(2.0 * math.pi))
            assert abs(ours - limit) <= 1e-8 * (1.0 + abs(limit)), t
    assert checked >= len(_MOMENT_TS) - 1
    if v == 1e-6:
        assert densities._log_moment_objective(
            1e-3, v, noise, peak) == pytest.approx(-2.5362, abs=1e-4)


def test_concentration_moment_grid_oracle():
    # dense grid in ln t must not beat the golden search
    noise = GaussianNoise(1.0)
    total = 1.0
    pk = output_law_peak(total, noise)
    lts = np.linspace(math.log(1e-3), math.log(1e3), 2000)
    grid = max(densities._log_moment_objective(math.exp(lt), total, noise, pk)
               for lt in lts)
    ours = concentration_constant(total, noise).moment
    assert math.log(ours) >= grid - 1e-6
    assert math.log(ours) == pytest.approx(grid, abs=1e-4)


def test_concentration_moment_lower_bound():
    # at t=1 the objective equals 1/(M+1) since the density integrates to 1
    noise = GaussianNoise(1.0)
    for total in (0.5, 1.0, 2.0):
        peak, _ = output_law_peak(total, noise)
        moment = concentration_constant(total, noise).moment
        assert moment >= 1.0 / (peak + 1.0) - 1e-9


@settings(max_examples=40, deadline=None)
@given(log_power=st.floats(-6.0, 6.0), log_sigma=st.floats(-2.0, 2.0))
@example(log_power=-5.875, log_sigma=2.0)   # EMG peak 2 ulp over the noise's
def test_concentration_constant_properties(log_power, log_sigma):
    # total power and noise scale log-uniform over twelve and four decades
    total, noise = 10.0 ** log_power, GaussianNoise(10.0 ** log_sigma)
    consts = concentration_constant(total, noise)
    assert all(math.isfinite(x)
               for x in (consts.moment, consts.scale, consts.noise_peak))
    peak, _ = output_law_peak(total, noise)
    assert peak <= noise.peak()
    assert consts.noise_peak == noise.peak()
    # the objective at t = 1 is 1/(M+1), since f integrates to one
    assert consts.moment >= 1.0 / (peak + 1.0) - 1e-9
    # the scale clamps at 150 for small moments
    assert consts.scale == 150.0 * max(
        2.0 * consts.moment * (consts.noise_peak + 1.0), 1.0)


def test_concentration_constant_bundle():
    noise = GaussianNoise(1.0)
    consts = concentration_constant(1.0, noise)
    assert consts.noise_peak == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert consts.scale == pytest.approx(
        150.0 * max(2.0 * consts.moment * (consts.noise_peak + 1.0), 1.0))
    assert consts.scale >= 150.0
    # NaN was refused as "observations must be finite", naming no argument
    for total in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="total_power"):
            concentration_constant(total, noise)


def test_concentration_tail_bound_shape():
    assert concentration_tail_bound(10, 100.0, 0.0) == pytest.approx(2.0)
    vals = [concentration_tail_bound(10, 100.0, mu)
            for mu in (0.0, 0.01, 0.05, 0.2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # a NaN mu bounded the tails by 0.0, and n = -1 by 2.01
    for args, name in (((10, 100.0, -0.1), "mu"), ((10, 1.0, math.nan), "mu"),
                       ((10, 1.0, math.inf), "mu"), ((-1, 1.0, 0.1), "n"),
                       ((0, 1.0, 0.1), "n"), ((math.nan, 1.0, 0.1), "n"),
                       ((10, math.nan, 0.1), "scale"),
                       ((10, math.inf, 0.1), "scale")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            concentration_tail_bound(*args)


def test_log_floor_is_representable():
    assert math.exp(LOG_FLOOR) > 0.0
    assert math.exp(LOG_FLOOR - 1.0) == 0.0 or math.exp(LOG_FLOOR - 1.0) < 1e-320


# ---------------------------------------------------------------- erfcx

def _erfcx_chebyshev_table(nodes=32):
    """The generator of ``densities._ERFCX_COEF``: polynomial ``i`` is the
    degree-6 truncated Chebyshev series of ``erfcx(400/y - 4)`` on ``y`` in
    ``[i, i + 1]``, in ``t = 2y - (2i + 1)``, its coefficients taken by
    ``nodes``-point Chebyshev-Gauss quadrature at 40 digits and expanded
    into powers of ``t`` before rounding; row ``d`` holds the ``t^d``
    coefficients."""
    with mp.workdps(40):
        theta = [mp.pi * (j + mp.mpf(0.5)) / nodes for j in range(nodes)]
        cheb = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]   # T_k in powers of t
        for _ in range(5):
            up = [mp.mpf(0)] + [2 * c for c in cheb[-1]]
            down = cheb[-2] + [mp.mpf(0)] * 2
            cheb.append([a - b for a, b in zip(up, down)])
        table = np.empty((7, 100))
        for i in range(100):
            xs = [400 / ((mp.cos(th) + 2 * i + 1) / 2) - 4 for th in theta]
            fs = [mp.exp(x * x) * mp.erfc(x) for x in xs]
            powers = [mp.mpf(0)] * 7
            for k in range(7):
                c = 2 * mp.fsum(f * mp.cos(k * th)
                                for f, th in zip(fs, theta)) / nodes
                if k == 0:
                    c /= 2
                for d, m in enumerate(cheb[k]):
                    powers[d] += c * m
            table[:, i] = [float(p) for p in powers]
    return table


def test_erfcx_table_is_its_generator_output():
    table = _erfcx_chebyshev_table()
    assert densities._ERFCX_COEF.shape == (7, 100)
    assert densities._ERFCX_COEF.tobytes() == table.tobytes()


def _ulps(ours, ref):
    """Distance in units of ``ref``'s last place; equal infinities are 0."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    same = ours == ref
    diff = np.abs(np.where(same, 0.0, ours) - np.where(same, 0.0, ref))
    return np.where(same, 0.0, diff / np.spacing(np.abs(ref)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=64),
       st.lists(st.floats(-26.7, 0.0, exclude_max=True), max_size=64))
def test_erfcx_against_scipy(pos, neg):
    x = np.array(pos)
    assert _ulps(densities._erfcx(x), erfcx(x)).max() <= 1.0
    if neg:
        x = np.array(neg)
        assert _ulps(densities._erfcx(x), erfcx(x)).max() <= 2.0


def test_erfcx_against_scipy_across_blocks():
    # 3e5 draws span 19 blocks; the range-[0, 50] polynomials agree with
    # scipy's to the bit but for rare single-ulp roundings
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.uniform(0.0, 50.0, 100000),
                        50.0 * rng.random(100000) ** 3,
                        rng.standard_cauchy(100000) * 10.0])
    rng.shuffle(x)
    ours, ref = densities._erfcx(x), erfcx(x)
    assert np.count_nonzero(ours[x >= 0] != ref[x >= 0]) <= 3
    assert _ulps(ours[x >= 0], ref[x >= 0]).max() <= 1.0
    assert _ulps(ours[x < 0], ref[x < 0]).max() <= 2.0


def test_erfcx_against_mpmath_no_worse_than_scipy():
    rng = np.random.default_rng(6)
    bands = [(0.0, 1.0), (1.0, 10.0), (10.0, 50.0), (50.0, 1e8),
             (-1.1, 0.0), (-6.1, -1.1)]
    for lo, hi in bands:
        if lo == 50.0:
            x = np.exp(rng.uniform(math.log(lo), math.log(hi), 300))
        else:
            x = rng.uniform(lo, hi, 300)
        with mp.workdps(50):
            ref = [mp.exp(mp.mpf(xi) ** 2) * mp.erfc(xi) for xi in x]
            ulp = [float(np.spacing(float(r))) for r in ref]

            def worst(vals):
                return max(float(abs(v - r)) / u
                           for v, r, u in zip(vals, ref, ulp))

            ours, theirs = worst(densities._erfcx(x)), worst(erfcx(x))
        assert ours <= max(theirs, 1.0), (lo, hi, ours, theirs)


@pytest.mark.filterwarnings("error")
def test_erfcx_special_values_and_edges():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    out = densities._erfcx(x)
    assert out[:2].tolist() == [1.0, 1.0]
    assert out[2] == 0.0 and out[3] == np.inf and np.isnan(out[4])
    # branch edges evaluate without a warning: the last polynomial point,
    # the continued fraction's two ends, the reflection's overflow
    edges = np.array([50.0, 5e7, 1e300, -26.7, -26.63, -6.1, -1e300])
    assert _ulps(densities._erfcx(edges), erfcx(edges)).max() <= 2.0
    assert densities._erfcx(edges[3:4])[0] == np.inf
    assert densities._erfcx(np.empty(0)).shape == (0,)


def test_erfcx_out_aliases_input_and_batches_agree():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(-30.0, 60.0, 40000), [np.nan, 1e9]])
    ref = densities._erfcx(x.copy())
    alone = np.array([densities._erfcx(x[i:i + 1])[0]
                      for i in range(0, x.size, 997)])
    assert np.array_equal(ref[::997], alone, equal_nan=True)
    y = x.copy()
    assert densities._erfcx(y, out=y) is y
    assert np.array_equal(y, ref, equal_nan=True)
