"""Density formulas against independent oracles, plus the concentration
constants machinery."""
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import erfc

from phaselim import densities
from phaselim.densities import (LOG_FLOOR, GaussianNoise,
                                concentration_constant,
                                concentration_moment, concentration_rate,
                                concentration_scale_from_moment,
                                concentration_tail_bound,
                                conditional_output_logpdf,
                                exp_modified_gaussian_logpdf, golden_max,
                                info_density,
                                log_moment_objective,
                                noncentral_chi2_scaled_logpdf,
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


def test_magnitude_sq_monte_carlo():
    rng = substream(17, 0)
    lam, v = 2.0, 0.5
    w = math.sqrt(lam) + sample_circular_gaussian(rng, 200000, power=v)
    u = np.abs(w) ** 2
    assert np.mean(u) == pytest.approx(lam + v, rel=0.02)
    assert np.var(u) == pytest.approx(v * v + 2 * v * lam, rel=0.05)


# ----------------------------------------------- closed form vs quadrature

def _emg_oracle(y, v, sigma):
    # independent transcription: exp(s^2/(2 v^2) - y/v) * Phi(y/s - s/v) / v
    t = y / sigma - sigma / v
    return (math.exp(sigma ** 2 / (2 * v ** 2) - y / v) / v
            * 0.5 * erfc(-t / math.sqrt(2.0)))


def test_emg_against_erfc_transcription():
    for v, sigma in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.3)]:
        for y in np.linspace(-4 * sigma, 8 * v, 60):
            ours = exp_modified_gaussian_logpdf(y, v, sigma)
            assert ours == pytest.approx(math.log(_emg_oracle(y, v, sigma)),
                                         abs=1e-12)


def test_emg_is_quadrature_fast_path():
    noise = GaussianNoise(0.8)
    ys = np.linspace(-3, 12, 80)
    fast = conditional_output_logpdf(ys, 0.0, 1.3, noise)
    slow = conditional_output_logpdf(ys, 0.0, 1.3, noise,
                                     force_quadrature=True)
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


def test_conditional_logpdf_validation():
    noise = GaussianNoise(1.0)
    with pytest.raises(ValueError):
        conditional_output_logpdf(np.inf, 0.0, 1.0, noise)
    with pytest.raises(ValueError):
        conditional_output_logpdf(1.0, -0.1, 1.0, noise)
    with pytest.raises(ValueError):
        conditional_output_logpdf(1.0, 0.0, 0.0, noise)
    out = conditional_output_logpdf(2.0, 1.0, 1.0, noise)
    assert isinstance(out, float)
    arr = conditional_output_logpdf(np.array([1.0, 2.0]), 1.0, 1.0, noise)
    assert arr.shape == (2,)


def test_conditional_logpdf_chunked_batch_identical(monkeypatch):
    # a value does not depend on the chunk it is computed in: one chunk for
    # the whole batch, 100-sample batches, and 37-sample chunks of both
    noise = GaussianNoise(1.0)
    rng = substream(23, 0)
    ys = rng.normal(3.0, 2.0, size=2000)
    lams = rng.uniform(0.0, 4.0, size=2000)
    monkeypatch.setattr(densities, "_QUAD_ELEMENT_BUDGET", 2000 * 4 * 40)
    one_chunk = conditional_output_logpdf(ys, lams, 1.0, noise, nodes=40)
    monkeypatch.setattr(densities, "_QUAD_ELEMENT_BUDGET", 37 * 4 * 40)
    chunks = []
    quadrature = densities._conv_logpdf_quadrature
    monkeypatch.setattr(densities, "_conv_logpdf_quadrature",
                        lambda y, *rest: chunks.append(y.size)
                        or quadrature(y, *rest))
    whole = conditional_output_logpdf(ys, lams, 1.0, noise, nodes=40)
    parts = np.concatenate([
        conditional_output_logpdf(ys[i:i + 100], lams[i:i + 100], 1.0,
                                  noise, nodes=40)
        for i in range(0, 2000, 100)])
    assert chunks[:55] == [37] * 54 + [2000 - 54 * 37]
    assert chunks[55:58] == [37, 37, 26]
    assert np.array_equal(whole, one_chunk)
    assert np.array_equal(parts, one_chunk)
    # a grid that is not 1-d is chunked the same way
    grid = conditional_output_logpdf(ys.reshape(40, 50), lams.reshape(40, 50),
                                     1.0, noise, nodes=40)
    assert np.array_equal(grid.ravel(), one_chunk)


def test_conditional_logpdf_narrow_noise():
    # sigma far below the signal scale: the density is close to the
    # squared-magnitude density itself
    noise = GaussianNoise(1e-3)
    for u in [0.5, 1.0, 3.0]:
        ours = conditional_output_logpdf(u, 1.0, 1.0, noise,
                                         force_quadrature=True)
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


def test_concentration_moment_grid_oracle():
    # dense grid in ln t must not beat the golden search
    noise = GaussianNoise(1.0)
    total = 1.0
    pk = output_law_peak(total, noise)
    lts = np.linspace(math.log(1e-3), math.log(1e3), 2000)
    grid = max(log_moment_objective(math.exp(lt), total, noise,
                                    _peak_cache=pk) for lt in lts)
    ours = concentration_moment(total, noise)
    assert math.log(ours) >= grid - 1e-6
    assert math.log(ours) == pytest.approx(grid, abs=1e-4)


def test_concentration_moment_lower_bound():
    # at t=1 the objective equals 1/(M+1) since the density integrates to 1
    noise = GaussianNoise(1.0)
    for total in (0.5, 1.0, 2.0):
        peak, _ = output_law_peak(total, noise)
        assert concentration_moment(total, noise) >= 1.0 / (peak + 1.0) - 1e-9


def test_concentration_scale_formula():
    assert concentration_scale_from_moment(2.0, 0.5) == pytest.approx(900.0)
    # degenerate small moments clamp at the fixed floor
    assert concentration_scale_from_moment(1e-9, 0.1) == pytest.approx(150.0)


def test_concentration_constant_bundle():
    noise = GaussianNoise(1.0)
    consts = concentration_constant(1.0, noise)
    assert consts.noise_peak == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert consts.scale == pytest.approx(
        concentration_scale_from_moment(consts.moment, consts.noise_peak))
    assert consts.scale >= 150.0


def test_concentration_tail_bound_shape():
    assert concentration_tail_bound(10, 100.0, 0.0) == pytest.approx(2.0)
    vals = [concentration_tail_bound(10, 100.0, mu)
            for mu in (0.0, 0.01, 0.05, 0.2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        concentration_tail_bound(10, 100.0, -0.1)


def test_log_floor_is_representable():
    assert math.exp(LOG_FLOOR) > 0.0
    assert math.exp(LOG_FLOOR - 1.0) == 0.0 or math.exp(LOG_FLOOR - 1.0) < 1e-320
