"""Exhaustive decoder, error curves, and the monotone-fit helper."""
import dataclasses
import hashlib
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from phaselim import simulate
from phaselim.densities import GaussianNoise, conditional_output_logpdf
from phaselim.model import (DiscreteFlat, DiscreteGeneral, GaussianIID,
                            floor_count, observe,
                            sample_signal_vector, sample_support)
from phaselim.rng import sample_circular_gaussian, substream
from phaselim.simulate import (ErrorCurve, SimConfig, decode, error_curve,
                               isotonic_residual, pava_nonincreasing)


def _draw_instance(p, k, n, signal, noise, rng):
    support = sample_support(p, k, rng)
    beta = sample_signal_vector(signal, rng)
    x = sample_circular_gaussian(rng, (n, p))
    y = observe(x[:, support], beta, noise, rng)
    return support, x, y


def test_flat_ml_recovers_at_tiny_noise():
    signal = DiscreteFlat(c_beta=1.0, k=2)
    noise = GaussianNoise(1e-6)
    rng = substream(0, 0)
    for _ in range(20):
        support, x, y = _draw_instance(6, 2, 6, signal, noise, rng)
        decoded = decode(x, y, signal, noise, "flat-ml")
        assert np.array_equal(decoded, support)


def test_flat_ml_zero_measurements_lexicographic():
    signal = DiscreteFlat(c_beta=1.0, k=3)
    noise = GaussianNoise(1.0)
    x = np.zeros((0, 7), dtype=complex)
    y = np.zeros(0)
    decoded = decode(x, y, signal, noise, "flat-ml")
    assert tuple(decoded) == (0, 1, 2)


def test_flat_ml_accepts_equal_general_values():
    vals = (0.5 + 0.0j, 0.5 + 0.0j)
    signal = DiscreteGeneral(values=vals)
    noise = GaussianNoise(1e-6)
    rng = substream(2, 0)
    support, x, y = _draw_instance(6, 2, 8, signal, noise, rng)
    decoded = decode(x, y, signal, noise, "flat-ml")
    assert np.array_equal(decoded, support)


def test_flat_ml_rejects_multivalued():
    signal = DiscreteGeneral(values=(1.0, 2.0))
    noise = GaussianNoise(1.0)
    x = np.zeros((1, 5), dtype=complex)
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), signal, noise, "flat-ml")
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), GaussianIID(1.0, 2), noise, "flat-ml")


@pytest.mark.parametrize("signal, decoder", [
    (DiscreteFlat(c_beta=1.0, k=2), "flat-ml"),
    (GaussianIID(c_beta=1.0, k=2), "mc-marginal")])
def test_decode_refuses_bad_arrays(signal, decoder):
    # a y whose length is not x's row count failed inside numpy with a
    # message naming neither argument, and a non-finite entry silently
    # gave candidate (0, 1); each is refused by name before any draw
    noise = GaussianNoise(1.0)
    x = sample_circular_gaussian(substream(3, 0), (5, 6))
    y = np.ones(5)
    one_nan = x.copy()
    one_nan[2, 4] = np.nan
    for bad_x, bad_y, name in (
            (x[0], y, "x"), (x[None], y, "x"), (x, np.ones(1), "y"),
            (x, np.ones((5, 1)), "y"), (x, np.ones(6), "y"),
            (x, np.full(5, np.nan), "y"), (x, np.full(5, np.inf), "y"),
            (x, np.array([1.0, 1.0, -np.inf, 1.0, 1.0]), "y"),
            (one_nan, y, "x"), (x * np.inf, y, "x")):
        rng = substream(4, 0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            decode(bad_x, bad_y, signal, noise, decoder, mc_samples=8,
                   rng=rng)
        assert rng.bit_generator.state == substream(4, 0).bit_generator.state
    # zero rows is the zero-measurement limit, not a bad array
    assert tuple(decode(x[:0], y[:0], signal, noise, decoder, mc_samples=8,
                        rng=substream(4, 0))) == (0, 1)


def test_decode_candidate_guard():
    signal = DiscreteFlat(c_beta=1.0, k=5)
    noise = GaussianNoise(1.0)
    x = np.zeros((1, 30), dtype=complex)
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), signal, noise, "flat-ml")


def test_decode_permutation_equivariance():
    signal = DiscreteFlat(c_beta=1.0, k=2)
    noise = GaussianNoise(0.3)
    rng = substream(7, 0)
    _, x, y = _draw_instance(7, 2, 10, signal, noise, rng)
    base = decode(x, y, signal, noise, "flat-ml")
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    # column j of the permuted matrix is column perm[j] of the original
    decoded = decode(x[:, perm], y, signal, noise, "flat-ml")
    assert np.array_equal(np.sort(perm[decoded]), base)


def test_mc_marginal_needs_rng():
    signal = GaussianIID(c_beta=1.0, k=1)
    noise = GaussianNoise(1.0)
    x = np.zeros((1, 4), dtype=complex)
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), signal, noise, "mc-marginal")
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), DiscreteFlat(1.0, 1), noise, "mc-marginal",
               rng=substream(0, 0))
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), signal, noise, "bogus")


def test_mc_marginal_matches_single_column_marginal():
    # k = 1, n = 1: the candidate score is the log marginal of y under a
    # coefficient drawn fresh, which has the closed exponential-Gaussian
    # form with power |x_j|^2 c
    signal = GaussianIID(c_beta=1.5, k=1)
    noise = GaussianNoise(0.7)
    rng = substream(11, 0)
    x = sample_circular_gaussian(rng, (1, 3))
    y = np.array([1.2])
    # score by hand for each column with a huge common draw block
    draws = sample_circular_gaussian(substream(99, 0), (200000, 1),
                                     power=signal.sigma_beta_sq)
    best_exact = None
    for j in range(3):
        v = float(np.abs(x[0, j]) ** 2) * signal.c_beta
        exact = conditional_output_logpdf(1.2, 0.0, v, GaussianNoise(0.7))
        if best_exact is None or exact > best_exact[1]:
            best_exact = (j, exact)
    decoded = decode(x, y, signal, noise, "mc-marginal", mc_samples=20000,
                     rng=substream(42, 0))
    assert tuple(decoded) == (best_exact[0],)


def test_mc_marginal_recovers_high_snr():
    signal = GaussianIID(c_beta=1.0, k=2)
    noise = GaussianNoise(1e-3)
    rng = substream(13, 0)
    hits = 0
    for _ in range(10):
        support, x, y = _draw_instance(6, 2, 12, signal, noise, rng)
        decoded = decode(x, y, signal, noise, "mc-marginal",
                         mc_samples=512, rng=rng)
        hits += np.array_equal(decoded, support)
    assert hits >= 8


def test_decode_candidate_guard_runs_first():
    # the C(p,k) guard refuses before the candidate array is built, and the
    # array it builds otherwise is shared and read-only
    simulate._candidates.cache_clear()
    signal = DiscreteFlat(c_beta=1.0, k=5)
    with pytest.raises(ValueError):
        decode(np.zeros((1, 30), dtype=complex), np.zeros(1), signal,
               GaussianNoise(1.0), "flat-ml")
    assert simulate._candidates.cache_info().currsize == 0
    cands = simulate._candidates(6, 2)
    assert simulate._candidates(6, 2) is cands
    assert not cands.flags.writeable
    assert [tuple(c) for c in cands] == [(i, j) for i in range(6)
                                         for j in range(i + 1, 6)]


# pe values recorded with the decoder that kept one scoring branch per
# decoder; the single scorer must reproduce them exactly
_PINNED_CURVES = [
    (dict(p=10, signal=DiscreteFlat(c_beta=1.0, k=2),
          noise=GaussianNoise(0.5), alpha_star=0.5, n_grid=(2, 4, 8, 16),
          trials=50, master_seed=3),
     [0.84, 0.54, 0.24, 0.02]),
    (dict(p=7, signal=DiscreteGeneral(values=(0.6 + 0.3j,) * 3),
          noise=GaussianNoise(0.3), alpha_star=0.34, n_grid=(3, 6, 12),
          trials=40, master_seed=4),
     [0.35, 0.05, 0.0]),
    (dict(p=6, signal=GaussianIID(c_beta=2.0, k=2),
          noise=GaussianNoise(0.2), alpha_star=0.5, n_grid=(2, 5, 10),
          trials=40, mc_samples=16, master_seed=5),
     [0.925, 0.8, 0.6]),
]


def test_error_curves_pinned():
    for kwargs, pe in _PINNED_CURVES:
        assert error_curve(SimConfig(**kwargs)).pe.tolist() == pe, kwargs


def _reference_scores(x, y, noise, draws, scale):
    """Plain per-candidate loop: log mean over draws ``s`` of the
    likelihood ``prod_i f_Z(y_i - scale |conj(x_S) @ d_s|^2)``, without
    the noise density's normalizing term ``-n log(2 pi sigma^2) / 2``,
    which the decoder's scores omit."""
    m, k = draws.shape
    out = []
    for cand in itertools.combinations(range(x.shape[1]), k):
        proj = np.conjugate(x[:, cand]) @ draws.T          # (rows, draws)
        loglik = noise.logpdf(y[:, None] - scale * np.abs(proj) ** 2)
        out.append(logsumexp(loglik.sum(axis=0)) - math.log(m))
    return (np.array(out)
            + len(y) * 0.5 * math.log(2.0 * math.pi * noise.sigma ** 2))


def _one_trial_scores(x, y, noise, draws, scale):
    """The scorer's candidate scores for one trial's ``x`` and ``y``."""
    return simulate._candidate_scores(x[None], y[None], noise, draws,
                                      scale)[0]


def _force_form(monkeypatch, lifted):
    """Score every decode in the lifted (or direct) form, whatever its
    shape."""
    monkeypatch.setattr(simulate, "_lifted_pays", lambda k, n, m: lifted)


def test_candidate_scores_match_reference_loop(monkeypatch):
    rng = substream(19, 0)
    noise = GaussianNoise(0.6)
    n, p = 11, 6
    x = sample_circular_gaussian(rng, (n, p))
    y = np.abs(rng.normal(1.0, 1.0, size=n))
    for lifted in (False, True):
        _force_form(monkeypatch, lifted)
        for k in (1, 2, 3):
            for draws in (np.ones((1, k)),
                          sample_circular_gaussian(rng, (16, k), power=0.7)):
                for scale in (0.3, 1.0):
                    ours = _one_trial_scores(x, y, noise, draws, scale)
                    ref = _reference_scores(x, y, noise, draws, scale)
                    assert np.allclose(ours, ref, rtol=1e-12, atol=0), (
                        lifted, k, scale)


def test_form_choice_follows_shape():
    # one draw (flat-ml) and fewer than 3 rows stay direct; otherwise the
    # lifted form's k^2 (k^2 + 3) / 2 multiply-adds are set against twice
    # the direct form's n (k + 6) passes
    pays = simulate._lifted_pays
    assert not pays(2, 40, 1)
    assert not pays(1, 2, 256) and pays(1, 3, 256)
    assert pays(2, 3, 256) and pays(2, 40, 256)
    assert not pays(3, 3, 256) and pays(3, 4, 256)
    assert not pays(4, 7, 256) and pays(4, 8, 256)


# Lifted scores carry the rounding of an expanded square; the reference's
# own rounding at sigma 1e-6 is about 1e-11 of 1 + |score|.
_LIFT_TOL = 1e-8


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), extra=st.integers(0, 3), n=st.integers(0, 60),
       m=st.integers(1, 256), log_sigma=st.floats(-6.0, 3.0),
       fit=st.booleans(), huge=st.booleans(), seed=st.integers(0, 2**16))
@example(k=2, extra=2, n=40, m=64, log_sigma=-150.0, fit=False, huge=False,
         seed=1)
@example(k=3, extra=1, n=12, m=32, log_sigma=150.0, fit=False, huge=False,
         seed=2)
@example(k=2, extra=2, n=30, m=128, log_sigma=-6.0, fit=True, huge=False,
         seed=3)
@example(k=2, extra=2, n=2, m=8, log_sigma=0.0, fit=False, huge=True,
         seed=4)
def test_lifted_scores_match_reference_loop(k, extra, n, m, log_sigma, fit,
                                            huge, seed):
    # With ``fit``, y comes from one candidate and one draw plus noise, so
    # that candidate's expanded square cancels down to n sigma^2 (the
    # high-SNR case); with ``huge``, candidates on columns 0 and 1 overflow
    # to a likelihood of 0, as in test_decode_ranks_impossible_candidates_last
    rng = substream(41, seed)
    p = k + extra
    noise = GaussianNoise(10.0 ** log_sigma)
    x = sample_circular_gaussian(rng, (n, p))
    draws = sample_circular_gaussian(rng, (m, k), power=1.5)
    if fit:
        cand = sorted(rng.choice(p, size=k, replace=False))
        truth = np.abs(np.conjugate(x[:, cand]) @ draws[rng.integers(m)])
        y = truth ** 2 + noise.sample(rng, n)
    else:
        y = np.abs(rng.normal(1.0, 1.0, size=n))
    if huge and p > k:
        x[:, :min(2, k)] *= 1e200
    with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
          pytest.MonkeyPatch.context() as mp):
        _force_form(mp, True)
        ref = _reference_scores(x, y, noise, draws, 1.0)
        ours = _one_trial_scores(x, y, noise, draws, 1.0)
        close = np.abs(ours - ref) <= _LIFT_TOL * (1.0 + np.abs(ref))
    assert np.all(close | (np.isinf(ref) & (ours == ref))), (ours, ref)
    best, second = np.sort(np.append(ref, -np.inf))[::-1][:2]
    if np.isfinite(best) and best - second > _LIFT_TOL * (1.0 + abs(best)):
        assert np.argmax(ours) == np.argmax(ref)


# sha256 of ``_candidate_scores(...).tobytes()`` for the seeded inputs of
# _score_case: every score bit of a flat-ml block, of an mc-marginal decode
# in the direct form (2 rows) and in the lifted form (10 rows), and of a
# lifted decode whose observations fit one candidate under draw 0 to 1e-3,
# so that its expanded square cancels and that candidate is rescored
# directly. At a noise scale of 2e-3 that draw alone sets the candidate's
# score, which a one-ulp change of an intensity moves. Error-rate pins
# cannot see a moved score bit; these can.
_SCORE_DIGESTS = {
    "flat_ml_block":
        "8319abf439dc3e04ae1d80d8a3a2ead403d2d07d8eb4ba431ea0fcd0b3b60055",
    "mc_direct":
        "a3384322b2c42a5bc47667d715487cfbb9521c93ab4b4bc9b435be9bc10b17bf",
    "mc_lifted":
        "3b23163a25a0dd4f11d13d90916d5a995ba6df40087caed56819e8c258980b91",
    "mc_lifted_rescored":
        "c328600dc36398ed26ceb55f1a7beb33570a1e7b617085b42c1f8ecdba4c4f1a",
}


def _score_case(case):
    """``(x, y, noise, draws, scale, lifted)`` of a pinned score case."""
    rng = substream(61, sorted(_SCORE_DIGESTS).index(case))
    if case == "flat_ml_block":
        x = sample_circular_gaussian(rng, (5, 6, 6))
        y = np.abs(rng.normal(1.0, 1.0, size=(5, 6)))
        return x, y, GaussianNoise(0.5), np.ones((1, 2)), 0.8, False
    n = 2 if case == "mc_direct" else 10
    x = sample_circular_gaussian(rng, (1, n, 6))
    draws = sample_circular_gaussian(rng, (32, 2), power=0.7)
    if case == "mc_lifted_rescored":
        fit = np.abs(np.conjugate(x[0][:, [1, 3]]) @ draws[0]) ** 2
        y = (fit + 1e-3 * rng.standard_normal(n))[None]
        return x, y, GaussianNoise(2e-3), draws, 1.0, True
    y = np.abs(rng.normal(1.0, 1.0, size=(1, n)))
    return x, y, GaussianNoise(0.6), draws, 1.0, n > 2


@pytest.mark.parametrize("case", sorted(_SCORE_DIGESTS))
def test_candidate_score_bytes_pinned(case, monkeypatch):
    x, y, noise, draws, scale, lifted = _score_case(case)
    trials, n, _ = x.shape
    assert (trials == 1 and simulate._lifted_pays(2, n, len(draws))) == lifted
    direct = simulate._direct_loglik
    rescored = []

    def spy(xt, y, noise, draws, scale, sup, out, ws):
        rescored.append(len(sup))
        direct(xt, y, noise, draws, scale, sup, out, ws)

    monkeypatch.setattr(simulate, "_direct_loglik", spy)
    scores = simulate._candidate_scores(x, y, noise, draws, scale)
    assert scores.shape == (trials, 15) and np.isfinite(scores).all()
    # the lifted form calls the direct one only to rescore candidates
    assert bool(lifted and rescored) == (case == "mc_lifted_rescored")
    digest = hashlib.sha256(scores.tobytes()).hexdigest()
    assert digest == _SCORE_DIGESTS[case]


def test_lifted_overflowing_gram_scores_directly(monkeypatch):
    # columns of 1e80 overflow the Gram entries (|z|^4) while the draws of
    # 1e-70 keep every intensity finite: the lifted sums come out infinite
    # or NaN, and those candidates are scored directly, finite as the
    # reference has them
    rng = substream(43, 0)
    noise = GaussianNoise(1.0)
    x = sample_circular_gaussian(rng, (12, 5))
    x[:, 1] *= 1e80
    draws = 1e-70 * sample_circular_gaussian(rng, (32, 2))
    y = np.abs(rng.normal(1.0, 1.0, size=12))
    _force_form(monkeypatch, True)
    ours = _one_trial_scores(x, y, noise, draws, 1.0)
    ref = _reference_scores(x, y, noise, draws, 1.0)
    assert np.all(np.isfinite(ref))
    assert np.allclose(ours, ref, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), extra=st.integers(0, 4), n=st.integers(0, 60),
       trials=st.integers(1, 80), log_sigma=st.floats(-6.0, 3.0),
       at_bound=st.booleans(), drawn=st.booleans(),
       seed=st.integers(0, 2**16))
@example(k=2, extra=3, n=40, trials=80, log_sigma=-150.0, at_bound=True,
         drawn=False, seed=1)
@example(k=3, extra=2, n=60, trials=7, log_sigma=150.0, at_bound=True,
         drawn=False, seed=2)
@example(k=1, extra=4, n=0, trials=80, log_sigma=0.0, at_bound=True,
         drawn=True, seed=3)
@example(k=2, extra=0, n=1, trials=33, log_sigma=-150.0, at_bound=False,
         drawn=True, seed=4)
def test_trial_block_scores_match_one_trial_scores(k, extra, n, trials,
                                                   log_sigma, at_bound,
                                                   drawn, seed):
    # a block of trials scores each trial bit for bit as the trial alone,
    # across shapes, noise scales and signal powers up to the bound that
    # SimConfig and decode accept (power, and power over sigma, 1e150);
    # with ``drawn``, four draws take the direct form in both
    rng = substream(47, seed)
    p = k + extra
    noise = GaussianNoise(10.0 ** log_sigma)
    power = (min(simulate._POWER_MAX, simulate._POWER_MAX * noise.sigma)
             if at_bound else 1.0)
    signal = DiscreteFlat(c_beta=power, k=k)
    x = sample_circular_gaussian(rng, (trials, n, p))
    y = np.empty((trials, n))
    for t in range(trials):
        support = sample_support(p, k, rng)
        y[t] = observe(x[t][:, support],
                       sample_signal_vector(signal, rng), noise, rng)
    draws = (sample_circular_gaussian(rng, (4, k)) if drawn
             else np.ones((1, k)))
    scale = power / k
    with pytest.MonkeyPatch.context() as mp:
        _force_form(mp, False)
        block = simulate._candidate_scores(x, y, noise, draws, scale)
        alone = [_one_trial_scores(x[t], y[t], noise, draws, scale)
                 for t in range(trials)]
    assert block.shape == (trials, math.comb(p, k))
    assert not np.isnan(block).any()
    for t in range(trials):
        assert np.array_equal(block[t], alone[t]), t


def test_chunked_scores_match_one_chunk(monkeypatch):
    # a budget of a few candidates per chunk, with a ragged last chunk, of a
    # few draws per product table, with a ragged last block, or of a few
    # candidates per super-chunk, whose table starts past column 0, scores
    # every candidate exactly as one chunk, block and super-chunk do; in
    # the lifted form the chunk budget sets the candidates per Gram setup
    # chunk and caps those per super-chunk, down to one at a budget of 1
    rng = substream(17, 0)
    noise = GaussianNoise(0.4)
    n, p = 9, 7
    x = sample_circular_gaussian(rng, (n, p))
    y = np.abs(rng.normal(size=n))
    blocks = [(np.ones((1, 2)), 0.8, (False,)),
              (np.ones((1, 3)), 0.3, (False,)),
              (sample_circular_gaussian(rng, (16, 2), power=0.5), 1.0,
               (False, True)),
              (sample_circular_gaussian(rng, (16, 3), power=0.5), 1.0,
               (True,))]
    for draws, scale, forms in blocks:
        m, k = draws.shape
        for lifted in forms:
            _force_form(monkeypatch, lifted)
            whole = _one_trial_scores(x, y, noise, draws, scale)
            assert whole.shape == (math.comb(p, k),)
            budgets = [(per_chunk * n * m, None) for per_chunk in (1, 4)]
            if m > 1:   # tables of 3 or 5 of the 16 draws
                budgets += [(per_block * k * p * n, None)
                            for per_block in (3, 5)]
            # super-chunks of 1, 4 or 8 candidates, alone and with 3-draw
            # tables
            budgets += [(None, per_super * m) for per_super in (1, 4, 8)]
            budgets += [(3 * k * n, 4 * m), (1, None), (1, 1)]
            for chunk, score in budgets:
                with monkeypatch.context() as mp:
                    if chunk is not None:
                        mp.setattr(simulate, "_CHUNK_ELEMENTS", chunk)
                    if score is not None:
                        mp.setattr(simulate, "_SCORE_ELEMENTS", score)
                    chunked = _one_trial_scores(x, y, noise, draws, scale)
                assert np.array_equal(chunked, whole), (lifted, chunk, score)
            monkeypatch.undo()
    # a block of trials, in one pass or under budgets down to 1 element
    # (one candidate per chunk and super-chunk, one draw per table), scores
    # every trial exactly as the trial alone does: each sum runs over the
    # rows of one (candidate, trial, draw), whatever else shares its pass
    xs = sample_circular_gaussian(rng, (5, n, p))
    ys = np.abs(rng.normal(size=(5, n)))
    for draws, scale in ((np.ones((1, 2)), 0.8), (np.ones((1, 3)), 0.3),
                         (sample_circular_gaussian(rng, (4, 2)), 1.0)):
        _force_form(monkeypatch, False)
        alone = np.array([_one_trial_scores(xt, yt, noise, draws, scale)
                          for xt, yt in zip(xs, ys)])
        m, k = draws.shape
        for chunk, score in ((None, None), (1, None), (None, 1), (1, 1),
                             (2 * n * m, None), (k * p * n, 3 * m)):
            with monkeypatch.context() as mp:
                if chunk is not None:
                    mp.setattr(simulate, "_CHUNK_ELEMENTS", chunk)
                if score is not None:
                    mp.setattr(simulate, "_SCORE_ELEMENTS", score)
                block = simulate._candidate_scores(xs, ys, noise, draws,
                                                   scale)
            assert np.array_equal(block, alone), (m, k, chunk, score)
        monkeypatch.undo()
    for decoder, signal, kw in (
            ("flat-ml", DiscreteFlat(c_beta=1.0, k=2), {}),
            ("mc-marginal", GaussianIID(c_beta=1.0, k=2), {"mc_samples": 32})):
        one = decode(x, y, signal, noise, decoder, rng=substream(3, 1), **kw)
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(simulate, "_SCORE_ELEMENTS", 1)
        tiny = decode(x, y, signal, noise, decoder, rng=substream(3, 1), **kw)
        monkeypatch.undo()
        assert np.array_equal(tiny, one)


def test_workspace_reuse_is_bit_identical(monkeypatch):
    # a workspace's buffers are overwritten before they are read, so a
    # decode scores the same with a fresh workspace as after a larger or a
    # smaller decode left its buffers behind
    rng = substream(23, 0)
    noise = GaussianNoise(0.7)

    def instance(p, k, n, m, flat):
        x = sample_circular_gaussian(rng, (n, p))
        y = np.abs(rng.normal(1.0, 1.0, size=n))
        if flat:
            return x, y, np.ones((1, k)), 1.3
        return x, y, sample_circular_gaussian(rng, (m, k), power=0.8), 1.0

    for k in (1, 2, 3):
        # flat, then draws in the direct and in the lifted form
        for flat, lifted in ((True, False), (False, False), (False, True)):
            _force_form(monkeypatch, lifted)
            x, y, draws, scale = instance(9, k, 20, 64, flat)
            monkeypatch.setattr(simulate, "_local", threading.local())
            fresh = _one_trial_scores(x, y, noise, draws, scale)
            for p, n, m in ((14, 44, 256), (k + 1, 3, 4)):
                monkeypatch.setattr(simulate, "_local", threading.local())
                bx, by, bdraws, bscale = instance(p, k, n, m, flat)
                _one_trial_scores(bx, by, noise, bdraws, bscale)
                again = _one_trial_scores(x, y, noise, draws, scale)
                assert np.array_equal(again, fresh), (k, flat, lifted, p)


def test_workspace_keeps_only_budgeted_buffers(monkeypatch):
    # the product table of a decode past the chunk budget (k p n = 2 * 10^4
    # > 2^14) is not kept; the thread keeps only buffers within the budgets
    monkeypatch.setattr(simulate, "_local", threading.local())
    noise = GaussianNoise(1.0)
    _, x, y = _draw_instance(200, 1, 100, DiscreteFlat(c_beta=1.0, k=1),
                             noise, substream(31, 0))
    decode(x, y, DiscreteFlat(c_beta=1.0, k=1), noise, "flat-ml")
    bufs = simulate._thread_workspace()._bufs
    assert "proj" in bufs and "table" not in bufs
    # a flat-ml cell stages blocks of trials (7 at n = 50, 72 at n = 5 in
    # criterion 09) in buffers of the same budgets; a trial past them (n p
    # = 2 * 10^4 > 2^14) gets arrays the thread does not keep
    for p, k, n in ((10, 2, 50), (10, 2, 5), (200, 1, 100)):
        config = SimConfig(p=p, signal=DiscreteFlat(c_beta=1.0, k=k),
                           noise=noise, alpha_star=1.0, n_grid=(n,),
                           trials=9)
        simulate._run_cell((config, 0, n))
    assert "trial_x" in bufs and "trial_y" in bufs
    assert all(buf.size <= simulate._SCORE_ELEMENTS if name == "loglik"
               else buf.size <= simulate._CHUNK_ELEMENTS
               for name, buf in bufs.items())
    assert [simulate._trial_block(10, 2, n) for n in (50, 5, 0)] == [7, 72,
                                                                     364]
    assert simulate._trial_block(40, 3, 10) == 1    # 9880 candidates
    # k p passes C(p, k): the product table bounds the block
    assert simulate._trial_block(6, 6, 4) == 2**14 // (36 * 4)


def test_repeated_decode_allocates_no_chunk_buffers():
    # once the thread's workspace has grown, a decode allocates less than
    # one chunk's complex temporary (2^14 elements, 256 kB)
    signal = GaussianIID(c_beta=4.0, k=2)
    noise = GaussianNoise(0.1)
    _, x, y = _draw_instance(12, 2, 40, signal, noise, substream(29, 0))
    args = (x, y, signal, noise, "mc-marginal")
    first = decode(*args, mc_samples=256, rng=substream(29, 1))
    tracemalloc.start()
    try:
        again = decode(*args, mc_samples=256, rng=substream(29, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < 16 * simulate._CHUNK_ELEMENTS, peak
    # the same holds for a repeated flat-ml cell of 7-trial blocks
    config = SimConfig(p=10, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(1e-3), n_grid=(50,), trials=40)
    first = simulate._run_cell((config, 0, 50))
    tracemalloc.start()
    try:
        again = simulate._run_cell((config, 0, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 16 * simulate._CHUNK_ELEMENTS, peak


def test_cell_memory_does_not_grow_with_trials(monkeypatch):
    # a criterion-09 cell holds one block of trials at a time, so ten times
    # the trials peak no higher (within 4 kB of Python objects) from a
    # fresh workspace; both peaks hold the workspace's budgeted buffers, 1
    # MB at n = 50, and a first cell's caches are filled beforehand
    def config(trials):
        return SimConfig(p=10, signal=DiscreteFlat(c_beta=1.0, k=2),
                         noise=GaussianNoise(1e-3), n_grid=(50,),
                         trials=trials)

    simulate._run_cell((config(20), 9, 50))
    peaks = []
    for trials in (400, 4000):
        monkeypatch.setattr(simulate, "_local", threading.local())
        tracemalloc.start()
        try:
            simulate._run_cell((config(trials), 9, 50))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 4096, peaks


def _cell_peaks(monkeypatch, config, n, trial_counts):
    """Traced peak of one cell at each trial count, from a fresh workspace,
    once a first cell has filled the caches."""
    simulate._run_cell((dataclasses.replace(config, trials=20), 9, n))
    peaks = []
    for trials in trial_counts:
        monkeypatch.setattr(simulate, "_local", threading.local())
        tracemalloc.start()
        try:
            simulate._run_cell((dataclasses.replace(config, trials=trials),
                                9, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    return peaks


def test_mc_and_wide_cell_memory_does_not_grow_with_trials(monkeypatch):
    # an mc-marginal cell and a 9,880-candidate flat-ml cell (one trial a
    # block each) hold one trial's data and one chunk of trial keys at a
    # time, so more trials peak no higher, within the same 4 kB of Python
    # objects. At n = 2 mc-marginal takes the direct form: a lifted trial
    # rescores directly the candidates it may have cancelled, whose
    # number, and so the workspace's size, depends on the data
    mc = SimConfig(p=12, signal=GaussianIID(c_beta=4.0, k=2),
                   noise=GaussianNoise(0.1), n_grid=(2,), mc_samples=16)
    assert not simulate._lifted_pays(2, 2, 16)
    peaks = _cell_peaks(monkeypatch, mc, 2, (300, 3000))
    assert peaks[1] <= peaks[0] + 4096, peaks
    wide = SimConfig(p=40, signal=DiscreteFlat(c_beta=1.0, k=3),
                     alpha_star=0.34, n_grid=(1,))
    assert math.comb(40, 3) == 9880 and simulate._trial_block(40, 3, 1) == 1
    peaks = _cell_peaks(monkeypatch, wide, 1, (300, 1200))
    assert peaks[1] <= peaks[0] + 4096, peaks


def _missed_by(support, other):
    """Number of ``support``'s indices absent from ``other``."""
    return len(set(support.tolist()) - set(other.tolist()))


def _error_event(true_support, decoded, alpha_star, k):
    """The paper's approximate-recovery failure: at least
    ``floor(alpha_star * k)`` indices missed or spuriously added."""
    thr = floor_count(alpha_star, k)
    if thr < 1:
        raise ValueError("alpha_star too small: floor(alpha_star * k) < 1")
    return (_missed_by(true_support, decoded) >= thr
            or _missed_by(decoded, true_support) >= thr)


def _reference_error_rate(config, n_idx, n):
    """One trial at a time through the public draws, ``decode`` and
    ``_error_event``."""
    k = config.signal.k
    errors = 0
    for t in range(config.trials):
        rng = substream(config.master_seed, n_idx, t)
        support, x, y = _draw_instance(config.p, k, n, config.signal,
                                       config.noise, rng)
        decoded = decode(x, y, config.signal, config.noise, config.decoder,
                         mc_samples=config.mc_samples, rng=rng)
        errors += _error_event(support, decoded, config.alpha_star, k)
    return errors / config.trials


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
def test_cell_error_rate_matches_reference_loop(trials):
    # the cell's staged draws, reseeded trial streams and index-array
    # error count give the error rate of the plain loop, across key chunks
    # (256 trials) and trial blocks; a single-valued DiscreteGeneral
    # draws a permutation, GaussianIID its coefficients and mc draws
    noise = GaussianNoise(0.4)
    for signal, alpha_star in ((DiscreteFlat(c_beta=2.0, k=2), 0.5),
                               (DiscreteGeneral((0.6j, 0.6j, 0.6j)), 1.0),
                               (GaussianIID(c_beta=3.0, k=2), 0.5),
                               (GaussianIID(c_beta=3.0, k=3), 1.0)):
        config = SimConfig(p=6, signal=signal, noise=noise,
                           alpha_star=alpha_star, trials=trials,
                           mc_samples=8, master_seed=2**70 + trials)
        for n_idx, n in ((0, 0), (3, 2), (1, 5)):
            rate = simulate._run_cell((config, n_idx, n))
            assert rate == _reference_error_rate(config, n_idx, n), (
                signal, n)


def test_decode_ranks_impossible_candidates_last(monkeypatch):
    # columns 0 and 1 are so large that any candidate using them has a mean
    # intensity that overflows: its likelihood is 0 (score -inf), and it
    # must lose to the one finite candidate (2, 3), not win as a NaN; the
    # lifted form sends the overflowing candidates to the direct one
    x = np.array([[1e200, 1e200, 1.0, 1.0], [1e200, -1e200, 1.0, 1j]])
    noise = GaussianNoise(1.0)
    y = np.array([4.0, 2.0])
    decoded = decode(x, y, DiscreteFlat(c_beta=2.0, k=2), noise, "flat-ml")
    assert tuple(decoded) == (2, 3)
    for lifted in (False, True):
        _force_form(monkeypatch, lifted)
        decoded = decode(x, y, GaussianIID(c_beta=2.0, k=2), noise,
                         "mc-marginal", mc_samples=8, rng=substream(0, 0))
        assert tuple(decoded) == (2, 3)


def test_missed_by_counts():
    a = np.array([0, 1, 2])
    b = np.array([2, 3, 4])
    assert _missed_by(a, b) == 2
    assert _missed_by(b, a) == 2
    assert _missed_by(a, a) == 0


def test_error_event_threshold():
    a = np.array([0, 1, 2, 3])
    b = np.array([0, 1, 2, 4])  # one miss
    c = np.array([0, 1, 4, 5])  # two misses
    assert not _error_event(a, a, 0.5, 4)
    assert not _error_event(a, b, 0.5, 4)   # threshold floor(0.5*4) = 2
    assert _error_event(a, c, 0.5, 4)
    assert _error_event(a, b, 0.25, 4)      # threshold 1
    with pytest.raises(ValueError):
        _error_event(a, b, 0.1, 4)           # floor(0.4) = 0


@pytest.mark.parametrize("entry", ["SimConfig", "decode"])
def test_unknown_noise_refused(entry):
    # both read the float's missing sigma (AttributeError)
    signal = DiscreteFlat(1.0, 2)
    with pytest.raises(TypeError, match="unknown noise model float$"):
        if entry == "decode":
            decode(np.ones((3, 5)), np.ones(3), signal, 1.0)
        else:
            SimConfig(p=10, signal=signal, noise=1.0)


def test_sim_config_guards():
    sig = DiscreteFlat(c_beta=1.0, k=5)
    with pytest.raises(ValueError):
        SimConfig(p=30, signal=sig)          # C(30,5) = 142506
    with pytest.raises(ValueError):
        SimConfig(p=10, signal=DiscreteFlat(1.0, 4), alpha_star=0.1)
    with pytest.raises(ValueError):
        SimConfig(p=1, signal=DiscreteFlat(1.0, 2))     # k > p
    # the signal fixes the decoder; no decoder takes several known values,
    # so the config is refused here, not at a worker's first block
    with pytest.raises(ValueError, match="no decoder"):
        SimConfig(p=10, signal=DiscreteGeneral((1.0, 2.0)))
    # an object that is no signal model is refused as the query, snr_db
    # and the sampler refuse it, not as a decoder mismatch (ValueError)
    with pytest.raises(TypeError, match="unknown signal model object$"):
        SimConfig(p=10, signal=object())
    with pytest.raises(TypeError, match="unknown signal model object$"):
        decode(np.ones((3, 5)), np.ones(3), object(), GaussianNoise())
    assert [SimConfig(p=10, signal=signal).decoder for signal in (
        DiscreteFlat(1.0, 2), DiscreteGeneral((0.5j, 0.5j)),
        GaussianIID(1.0, 2))] == ["flat-ml", "flat-ml", "mc-marginal"]
    with pytest.raises(ValueError):
        SimConfig(p=10, signal=DiscreteFlat(1.0, 2), trials=0)
    for n_grid in ((5, -1), ()):
        with pytest.raises(ValueError):
            SimConfig(p=10, signal=DiscreteFlat(1.0, 2), n_grid=n_grid)
    # alpha_star past 1 made every trial a success (threshold above k)
    for alpha_star in (5.0, 1.5, 0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(p=10, signal=DiscreteFlat(1.0, 2),
                      alpha_star=alpha_star)
    for mc_samples in (0, -1):
        with pytest.raises(ValueError):
            SimConfig(p=10, signal=GaussianIID(1.0, 2),
                      mc_samples=mc_samples)
    SimConfig(p=10, signal=DiscreteFlat(1.0, 2), alpha_star=1.0)
    # a float seed ran seed 1 (1.5) and a negative one failed inside a
    # worker with numpy's bare "expected non-negative integer"
    for seed in (1.5, -3, -1, True, "1", None, np.int64(2)):
        with pytest.raises(ValueError, match="master_seed"):
            SimConfig(p=10, signal=DiscreteFlat(1.0, 2), master_seed=seed)
    for seed in (0, 2**32, 2**140):
        SimConfig(p=10, signal=DiscreteFlat(1.0, 2), master_seed=seed)
    # a cap below 1 ran sequentially and the manifest kept the bad value
    for threads in (0, -3, True, 1.0, "2", None):
        with pytest.raises(ValueError, match="threads"):
            SimConfig(p=10, signal=DiscreteFlat(1.0, 2), threads=threads)
    SimConfig(p=10, signal=DiscreteFlat(1.0, 2), threads=2)
    # powers past 1e150, or past 1e150 sigma: every candidate's residual
    # overflowed, all scores tied at -inf and pe read about 1
    for signal, sigma in ((GaussianIID(1e200, 2), 1.0),
                          (DiscreteFlat(1e151, 2), 1.0),
                          (DiscreteGeneral((1e76, 1e76)), 1.0),
                          (GaussianIID(1e100, 2), 1e-56),
                          (DiscreteFlat(1.0, 2), 1e-151)):
        with pytest.raises(ValueError):
            SimConfig(p=10, signal=signal, noise=GaussianNoise(sigma))
    SimConfig(p=10, signal=DiscreteFlat(1e150, 2))
    SimConfig(p=10, signal=DiscreteFlat(1e120, 2),
              noise=GaussianNoise(1e-30))


def test_decode_power_guard():
    # decode shares SimConfig's power bound: at c_beta 1e200 every score
    # tied at -inf and the first candidate, (0, 1), came back
    rng = substream(37, 0)
    signal = GaussianIID(c_beta=1.0, k=2)
    noise = GaussianNoise(1.0)
    _, x, y = _draw_instance(6, 2, 12, signal, noise, rng)
    with pytest.raises(ValueError, match="must not pass"):
        decode(x, y, GaussianIID(1e200, 2), noise, "mc-marginal", 64, rng)
    for signal, sigma in ((DiscreteFlat(1e151, 2), 1.0),
                          (DiscreteFlat(1e10, 2), 1e-141)):
        with pytest.raises(ValueError, match="must not pass"):
            decode(x, y, signal, GaussianNoise(sigma), "flat-ml")
    decode(x, y, DiscreteFlat(1e150, 2), noise, "flat-ml")


def test_error_curve_at_power_bound_matches_moderate_power():
    # at the largest accepted power, and power over sigma, both decoders
    # read the curve they read at a moderate power: the noise is negligible
    # in both, and no score overflows
    for decoder, model in (("flat-ml", DiscreteFlat),
                           ("mc-marginal", GaussianIID)):
        curves = []
        for c_beta, sigma in ((1e20, 1.0), (1e150, 1.0), (1e140, 1e-10),
                              (1e120, 1e-30)):
            config = SimConfig(p=6, signal=model(c_beta, 2),
                               noise=GaussianNoise(sigma), n_grid=(10, 40),
                               trials=40, mc_samples=64, master_seed=7)
            assert config.decoder == decoder
            curves.append(error_curve(config).pe.tolist())
        assert curves[1:] == curves[:1] * 3, (decoder, curves)


@settings(max_examples=60, deadline=None)
@given(flat=st.booleans(), log_sigma=st.floats(-150.0, 150.0),
       log_snr=st.one_of(st.floats(-3.0, 3.0), st.floats(-460.0, 300.0)),
       half_j=st.integers(-500, 500))
@example(flat=True, log_sigma=0.0, log_snr=0.0, half_j=200)
@example(flat=False, log_sigma=0.0, log_snr=0.0, half_j=-200)
@example(flat=True, log_sigma=-3.0, log_snr=0.5, half_j=30)
@example(flat=False, log_sigma=2.0, log_snr=-0.5, half_j=-30)
@example(flat=False, log_sigma=0.0, log_snr=-14.0, half_j=2)
@example(flat=False, log_sigma=0.0, log_snr=-15.0, half_j=1)
def test_error_curve_invariant_under_joint_scaling(flat, log_sigma, log_snr,
                                                   half_j):
    # y = |<x, b>|^2 + z scales by 2^j when the signal power and sigma do
    # (amplitudes by 2^half_j), and every score with it, so pe keeps its
    # bytes over every power and sigma SimConfig accepts; a power of two
    # scales a float exactly while it stays normal, which the signal
    # models require of the power
    sigma, j = 10.0 ** log_sigma, 2 * half_j
    c_beta = sigma * 10.0 ** log_snr

    def curve(scale):
        model = DiscreteFlat if flat else GaussianIID
        config = SimConfig(p=6, signal=model(c_beta * scale, 2),
                           noise=GaussianNoise(sigma * scale), n_grid=(3, 8),
                           trials=12, mc_samples=16, master_seed=5)
        return error_curve(config).pe

    try:
        base, scaled = curve(1.0), curve(2.0 ** j)
    except ValueError:      # a power or sigma outside the accepted range
        assume(False)
    assert scaled.tobytes() == base.tobytes()


def test_error_curve_zero_measurement_analytic():
    # with no data the decoder always answers {0, 1}; the error rate is
    # 1 - 1/C(p, k) exactly, up to binomial noise
    config = SimConfig(p=8, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(0.5), alpha_star=0.5,
                       n_grid=(0,), trials=400, master_seed=1)
    curve = error_curve(config)
    expect = 1.0 - 1.0 / math.comb(8, 2)
    se = math.sqrt(expect * (1 - expect) / 400)
    assert abs(curve.pe[0] - expect) <= 4 * se


def test_error_curve_thread_invariance(monkeypatch):
    # flat-ml scores 60 trials in one partial block at n = 0 (780 a
    # block), 2, 6 and 10, and in three blocks of 19 and a last of 3 at
    # n = 40
    flat = dict(p=7, signal=DiscreteFlat(c_beta=1.0, k=2),
                noise=GaussianNoise(0.5), alpha_star=0.5,
                n_grid=(0, 2, 6, 10, 40), trials=60, master_seed=3)
    assert simulate._trial_block(7, 2, 40) == 19
    # mc-marginal scores n = 2 in the direct form and n = 6, 10 lifted
    mc = dict(flat, signal=GaussianIID(c_beta=2.0, k=2), n_grid=(2, 6, 10),
              trials=30, mc_samples=32)
    for base in (flat, mc):
        one = error_curve(SimConfig(**base, threads=1))
        two = error_curve(SimConfig(**base, threads=3))
        assert np.array_equal(one.pe, two.pe)
        assert np.array_equal(one.se, two.se)
        # under a 1-element budget every trial is its own block
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "_CHUNK_ELEMENTS", 1)
            alone = error_curve(SimConfig(**base, threads=1))
        assert np.array_equal(one.pe, alone.pe)


def test_error_curve_decreases_and_hits_zero():
    config = SimConfig(p=8, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(1e-3), alpha_star=0.5,
                       n_grid=(0, 4, 12, 24), trials=120, master_seed=5)
    curve = error_curve(config)
    residual, pooled = isotonic_residual(curve)
    assert residual <= max(3 * pooled, 1e-12)
    assert curve.pe[-1] == 0.0


def test_error_curve_csv_format(tmp_path):
    curve = ErrorCurve(n_values=np.array([5, 10]), pe=np.array([0.5, 0.25]),
                       trials=100)
    path = tmp_path / "curve.csv"
    curve.to_csv(path, reference={"n_ach": 12.5, "n_con": 3.25})
    lines = path.read_text().splitlines()
    assert lines[0] == "n,pe,se,trials"
    assert lines[1].startswith("5,0.5,")
    assert lines[-2].startswith("# reference n_ach = 12.5")
    assert "asymptotic" in lines[-1]
    plain = tmp_path / "plain.csv"
    curve.to_csv(plain)
    assert len(plain.read_text().splitlines()) == 3


def test_pava_known_solution():
    fit = pava_nonincreasing([1.0, 3.0, 2.0])
    assert np.allclose(fit, [2.0, 2.0, 2.0])
    already = [5.0, 4.0, 2.0, 2.0, 1.0]
    assert np.allclose(pava_nonincreasing(already), already)
    fit2 = pava_nonincreasing([0.0, 1.0])
    assert np.allclose(fit2, [0.5, 0.5])


def test_pava_is_least_squares_projection():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 1, size=12)
    fit = pava_nonincreasing(vals)
    assert np.all(np.diff(fit) <= 1e-12)
    # cannot beat it with random feasible candidates
    cost = float(np.sum((vals - fit) ** 2))
    for _ in range(200):
        cand = np.sort(rng.uniform(0, 1, size=12))[::-1]
        assert float(np.sum((vals - cand) ** 2)) >= cost - 1e-9


def test_isotonic_residual_monotone_curve():
    curve = ErrorCurve(n_values=np.array([1, 2, 3]),
                       pe=np.array([0.9, 0.5, 0.1]), trials=100)
    residual, pooled = isotonic_residual(curve)
    assert residual == 0.0
    assert pooled == pytest.approx(math.sqrt((0.03**2 + 0.05**2 + 0.03**2) / 3))
