"""Exhaustive decoder, error curves, and the monotone-fit helper."""
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from phaselim import simulate
from phaselim.densities import GaussianNoise, conditional_output_logpdf
from phaselim.model import (DiscreteFlat, DiscreteGeneral, GaussianIID,
                            SupportSet, observe, sample_signal_vector,
                            sample_support)
from phaselim.rng import sample_circular_gaussian, substream
from phaselim.simulate import (ErrorCurve, SimConfig, decode, error_curve,
                               error_event, isotonic_residual,
                               pava_nonincreasing)


def _draw_instance(p, k, n, signal, noise, rng):
    support = sample_support(p, k, rng)
    beta = sample_signal_vector(signal, rng)
    x = sample_circular_gaussian(rng, (n, p))
    y = observe(x[:, support.indices], beta, noise, rng)
    return support, x, y


def test_flat_ml_recovers_at_tiny_noise():
    signal = DiscreteFlat(c_beta=1.0, k=2)
    noise = GaussianNoise(1e-6)
    rng = substream(0, 0)
    for _ in range(20):
        support, x, y = _draw_instance(6, 2, 6, signal, noise, rng)
        decoded = decode(x, y, signal, noise, "flat-ml")
        assert decoded.indices == support.indices


def test_flat_ml_zero_measurements_lexicographic():
    signal = DiscreteFlat(c_beta=1.0, k=3)
    noise = GaussianNoise(1.0)
    x = np.zeros((0, 7), dtype=complex)
    y = np.zeros(0)
    decoded = decode(x, y, signal, noise, "flat-ml")
    assert decoded.indices == (0, 1, 2)


def test_flat_ml_accepts_equal_general_values():
    vals = (0.5 + 0.0j, 0.5 + 0.0j)
    signal = DiscreteGeneral(values=vals)
    noise = GaussianNoise(1e-6)
    rng = substream(2, 0)
    support, x, y = _draw_instance(6, 2, 8, signal, noise, rng)
    decoded = decode(x, y, signal, noise, "flat-ml")
    assert decoded.indices == support.indices


def test_flat_ml_rejects_multivalued():
    signal = DiscreteGeneral(values=(1.0, 2.0))
    noise = GaussianNoise(1.0)
    x = np.zeros((1, 5), dtype=complex)
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), signal, noise, "flat-ml")
    with pytest.raises(ValueError):
        decode(x, np.zeros(1), GaussianIID(1.0, 2), noise, "flat-ml")


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
    mapped = tuple(sorted(int(perm[j]) for j in decoded.indices))
    assert mapped == base.indices


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
    assert decoded.indices == (best_exact[0],)


def test_mc_marginal_recovers_high_snr():
    signal = GaussianIID(c_beta=1.0, k=2)
    noise = GaussianNoise(1e-3)
    rng = substream(13, 0)
    hits = 0
    for _ in range(10):
        support, x, y = _draw_instance(6, 2, 12, signal, noise, rng)
        decoded = decode(x, y, signal, noise, "mc-marginal",
                         mc_samples=512, rng=rng)
        hits += decoded.indices == support.indices
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
    (dict(p=10, k=2, signal=DiscreteFlat(c_beta=1.0, k=2),
          noise=GaussianNoise(0.5), alpha_star=0.5, n_grid=(2, 4, 8, 16),
          trials=50, master_seed=3),
     [0.84, 0.54, 0.24, 0.02]),
    (dict(p=7, k=3, signal=DiscreteGeneral(values=(0.6 + 0.3j,) * 3),
          noise=GaussianNoise(0.3), alpha_star=0.34, n_grid=(3, 6, 12),
          trials=40, master_seed=4),
     [0.35, 0.05, 0.0]),
    (dict(p=6, k=2, signal=GaussianIID(c_beta=2.0, k=2),
          noise=GaussianNoise(0.2), alpha_star=0.5, n_grid=(2, 5, 10),
          trials=40, decoder="mc-marginal", mc_samples=16, master_seed=5),
     [0.925, 0.8, 0.6]),
]


def test_error_curves_pinned():
    for kwargs, pe in _PINNED_CURVES:
        assert error_curve(SimConfig(**kwargs)).pe.tolist() == pe, kwargs


def _reference_scores(x, y, noise, draws, scale):
    """Plain per-candidate loop: log mean over draws ``s`` of the
    likelihood ``prod_i f_Z(y_i - scale |conj(x_S) @ d_s|^2)``."""
    m, k = draws.shape
    out = []
    for cand in itertools.combinations(range(x.shape[1]), k):
        proj = np.conjugate(x[:, cand]) @ draws.T          # (rows, draws)
        loglik = noise.logpdf(y[:, None] - scale * np.abs(proj) ** 2)
        out.append(logsumexp(loglik.sum(axis=0)) - math.log(m))
    return np.array(out)


def test_candidate_scores_match_reference_loop():
    rng = substream(19, 0)
    noise = GaussianNoise(0.6)
    n, p = 11, 6
    x = sample_circular_gaussian(rng, (n, p))
    y = np.abs(rng.normal(1.0, 1.0, size=n))
    for k in (1, 2, 3):
        for draws in (np.ones((1, k)),
                      sample_circular_gaussian(rng, (16, k), power=0.7)):
            for scale in (0.3, 1.0):
                ours = simulate._candidate_scores(x, y, noise, draws, scale)
                ref = _reference_scores(x, y, noise, draws, scale)
                assert np.allclose(ours, ref, rtol=1e-12, atol=0), (k, scale)


def test_chunked_scores_match_one_chunk(monkeypatch):
    # a budget of a few candidates per chunk, with a ragged last chunk, of a
    # few draws per product table, with a ragged last block, or of a few
    # candidates per super-chunk, whose table starts past column 0, scores
    # every candidate exactly as one chunk, block and super-chunk do
    rng = substream(17, 0)
    noise = GaussianNoise(0.4)
    n, p = 9, 7
    x = sample_circular_gaussian(rng, (n, p))
    y = np.abs(rng.normal(size=n))
    blocks = [(np.ones((1, 2)), 0.8), (np.ones((1, 3)), 0.3),
              (sample_circular_gaussian(rng, (16, 2), power=0.5), 1.0)]
    for draws, scale in blocks:
        m, k = draws.shape
        whole = simulate._candidate_scores(x, y, noise, draws, scale)
        assert whole.shape == (math.comb(p, k),)
        budgets = [(per_chunk * n * m, None) for per_chunk in (1, 4)]
        if m > 1:   # tables of 3 or 5 of the 16 draws
            budgets += [(per_block * k * p * n, None) for per_block in (3, 5)]
        # super-chunks of 1, 4 or 8 candidates, alone and with 3-draw tables
        budgets += [(None, per_super * m) for per_super in (1, 4, 8)]
        budgets += [(3 * k * n, 4 * m)]
        for chunk, score in budgets:
            if chunk is not None:
                monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", chunk)
            if score is not None:
                monkeypatch.setattr(simulate, "_SCORE_ELEMENTS", score)
            chunked = simulate._candidate_scores(x, y, noise, draws, scale)
            assert np.array_equal(chunked, whole), (chunk, score)
            monkeypatch.undo()
    for decoder, signal, kw in (
            ("flat-ml", DiscreteFlat(c_beta=1.0, k=2), {}),
            ("mc-marginal", GaussianIID(c_beta=1.0, k=2), {"mc_samples": 32})):
        one = decode(x, y, signal, noise, decoder, rng=substream(3, 1), **kw)
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(simulate, "_SCORE_ELEMENTS", 1)
        tiny = decode(x, y, signal, noise, decoder, rng=substream(3, 1), **kw)
        monkeypatch.undo()
        assert tiny == one


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decode_ranks_impossible_candidates_last():
    # columns 0 and 1 are so large that any candidate using them has a mean
    # intensity that overflows: its likelihood is 0 (score -inf), and it
    # must lose to the one finite candidate (2, 3), not win as a NaN
    x = np.array([[1e200, 1e200, 1.0, 1.0], [1e200, -1e200, 1.0, 1j]])
    noise = GaussianNoise(1.0)
    y = np.array([4.0, 2.0])
    decoded = decode(x, y, DiscreteFlat(c_beta=2.0, k=2), noise, "flat-ml")
    assert decoded.indices == (2, 3)
    decoded = decode(x, y, GaussianIID(c_beta=2.0, k=2), noise,
                     "mc-marginal", mc_samples=8, rng=substream(0, 0))
    assert decoded.indices == (2, 3)


def test_error_event_threshold():
    a = SupportSet(indices=(0, 1, 2, 3), universe=10)
    b = SupportSet(indices=(0, 1, 2, 4), universe=10)  # one miss
    c = SupportSet(indices=(0, 1, 4, 5), universe=10)  # two misses
    assert not error_event(a, a, 0.5, 4)
    assert not error_event(a, b, 0.5, 4)   # threshold floor(0.5*4) = 2
    assert error_event(a, c, 0.5, 4)
    assert error_event(a, b, 0.25, 4)      # threshold 1
    with pytest.raises(ValueError):
        error_event(a, b, 0.1, 4)           # floor(0.4) = 0


def test_sim_config_guards():
    sig = DiscreteFlat(c_beta=1.0, k=5)
    with pytest.raises(ValueError):
        SimConfig(p=30, k=5, signal=sig)          # C(30,5) = 142506
    with pytest.raises(ValueError):
        SimConfig(p=10, k=4, signal=DiscreteFlat(1.0, 4), alpha_star=0.1)
    with pytest.raises(ValueError):
        SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 3))
    with pytest.raises(ValueError):
        SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 2), trials=0)
    with pytest.raises(ValueError):
        SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 2), decoder="nope")
    with pytest.raises(ValueError):
        SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 2), n_grid=(5, -1))
    # alpha_star past 1 made every trial a success (threshold above k)
    for alpha_star in (5.0, 1.5, 0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 2),
                      alpha_star=alpha_star)
    for mc_samples in (0, -1):
        with pytest.raises(ValueError):
            SimConfig(p=10, k=2, signal=GaussianIID(1.0, 2),
                      decoder="mc-marginal", mc_samples=mc_samples)
    SimConfig(p=10, k=2, signal=DiscreteFlat(1.0, 2), alpha_star=1.0)


def test_error_curve_zero_measurement_analytic():
    # with no data the decoder always answers {0, 1}; the error rate is
    # 1 - 1/C(p, k) exactly, up to binomial noise
    config = SimConfig(p=8, k=2, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(0.5), alpha_star=0.5,
                       n_grid=(0,), trials=400, master_seed=1)
    curve = error_curve(config)
    expect = 1.0 - 1.0 / math.comb(8, 2)
    se = math.sqrt(expect * (1 - expect) / 400)
    assert abs(curve.pe[0] - expect) <= 4 * se


def test_error_curve_thread_invariance():
    base = dict(p=7, k=2, signal=DiscreteFlat(c_beta=1.0, k=2),
                noise=GaussianNoise(0.5), alpha_star=0.5,
                n_grid=(2, 6, 10), trials=60, master_seed=3)
    one = error_curve(SimConfig(**base, threads=1))
    two = error_curve(SimConfig(**base, threads=3))
    assert np.array_equal(one.pe, two.pe)
    assert np.array_equal(one.se, two.se)


def test_error_curve_decreases_and_hits_zero():
    config = SimConfig(p=8, k=2, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(1e-3), alpha_star=0.5,
                       n_grid=(0, 4, 12, 24), trials=120, master_seed=5)
    curve = error_curve(config)
    residual, pooled = isotonic_residual(curve)
    assert residual <= max(3 * pooled, 1e-12)
    assert curve.pe[-1] == 0.0


def test_error_curve_csv_format(tmp_path):
    curve = ErrorCurve(n_values=np.array([5, 10]), pe=np.array([0.5, 0.25]),
                       se=np.array([0.05, 0.04]), trials=100)
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
                       pe=np.array([0.9, 0.5, 0.1]),
                       se=np.array([0.03, 0.05, 0.03]), trials=100)
    residual, pooled = isotonic_residual(curve)
    assert residual == 0.0
    assert pooled == pytest.approx(math.sqrt((0.03**2 + 0.05**2 + 0.03**2) / 3))
