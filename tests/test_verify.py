"""Report plumbing and the statistical check suites at reduced budgets."""
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from phaselim import verify
from phaselim.densities import GaussianNoise, info_density
from phaselim.rng import sample_circular_gaussian, substream
from phaselim.verify import (DEFAULT_LOGCONCAVITY_BATTERY,
                             DEFAULT_SANDWICH_BATTERY, SUITE_NAMES,
                             VerificationReport, concentration_check,
                             logconcavity_check,
                             logconcavity_negative_control, mi_estimate,
                             run_suite, sandwich_check,
                             tail_fraction_convergence_check)


def test_decide_truth_table():
    decide = VerificationReport.decide
    assert decide(0.5, 0.01, 0.2, 0.9) == "pass"
    assert decide(0.19, 0.01, 0.2, 0.9) == "pass"      # inside 3 se slack
    assert decide(0.1, 0.01, 0.2, 0.9) == "fail"
    assert decide(0.95, 0.01, 0.2, 0.9) == "fail"
    assert decide(0.5, 0.01, None, 0.9) == "pass"      # unbounded below
    assert decide(5.0, 0.01, None, 0.9) == "fail"
    assert decide(0.5, 0.2, 0.2, 0.9, resolution=0.1) == "inconclusive"
    assert decide(0.5, 0.01, 0.2, 0.9, forced_inconclusive=True) == "inconclusive"


def test_report_self_certifies():
    rep = VerificationReport(check="demo", params={"resolution": 0.05},
                             estimate=0.4, se=0.01, lower=0.1, upper=0.9,
                             trials=100, verdict="pass")
    assert rep.recompute_verdict() == rep.verdict
    line = rep.to_json_line()
    rec = json.loads(line)
    assert rec["check"] == "demo"
    assert rec["verdict"] == "pass"
    # canonical bytes: keys sorted, no whitespace
    assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_mi_estimate_tame_combo():
    rep = mi_estimate(1.0, 0.0, GaussianNoise(1.0), trials=20000,
                      rng=substream(0, 0))
    assert rep.verdict == "pass"
    assert rep.lower < rep.estimate < rep.upper
    assert rep.se > 0
    assert rep.params["n_clamped"] == 0
    assert rep.recompute_verdict() == "pass"


def test_mi_estimate_deterministic():
    a = mi_estimate(0.5, 1.0, GaussianNoise(1.0), trials=4000,
                    rng=substream(5, 1))
    b = mi_estimate(0.5, 1.0, GaussianNoise(1.0), trials=4000,
                    rng=substream(5, 1))
    assert a.estimate == b.estimate
    assert a.to_json_line() == b.to_json_line()


def test_mi_estimate_underpowered_is_inconclusive():
    # se about 0.12 at 50 trials, above the 0.01 resolution
    rep = mi_estimate(1.0, 0.0, GaussianNoise(1.0), trials=50,
                      rng=substream(1, 0))
    assert rep.se > rep.params["resolution"] == 0.01
    assert rep.verdict == "inconclusive"


def test_sandwich_thread_count_invariance():
    one = sandwich_check(trials=3000, master_seed=9, threads=1)
    two = sandwich_check(trials=3000, master_seed=9, threads=3)
    assert len(one) == len(DEFAULT_SANDWICH_BATTERY)
    assert [r.to_json_line() for r in one] == [r.to_json_line() for r in two]


def test_sandwich_small_battery_passes():
    reports = sandwich_check(trials=20000, master_seed=0)
    assert [(r.params["miss_power"], r.params["keep_power"],
             r.params["sigma"]) for r in reports] == list(
        DEFAULT_SANDWICH_BATTERY)
    assert all(r.verdict == "pass" for r in reports)


def test_concentration_check_structure():
    reports = concentration_check(trials=500, info_samples=20000,
                                  master_seed=0)
    assert len(reports) == 8   # 4 mu values x 2 sides
    for rep in reports:
        assert rep.check == "concentration_tail"
        assert rep.upper == pytest.approx(
            math.fsum(math.exp(-20 * rep.params["scale"] * r)
                      for r in (rep.params["mu"] - math.log1p(rep.params["mu"]),)
                      ) + (math.exp(-20 * rep.params["scale"] *
                                    (-rep.params["mu"] - math.log1p(-rep.params["mu"])))
                           if rep.params["mu"] < 1 else 0.0),
            rel=1e-12)
        assert rep.verdict in ("pass", "inconclusive")
    mu0 = [r for r in reports if r.params["mu"] == 0.0]
    assert all(r.upper == pytest.approx(2.0) for r in mu0)
    # complementary halves at mu = 0
    assert sum(r.estimate for r in mu0) == pytest.approx(1.0)


def test_concentration_check_bad_centering_inconclusive():
    # 50 centering samples leave info_se far above 3e-3 of info_mean
    reports = concentration_check(trials=200, info_samples=50,
                                  master_seed=0)
    for rep in reports:
        assert rep.params["info_se"] > 3e-3 * abs(rep.params["info_mean"])
        assert rep.params["forced_inconclusive"] is True
        assert rep.verdict == "inconclusive"


def test_tail_fraction_convergence_small():
    reports = tail_fraction_convergence_check(master_seed=4)
    assert len(reports) == 20
    for rep in reports:
        assert rep.verdict == "pass"
        assert rep.params["k"] == 10000
        assert rep.upper == pytest.approx(5.0 / math.sqrt(10000))
        assert 0 <= rep.estimate <= rep.upper


def test_tail_fraction_thread_invariance():
    one = tail_fraction_convergence_check(master_seed=2, threads=1)
    two = tail_fraction_convergence_check(master_seed=2, threads=4)
    assert [r.to_json_line() for r in one] == [r.to_json_line() for r in two]


def test_logconcavity_battery_passes():
    reports = logconcavity_check()
    assert len(reports) == len(DEFAULT_LOGCONCAVITY_BATTERY)
    assert all(r.verdict == "pass" for r in reports)


def test_logconcavity_negative_control_fails():
    rep = logconcavity_negative_control()
    assert rep.verdict == "fail"
    assert rep.estimate > rep.upper


def test_run_suite_counts():
    reports = run_suite("logconcavity")
    assert len(reports) == 6
    neg = run_suite("negative-control")
    assert len(neg) == 1 and neg[0].verdict == "fail"
    with pytest.raises(ValueError):
        run_suite("bogus")
    # used to return NaN and infinite reports
    with pytest.raises(ValueError):
        run_suite("sandwich", trials=0)
    # a noise scale outside [1e-150, 1e150] is refused before any draw
    for sigma in (1e-155, 1e160):
        with pytest.raises(ValueError):
            mi_estimate(1.0, 0.0, GaussianNoise(sigma), 10, substream(0, 0))


def test_run_suite_all_excludes_negative_control():
    reports = run_suite("all", trials=2000, master_seed=1)
    checks = {r.check for r in reports}
    assert "logconcavity_negative_control" not in checks
    assert checks == {"mi_sandwich", "concentration_tail",
                      "tail_fraction_convergence", "logconcavity"}
    assert len(reports) == 12 + 8 + 20 + 6


def test_suite_names_frozen():
    assert SUITE_NAMES == ("sandwich", "concentration", "gconv",
                           "logconcavity", "all", "negative-control")


# sha256 of the report lines (each ending in a newline) of
# run_suite(suite, trials=2000, master_seed=1), recorded with numpy 2.4; no
# report depends on scipy. A numpy upgrade that moves a rounding moves them
# too. The sandwich and logconcavity digests were last recorded when the
# density's series moved to scaled linear sums.
REPORT_DIGESTS = {
    "sandwich": "cb0905540c6c6e67f0ddfd149f56ecd30744971ac7ad85587ccb5a2b83868501",
    "concentration": "23f2b1b02ed277b81cd15b6fcf6e0e60014dff3564e775b7f9f892c4b9d9b393",
    "gconv": "51c516c72c36b041fd12abfdb347d3db0b4865d4682a2b5faa57bc440d108313",
    "logconcavity": "3879419f7ec9e245e4d3f795c6e3420e0fb4c6a22ca0e32fa20b2f8945e7bdd6",
    "negative-control": "81b7806300a939a0086331be614714a4cf7df3bdb2e2027066be3cb1fc4bf980",
}


@pytest.mark.parametrize("suite", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(suite):
    data = "".join(r.to_json_line() + "\n"
                   for r in run_suite(suite, trials=2000, master_seed=1))
    assert hashlib.sha256(data.encode()).hexdigest() == REPORT_DIGESTS[suite]


# The same digests at budgets that span several blocks of the information
# density samples: 31 centering blocks for the concentration run, 4 blocks
# of the series path for each keep-power sandwich combo. Recorded on the
# whole-array sampler, so they hold the blocked one to its bytes.
LARGE_REPORT_DIGESTS = {
    ("concentration", 100000, 1):
        "2789262c2a4afd53e225090ced238c47e71ee03490f7e31e9c03b861c0efb477",
    ("sandwich", 100003, 2):
        "4b25fd1194efd15c2d25fc617f0b5dee404955393d878fbbe1619ec3b30f0d58",
}


@pytest.mark.parametrize("suite,trials,seed", sorted(LARGE_REPORT_DIGESTS))
def test_report_bytes_pinned_across_blocks(suite, trials, seed):
    data = "".join(r.to_json_line() + "\n"
                   for r in run_suite(suite, trials=trials, master_seed=seed))
    assert (hashlib.sha256(data.encode()).hexdigest()
            == LARGE_REPORT_DIGESTS[suite, trials, seed])


def _whole_array_info_samples(miss_power, keep_power, noise, trials, rng):
    """The sampler before it ran in blocks: every derived array at full
    length, one info_density call."""
    w_keep = sample_circular_gaussian(rng, trials)
    w_miss = sample_circular_gaussian(rng, trials)
    z = noise.sample(rng, trials)
    proj_keep = math.sqrt(keep_power) * w_keep
    proj_full = proj_keep + math.sqrt(miss_power) * w_miss
    full_sq = np.abs(proj_full) ** 2
    y = full_sq + z
    return info_density(y, full_sq, np.abs(proj_keep) ** 2, miss_power,
                        noise)


@pytest.mark.parametrize("keep", [0.0, 1.0])
@pytest.mark.parametrize("miss", [0.5, 2.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_blocked_info_samples_match_whole_array(keep, miss, sigma):
    # budgets on both sides of each block boundary, and a ragged last block
    b = verify._INFO_BLOCK
    noise = GaussianNoise(sigma)
    for idx, trials in enumerate((1, b - 1, b, b + 1, 3 * b + 17)):
        vals, n_clamped = verify._draw_info_samples(
            miss, keep, noise, trials, substream(31, idx))
        ref, ref_clamped = _whole_array_info_samples(
            miss, keep, noise, trials, substream(31, idx))
        assert vals.shape == (trials,)
        assert vals.tobytes() == ref.tobytes()
        assert n_clamped == ref_clamped


def test_concentration_memory_is_draws_plus_one_block():
    # a centering run holds its draws (40 bytes a sample) and values (8)
    # plus one block's temporaries, not every derived array at full length
    # (about 128 bytes a sample)
    info_samples = 10**6
    tracemalloc.start()
    try:
        concentration_check(trials=10000, info_samples=info_samples,
                            master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * info_samples + 256 * verify._INFO_BLOCK, peak
