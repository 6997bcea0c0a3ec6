"""Report plumbing and the statistical check suites at reduced budgets."""
import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _report(estimate, se, lower, upper, **params):
    return VerificationReport(check="demo", params=params, estimate=estimate,
                              se=se, lower=lower, upper=upper, trials=100)


def test_decide_truth_table():
    assert _report(0.5, 0.01, 0.2, 0.9).verdict == "pass"
    assert _report(0.19, 0.01, 0.2, 0.9).verdict == "pass"  # inside 3 se slack
    assert _report(0.1, 0.01, 0.2, 0.9).verdict == "fail"
    assert _report(0.95, 0.01, 0.2, 0.9).verdict == "fail"
    assert _report(0.5, 0.01, None, 0.9).verdict == "pass"  # unbounded below
    assert _report(5.0, 0.01, None, 0.9).verdict == "fail"
    assert _report(0.5, 0.2, 0.2, 0.9,
                   resolution=0.1).verdict == "inconclusive"
    assert _report(0.5, 0.01, 0.2, 0.9,
                   forced_inconclusive=True).verdict == "inconclusive"


def test_report_self_certifies():
    rep = _report(0.4, 0.01, 0.1, 0.9, resolution=0.05)
    assert rep.verdict == "pass"
    line = rep.to_json_line()
    rec = json.loads(line)
    assert rec["check"] == "demo"
    assert rec["verdict"] == "pass"
    # canonical bytes: keys sorted, no whitespace
    assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert VerificationReport.from_json_line(line) == rep


def test_report_refuses_a_flipped_verdict():
    # the verdict is derived, not read: a record whose stored verdict
    # disagrees with its fields is refused, as is one with none. Before,
    # the flipped record read back as a report that carried "fail".
    line = ('{"check":"demo","estimate":0.4,"lower":0.1,'
            '"params":{"resolution":0.05},"se":0.01,"trials":100,'
            '"upper":0.9,"verdict":"pass"}')
    assert VerificationReport.from_json_line(line).verdict == "pass"
    rec = json.loads(line)
    for stored in ("fail", "inconclusive", None):
        rec["verdict"] = stored
        with pytest.raises(ValueError, match=f"stored verdict {stored!r} "
                           "is not the 'pass' its fields give"):
            VerificationReport.from_json_line(json.dumps(rec))
    del rec["verdict"]
    with pytest.raises(ValueError, match="stored verdict None"):
        VerificationReport.from_json_line(json.dumps(rec))


def test_mi_estimate_tame_combo():
    rep = mi_estimate(1.0, 0.0, GaussianNoise(1.0), trials=20000,
                      rng=substream(0, 0))
    assert rep.verdict == "pass"
    assert rep.lower < rep.estimate < rep.upper
    assert rep.se > 0
    assert rep.params["n_clamped"] == 0
    assert VerificationReport.from_json_line(rep.to_json_line()) == rep


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


@pytest.mark.parametrize("name,call", [
    ("trials", lambda: mi_estimate(1.0, 0.0, GaussianNoise(1.0), 0,
                                   substream(0, 0))),
    ("trials", lambda: sandwich_check(trials=0)),
    ("trials", lambda: concentration_check(trials=0, info_samples=10)),
    ("info_samples", lambda: concentration_check(trials=1, info_samples=1)),
])
def test_empty_budgets_are_refused(name, call):
    # these used to end in numpy's empty-slice and ddof warnings and NaN
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("name,miss,keep", [
    ("keep_power", 1.0, -1.0),      # was "math domain error"
    ("keep_power", 1.0, math.nan),
    ("keep_power", 1.0, math.inf),
    ("miss_power", math.nan, 0.0),  # was "observations must be finite"
    ("miss_power", 0.0, 0.0),       # was "fresh_power must be positive"
    ("miss_power", -1.0, 1.0),
    ("miss_power", math.inf, 0.0),  # was numpy's invalid-subtract warning
])
def test_mi_estimate_refuses_bad_powers(name, miss, keep):
    rng = substream(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=name):
        mi_estimate(miss, keep, GaussianNoise(1.0), 100, rng)
    assert rng.bit_generator.state == state     # refused before any draw


@pytest.mark.parametrize("threads", [0, -3, True, 1.0, 2.5, "2", None])
def test_run_suite_refuses_bad_thread_caps(threads):
    # these used to run, sequentially, and the manifest kept the bad value
    for suite in ("logconcavity", "sandwich"):
        with pytest.raises(ValueError, match="threads"):
            run_suite(suite, trials=10, threads=threads)


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, verify._INFO_BLOCK - 1,
                          verify._INFO_BLOCK + 1, 10**6 + 3]),
       exponent=st.integers(-300, 300),
       center=st.floats(-4.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_mean_and_se_is_numpys(n, exponent, center, seed):
    scale = 10.0 ** exponent
    v = np.random.default_rng(seed).normal(center * scale, scale, n)
    # squared deviations past 1e308 overflow in numpy's std too
    with np.errstate(over="ignore"):
        mean = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(n))
        got = verify._mean_and_se(v)
    assert (_bits(got[0]), _bits(got[1])) == (_bits(mean), _bits(se))


def test_mean_and_se_of_one_value():
    assert verify._mean_and_se(np.array([2.5])) == (2.5, math.inf)


def test_smallest_concentration_budgets_run():
    reports = concentration_check(trials=1, info_samples=2)
    assert all(math.isfinite(r.params["info_se"]) for r in reports)


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
    reports = run_suite(suite, trials=2000, master_seed=1)
    data = "".join(r.to_json_line() + "\n" for r in reports)
    assert hashlib.sha256(data.encode()).hexdigest() == REPORT_DIGESTS[suite]
    # every record reads back, its stored verdict certified
    assert [VerificationReport.from_json_line(line)
            for line in data.splitlines()] == reports


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
    # at zero matched power a centering run holds one float array of its
    # length (the missed-real plane, turned into full_sq and the values: 8
    # bytes a sample) plus one block's temporaries, and its values are
    # freed before the tail run; not three arrays (24 bytes), whole draws
    # and values (48 bytes) or every derived array at full length (about
    # 128 bytes)
    info_samples = 10**6
    tracemalloc.start()
    try:
        concentration_check(trials=10000, info_samples=info_samples,
                            master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * info_samples + 256 * verify._INFO_BLOCK, peak


def test_zero_keep_draws_hold_one_array():
    # the dropped matched planes are drawn into the run's one array, across
    # a ragged last block
    trials = 4 * verify._INFO_BLOCK + 17
    tracemalloc.start()
    try:
        vals, _ = verify._draw_info_samples(1.0, 0.0, GaussianNoise(1.0),
                                            trials, substream(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (trials,)
    assert peak <= 8 * trials + 256 * verify._INFO_BLOCK, peak
