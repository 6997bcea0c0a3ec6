"""Report plumbing and the statistical check suites at reduced budgets."""
import json
import math

import numpy as np
import pytest

from phaselim.densities import GaussianNoise
from phaselim.verify import (DEFAULT_LOGCONCAVITY_BATTERY,
                             DEFAULT_SANDWICH_BATTERY, SUITE_NAMES,
                             VerificationReport, concentration_check,
                             logconcavity_check,
                             logconcavity_negative_control, mi_estimate,
                             run_suite, sandwich_check,
                             tail_fraction_convergence_check)
from phaselim.rng import substream


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
    rep = mi_estimate(1.0, 0.0, GaussianNoise(1.0), trials=50,
                      rng=substream(1, 0), resolution=0.001)
    assert rep.verdict == "inconclusive"


def test_sandwich_thread_count_invariance():
    battery = DEFAULT_SANDWICH_BATTERY[:4]
    one = sandwich_check(battery=battery, trials=3000, master_seed=9,
                         threads=1)
    two = sandwich_check(battery=battery, trials=3000, master_seed=9,
                         threads=3)
    assert [r.to_json_line() for r in one] == [r.to_json_line() for r in two]


def test_sandwich_small_battery_passes():
    reports = sandwich_check(battery=((1.0, 0.0, 1.0), (0.5, 1.0, 1.0)),
                             trials=20000, master_seed=0)
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
    reports = concentration_check(trials=200, info_samples=50,
                                  master_seed=0, rel_se_limit=1e-6)
    assert all(r.verdict == "inconclusive" for r in reports)


def test_tail_fraction_convergence_small():
    reports = tail_fraction_convergence_check(k=2000, n_seeds=3,
                                              master_seed=4)
    assert len(reports) == 3
    for rep in reports:
        assert rep.verdict == "pass"
        assert rep.upper == pytest.approx(5.0 / math.sqrt(2000))
        assert 0 <= rep.estimate <= rep.upper


def test_tail_fraction_thread_invariance():
    one = tail_fraction_convergence_check(k=500, n_seeds=4, master_seed=2,
                                          threads=1)
    two = tail_fraction_convergence_check(k=500, n_seeds=4, master_seed=2,
                                          threads=4)
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
    # a battery noise scale outside [1e-150, 1e150] is refused
    for sigma in (1e-155, 1e160):
        with pytest.raises(ValueError):
            sandwich_check(battery=[(1.0, 0.0, sigma)], trials=10)
        with pytest.raises(ValueError):
            logconcavity_check(battery=[(0.0, 1.0, sigma)])


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
