"""Acceptance battery: one test per criterion, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Budgets are wall-clock seconds on a
small container; statistical checks use fixed seeds so reruns are stable.
"""
import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from phaselim.cli import main as cli_main
from phaselim.densities import GaussianNoise
from phaselim.limits import (ThresholdQuery, figure_curves,
                             measurement_thresholds, mi_pair_lower,
                             mi_pair_upper, tail_power_fraction)
from phaselim.model import DiscreteFlat, GaussianIID
from phaselim.simulate import SimConfig, error_curve, isotonic_residual
from phaselim.verify import (concentration_check, logconcavity_check,
                             logconcavity_negative_control, run_suite,
                             tail_fraction_convergence_check)


def _line(num, name, detail, ok):
    print(f"criterion {num:02d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_01_tail_fraction_oracle():
    start = time.monotonic()
    grid = np.linspace(0.0, 1.0, 1001)
    quad = np.asarray(tail_power_fraction(grid))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = grid + np.where(grid < 1.0, (1.0 - grid) * np.log1p(-grid), 0.0)
    dev = float(np.max(np.abs(quad - closed)))
    endpoints = quad[0] == 0.0 and quad[-1] == 1.0
    elapsed = time.monotonic() - start
    ok = dev < 1e-8 and endpoints and elapsed < 1.0
    _line(1, "tail-fraction oracle",
          f"max dev {dev:.2e} (tol 1e-8), endpoints exact {endpoints}, "
          f"{elapsed:.2f}s", ok)
    assert dev < 1e-8
    assert endpoints
    assert elapsed < 1.0


def test_criterion_02_rate_transcription():
    e2h = lambda s: 2.0 * math.pi * math.e * s * s
    pe2 = 2.0 * math.pi * math.e

    def lower_alt(a, c, s):
        return 0.5 * math.log(1.0 + 4.0 * (a * c) ** 2 / e2h(s))

    def upper_alt(a, c, s):
        vd, ve = a * c, (1 - a) * c
        return (0.5 * math.log(math.pi * math.e / 2.0)
                + 0.5 * math.log(1.0 + pe2 * vd * vd / e2h(s))
                + 0.5 * math.log(1.0 + vd * ve / (vd * vd + e2h(s) / pe2)))

    rng = np.random.default_rng(12)
    worst = 0.0
    ordered = True
    for _ in range(1000):
        a = float(rng.uniform(0.01, 1.0))
        c = float(rng.uniform(0.05, 10.0))
        s = float(rng.uniform(0.2, 3.0))
        noise = GaussianNoise(s)
        lo = float(mi_pair_lower(a * c, noise))
        hi = float(mi_pair_upper(a * c, (1 - a) * c, noise))
        worst = max(worst, abs(lo - lower_alt(a, c, s)),
                    abs(hi - upper_alt(a, c, s)))
        ordered &= lo <= hi
    ok = worst < 1e-12 and ordered
    _line(2, "rate transcription",
          f"max |diff| {worst:.2e} (tol 1e-12) over 1000 draws, "
          f"lower<=upper everywhere {ordered}", ok)
    assert worst < 1e-12
    assert ordered


def test_criterion_03_high_snr_factor():
    # At alpha = 1 the kept power vanishes and, with s = c_beta / sigma, the
    # two rate forms reduce to U(1) = 0.5 log(pi e / 2) + 0.5 log(1 + s^2)
    # and L(1) = 0.5 log(1 + 2 s^2 / (pi e)), so n_ach/n_con is close to
    # R = U(1) / ((1 - alpha_star) L(1)). Its excess over the limit
    # 1/(1 - alpha_star) is (U - L) / L ~ log(pi e / 2) / log s: the factor
    # is reached only as a limit, at rate 1/log s. The check pins the exact
    # finite-power value, that rate, and the power where the 5% band starts.
    # The exact value is not quite R: the tail fraction's slope -log(eps)
    # at alpha = 1 - eps grows without bound, so the achievability
    # objective peaks at eps about exp(-L(1)) (2.1e-6 at c_beta 1e6, where
    # the ratio is 1.6e-7 above R).
    start = time.monotonic()
    alpha_star, sigma = 0.1, 1.0
    target = 1.0 / (1.0 - alpha_star)
    gap = math.log(math.pi * math.e / 2.0)

    def measured(c_beta):
        q = ThresholdQuery(p=1000, k=10, signal=GaussianIID(c_beta=c_beta, k=10),
                           noise=GaussianNoise(sigma), alpha_star=alpha_star)
        r = measurement_thresholds(q)
        return r.n_ach / r.n_con, r.alpha_ach, r.alpha_con

    def closed_ratio(c_beta):
        s2 = (c_beta / sigma) ** 2
        upper = 0.5 * gap + 0.5 * math.log1p(s2)
        lower = 0.5 * math.log1p(2.0 * s2 / (math.pi * math.e))
        return upper / ((1.0 - alpha_star) * lower)

    def exact_ratio(c_beta):
        # both maxima in mpmath, over alpha = 1 - exp(-t) with t in
        # [log 1e3, 60], where each objective is unimodal in t
        with mpmath.workdps(40):
            c, s2 = mpmath.mpf(c_beta), mpmath.mpf(sigma) ** 2
            pe = 2 * mpmath.pi * mpmath.e

            def objectives(t):
                a = 1 - mpmath.exp(-t)
                v = c * (1 - mpmath.exp(-t) * (1 + t))   # c_beta g(a)
                w = c - v
                lower = 0.5 * mpmath.log1p(4 * v * v / (pe * s2))
                upper = (0.5 * mpmath.log(mpmath.pi * mpmath.e / 2)
                         + 0.5 * mpmath.log1p(v * v / s2)
                         + 0.5 * mpmath.log1p(v * w / (v * v + s2)))
                return a / lower, (a - alpha_star) / upper

            maxima = []
            for which in (0, 1):
                lo, hi = mpmath.log(1000), mpmath.mpf(60)
                for _ in range(120):
                    t1, t2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                    if objectives(t1)[which] < objectives(t2)[which]:
                        lo = t1
                    else:
                        hi = t2
                maxima.append(objectives(lo)[which])
            return float(maxima[0] / maxima[1])

    def in_band(ratio):
        return abs(ratio - target) <= 0.05 * target

    ladder = (1e6, 1e9, 1e13, 1e20, 1e40)
    runs = [measured(c) for c in ladder]
    ratios = [r for r, _, _ in runs]
    maximizers_ok = all(a >= 0.999 and b >= 0.999 for _, a, b in runs)

    # (a) the exact ratio at the pinned power
    ratio = ratios[0]
    exact_dev = abs(ratio / exact_ratio(1e6) - 1.0)

    # (b) the 1/log c approach on the power ladder
    decreasing = all(hi > lo for hi, lo in zip(ratios, ratios[1:]))
    above_limit = all(r > target for r in ratios)
    scaled = [(r * (1.0 - alpha_star) - 1.0) * math.log(c / sigma)
              for c, r in zip(ladder, ratios)]
    rate_ok = all(abs(x / gap - 1.0) <= 0.07 for x in scaled)

    # (c) the 5% band starts at c*, where R(c*) = 1.05 / (1 - alpha_star)
    c_edge = math.exp(brentq(
        lambda x: closed_ratio(math.exp(x)) - 1.05 * target,
        math.log(1e6), math.log(1e40), xtol=1e-12))
    below = measured(c_edge / 10.0)[0]
    above = measured(c_edge * 10.0)[0]

    elapsed = time.monotonic() - start
    ok = (exact_dev <= 1e-9 and maximizers_ok and decreasing and above_limit
          and rate_ok and not in_band(below) and in_band(above)
          and elapsed < 5.0)
    _line(3, "high-snr factor",
          f"ratio {ratio:.4f} at c 1e6 vs exact dev {exact_dev:.1e} "
          f"(tol 1e-9), maximizers >= 0.999 on the ladder {maximizers_ok}; "
          f"excess*ln c {' '.join(f'{x:.3f}' for x in scaled)} -> "
          f"{gap:.4f} within 7% {rate_ok}, decreasing above {target:.4f} "
          f"{decreasing and above_limit}; 5% band from c* {c_edge:.2e} "
          f"(c*/10 {below:.4f} out, 10c* {above:.4f} in), {elapsed:.2f}s", ok)
    assert elapsed < 5.0
    assert maximizers_ok, (
        f"maximizers on the ladder {ladder} are not all at alpha = 1: "
        f"{[(a, b) for _, a, b in runs]}")
    assert exact_dev <= 1e-9, (
        f"ratio {ratio!r} at c_beta 1e6 deviates {exact_dev:.2e} from the "
        f"exact ratio {exact_ratio(1e6)!r}")
    assert decreasing and above_limit, (
        f"ratios {ratios} on the ladder {ladder} do not decrease strictly "
        f"towards {target:.4f} from above")
    assert rate_ok, (
        f"excess*ln c {scaled} is not within 7% of log(pi e / 2) = {gap:.4f}")
    assert not in_band(below), (
        f"ratio {below:.4f} at c*/10 = {c_edge / 10.0:.3e} is already within "
        f"5% of {target:.4f}")
    assert in_band(above), (
        f"ratio {above:.4f} at 10c* = {c_edge * 10.0:.3e} is not within 5% "
        f"of {target:.4f}")


def test_criterion_04_curve_regeneration():
    start = time.monotonic()
    grid = np.arange(-10.0, 41.0, 1.0)
    curves = figure_curves(alpha_star=0.1, snr_db_values=grid)
    ok = True
    for kind in ("flat", "gaussian"):
        rows = curves[kind]
        ok &= rows.shape == (51, 3)
        ok &= bool(np.all(np.diff(rows[:, 1]) < 0))
        ok &= bool(np.all(np.diff(rows[:, 2]) < 0))
        ok &= bool(np.all(rows[:, 2] <= rows[:, 1]))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _line(4, "curve regeneration",
          f"both kinds strictly decreasing with converse <= achievability "
          f"on 51 points, {elapsed:.2f}s", ok)
    assert ok


def test_criterion_05_sandwich_battery():
    start = time.monotonic()
    reports = run_suite("sandwich", trials=100000, master_seed=0)
    elapsed = time.monotonic() - start
    verdicts = [r.verdict for r in reports]
    ok = len(reports) == 12 and all(v == "pass" for v in verdicts)
    ok = ok and elapsed < 120.0
    _line(5, "information sandwich",
          f"{verdicts.count('pass')}/12 inside [lower-3se, upper+3se] at "
          f"1e5 trials, {elapsed:.1f}s", ok)
    for rep in reports:
        assert rep.verdict == "pass", rep.to_json_line()
    assert elapsed < 120.0


def test_criterion_06_concentration_tails():
    start = time.monotonic()
    reports = concentration_check(trials=10000, info_samples=1000000,
                                  master_seed=0)
    elapsed = time.monotonic() - start
    ok = all(r.verdict == "pass" for r in reports) and elapsed < 300.0
    worst = max(r.estimate - (r.upper + 3 * r.se) for r in reports)
    _line(6, "concentration tails",
          f"8 tails below bound (worst slack {-worst:.3f}), n=20, 1e4 "
          f"trials, {elapsed:.1f}s", ok)
    for rep in reports:
        assert rep.verdict == "pass", rep.to_json_line()
    assert elapsed < 300.0


def test_criterion_07_logconcavity_scan():
    reports = logconcavity_check()
    neg = logconcavity_negative_control()
    ok = all(r.verdict == "pass" for r in reports) and neg.verdict == "fail"
    _line(7, "log-concavity scan",
          f"{len(reports)}/{len(reports)} battery pass, negative control "
          f"fails with bump {neg.estimate:.2e}", ok)
    for rep in reports:
        assert rep.verdict == "pass", rep.to_json_line()
    assert neg.verdict == "fail"


def test_criterion_08_sorted_prefix_convergence():
    reports = tail_fraction_convergence_check(master_seed=0)
    devs = [r.estimate for r in reports]
    ok = len(reports) == 20 and all(r.verdict == "pass" for r in reports)
    _line(8, "sorted-prefix convergence",
          f"20/20 seeds, max uniform dev {max(devs):.4f} <= 0.05", ok)
    for rep in reports:
        assert rep.verdict == "pass", rep.to_json_line()
        assert rep.estimate <= 0.05


def test_criterion_09_simulator_sanity():
    start = time.monotonic()
    config = SimConfig(p=10, k=2, signal=DiscreteFlat(c_beta=1.0, k=2),
                       noise=GaussianNoise(1e-3), alpha_star=0.5,
                       n_grid=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
                       trials=400, decoder="flat-ml", master_seed=0)
    curve = error_curve(config)
    elapsed = time.monotonic() - start
    pe40 = float(curve.pe[list(curve.n_values).index(40)])
    residual, pooled = isotonic_residual(curve)
    ok = (pe40 <= 0.05 and residual <= max(3 * pooled, 1e-12)
          and elapsed < 120.0)
    _line(9, "simulator sanity",
          f"pe(40) = {pe40:.4f} <= 0.05, isotonic residual {residual:.4f} "
          f"vs 3*pooled se {3 * pooled:.4f}, {elapsed:.1f}s", ok)
    assert pe40 <= 0.05
    assert residual <= max(3 * pooled, 1e-12)
    assert elapsed < 120.0


def test_criterion_10_manifest_replay(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [
        (["thresholds", "--model", "flat", "--p", "100", "--k", "4",
          "--json", "--out", "th.json"], "th.json.manifest.json"),
        (["figure", "--snr-min", "-2", "--snr-max", "2", "--snr-step", "2",
          "--out-dir", "figs"], "figs/manifest.json"),
        (["verify", "--suite", "logconcavity", "--out", "lc.jsonl",
          "--threads", "1"], "lc.jsonl.manifest.json"),
        (["simulate", "--p", "8", "--k", "2", "--n-grid", "4,8",
          "--trials", "60", "--threads", "1", "--out", "sim.csv"],
         "sim.csv.manifest.json"),
    ]
    ok = True
    for argv, manifest in runs:
        assert cli_main(argv) == 0, argv
        code = cli_main(["replay", manifest, "--threads", "3",
                         "--scratch", str(tmp_path / ("re_" + argv[0]))])
        ok &= code == 0
        assert code == 0, f"replay mismatch for {argv[0]}"
        doc = json.loads((tmp_path / manifest).read_text())
        assert doc["outputs"], argv[0]
    capsys.readouterr()
    _line(10, "manifest replay",
          "4/4 commands byte-identical on replay under --threads 3", ok)
    assert ok
