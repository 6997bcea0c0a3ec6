"""Command line surface: flags, exit codes, manifests, replay."""
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselim import cli
from phaselim.cli import main
from phaselim.verify import SUITE_NAMES, VerificationReport


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in a fresh interpreter with scipy blocked (any import of it raises
# ImportError): every command, verify suites included, exits as it should,
# and so do the squared-magnitude density and a sample that takes the
# quadrature fallback.
_SCIPY_GUARD_SCRIPT = """
import contextlib, io, math, sys
sys.modules["scipy"] = None
from phaselim.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)

common = ["--p", "8", "--k", "2", "--n-grid", "4,8", "--trials", "10"]
for argv, code in (
        (["thresholds", "--model", "gaussian", "--p", "1000", "--k", "10",
          "--c-beta", "1", "--json"], 0),
        (["thresholds", "--model", "flat", "--p", "1000", "--k", "10",
          "--c-beta", "1", "--json"], 0),
        (["figure", "--out-dir", "figs"], 0),
        (["simulate", "--model", "flat", "--decoder", "flat-ml",
          "--out", "flat.csv"] + common, 0),
        (["simulate", "--model", "gaussian", "--decoder", "mc-marginal",
          "--mc-samples", "16", "--out", "mc.csv"] + common, 0),
        (["replay", "mc.csv.manifest.json", "--scratch", "re"], 0),
        (["verify", "--suite", "gconv", "--out", "gconv.jsonl"], 0),
        (["verify", "--suite", "logconcavity", "--out", "lc.jsonl"], 0),
        (["verify", "--suite", "negative-control", "--out", "nc.jsonl"], 1),
        (["verify", "--suite", "sandwich", "--trials", "200",
          "--out", "sw.jsonl"], 0),
        (["verify", "--suite", "concentration", "--trials", "200",
          "--out", "cc.jsonl"], 0)):
    assert run(argv) == code, argv
from phaselim.densities import (GaussianNoise, conditional_output_logpdf,
                                noncentral_chi2_scaled_logpdf)
assert math.isfinite(noncentral_chi2_scaled_logpdf(1.0, 1.0, 1.0))
assert math.isfinite(conditional_output_logpdf(1e4 + 3, 1e4, 1.0,
                                               GaussianNoise(1.0)))
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


def test_limits_and_simulate_do_not_load_scipy(tmp_path):
    path = [os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD_SCRIPT],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero():
    for args in (["--help"], ["thresholds", "--help"], ["figure", "--help"],
                 ["verify", "--help"], ["simulate", "--help"],
                 ["replay", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0


def test_thresholds_take_p_past_float_range(tmp_path, monkeypatch, capsys):
    # a 401-digit --p exited 4 when p / k overflowed a float
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(["thresholds", "--model", "flat", "--k", "10",
                         "--p", "1" + "0" * 400, "--json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["p"] == 10**400
    assert math.isfinite(record["n_ach"]) and math.isfinite(record["n_con"])


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--model", "flat", "--p", "10"])
    assert exc.value.code == 2


def test_bad_domain_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(["thresholds", "--model", "flat", "--p", "10",
                         "--k", "2", "--alpha-star", "0"], capsys)
    assert code == 2
    assert "alpha_star" in err


def test_bad_numbers_are_usage_errors(tmp_path, capsys, monkeypatch):
    # each used to print NaN and exit 0, exit 4, or silently search alpha = 1
    monkeypatch.chdir(tmp_path)
    flat = ["thresholds", "--model", "flat", "--p", "100", "--k", "4",
            "--mode", "asymptotic"]
    cases = [
        ["thresholds", "--model", "gaussian", "--p", "100", "--k", "4",
         "--c-beta", "nan"],
        flat + ["--c-beta", "nan"],
        flat + ["--c-beta", "inf"],
        flat + ["--sigma", "inf"],
        ["simulate", "--p", "6", "--k", "2", "--c-beta", "nan"],
        ["figure", "--snr-step", "0", "--out-dir", "figs"],
        ["figure", "--snr-min", "5", "--snr-max", "0", "--out-dir", "figs"],
        ["verify", "--suite", "sandwich", "--trials", "0"],
        # alpha_star past 1 wrote pe = 0 at every n (threshold above k)
        ["simulate", "--model", "flat", "--p", "8", "--k", "2",
         "--alpha-star", "5"],
        ["simulate", "--model", "flat", "--p", "8", "--k", "2",
         "--alpha-star", "nan"],
        ["simulate", "--model", "gaussian", "--p", "8", "--k", "2",
         "--mc-samples", "0"],
        # a 4e6-point SNR grid: refused before it is built
        ["figure", "--snr-min=0", "--snr-max=40", "--snr-step=1e-5",
         "--out-dir", "figs"],
        ["figure", "--snr-max=inf", "--out-dir", "figs"],
        # noise scales outside [1e-150, 1e150]: the counts were 0 (exit 0)
        # below it and a numeric failure (exit 4) above it
        ["thresholds", "--model", "gaussian", "--p", "1000", "--k", "10",
         "--sigma", "1e-155"],
        flat + ["--sigma", "1e-160"],
        flat + ["--sigma", "1e160"],
        flat + ["--sigma", "1e300"],
        ["simulate", "--p", "6", "--k", "2", "--sigma", "1e-160"],
        ["simulate", "--p", "6", "--k", "2", "--sigma", "1e160"],
        # signal powers past 1e150, or past 1e150 times sigma: every
        # candidate's residual overflowed and pe read about 1 at every n
        ["simulate", "--model", "gaussian", "--p", "6", "--k", "2",
         "--c-beta", "1e200"],
        ["simulate", "--model", "flat", "--p", "6", "--k", "2",
         "--c-beta", "1e120", "--sigma", "1e-40"],
        # an SNR point whose power overflows: refused before any curve
        ["figure", "--snr-min=40", "--snr-max=1e300", "--snr-step=1e300",
         "--out-dir", "figs"],
    ]
    for argv in cases:
        code, stdout, err = _run(argv, capsys)
        assert code == 2, argv
        assert "Traceback" not in err and stdout == "", argv
    assert list(tmp_path.iterdir()) == []


def test_thresholds_extreme_power_is_finite(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(["thresholds", "--model", "gaussian", "--p", "1000",
                            "--k", "10", "--c-beta", "1e200", "--json"], capsys)
    assert code == 0
    rec = json.loads(stdout)
    assert 0.0 < rec["n_con"] <= rec["n_ach"] < float("inf")
    assert rec["alpha_ach"] == 1.0 and rec["alpha_con"] == 1.0


def test_noise_scale_range_edges(tmp_path, capsys, monkeypatch):
    # both ends of the accepted sigma range give finite positive counts
    monkeypatch.chdir(tmp_path)
    for sigma in ("1e-150", "1e150"):
        for model, c_beta in itertools.product(("gaussian", "flat"),
                                               ("1", "1e200", "1e300")):
            code, stdout, _ = _run(["thresholds", "--model", model,
                                    "--p", "1000", "--k", "10",
                                    "--sigma", sigma, "--c-beta", c_beta,
                                    "--json"], capsys)
            assert code == 0, (model, sigma, c_beta)
            rec = json.loads(stdout)
            assert 0.0 < rec["n_con"] <= rec["n_ach"] < float("inf")
        code, _, _ = _run(["simulate", "--p", "6", "--k", "2",
                           "--sigma", sigma, "--n-grid", "2", "--trials", "3",
                           "--out", f"c{sigma}.csv"], capsys)
        assert code == 0, sigma
        assert "# reference n_ach = 0\n" not in (
            tmp_path / f"c{sigma}.csv").read_text()


def test_thresholds_tiny_power_is_numeric_failure(tmp_path, capsys,
                                                  monkeypatch):
    # the counts leave the float range; the power itself is positive
    monkeypatch.chdir(tmp_path)
    for c_beta in ("1e-155", "1e-170"):
        code, stdout, err = _run(["thresholds", "--model", "gaussian",
                                  "--p", "1000", "--k", "10",
                                  "--c-beta", c_beta, "--json"], capsys)
        assert code == 4, c_beta
        assert stdout == "" and "numeric failure" in err, c_beta


def test_subnormal_power_is_bad_input(tmp_path, capsys, monkeypatch):
    # a positive power below the normal float range ended as infeasible
    # (5e-323, whose missed share rounds to 0) or as a numeric failure
    # (1e-320); now both are refused as bad input, with one message, and
    # the normal powers 1e-300 and 1e-155 keep their numeric failures
    monkeypatch.chdir(tmp_path)
    base = ["thresholds", "--model", "gaussian", "--p", "1000", "--k", "10",
            "--json", "--c-beta"]
    for c_beta in ("5e-323", "1e-320"):
        code, stdout, err = _run(base + [c_beta], capsys)
        assert (code, stdout) == (2, ""), c_beta
        assert err == ("phaselim: signal power below the normal float "
                       "range (2.2250738585072014e-308)\n"), c_beta
    for c_beta, message in (
            ("1e-300", "lower rate underflows to 0 at positive missed power"),
            ("1e-155", "measurement count is not a finite float")):
        code, stdout, err = _run(base + [c_beta], capsys)
        assert (code, stdout) == (4, ""), c_beta
        assert err == f"phaselim: numeric failure: {message}\n", c_beta


def test_thresholds_equal_at_equal_snr(tmp_path, capsys, monkeypatch):
    # the two pairs have the same c_beta / sigma; at the first, squares of
    # the missed power were subnormal, which put the flat n_ach 2.8e-3 too
    # high and ended the gaussian query in exit 4
    monkeypatch.chdir(tmp_path)
    for model in ("flat", "gaussian"):
        recs = []
        for c_beta, sigma in (("1e-160", "1e-150"), ("1e-10", "1")):
            code, stdout, _ = _run(["thresholds", "--model", model,
                                    "--p", "1000", "--k", "10",
                                    "--c-beta", c_beta, "--sigma", sigma,
                                    "--json"], capsys)
            assert code == 0, (model, c_beta)
            recs.append(json.loads(stdout))
        for key in ("n_ach", "n_con"):
            assert recs[0][key] == pytest.approx(recs[1][key], rel=1e-12)


def test_unusable_output_fails_before_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the output location")

    for name in ("run_suite", "figure_curves", "measurement_thresholds",
                 "error_curve"):
        monkeypatch.setattr(f"phaselim.cli.{name}", no_work)
    (tmp_path / "blocker").write_text("file, not a directory\n")
    missing = str(tmp_path / "missing" / "out")
    cases = [
        ["verify", "--suite", "sandwich", "--out", missing],
        ["thresholds", "--model", "flat", "--p", "100", "--k", "4",
         "--out", missing],
        ["simulate", "--p", "6", "--k", "2", "--out", missing],
        ["figure", "--out-dir", str(tmp_path / "blocker" / "figs")],
        ["verify", "--suite", "logconcavity", "--manifest", missing],
        ["thresholds", "--model", "flat", "--p", "100", "--k", "4",
         "--out", str(tmp_path)],
    ]
    for argv in cases:
        code, stdout, err = _run(argv, capsys)
        assert code == 3, argv
        assert stdout == "" and "Traceback" not in err, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_thresholds_example_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "th.json"
    code, stdout, _ = _run(
        ["thresholds", "--model", "gaussian", "--p", "1000", "--k", "10",
         "--c-beta", "1", "--sigma", "1", "--alpha-star", "0.999999999",
         "--json", "--out", str(out)], capsys)
    assert code == 0
    rec = json.loads(stdout)
    assert rec["n_ach"] == pytest.approx(437.707, rel=1e-4)
    saved = json.loads(out.read_text())
    assert saved["n_ach"] == rec["n_ach"]
    manifest = json.loads((tmp_path / "th.json.manifest.json").read_text())
    assert manifest["command"] == "thresholds"
    assert manifest["outputs"][str(out)] == _sha(out)


def test_thresholds_table_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(["thresholds", "--model", "flat", "--p", "100",
                            "--k", "4"], capsys)
    assert code == 0
    assert "n_ach" in stdout and "n_con" in stdout


def test_figure_grid_and_shape(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["figure", "--snr-min", "-4", "--snr-max", "6",
                       "--snr-step", "2", "--out-dir", "figs"], capsys)
    assert code == 0
    for kind in ("flat", "gaussian"):
        lines = (tmp_path / "figs" / f"{kind}_thresholds.csv").read_text().splitlines()
        assert lines[0] == "snr_db,n_ach_norm,n_con_norm"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (6, 3)
        assert np.all(np.diff(rows[:, 1]) < 0)
        assert np.all(rows[:, 2] <= rows[:, 1])
    manifest = json.loads((tmp_path / "figs" / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 2


def test_figure_unwritable_dir_is_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    code, _, err = _run(["figure", "--out-dir", str(blocker / "sub")], capsys)
    assert code == 3


def test_verify_logconcavity_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run(["verify", "--suite", "logconcavity",
                              "--out", "lc.jsonl"], capsys)
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == 6
    assert all(json.loads(ln)["verdict"] == "pass" for ln in lines)
    assert (tmp_path / "lc.jsonl").read_text().splitlines() == lines
    assert "6 pass" in err


def test_verify_negative_control_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run(["verify", "--suite", "negative-control"], capsys)
    assert code == 1
    assert "1 fail" in err


def test_verify_underpowered_warns_but_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(["verify", "--suite", "sandwich", "--trials", "100"],
                        capsys)
    assert code == 0
    assert "inconclusive" in err


def test_verify_one_trial_report_is_strict_json(tmp_path, capsys,
                                               monkeypatch):
    # one trial leaves the standard error infinite; the report spells it
    # as a string and every verdict re-derives from the parsed record
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(["verify", "--suite", "sandwich", "--trials", "1",
                            "--out", "r.jsonl"], capsys)
    assert code == 0
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert lines == stdout.splitlines() and len(lines) == 12
    for line in lines:
        rec = json.loads(line, parse_constant=_reject_constant)
        assert rec["se"] == "Infinity"
        rep = VerificationReport.from_json_line(line)
        assert rep.se == float("inf")
        assert rep.recompute_verdict() == rec["verdict"] == "inconclusive"
        assert rep.to_json_line() == line


def test_simulate_guard_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(["simulate", "--p", "30", "--k", "5"], capsys)
    assert code == 2
    assert "10000" in err


def test_simulate_refuses_config_before_any_trial(tmp_path, capsys,
                                                 monkeypatch):
    # an empty grid from a config file wrote a CSV of only its header and
    # reference lines, with exit 0; a decoder the model does not take, and
    # a negative seed, failed only inside a worker. All are refused when
    # SimConfig is built
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"n_grid": []}))

    def no_trials(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("phaselim.cli.error_curve", no_trials)
    for argv, message in (
            (["--p", "6", "--k", "2", "--config", "c.json"], "empty"),
            (["--p", "6", "--k", "2", "--n-grid", "5:3"], "empty"),
            (["--p", "6", "--k", "2", "--model", "flat", "--decoder",
              "mc-marginal"], "takes flat-ml"),
            (["--p", "6", "--k", "2", "--model", "gaussian", "--decoder",
              "flat-ml"], "takes mc-marginal"),
            (["--p", "6", "--k", "2", "--seed", "-1"], "master_seed")):
        code, stdout, err = _run(["simulate", "--out", "e.csv"] + argv,
                                 capsys)
        assert code == 2, argv
        assert message in err and stdout == "", (argv, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_verify_refuses_negative_seed_for_every_suite(tmp_path, capsys,
                                                     monkeypatch):
    # logconcavity and negative-control, which draw nothing, ran and
    # recorded "master_seed": -1; the others failed inside numpy
    monkeypatch.chdir(tmp_path)
    for suite in SUITE_NAMES:
        code, stdout, err = _run(["verify", "--suite", suite, "--seed", "-1",
                                  "--out", "r.jsonl"], capsys)
        assert (code, stdout) == (2, ""), suite
        assert "master_seed" in err, (suite, err)
    assert list(tmp_path.iterdir()) == []


def test_simulate_deterministic_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--p", "7", "--k", "2", "--sigma", "0.5",
            "--n-grid", "2,6", "--trials", "40", "--seed", "11"]
    code, _, _ = _run(args + ["--out", "a.csv"], capsys)
    assert code == 0
    code, _, _ = _run(args + ["--out", "b.csv"], capsys)
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    text = (tmp_path / "a.csv").read_text()
    assert text.startswith("n,pe,se,trials\n")
    assert "# reference n_ach" in text


def test_simulate_keeps_curve_without_reference(tmp_path, capsys,
                                                monkeypatch):
    # the reference thresholds underflow at this power (numeric failure),
    # but the error curve is computed, so it is written without them
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["simulate", "--p", "8", "--k", "2", "--c-beta",
                       "1e-200", "--n-grid", "4", "--trials", "2",
                       "--out", "c.csv"], capsys)
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert text.startswith("n,pe,se,trials\n4,")
    assert "# reference" not in text
    code, stdout, _ = _run(["replay", "c.csv.manifest.json",
                            "--scratch", str(tmp_path / "re")], capsys)
    assert code == 0
    assert "outputs identical" in stdout


def test_replay_matches_under_other_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["simulate", "--p", "7", "--k", "2", "--sigma", "0.5",
                       "--n-grid", "2,6", "--trials", "40", "--seed", "2",
                       "--threads", "1", "--out", "c.csv"], capsys)
    assert code == 0
    code, stdout, _ = _run(["replay", "c.csv.manifest.json", "--threads", "3",
                            "--scratch", str(tmp_path / "re")], capsys)
    assert code == 0
    assert "outputs identical" in stdout
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "re" / "c.csv").read_bytes()


# A simulate manifest written by the decoder that ran one decode per trial.
# Its flat-ml cells now score blocks of trials: one partial block at n = 0
# and 2, 130 and 121 trials at n = 6, and ten blocks of 25 and a last
# trial alone at n = 31.
_ONE_DECODE_PER_TRIAL_MANIFEST = {
    "command": "simulate",
    "master_seed": 5,
    "outputs": {"c.csv": "8bfa51143e7668a824fb3b053031c841"
                         "091a2c907bd882a13c019ebc1a2ebc49"},
    "params": {"alpha_star": 0.5, "c_beta": 1.0, "decoder": "auto", "k": 2,
               "mc_samples": 256, "model": "flat", "n_grid": [0, 2, 6, 31],
               "out": "c.csv", "p": 7, "seed": 5, "sigma": 2.0,
               "threads": 1, "trials": 251},
    "version": "0.1.0",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_replay_of_per_trial_decode_manifest(tmp_path, capsys, threads):
    mpath = tmp_path / "c.csv.manifest.json"
    mpath.write_text(json.dumps(_ONE_DECODE_PER_TRIAL_MANIFEST))
    code, stdout, _ = _run(["replay", str(mpath), "--threads", threads,
                            "--scratch", str(tmp_path / "re")], capsys)
    assert code == 0, stdout
    assert "outputs identical" in stdout


def test_replay_detects_corruption(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["simulate", "--p", "6", "--k", "2", "--n-grid", "3",
                       "--trials", "20", "--out", "d.csv"], capsys)
    assert code == 0
    mpath = tmp_path / "d.csv.manifest.json"
    doc = json.loads(mpath.read_text())
    key = next(iter(doc["outputs"]))
    doc["outputs"][key] = "0" * 64
    mpath.write_text(json.dumps(doc))
    code, stdout, _ = _run(["replay", str(mpath),
                            "--scratch", str(tmp_path / "re2")], capsys)
    assert code == 1
    assert "MISMATCH" in stdout


def test_replay_missing_manifest_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["replay", "nope.json"], capsys)
    assert code == 3


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.txt"
    conf.write_text("model = flat\np = 80\nk = 4\nalpha_star = 0.2  # note\n")
    code, stdout, _ = _run(["thresholds", "--config", str(conf), "--json"],
                           capsys)
    assert code == 0
    rec = json.loads(stdout)
    assert (rec["p"], rec["k"], rec["alpha_star"]) == (80, 4, 0.2)
    # explicit flag beats the config value
    code, stdout, _ = _run(["thresholds", "--config", str(conf),
                            "--alpha-star", "0.4", "--json"], capsys)
    assert json.loads(stdout)["alpha_star"] == 0.4


def test_config_json_form(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"model": "flat", "p": 60, "k": 3}))
    code, stdout, _ = _run(["thresholds", "--config", str(conf), "--json"],
                           capsys)
    assert code == 0
    assert json.loads(stdout)["p"] == 60


def test_bad_config_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "broken.txt"
    conf.write_text("just words without equals\n")
    code, _, err = _run(["thresholds", "--config", str(conf)], capsys)
    assert code == 2
    assert "config" in err


def test_config_lines_and_values(tmp_path, capsys, monkeypatch):
    # blank and comment-only lines are skipped, a line without "=" is named
    # by its number, and each bad value is a usage error naming its key
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "c.conf"
    conf.write_text("model = flat\n\n# p = 5\np = 80\nk = 4\njson = off\n")
    code, stdout, _ = _run(["thresholds", "--config", str(conf)], capsys)
    assert code == 0 and stdout.startswith("quantity")
    for text, message in (
            ("model = flat\n\n# comment\nk 4\n",
             "config line 4: expected key = value"),
            # a JSON array is read as key = value lines: JSON text that
            # starts with "{" always parses to an object
            ("[1, 2]\n", "config line 1: expected key = value"),
            ("model = flat\np = 80\nk = 4\njson = maybe\n",
             "bad config value for json: not a boolean: 'maybe'"),
            ("model = nope\np = 80\nk = 4\n", "unknown model 'nope'")):
        conf.write_text(text)
        code, stdout, err = _run(["thresholds", "--config", str(conf)],
                                 capsys)
        assert (code, stdout) == (2, ""), text
        assert err == f"phaselim: {message}\n", text
    # a model from the config skips argparse's choices: simulate refuses it
    # as thresholds does
    conf.write_text('{"model": "nope", "p": 6, "k": 2}')
    code, _, err = _run(["simulate", "--config", str(conf)], capsys)
    assert (code, err) == (2, "phaselim: unknown model 'nope'\n")
    assert not (tmp_path / "error_curve.csv").exists()


def test_config_null_is_usage_error(tmp_path, capsys, monkeypatch):
    # a JSON null for a string option was read as the path "None": with out
    # and manifest null, thresholds wrote its record and then its manifest
    # to one file of that name and exited 0
    monkeypatch.chdir(tmp_path)
    thresholds = ["thresholds", "--model", "flat", "--p", "1000", "--k",
                  "10"]
    for argv, doc, key in (
            (thresholds, {"out": None, "manifest": None}, "out"),
            (thresholds, {"manifest": None}, "manifest"),
            (thresholds, {"mode": None}, "mode"),
            (thresholds, {"c_beta": None}, "c_beta"),
            (thresholds, {"json": None}, "json"),
            (["figure"], {"out_dir": None}, "out_dir"),
            (["simulate", "--p", "6", "--k", "2"], {"decoder": None},
             "decoder"),
            (["simulate", "--p", "6", "--k", "2"], {"n_grid": None},
             "n_grid"),
            (["verify", "--suite", "logconcavity"], {"seed": None}, "seed")):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code, stdout, err = _run(argv + ["--config", "c.json"], capsys)
        assert (code, stdout) == (2, ""), doc
        assert err == f"phaselim: bad config value for {key}: null\n", doc
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("name, text, twice", [
    ("c.json", '{"model": "flat", "p": 1000, "k": 10, "c-beta": 5.0, '
     '"alpha-star": 0.2}', '{"c-beta": 5.0, "c_beta": 2.0}'),
    ("c.conf", "model = flat\np = 1000\nk = 10\nc-beta = 5.0\n"
     "alpha-star = 0.2\n", "c_beta = 5.0\nc-beta = 2.0\n")],
    ids=["json", "lines"])
def test_config_keys_read_hyphens_as_underscores(tmp_path, capsys,
                                                 monkeypatch, name, text,
                                                 twice):
    # a JSON key spelled like its flag ("c-beta") was ignored, and the
    # default c_beta of 1 used, while a key = value line read it as c_beta;
    # now both formats read it so, and a file that names one option twice
    # (the second entry used to win) is refused by the option's name
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / name
    conf.write_text(text)
    code, stdout, _ = _run(["thresholds", "--json", "--config", name], capsys)
    assert code == 0
    code, expected, _ = _run(["thresholds", "--model", "flat", "--p", "1000",
                              "--k", "10", "--c-beta", "5", "--alpha-star",
                              "0.2", "--json"], capsys)
    assert code == 0 and stdout == expected
    assert json.loads(stdout)["c_beta"] == 5.0
    conf.write_text(twice)
    code, stdout, err = _run(["thresholds", "--model", "flat", "--p", "1000",
                              "--k", "10", "--config", name], capsys)
    assert (code, stdout) == (2, "")
    assert err == "phaselim: config sets c_beta twice\n"


def test_manifest_never_overwrites_an_output(tmp_path, capsys, monkeypatch):
    # --manifest r.json beside --out r.json exited 0 with the manifest in
    # r.json, whose replay still printed "outputs identical"; an output
    # the flags name is refused before any work, however it is spelled
    monkeypatch.chdir(tmp_path)
    thresholds = ["thresholds", "--model", "flat", "--p", "1000", "--k",
                  "10", "--out", "r.json"]
    simulate = ["simulate", "--p", "6", "--k", "2", "--trials", "10",
                "--n-grid", "2"]
    for argv, manifest, output in (
            (thresholds, "r.json", "r.json"),
            (thresholds, "./r.json", "r.json"),
            (thresholds, str(tmp_path / "r.json"), "r.json"),
            (simulate, "error_curve.csv", "error_curve.csv"),
            (["figure", "--out-dir", "figs"], "figs", "figs")):
        code, stdout, err = _run(argv + ["--manifest", manifest], capsys)
        assert (code, stdout) == (2, ""), argv
        assert err == (f"phaselim: manifest {manifest!r} would overwrite "
                       f"the output {output!r}\n"), argv
    assert list(tmp_path.iterdir()) == []
    # a CSV under figure --out-dir is refused before any work too, with
    # every data output left as it was written
    figure = ["figure", "--snr-step", "10", "--out-dir", "figs"]
    assert _run(figure, capsys)[0] == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "figs").iterdir()}
    csv = os.path.join("figs", "gaussian_thresholds.csv")
    code, stdout, err = _run(figure + ["--manifest", csv], capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"phaselim: manifest {csv!r} would overwrite the output "
                   f"{csv!r}\n")
    after = {p.name: p.read_bytes() for p in (tmp_path / "figs").iterdir()}
    assert after == before


@pytest.mark.parametrize("argv, config, role, path", [
    (["thresholds", "--manifest", "c.conf"], "c.conf", "manifest", "c.conf"),
    (["thresholds", "--out", "./d.conf"], "d.conf", "output", "./d.conf"),
    (["thresholds"], "thresholds_manifest.json", "manifest",
     "thresholds_manifest.json"),
    (["figure", "--out-dir", "figs"], "figs/flat_thresholds.csv", "output",
     os.path.join("figs", "flat_thresholds.csv"))],
    ids=["manifest", "out", "default-manifest", "out-dir-csv"])
def test_run_never_overwrites_its_config(tmp_path, capsys, monkeypatch,
                                         argv, config, role, path):
    # the run exited 0 with its manifest or a data output written over the
    # --config file it read; now any path the run writes that resolves to
    # the config is refused before any work
    monkeypatch.chdir(tmp_path)
    (tmp_path / "figs").mkdir()
    text = "model = flat\np = 1000\nk = 10\nsnr_step = 10\n"
    (tmp_path / config).write_text(text)
    code, stdout, err = _run(argv + ["--config", config], capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"phaselim: {role} {path!r} would overwrite the config "
                   f"{config!r}\n")
    assert (tmp_path / config).read_text() == text
    (tmp_path / config).unlink()
    assert sorted(os.listdir(tmp_path)) == ["figs"]
    assert os.listdir(tmp_path / "figs") == []


def test_bad_n_grid_range_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "c.conf"
    conf.write_text("n_grid = 1:2:3:4\n")
    code, stdout, err = _run(["simulate", "--p", "6", "--k", "2",
                              "--config", str(conf)], capsys)
    assert (code, stdout) == (2, "")
    assert err == ("phaselim: bad config value for n_grid: bad range "
                   "'1:2:3:4', want lo:hi or lo:hi:step\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--p", "6", "--k", "2", "--n-grid", "1:2:3:4"])
    assert exc.value.code == 2
    assert "argument --n-grid: invalid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [conf]


def test_verify_non_finite_estimate_is_numeric_failure(tmp_path, capsys,
                                                      monkeypatch):
    # the reports are still printed and written, as strict JSON
    monkeypatch.chdir(tmp_path)
    report = VerificationReport(check="probe", params={}, estimate=math.nan,
                                se=0.0, lower=None, upper=None, trials=1,
                                verdict="fail")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [report, report])
    code, stdout, err = _run(["verify", "--suite", "logconcavity",
                              "--out", "r.jsonl"], capsys)
    assert code == 4
    assert err == "numeric failure: 2 non-finite estimates\n"
    assert stdout == 2 * (report.to_json_line() + "\n")
    assert (tmp_path / "r.jsonl").read_text() == stdout
    assert json.loads((tmp_path / "r.jsonl.manifest.json").read_text())[
        "outputs"]


def test_replay_unknown_command_and_unexpected_output(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"command": "plot", "params": {},
                                 "outputs": {}}))
    code, stdout, err = _run(["replay", str(bogus)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "manifest names unknown command 'plot'\n"
    # a figure manifest that records only the flat curve: the Gaussian CSV
    # the replay writes is unexpected
    code, _, _ = _run(["figure", "--snr-step", "10", "--out-dir", "figs"],
                      capsys)
    assert code == 0
    mpath = tmp_path / "figs" / "manifest.json"
    doc = json.loads(mpath.read_text())
    del doc["outputs"]["figs/gaussian_thresholds.csv"]
    mpath.write_text(json.dumps(doc))
    scratch = tmp_path / "re"
    code, stdout, _ = _run(["replay", str(mpath), "--scratch", str(scratch)],
                           capsys)
    assert code == 1
    assert stdout.splitlines() == [
        "match    figs/flat_thresholds.csv",
        f"UNEXPECTED {scratch / 'gaussian_thresholds.csv'}",
        "replay of 'figure': digest mismatch"]


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PHASELIM_SEED", "77")
    code, _, _ = _run(["verify", "--suite", "logconcavity",
                       "--manifest", "m.json"], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["master_seed"] == 77
    # explicit flag still wins
    code, _, _ = _run(["verify", "--suite", "logconcavity", "--seed", "5",
                       "--manifest", "m2.json"], capsys)
    assert json.loads((tmp_path / "m2.json").read_text())["master_seed"] == 5


def test_manifest_excludes_itself(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(["simulate", "--p", "6", "--k", "2", "--n-grid", "2",
                       "--trials", "10", "--out", "e.csv",
                       "--manifest", "em.json"], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "em.json").read_text())
    assert list(doc["outputs"]) == ["e.csv"]
    assert doc["version"]
    assert doc["started"] <= doc["finished"]


def test_config_does_not_leak_between_calls(tmp_path, capsys, monkeypatch):
    # one process, one parser: each run sees only its own config
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHASELIM_SEED", raising=False)
    conf_a = tmp_path / "a.conf"
    conf_a.write_text("model = flat\np = 80\nk = 4\nalpha_star = 0.2\n"
                      "seed = 5\nout = a.json\n")
    # (a config named b.json would be its own --out, which is refused)
    conf_b = tmp_path / "b_conf.json"
    conf_b.write_text(json.dumps({"model": "gaussian", "p": 90, "k": 3,
                                  "sigma": 0.5, "threads": 2,
                                  "out": "b.json"}))
    common = {"c_beta": 1.0, "json": False, "mode": "asymptotic"}
    # thresholds has no seed or thread cap: the configs' seed and threads
    # keys are ignored
    expected = {
        "a.json": dict(common, model="flat", p=80, k=4, alpha_star=0.2,
                       sigma=1.0, out="a.json"),
        "b.json": dict(common, model="gaussian", p=90, k=3, alpha_star=0.1,
                       sigma=0.5, out="b.json"),
        "c.json": dict(common, model="flat", p=70, k=2, alpha_star=0.1,
                       sigma=1.0, out="c.json"),
    }
    for argv in (["--config", str(conf_a)], ["--config", str(conf_b)],
                 ["--model", "flat", "--p", "70", "--k", "2",
                  "--out", "c.json"]):
        assert main(["thresholds"] + argv) == 0
    capsys.readouterr()
    for out, params in expected.items():
        doc = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert doc["params"] == params
    # without a config, --model is missing again: nothing was remembered
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--p", "80", "--k", "4"])
    assert exc.value.code == 2
    assert "required: --model" in capsys.readouterr().err


# Manifest params of one call per subcommand, with and without --config,
# recorded from the CLI that rebuilt its parser on every call; thresholds
# and figure have since lost their unused seed and threads, figure its
# sigma, and both their grid_step, which fig.json still sets and the
# command ignores.
_CONFIGS = {
    "th.conf": "model = gaussian\np = 200\nk = 5\nc_beta = 2.5\nseed = 9\n"
               "json = true\nsnr_min = 3\nbogus = 1\n",
    "fig.json": json.dumps({"snr_min": -2, "snr_max": 2, "sigma": 0.5,
                            "grid_step": 0.01, "out_dir": "f2", "threads": 2,
                            "suite": "sandwich"}),
    "ver.conf": "suite = negative-control\ntrials = 50\nseed = 4\n"
                "manifest = vm.json\n",
    "sim.json": json.dumps({"p": 6, "k": 2, "n_grid": [2, 4], "trials": 10,
                            "model": "gaussian", "mc_samples": 16,
                            "out": "s2.csv", "json": True}),
}
_PINNED_PARAMS = [
    (["thresholds", "--model", "flat", "--p", "100", "--k", "4",
      "--out", "th.json"], 0, "th.json.manifest.json",
     {"alpha_star": 0.1, "c_beta": 1.0, "json": False, "k": 4,
      "mode": "asymptotic", "model": "flat", "out": "th.json", "p": 100,
      "sigma": 1.0}),
    (["thresholds", "--config", "th.conf", "--alpha-star", "0.2"], 0,
     "thresholds_manifest.json",
     {"alpha_star": 0.2, "c_beta": 2.5, "json": True, "k": 5,
      "mode": "asymptotic", "model": "gaussian", "out": None, "p": 200,
      "sigma": 1.0}),
    (["figure", "--snr-min", "0", "--snr-max", "4", "--snr-step", "2",
      "--out-dir", "figs"], 0, "figs/manifest.json",
     {"alpha_star": 0.1, "out_dir": "figs", "snr_max": 4.0, "snr_min": 0.0,
      "snr_step": 2.0}),
    (["figure", "--config", "fig.json", "--snr-step", "1"], 0,
     "f2/manifest.json",
     {"alpha_star": 0.1, "out_dir": "f2", "snr_max": 2.0, "snr_min": -2.0,
      "snr_step": 1.0}),
    (["verify", "--suite", "logconcavity", "--out", "lc.jsonl"], 0,
     "lc.jsonl.manifest.json",
     {"out": "lc.jsonl", "seed": 0, "suite": "logconcavity", "threads": 1,
      "trials": 100000}),
    (["verify", "--config", "ver.conf", "--threads", "2"], 1, "vm.json",
     {"out": None, "seed": 4, "suite": "negative-control", "threads": 2,
      "trials": 50}),
    (["simulate", "--p", "6", "--k", "2", "--n-grid", "2,4", "--trials",
      "10", "--out", "s.csv"], 0, "s.csv.manifest.json",
     {"alpha_star": 0.5, "c_beta": 1.0, "decoder": "auto", "k": 2,
      "mc_samples": 256, "model": "flat", "n_grid": [2, 4], "out": "s.csv",
      "p": 6, "seed": 0, "sigma": 1.0, "threads": 1, "trials": 10}),
    (["simulate", "--config", "sim.json", "--seed", "3"], 0,
     "s2.csv.manifest.json",
     {"alpha_star": 0.5, "c_beta": 1.0, "decoder": "auto", "k": 2,
      "mc_samples": 16, "model": "gaussian", "n_grid": [2, 4],
      "out": "s2.csv", "p": 6, "seed": 3, "sigma": 1.0, "threads": 1,
      "trials": 10}),
]


def test_manifest_params_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHASELIM_SEED", raising=False)
    for name, text in _CONFIGS.items():
        (tmp_path / name).write_text(text)
    for argv, code, manifest, params in _PINNED_PARAMS:
        assert main(argv) == code, argv
        doc = json.loads((tmp_path / manifest).read_text())
        assert doc["params"] == params, argv
        assert doc["master_seed"] == params.get("seed"), argv
    capsys.readouterr()


def test_deterministic_commands_take_no_seed(tmp_path, capsys, monkeypatch):
    # thresholds and figure draw nothing: they refuse --seed and --threads,
    # never read PHASELIM_SEED and record master_seed as null
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PHASELIM_SEED", "abc")
    for argv, manifest in (
            (["thresholds", "--model", "gaussian", "--p", "100", "--k", "5"],
             "thresholds_manifest.json"),
            (["figure", "--snr-step", "10", "--out-dir", "figs"],
             "figs/manifest.json")):
        code, _, _ = _run(argv, capsys)
        assert code == 0, argv
        doc = json.loads((tmp_path / manifest).read_text())
        assert doc["master_seed"] is None, argv
        assert "seed" not in doc["params"] and "threads" not in doc["params"]
        for flag in (["--seed", "1"], ["--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2, argv + flag
            assert "unrecognized arguments" in capsys.readouterr().err
    # a command that draws still reads it
    code, stdout, err = _run(["verify", "--suite", "logconcavity"], capsys)
    assert (code, stdout) == (2, "") and "PHASELIM_SEED" in err


def test_figure_takes_no_noise_scale(tmp_path, capsys, monkeypatch):
    # the curves depend on the SNR alone, so a noise scale changed them by
    # rounding only
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--sigma", "1", "--out-dir", "figs"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sigma 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_thresholds_and_figure_take_no_grid_step(tmp_path, capsys,
                                                 monkeypatch):
    # the alpha search zooms to a 1e-12 bracket from any starting grid, so
    # the grid step moved the counts by rounding only: the flag is refused
    # before any work, and a config's grid_step key is ignored, as any key
    # a subcommand lacks
    monkeypatch.chdir(tmp_path)
    thresholds = ["thresholds", "--model", "gaussian", "--p", "1000", "--k",
                  "10", "--json"]
    figure = ["figure", "--snr-step", "10", "--out-dir", "figs"]
    for argv in (thresholds, figure):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid-step", "1e-3"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --grid-step 1e-3"
                in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "c.json").write_text(json.dumps({"grid_step": 0.5}))
    (tmp_path / "c.conf").write_text("grid_step = nan\n")
    for argv, manifest in ((thresholds, "thresholds_manifest.json"),
                           (figure, "figs/manifest.json")):
        outputs = []
        for config in ([], ["--config", "c.json"], ["--config", "c.conf"]):
            code, stdout, _ = _run(argv + config, capsys)
            assert code == 0, argv + config
            doc = json.loads((tmp_path / manifest).read_text())
            assert "grid_step" not in doc["params"]
            outputs.append((stdout, doc["outputs"]))
        assert outputs[0] == outputs[1] == outputs[2], argv


def test_integer_options_refuse_non_integer_config(tmp_path, capsys,
                                                   monkeypatch):
    # a JSON float was truncated and a bool read as 0 or 1: threads 2.7 and
    # trials 20.9 ran at 2 threads and 20 trials with exit 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHASELIM_SEED", raising=False)
    for argv, doc, key in (
            (["verify"], {"suite": "logconcavity", "threads": 2.7}, "threads"),
            (["verify"], {"suite": "logconcavity", "trials": 20.9}, "trials"),
            (["verify"], {"suite": "logconcavity", "seed": 1.0}, "seed"),
            (["verify"], {"suite": "logconcavity", "threads": True},
             "threads"),
            (["thresholds"], {"model": "flat", "p": True, "k": 2}, "p"),
            (["thresholds"], {"model": "flat", "p": 100, "k": 4.0}, "k"),
            (["simulate"], {"p": 6, "k": 2, "n_grid": [2, 4.5]}, "n_grid"),
            (["simulate"], {"p": 6, "k": 2, "n_grid": [2, False]}, "n_grid"),
            (["simulate"], {"p": 6, "k": 2, "n_grid": "2,4.5"}, "n_grid"),
            (["simulate"], {"p": 6, "k": 2, "mc_samples": 16.5},
             "mc_samples")):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code, stdout, err = _run(argv + ["--config", "c.json"], capsys)
        assert (code, stdout) == (2, ""), doc
        assert f"bad config value for {key}: " in err, doc
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    # a JSON int and the text of one are both accepted
    (tmp_path / "c.json").write_text(json.dumps(
        {"suite": "logconcavity", "threads": 2, "trials": 3, "seed": 4}))
    (tmp_path / "c.conf").write_text("suite = logconcavity\nthreads = 2\n"
                                     "trials = 3\nseed = 4\n")
    for conf in ("c.json", "c.conf"):
        assert main(["verify", "--config", conf, "--manifest", "m.json"]) == 0
        params = json.loads((tmp_path / "m.json").read_text())["params"]
        assert (params["threads"], params["trials"], params["seed"]) == (2, 3, 4)
    capsys.readouterr()


def test_replay_refuses_bad_thread_override(tmp_path, capsys, monkeypatch):
    # the override was reported as a bad manifest, after the manifest was
    # read; argv parsing now refuses it, so the missing manifest is not
    # reached (that would exit 3)
    monkeypatch.chdir(tmp_path)
    for threads in ("0", "-2", "1.5", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "missing.json", "--threads", threads])
        assert exc.value.code == 2, threads
        err = capsys.readouterr().err
        assert "argument --threads" in err, threads
        assert "bad manifest" not in err, threads


class _ReadRecorder(dict):
    """A params mapping that records which keys a runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


_RUNNER_ARGV = {
    "thresholds": ["--model", "flat", "--p", "100", "--k", "4",
                   "--out", "th.json"],
    "figure": ["--snr-step", "10", "--out-dir", "figs"],
    "verify": ["--suite", "logconcavity", "--out", "lc.jsonl"],
    "simulate": ["--p", "6", "--k", "2", "--n-grid", "2", "--trials", "2",
                 "--out", "s.csv"],
}


def test_runners_read_every_declared_option(tmp_path, monkeypatch):
    # an option that its runner never reads is a flag that does nothing,
    # as --seed and --threads were for thresholds and figure
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHASELIM_SEED", raising=False)
    assert set(_RUNNER_ARGV) == set(cli._COMMANDS)
    for command, argv in _RUNNER_ARGV.items():
        params = cli._resolve(cli._parser()[0].parse_args([command] + argv),
                              {})
        params.pop("manifest")      # the command loop's, not the runner's
        recorder = _ReadRecorder(params)
        with contextlib.redirect_stdout(io.StringIO()):
            cli._COMMANDS[command].run(recorder)
        unread = set(cli._COMMANDS[command].options) - recorder.read
        assert not unread, (command, sorted(unread))


# thresholds and figure manifests written while both commands still took
# --seed and --threads, figure --sigma, and both --grid-step (the figure's
# recorded at 0.01): the replay ignores those keys, and the figure's
# outputs came out the same on the 1e-3 grid
_SEEDED_MANIFESTS = {
    "thresholds": ("th.json.manifest.json", {
        "command": "thresholds",
        "master_seed": 9,
        "outputs": {"th.json": "09746a41ed7ec7e6b64be4a13c7e72c6"
                               "1b6e32f1e4de498cd9c22c4ef47f7ec3"},
        "params": {"alpha_star": 0.1, "c_beta": 2.5, "grid_step": 0.001,
                   "json": True, "k": 5, "mode": "asymptotic",
                   "model": "gaussian", "out": "th.json", "p": 200,
                   "seed": 9, "sigma": 1.0, "threads": 2},
        "version": "0.1.0",
    }),
    "figure": ("manifest.json", {
        "command": "figure",
        "master_seed": 3,
        "outputs": {
            "figs/flat_thresholds.csv": "33206a289a4772ff5b61862dc9fecb80"
                                        "bf7c6cef9a5939511de3c255ce2048e6",
            "figs/gaussian_thresholds.csv": "74befebaa81d7e702a9b4f496e06e77f"
                                            "9ba908a11e9de05b00cf2facf71a85f5"},
        "params": {"alpha_star": 0.1, "grid_step": 0.01, "out_dir": "figs",
                   "seed": 3, "sigma": 1.0, "snr_max": 2.0, "snr_min": -2.0,
                   "snr_step": 2.0, "threads": 1},
        "version": "0.1.0",
    }),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(_SEEDED_MANIFESTS))
def test_replay_of_seeded_deterministic_manifest(tmp_path, capsys, command,
                                                 threads):
    name, doc = _SEEDED_MANIFESTS[command]
    mpath = tmp_path / name
    mpath.write_text(json.dumps(doc))
    code, stdout, _ = _run(["replay", str(mpath), "--threads", threads,
                            "--scratch", str(tmp_path / "re")], capsys)
    assert code == 0, stdout
    assert stdout.count("match   ") == len(doc["outputs"])
    assert "outputs identical" in stdout


# Fuzz argv: every numeric flag takes an ordinary value, then up to two
# flags take an edge value (zero, negative, non-finite or extreme).
_EDGES = ["0", "-1", "-10", "nan", "inf", "-inf", "1e-300", "1e-155",
          "1e300"]


def _flags(ordinary):
    edits = st.lists(st.tuples(st.sampled_from(sorted(ordinary)),
                               st.sampled_from(_EDGES)), max_size=2)
    base = st.fixed_dictionaries({name: st.sampled_from(values)
                                  for name, values in ordinary.items()})
    return st.tuples(base, edits).map(
        lambda t: [f"--{name.replace('_', '-')}={value}"
                   for name, value in {**t[0], **dict(t[1])}.items()])


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def _fuzz_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(["gaussian", "flat"]),
       mode=st.sampled_from(["floor", "asymptotic"]),
       flags=_flags({"p": ["100", "1000"], "k": ["4", "10"],
                     "c_beta": ["0.3", "2", "40"], "sigma": ["0.3", "2"],
                     "alpha_star": ["0.1", "0.5"]}))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzz_thresholds_argv(model, mode, flags):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = _fuzz_run(
            ["thresholds", f"--model={model}", f"--mode={mode}", "--json",
             f"--manifest={os.path.join(tmp, 'm.json')}"] + flags)
    if code == 0:
        rec = json.loads(stdout, parse_constant=_reject_constant)
        assert 0.0 < rec["n_con"] <= rec["n_ach"]
    else:
        assert stdout == ""


@settings(max_examples=100, deadline=None)
@given(flags=_flags({"snr_min": ["-10", "0"], "snr_max": ["10", "40"],
                     "snr_step": ["2", "5"], "alpha_star": ["0.1", "0.5"]}))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzz_figure_argv(flags):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "figs")
        code, _ = _fuzz_run(["figure", f"--out-dir={out_dir}"] + flags)
        # a refused run leaves nothing behind
        assert os.path.isdir(out_dir) == (code == 0), flags


def _strict_lines(path):
    return [json.loads(line, parse_constant=_reject_constant)
            for line in open(path, encoding="utf-8").read().splitlines()]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["gaussian", "flat"]),
       decoder=st.sampled_from(["auto", "flat-ml", "mc-marginal"]),
       flags=_flags({"p": ["4", "8"], "k": ["1", "2"],
                     "c_beta": ["0.5", "4"], "sigma": ["0.1", "1"],
                     "alpha_star": ["0.5", "1"], "trials": ["1", "5"],
                     "mc_samples": ["1", "16"], "n_grid": ["0,3", "4"],
                     "threads": ["1", "2"]}))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzz_simulate_argv(model, decoder, flags):
    # integer flags refuse the float edges, so every run stays at p <= 8,
    # trials <= 5 and mc_samples <= 16
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "c.csv")
        argv = ["simulate", f"--model={model}", f"--decoder={decoder}",
                f"--out={out}"] + flags
        code, _ = _fuzz_run(argv)
        assert os.path.exists(out) == (code == 0), argv
        # every edge is below 1 or not an int, and is refused as usage
        if not {"--threads=1", "--threads=2"} & set(flags):
            assert code == 2, argv
        if code == 0:
            with open(out + ".manifest.json", encoding="utf-8") as fh:
                json.load(fh, parse_constant=_reject_constant)


@settings(max_examples=40, deadline=None)
@given(suite=st.sampled_from(["sandwich", "concentration", "gconv",
                              "logconcavity", "negative-control"]),
       trials=st.sampled_from(["1", "2", "3", "10", "50", "0", "-1", "nan"]),
       seed=st.integers(0, 3),
       threads=st.sampled_from(["1", "2", "0", "-3", "nan", "1.5"]))
def test_fuzz_verify_argv(suite, trials, seed, threads):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.jsonl")
        code, _ = _fuzz_run(["verify", f"--suite={suite}",
                             f"--trials={trials}", f"--seed={seed}",
                             f"--threads={threads}", f"--out={out}"])
        assert os.path.exists(out) == (code != 2), (suite, trials, threads)
        if threads not in ("1", "2"):
            assert code == 2, (suite, trials, threads)
        if os.path.exists(out):
            for rec in _strict_lines(out):
                rep = VerificationReport.from_json_line(json.dumps(rec))
                assert rep.recompute_verdict() == rec["verdict"]
