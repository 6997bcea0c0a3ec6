"""Command line surface: flags, exit codes, manifests, replay."""
import hashlib
import json
import os

import numpy as np
import pytest

from phaselim.cli import main


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
        flat + ["--grid-step", "0"],
        flat + ["--grid-step", "-0.01"],
        flat + ["--grid-step", "nan"],
        ["figure", "--grid-step", "0", "--out-dir", "figs"],
        ["simulate", "--p", "6", "--k", "2", "--c-beta", "nan"],
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
                       "--snr-step", "2", "--out-dir", "figs",
                       "--grid-step", "5e-3"], capsys)
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


def test_simulate_guard_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(["simulate", "--p", "30", "--k", "5"], capsys)
    assert code == 2
    assert "10000" in err


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
