"""Workload op lists and the output checks that feed ``fail_ratio``.

An op is one ``phaselim`` command line. Each workload is a fixed list of
ops built from the benchmark seed; the program only ever sees the argv.
Every op names the exit code it must return and a check that reads its
outputs (stdout and the files it wrote) and lists what is wrong with them.
An op fails when its exit code is wrong or its check lists anything.

This module imports nothing from numpy or phaselim, so the caller can fix
thread counts before either is loaded.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("limits-sweep", "verify-battery", "decoder-sim")

# End-to-end command metrics, per workload, in op-list order. An op whose
# metric is None (the gconv suite) counts toward wall_s only.
COMMAND_METRICS = {
    "limits-sweep": ("figure_s", "thresholds_s"),
    "verify-battery": ("verify_sandwich_s", "verify_sandwich_2t_s",
                       "verify_concentration_s", "verify_logconcavity_s"),
    "decoder-sim": ("simulate_flat_ml_s", "simulate_flat_ml_wide_s",
                    "simulate_mc_marginal_s"),
}

# Trial budgets. The sandwich budget is the smallest round number whose
# worst standard error (about 0.0078) stays under the suite's 0.01
# resolution, so every verdict is pass rather than inconclusive; the
# concentration budget is criterion 06's (1e6 centering samples).
SANDWICH_TRIALS = 20000
CONCENTRATION_TRIALS = 100000

THRESHOLD_PAIRS = 14
ALPHA_STARS = (0.1, 0.2, 0.3, 0.5)
# (model, p, k, mode); mode None leaves the Gaussian model on its default.
THRESHOLD_SHAPES = (
    ("gaussian", 1000, 10, None),
    ("flat", 1000, 10, "floor"),
    ("flat", 1000, 10, "asymptotic"),
    ("flat", 100000, 1000, "floor"),
)
FIGURE_SNR_DB = tuple(range(-10, 41))

Check = Callable[[str], "list[str]"]


@dataclass(frozen=True)
class Op:
    metric: str | None
    argv: tuple[str, ...]
    expect_exit: int
    check: Check
    outputs: tuple[str, ...] = ()  # files the op writes; removed before it runs


@dataclass(frozen=True)
class Outcome:
    code: int | None
    stdout: str
    seconds: float
    error: str = ""


def execute(cli, op: Op) -> Outcome:
    """Run one op through ``cli.main`` and time it.

    ``cli.main`` is looked up on every call so that a traced run's wrapper
    is the one that runs. A crash is recorded, not raised: it counts as a
    failed op. The op's output files are removed first, so a check never
    passes on a file left by an earlier rep.
    """
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out = io.StringIO()
    error = ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing op is a failed op, not a dead benchmark
            code = None
            error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    return Outcome(code=code, stdout=out.getvalue(), seconds=seconds, error=error)


def judge(op: Op, outcome: Outcome) -> list[str]:
    """Everything wrong with one op's result; empty means it passed."""
    if outcome.code != op.expect_exit:
        msg = f"exit {outcome.code}, expected {op.expect_exit}"
        return [msg + (": " + outcome.error if outcome.error else "")]
    try:
        return op.check(outcome.stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ------------------------------------------------------------ thresholds

def _check_thresholds(alpha_star: float) -> Check:
    def check(stdout: str) -> list[str]:
        rec = json.loads(stdout)
        n_ach, n_con = float(rec["n_ach"]), float(rec["n_con"])
        problems = []
        if not (math.isfinite(n_ach) and math.isfinite(n_con)
                and n_ach > 0 and n_con > 0):
            problems.append(f"counts not finite and positive: {n_ach}, {n_con}")
        if not n_con <= n_ach:
            problems.append(f"n_con {n_con} > n_ach {n_ach}")
        for key in ("alpha_ach", "alpha_con"):
            a = float(rec[key])
            if not alpha_star <= a <= 1.0:
                problems.append(f"{key} {a} outside [{alpha_star}, 1]")
        return problems
    return check


def threshold_op(model: str, p: int, k: int, mode: str | None,
                 c_beta: float, alpha_star: float, work: str) -> Op:
    argv = ["thresholds", "--model", model, "--p", str(p), "--k", str(k),
            "--c-beta", repr(c_beta), "--alpha-star", repr(alpha_star),
            "--json", "--manifest", os.path.join(work, "thresholds.manifest.json")]
    if mode is not None:
        argv += ["--mode", mode]
    return Op("thresholds_s", tuple(argv), 0, _check_thresholds(alpha_star))


def threshold_queries(seed: int) -> list[tuple[float, float]]:
    """The seeded ``(c_beta, alpha_star)`` pairs.

    c_beta is log-uniform on ``[1e-2, 1e6]``, drawn once in each of
    ``THRESHOLD_PAIRS`` equal slices of the log range, and each alpha_star
    is used equally often (up to the remainder) in seeded order. Only
    some c_beta ranges trigger the costly golden refinement of the
    Gaussian model, so plain random draws would make the list's cost, and
    ``thresholds_s``, depend on the seed.
    """
    rnd = random.Random(seed)
    width = 8.0 / THRESHOLD_PAIRS
    alphas = [ALPHA_STARS[i % len(ALPHA_STARS)] for i in range(THRESHOLD_PAIRS)]
    rnd.shuffle(alphas)
    return [(10.0 ** (-2.0 + width * (i + rnd.random())), alpha)
            for i, alpha in enumerate(alphas)]


# ---------------------------------------------------------------- figure

def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _check_figure(out_dir: str) -> Check:
    def check(_stdout: str) -> list[str]:
        problems = []
        for kind in ("flat", "gaussian"):
            _, rows = _read_csv(os.path.join(out_dir, f"{kind}_thresholds.csv"))
            if [r[0] for r in rows] != [float(d) for d in FIGURE_SNR_DB]:
                problems.append(f"{kind}: SNR column is not the default grid")
                continue
            ach = [r[1] for r in rows]
            con = [r[2] for r in rows]
            if not all(math.isfinite(v) for v in ach + con):
                problems.append(f"{kind}: non-finite threshold")
            if not all(b < a for a, b in zip(ach, ach[1:])):
                problems.append(f"{kind}: achievability not strictly decreasing")
            if not all(b < a for a, b in zip(con, con[1:])):
                problems.append(f"{kind}: converse not strictly decreasing")
            if not all(c <= a for a, c in zip(ach, con)):
                problems.append(f"{kind}: converse above achievability")
        return problems
    return check


def figure_op(work: str) -> Op:
    out_dir = os.path.join(work, "figure")
    return Op("figure_s", ("figure", "--out-dir", out_dir), 0,
              _check_figure(out_dir),
              tuple(os.path.join(out_dir, f"{kind}_thresholds.csv")
                    for kind in ("flat", "gaussian")))


# ---------------------------------------------------------------- verify

def _check_reports(path: str, count: int, verdict: str,
                   same_bytes_as: str | None = None) -> Check:
    def check(_stdout: str) -> list[str]:
        with open(path, "rb") as fh:
            data = fh.read()
        reports = [json.loads(ln) for ln in data.decode("utf-8").splitlines() if ln]
        problems = []
        if len(reports) != count:
            problems.append(f"{len(reports)} reports, expected {count}")
        wrong = [r["check"] for r in reports if r["verdict"] != verdict]
        if wrong:
            problems.append(f"{len(wrong)} verdicts not {verdict!r}")
        if same_bytes_as is not None:
            with open(same_bytes_as, "rb") as fh:
                if fh.read() != data:
                    problems.append(f"report bytes differ from {same_bytes_as}")
        return problems
    return check


def verify_op(metric: str | None, suite: str, seed: int, work: str, count: int,
              extra: tuple[str, ...] = (), name: str | None = None,
              same_bytes_as: str | None = None) -> Op:
    out = os.path.join(work, f"{name or suite}.jsonl")
    argv = ("verify", "--suite", suite, "--seed", str(seed), "--out", out) + extra
    fails = suite == "negative-control"
    return Op(metric, argv, 1 if fails else 0,
              _check_reports(out, count, "fail" if fails else "pass",
                             same_bytes_as), (out,))


# -------------------------------------------------------------- simulate

def _pava_nonincreasing(values: list[float]) -> list[float]:
    """Least-squares nonincreasing fit, kept independent of the program's."""
    blocks: list[list[float]] = []  # [mean, size]
    for v in values:
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            m2, s2 = blocks.pop()
            m1, s1 = blocks.pop()
            blocks.append([(m1 * s1 + m2 * s2) / (s1 + s2), s1 + s2])
    return [m for m, s in blocks for _ in range(s)]


def _check_curve(path: str, n_grid: tuple[int, ...], trials: int,
                 criterion_09: bool) -> Check:
    def check(_stdout: str) -> list[str]:
        header, rows = _read_csv(path)
        if header != ["n", "pe", "se", "trials"]:
            return [f"bad header {header}"]
        problems = []
        if [int(r[0]) for r in rows] != list(n_grid):
            problems.append("n column is not the requested grid")
        for n, pe, se, t in rows:
            if int(t) != trials or not 0.0 <= pe <= 1.0:
                problems.append(f"n={int(n)}: pe {pe} or trials {t} out of range")
            elif not math.isclose(se, math.sqrt(pe * (1 - pe) / trials),
                                  rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"n={int(n)}: se {se} is not the binomial se")
        if criterion_09 and not problems:
            pe = [r[1] for r in rows]
            pe40 = pe[list(n_grid).index(40)]
            if not pe40 <= 0.05:
                problems.append(f"pe(40) = {pe40} > 0.05")
            fit = _pava_nonincreasing(pe)
            residual = max(abs(a - b) for a, b in zip(pe, fit))
            pooled = math.sqrt(sum(r[2] ** 2 for r in rows) / len(rows))
            if not residual <= max(3.0 * pooled, 1e-12):
                problems.append(f"isotonic residual {residual} > 3 * {pooled}")
        return problems
    return check


def simulate_op(metric: str | None, name: str, flags: tuple[str, ...],
                n_grid: tuple[int, ...], trials: int, seed: int, work: str,
                criterion_09: bool = False) -> Op:
    out = os.path.join(work, f"{name}.csv")
    argv = (("simulate",) + flags
            + ("--n-grid", ",".join(map(str, n_grid)), "--trials", str(trials),
               "--threads", "1", "--seed", str(seed), "--out", out))
    return Op(metric, argv, 0, _check_curve(out, n_grid, trials, criterion_09),
              (out,))


# ------------------------------------------------------------- workloads

def build(workload: str, seed: int, work: str) -> list[Op]:
    """The workload's op list for ``seed``, writing under ``work``."""
    if workload == "limits-sweep":
        ops = [figure_op(work)]
        for c_beta, alpha_star in threshold_queries(seed):
            ops += [threshold_op(model, p, k, mode, c_beta, alpha_star, work)
                    for model, p, k, mode in THRESHOLD_SHAPES]
        return ops
    if workload == "verify-battery":
        one_thread = os.path.join(work, "sandwich_1t.jsonl")
        budget = ("--trials", str(SANDWICH_TRIALS))
        return [
            verify_op("verify_sandwich_s", "sandwich", seed, work, 12,
                      budget + ("--threads", "1"), name="sandwich_1t"),
            verify_op("verify_sandwich_2t_s", "sandwich", seed, work, 12,
                      budget + ("--threads", "2"), name="sandwich_2t",
                      same_bytes_as=one_thread),
            verify_op("verify_concentration_s", "concentration", seed, work, 8,
                      ("--trials", str(CONCENTRATION_TRIALS))),
            verify_op("verify_logconcavity_s", "logconcavity", seed, work, 6),
            verify_op("verify_logconcavity_s", "negative-control", seed, work, 1),
            verify_op(None, "gconv", seed, work, 20, ("--threads", "1")),
        ]
    if workload == "decoder-sim":
        return [
            simulate_op("simulate_flat_ml_s", "criterion_09",
                        ("--model", "flat", "--p", "10", "--k", "2",
                         "--c-beta", "1", "--sigma", "1e-3",
                         "--alpha-star", "0.5", "--decoder", "flat-ml"),
                        tuple(range(5, 51, 5)), 400, seed, work,
                        criterion_09=True),
            simulate_op("simulate_flat_ml_wide_s", "flat_ml_wide",
                        ("--model", "flat", "--p", "40", "--k", "3",
                         "--c-beta", "1", "--sigma", "1",
                         "--alpha-star", "0.34", "--decoder", "flat-ml"),
                        (10, 20, 40), 60, seed, work),
            simulate_op("simulate_mc_marginal_s", "mc_marginal",
                        ("--model", "gaussian", "--p", "12", "--k", "2",
                         "--c-beta", "4", "--sigma", "0.1",
                         "--alpha-star", "0.5", "--decoder", "mc-marginal"),
                        (10, 20, 40), 100, seed, work),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int, work: str) -> Op:
    """One cheap op on the workload's main path, run before any timing."""
    if workload == "limits-sweep":
        return threshold_op("gaussian", 1000, 10, None, 1.0, 0.1, work)
    if workload == "verify-battery":
        return verify_op(None, "logconcavity", seed, work, 6, name="warmup")
    if workload == "decoder-sim":
        return simulate_op(None, "warmup",
                           ("--model", "flat", "--p", "8", "--k", "2",
                            "--decoder", "flat-ml"),
                           (4, 8), 20, seed, work)
    raise ValueError(f"unknown workload {workload!r}")
