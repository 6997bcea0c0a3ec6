"""Benchmark of the ``phaselim`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload limits-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workloads are defined in ``ops.py``. One run is one process. It first
measures set-up: seven fresh interpreters each import ``phaselim.cli`` and
run the workload's warm-up op; ``setup_s`` is the median of their wall
times. It then imports the program itself, runs the warm-up op untimed,
and repeats the workload's op list ("a rep") until ``--seconds`` have
passed, always finishing the rep in progress. Every op goes through
``phaselim.cli.main(argv)`` and has its exit code and outputs checked.
Timings are medians over reps: each op's median time, summed over the
ops that a metric covers.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` (the
whole op list) and ``peak_rss_mb``. ``--trace 1`` alternates untraced
and traced reps, at least two traced, and prints the per-layer metrics of
``tracer.py`` (times as medians over traced reps; counts, which must be
identical in every traced rep), the untraced per-command times and the
tracing overhead. Spans go to ``.perfbench_traces/`` in the checkout.

The lines before the last describe the run for a reader, including the
per-command times and ``fail_ratio``; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program runs from ``src/`` of the checkout; without it the benchmark
exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import ops
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")

# One BLAS/OpenMP thread, so the only parallelism is the program's own
# worker pool (verify --threads 2), and a run uses at most 2 threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MIN_TRACED_REPS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
ALL_COMMANDS = tuple(m for w in ops.WORKLOADS for m in ops.COMMAND_METRICS[w])
# per-layer metrics this file adds to tracer.LAYER_METRICS
RUN_LAYER_METRICS = (("trace.overhead_s", "s", "lower"),) + tuple(
    (f"cmd.{name}", "s", "lower") for name in ALL_COMMANDS)


class SetupError(Exception):
    """The benchmark could not start measuring; no result is printed."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=ops.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="DIR",
                    help="(internal) one set-up sample: import and warm up, "
                         "writing under DIR")
    return ap.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "phaselim", "__init__.py")):
        raise SetupError(f"no phaselim sources under {SRC}")
    sys.path.insert(0, SRC)
    import phaselim.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported phaselim from {cli.__file__}, not {SRC}")
    return cli


def _warm_up(cli, workload: str, seed: int, work: str) -> None:
    op = ops.warmup(workload, seed, work)
    problems = ops.judge(op, ops.execute(cli, op))
    if problems:
        raise SetupError(f"warm-up op {' '.join(op.argv)} failed: {problems}")


def _setup_samples(workload: str, seed: int, work: str) -> list[float]:
    """Wall times of fresh interpreters that import and warm up."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", work,
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return samples


def run_rep(cli, op_list):
    """Run every op once; returns ``[(op, outcome, problems)]``."""
    results = []
    for op in op_list:
        outcome = ops.execute(cli, op)
        results.append((op, outcome, ops.judge(op, outcome)))
    return results


def command_times(reps, workload: str) -> dict[str, float]:
    """Each op's median time over ``reps``, summed over the ops of each
    command metric and over the whole op list (``wall_s``).

    Summing per-op medians, rather than taking the median of rep totals,
    discards a slow spell that hits one op in a minority of reps.
    """
    times = dict.fromkeys(ops.COMMAND_METRICS[workload] + ("wall_s",), 0.0)
    for i, (op, _, _) in enumerate(reps[0]):
        seconds = statistics.median(rep[i][1].seconds for rep in reps)
        if op.metric is not None:
            times[op.metric] += seconds
        times["wall_s"] += seconds
    return times


def failures(reps) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for rep in reps:
        for op, _, problems in rep:
            attempted += 1
            if problems:
                failed += 1
                notes.append(f"{' '.join(op.argv[:3])}: {'; '.join(problems)}")
    return attempted, failed, notes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize_layers(per_rep: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced reps: the median of each time, and
    each count, which must be identical in every rep (else it is listed
    as unsteady)."""
    layer, unsteady = {}, []
    for name, unit, _ in tracer.LAYER_METRICS:
        values = [m[name] for m in per_rep]
        if unit.endswith("count"):
            if len(set(values)) != 1:
                unsteady.append(f"{name} differs between traced reps: {values}")
            layer[name] = _metric(values[0], unit)
        else:
            layer[name] = _metric(statistics.median(values), unit)
    return layer, unsteady


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_program()
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup = _setup_samples(workload, seed, os.path.join(work, "probe"))
        _warm_up(cli, workload, seed, work)
        op_list = ops.build(workload, seed, work)
        deadline = time.perf_counter() + seconds
        plain, traced, tracers = [], [], []
        while True:
            if trace and len(traced) < len(plain):
                tr = tracer.Tracer()
                uninstall = tracer.install(tr)
                try:
                    traced.append(run_rep(cli, op_list))
                finally:
                    uninstall()
                tracers.append(tr)
            else:
                plain.append(run_rep(cli, op_list))
            if (time.perf_counter() >= deadline
                    and (not trace or len(traced) >= MIN_TRACED_REPS)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only once no other run is using it

    attempted, failed, notes = failures(plain + traced)
    untraced = command_times(plain, workload)
    lines = [f"workload {workload}, seed {seed}: {len(plain)} untraced reps"
             + (f", {len(traced)} traced reps" if trace else "")
             + f", {len(setup)} set-up samples"]
    for name in ops.COMMAND_METRICS[workload] + ("wall_s",):
        lines.append(f"  {name:<24} {untraced[name]:10.4f} s   median of {len(plain)}")
    lines.append("  op list per rep (s): " + " ".join(
        f"{sum(outcome.seconds for _, outcome, _ in rep):.3f}" for rep in plain))
    lines.append(f"  {'setup_s':<24} {statistics.median(setup):10.4f} s   "
                 f"median of {len(setup)}")
    lines.append(f"  {'fail_ratio':<24} {failed / attempted:10.4f} ratio "
                 f"{failed} of {attempted} ops")
    lines += [f"  FAILED {note}" for note in notes[:10]]

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": untraced["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"  {'peak_rss_mb':<24} {metrics['peak_rss_mb']:10.1f} MB")
        return {"lines": lines, "correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}}

    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{workload}-seed{seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        for i, tr in enumerate(tracers):
            tr.dump(fh, i)
    layer, unsteady = summarize_layers(
        [tracer.layer_metrics(tr.spans) for tr in tracers])
    traced_wall = command_times(traced, workload)["wall_s"]
    layer["trace.overhead_s"] = _metric(traced_wall - untraced["wall_s"], "s")
    for name in ALL_COMMANDS:
        layer[f"cmd.{name}"] = _metric(untraced.get(name, 0.0), "s")
    lines.append(f"  {'traced wall_s':<24} {traced_wall:10.4f} s   "
                 f"median of {len(traced)}; overhead "
                 f"{layer['trace.overhead_s']['value']:+.4f} s")
    lines += [f"  UNSTEADY {u}" for u in unsteady]
    return {"lines": lines, "correct": failed == 0 and not unsteady,
            "attempted": attempted, "failed": failed, "metrics": layer}


def measure_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, one after another."""
    result = {"lines": [], "correct": True, "attempted": 0, "failed": 0,
              "metrics": {}}
    for workload in ops.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            raise SetupError(f"workload {workload} exited {proc.returncode}")
        doc = json.loads(out[-1])
        result["lines"] += out[:-1]
        result["correct"] &= doc["correct"]
        result["attempted"] += doc["attempted"]
        result["failed"] += doc["failed"]
        result["metrics"].update({f"{workload}.{k}": v
                                  for k, v in doc["metrics"].items()})
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads
    # On SIGTERM, unwind: work files are removed and a running probe is
    # killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.probe:
            cli = import_program()
            os.makedirs(args.probe, exist_ok=True)
            _warm_up(cli, args.workload, args.seed, args.probe)
            return 0
        if args.workload == "all":
            result = measure_all(args.seed, args.seconds, args.trace)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
