"""Self-test of the benchmark: its checks bite.

Runs each workload's op list once (seed 0) through ``phaselim.cli.main``
and requires every op to pass. Then corrupts one output at a time, judges
the whole rep again and requires ``fail_ratio`` to rise; each corruption
is undone before the next. Also checks that a count differing between
traced reps is flagged, and that ``BENCHMARK.json`` lists exactly the
metrics and workloads the code reports. Takes about half a minute::

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import ops
import run
import tracer


def _edit_lines(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _set_csv_field(row: int, col: int, value: str):
    """Edit of data row ``row`` (0-based, after the header), column ``col``."""
    def edit(lines):
        fields = lines[row + 1].split(",")
        fields[col] = value
        lines[row + 1] = ",".join(fields)
        return lines
    return edit


def _set_pe(rows: range, pe: float, trials: int):
    """Edit setting ``pe`` on data ``rows``, with the matching binomial se."""
    def edit(lines):
        for row in rows:
            n, _, _, t = lines[row + 1].split(",")
            se = (pe * (1 - pe) / trials) ** 0.5
            lines[row + 1] = f"{n},{pe!r},{se!r},{t}"
        return lines
    return edit


def _swap_csv_field(row: int, col: int):
    def edit(lines):
        a, b = lines[row + 1].split(","), lines[row + 2].split(",")
        a[col], b[col] = b[col], a[col]
        lines[row + 1], lines[row + 2] = ",".join(a), ",".join(b)
        return lines
    return edit


def _edit_report(index: int, key: str, value):
    def edit(lines):
        rec = json.loads(lines[index])
        rec[key] = value
        lines[index] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        return lines
    return edit


def _edit_stdout(**changes):
    def edit(stdout):
        rec = json.loads(stdout)
        rec.update({k: (v(rec) if callable(v) else v) for k, v in changes.items()})
        return json.dumps(rec)
    return edit


def _cases(work):
    """``(workload, description, file, file edit, argv marker, stdout edit,
    exit code)``. A file edit of None deletes the file; the argv marker
    picks the ops whose stdout or exit code is altered."""
    fig = os.path.join(work, "figure", "gaussian_thresholds.csv")
    flat_fig = os.path.join(work, "figure", "flat_thresholds.csv")
    c09 = os.path.join(work, "criterion_09.csv")
    mc = os.path.join(work, "mc_marginal.csv")
    j = os.path.join
    return [
        ("limits-sweep", "non-monotone figure row", fig, _swap_csv_field(20, 1), None, None, None),
        ("limits-sweep", "converse above achievability", flat_fig,
         _set_csv_field(50, 2, "1e9"), None, None, None),
        ("limits-sweep", "n_con above n_ach", None, None, "thresholds",
         _edit_stdout(n_con=lambda r: 2 * r["n_ach"]), None),
        ("limits-sweep", "alpha below alpha_star", None, None, "thresholds",
         _edit_stdout(alpha_ach=0.01), None),
        ("limits-sweep", "non-finite count", None, None, "thresholds",
         _edit_stdout(n_ach=float("inf")), None),
        ("limits-sweep", "numeric-failure exit", None, None, "figure", None, 4),
        ("verify-battery", "flipped verdict", j(work, "concentration.jsonl"),
         _edit_report(0, "verdict", "fail"), None, None, None),
        ("verify-battery", "1-thread and 2-thread sandwich digests differ",
         j(work, "sandwich_2t.jsonl"), _edit_report(3, "estimate", 0.5), None, None, None),
        ("verify-battery", "negative control passes", j(work, "negative-control.jsonl"),
         _edit_report(0, "verdict", "pass"), None, None, None),
        ("verify-battery", "missing report", j(work, "gconv.jsonl"),
         lambda lines: lines[:-1], None, None, None),
        ("verify-battery", "negative control exits 0", None, None, "negative-control",
         None, 0),
        ("decoder-sim", "criterion 09 pe(40) too high", c09,
         _set_pe(range(0, 8), 0.5, 400), None, None, None),
        ("decoder-sim", "criterion 09 curve not monotone", c09,
         _set_pe(range(3, 4), 0.25, 400), None, None, None),
        ("decoder-sim", "se is not the binomial se", mc,
         _set_csv_field(0, 2, "0.5"), None, None, None),
        ("decoder-sim", "wrong trial count", mc, _set_csv_field(1, 3, "99"), None, None, None),
        ("decoder-sim", "output file missing", mc, None, None, None, None),
    ]


def _check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END, e2e
    want = {n: u for n, u, _ in tracer.LAYER_METRICS + run.RUN_LAYER_METRICS}
    assert layer == want, set(layer) ^ set(want)
    assert tuple(w["name"] for w in doc["workloads"]) == ops.WORKLOADS


def main() -> int:
    os.environ.update(run.THREAD_ENV)
    cli = run.import_program()
    _check_benchmark_json()
    _, unsteady = run.summarize_layers([
        dict.fromkeys((n for n, *_ in tracer.LAYER_METRICS), 1.0),
        dict(dict.fromkeys((n for n, *_ in tracer.LAYER_METRICS), 1.0),
             **{"rng.substream.calls": 2.0})])
    assert [u.split()[0] for u in unsteady] == ["rng.substream.calls"], unsteady

    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cases = _cases(work)
        for workload in ops.WORKLOADS:
            rep = run.run_rep(cli, ops.build(workload, 0, work))
            attempted, failed, notes = run.failures([rep])
            assert failed == 0, notes
            print(f"{workload}: {attempted} ops pass")
            for name, path, edit, marker, stdout_edit, code in (
                    c[1:] for c in cases if c[0] == workload):
                saved = None
                if path is not None:
                    with open(path, "rb") as fh:
                        saved = fh.read()
                    if edit is None:
                        os.remove(path)
                    else:
                        _edit_lines(path, edit)
                bad = []
                for op, outcome, _ in rep:
                    if marker is not None and marker in op.argv:
                        if stdout_edit is not None:
                            outcome = dataclasses.replace(
                                outcome, stdout=stdout_edit(outcome.stdout))
                        if code is not None:
                            outcome = dataclasses.replace(outcome, code=code)
                    bad.append((op, outcome, ops.judge(op, outcome)))
                if saved is not None:
                    with open(path, "wb") as fh:
                        fh.write(saved)
                attempted, failed, notes = run.failures([bad])
                assert failed > 0, f"{name}: corrupted output passed"
                print(f"  {name}: fail_ratio {failed}/{attempted} ({notes[0]})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
