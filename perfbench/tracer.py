"""Span tracing of ``phaselim`` from outside the program.

:func:`install` replaces each traced public function with a wrapper in
every loaded ``phaselim`` module namespace that holds it, so calls made
through ``from .x import f`` bindings are caught too. A wrapper records a
span ``(id, parent, name, start, end, attrs)``; ``attrs`` carries the
work counts seen at that boundary. Spans stay in memory until
:meth:`Tracer.dump`. :func:`layer_metrics` turns one rep's spans into the
per-layer metrics, where self time is a span's duration minus the part of
it that its child spans cover.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time

# module -> public functions traced in it
TRACED = {
    "cli": ("main",),
    "limits": ("tail_power_fraction", "measurement_thresholds",
               "figure_curves"),
    "model": ("partition_powers", "observe", "sample_support",
              "sample_signal_vector"),
    "rng": ("substream", "sample_circular_gaussian", "parallel_map"),
    "densities": ("conditional_output_logpdf", "noncentral_chi2_scaled_logpdf",
                  "info_density", "golden_max", "concentration_constant"),
    "verify": ("run_suite", "mi_estimate", "sandwich_check",
               "concentration_check", "logconcavity_check",
               "tail_fraction_convergence_check"),
    "simulate": ("decode", "error_curve"),
}

# (name, unit, better) of every metric layer_metrics returns
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("limits.tail_power_fraction.calls", "count", "lower"),
    ("limits.tail_power_fraction.alphas", "count", "lower"),
    ("limits.tail_power_fraction.s", "s", "lower"),
    ("limits.tail_power_fraction.us_per_call", "us", "lower"),
    ("limits.measurement_thresholds.calls", "count", "lower"),
    ("limits.measurement_thresholds.s", "s", "lower"),
    ("limits.figure_curves.s", "s", "lower"),
    ("model.partition_powers.calls", "count", "lower"),
    ("model.partition_powers.s", "s", "lower"),
    ("model.observe.s", "s", "lower"),
    ("model.sample_support.s", "s", "lower"),
    ("model.sample_signal_vector.s", "s", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.s", "s", "lower"),
    ("rng.sample_circular_gaussian.draws", "count", "lower"),
    ("rng.sample_circular_gaussian.s", "s", "lower"),
    ("rng.parallel_map.s", "s", "lower"),
    ("rng.parallel_map.busy_s", "s", "lower"),
    ("rng.parallel_map.efficiency", "ratio", "higher"),
    ("densities.conditional_output_logpdf.quad_samples", "count", "lower"),
    ("densities.conditional_output_logpdf.quad_elements", "computed-count", "lower"),
    ("densities.conditional_output_logpdf.quad_s", "s", "lower"),
    ("densities.conditional_output_logpdf.quad_us_per_sample", "us", "lower"),
    ("densities.conditional_output_logpdf.closed_samples", "count", "lower"),
    ("densities.conditional_output_logpdf.closed_s", "s", "lower"),
    ("densities.conditional_output_logpdf.closed_ns_per_sample", "ns", "lower"),
    ("densities.noncentral_chi2_scaled_logpdf.elements", "count", "lower"),
    ("densities.noncentral_chi2_scaled_logpdf.s", "s", "lower"),
    ("densities.info_density.samples", "count", "lower"),
    ("densities.info_density.clamped", "count", "lower"),
    ("densities.info_density.s", "s", "lower"),
    ("densities.golden_max.calls", "count", "lower"),
    ("densities.golden_max.evals", "count", "lower"),
    ("densities.golden_max.s", "s", "lower"),
    ("densities.concentration_constant.s", "s", "lower"),
    ("verify.mi_estimate.calls", "count", "lower"),
    ("verify.mi_estimate.s", "s", "lower"),
    ("verify.sandwich_check.s", "s", "lower"),
    ("verify.concentration_check.s", "s", "lower"),
    ("verify.logconcavity_check.s", "s", "lower"),
    ("verify.tail_fraction_convergence_check.s", "s", "lower"),
    ("verify.verdict.pass", "count", "higher"),
    ("verify.verdict.fail", "count", "lower"),
    ("verify.verdict.inconclusive", "count", "lower"),
    ("simulate.decode.calls", "count", "lower"),
    ("simulate.decode.s", "s", "lower"),
    ("simulate.decode.candidates", "count", "lower"),
    ("simulate.decode.candidate_rows", "count", "lower"),
    ("simulate.decode.flat_ml.ns_per_candidate_row", "ns", "lower"),
    ("simulate.decode.mc_marginal.ns_per_candidate_row_draw", "ns", "lower"),
    ("simulate.trial_overhead_s", "s", "lower"),
    ("simulate.error_curve.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

_TASK = "rng.parallel_map.task"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# numpy is imported inside the helpers: run.py imports this module before
# it fixes the BLAS thread count that numpy reads when it loads.
def _size(value) -> int:
    import numpy as np
    return int(np.size(value))


def _verdicts(_args, _kwargs, reports):
    out = {"pass": 0, "fail": 0, "inconclusive": 0}
    for rep in reports:
        out[rep.verdict] += 1
    return out


def _decode_attrs(args, kwargs, _result):
    x = _arg(args, kwargs, 0, "x")
    signal = _arg(args, kwargs, 2, "signal")
    rows, p = x.shape
    return {"candidates": math.comb(p, signal.k), "rows": rows,
            "decoder": _arg(args, kwargs, 4, "decoder", "flat-ml"),
            "draws": _arg(args, kwargs, 5, "mc_samples", 256)}


def _elements(args, kwargs, _result):
    import numpy as np
    u = _arg(args, kwargs, 0, "u")
    lam = _arg(args, kwargs, 1, "known_sq")
    return {"elements": int(np.broadcast(np.asarray(u), np.asarray(lam)).size)}


# span name -> function of (args, kwargs, result) giving the span's counts
_ATTRS = {
    "limits.tail_power_fraction":
        lambda a, k, r: {"alphas": _size(_arg(a, k, 0, "alpha"))},
    "rng.sample_circular_gaussian":
        lambda a, k, r: {"draws": _size(r)},
    "densities.conditional_output_logpdf":
        lambda a, k, r: {"samples": _size(_arg(a, k, 0, "y")),
                         "nodes": _arg(a, k, 4, "nodes", 80)},
    "densities.noncentral_chi2_scaled_logpdf": _elements,
    "densities.info_density":
        lambda a, k, r: {"samples": _size(_arg(a, k, 0, "y")),
                         "clamped": int(r[1])},
    "verify.run_suite": _verdicts,
    "simulate.decode": _decode_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced rep."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        """Run ``fn`` inside a span. ``parent`` is used when this thread has
        no open span, which links pool-thread work to the span that
        dispatched it."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        up = stack[-1] if stack else parent
        stack.append(sid)
        done = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if done and attrs else None
            self.spans.append((sid, up, name, t0, t1, extra))
        return result

    def dump(self, fh, rep: int) -> None:
        """Append this rep's spans to ``fh`` as JSON lines."""
        for sid, up, name, t0, t1, extra in self.spans:
            fh.write(json.dumps({"rep": rep, "id": sid, "parent": up,
                                 "name": name, "start": t0, "end": t1,
                                 "attrs": extra}, separators=(",", ":")))
            fh.write("\n")


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "densities.golden_max":
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            evals = [0]

            def counted(t):
                evals[0] += 1
                return f(t)
            return tracer.call(name, fn, (counted,) + args, kwargs,
                               lambda *_: {"evals": evals[0]})
        return traced
    if name == "rng.parallel_map":
        @functools.wraps(fn)
        def traced(task, args_list, *args, **kwargs):
            def run():
                me = tracer.current()

                def timed(item):
                    return tracer.call(_TASK, task, (item,), {}, parent=me,
                                       attrs=lambda *_: {"thread": threading.get_ident()})
                return fn(timed, args_list, *args, **kwargs)
            return tracer.call(name, run, (), {})
        return traced
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return traced


def install(tracer: Tracer):
    """Wrap every traced function wherever ``phaselim`` binds it; returns a
    function that puts the originals back."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "phaselim" or key.startswith("phaselim."))]
    undo = []
    for short, names in TRACED.items():
        home = sys.modules[f"phaselim.{short}"]
        for fname in names:
            fn = getattr(home, fname)
            wrapped = _wrapper(tracer, f"{short}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))

    def uninstall():
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)
    return uninstall


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one rep's spans (see ``LAYER_METRICS``)."""
    children: dict[int, list] = {}
    child_names: dict[int, set] = {}
    task_threads: dict[int, set] = {}
    by_name: dict[str, list] = {}
    for sid, up, name, t0, t1, extra in spans:
        by_name.setdefault(name, []).append((sid, t0, t1, extra or {}))
        if up is not None:
            children.setdefault(up, []).append((t0, t1))
            child_names.setdefault(up, set()).add(name)
            if name == _TASK and extra:
                task_threads.setdefault(up, set()).add(extra["thread"])

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name, keep=lambda sid, extra: True):
        return sum(t1 - t0 for sid, t0, t1, extra in by_name.get(name, ())
                   if keep(sid, extra))

    def total(name, key, keep=lambda sid, extra: True):
        return sum(extra.get(key, 0) for sid, t0, t1, extra in by_name.get(name, ())
                   if keep(sid, extra))

    def per(amount, count, scale):
        return amount / count * scale if count else 0.0

    def self_time(name):
        out = 0.0
        for sid, t0, t1, _ in by_name.get(name, ()):
            inside = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ())]
            out += (t1 - t0) - _covered([iv for iv in inside if iv[1] > iv[0]])
        return out

    m: dict[str, float] = {}
    m["cli.main.calls"] = calls("cli.main")
    m["cli.self_s"] = self_time("cli.main")

    tpf = "limits.tail_power_fraction"
    m[tpf + ".calls"] = calls(tpf)
    m[tpf + ".alphas"] = total(tpf, "alphas")
    m[tpf + ".s"] = secs(tpf)
    m[tpf + ".us_per_call"] = per(secs(tpf), calls(tpf), 1e6)
    m["limits.measurement_thresholds.calls"] = calls("limits.measurement_thresholds")
    m["limits.measurement_thresholds.s"] = secs("limits.measurement_thresholds")
    m["limits.figure_curves.s"] = secs("limits.figure_curves")

    m["model.partition_powers.calls"] = calls("model.partition_powers")
    for fname in ("partition_powers", "observe", "sample_support",
                  "sample_signal_vector"):
        m[f"model.{fname}.s"] = secs(f"model.{fname}")

    m["rng.substream.calls"] = calls("rng.substream")
    m["rng.substream.s"] = secs("rng.substream")
    m["rng.sample_circular_gaussian.draws"] = total("rng.sample_circular_gaussian", "draws")
    m["rng.sample_circular_gaussian.s"] = secs("rng.sample_circular_gaussian")
    # capacity: each parallel_map call's wall time times the pool threads
    # its tasks ran on
    capacity = sum((t1 - t0) * max(len(task_threads.get(sid, ())), 1)
                   for sid, t0, t1, _ in by_name.get("rng.parallel_map", ()))
    m["rng.parallel_map.s"] = secs("rng.parallel_map")
    m["rng.parallel_map.busy_s"] = secs(_TASK)
    m["rng.parallel_map.efficiency"] = secs(_TASK) / capacity if capacity else 0.0

    col = "densities.conditional_output_logpdf"
    nc = "densities.noncentral_chi2_scaled_logpdf"

    # the quadrature path is the one that evaluates the chi-square kernel
    def quad(sid, _extra):
        return nc in child_names.get(sid, ())

    def closed(sid, _extra):
        return nc not in child_names.get(sid, ())

    quad_samples = total(col, "samples", quad)
    m[col + ".quad_samples"] = quad_samples
    m[col + ".quad_elements"] = sum(
        extra.get("samples", 0) * 4 * extra.get("nodes", 0)
        for sid, _t0, _t1, extra in by_name.get(col, ()) if quad(sid, extra))
    m[col + ".quad_s"] = secs(col, quad)
    m[col + ".quad_us_per_sample"] = per(secs(col, quad), quad_samples, 1e6)
    closed_samples = total(col, "samples", closed)
    m[col + ".closed_samples"] = closed_samples
    m[col + ".closed_s"] = secs(col, closed)
    m[col + ".closed_ns_per_sample"] = per(secs(col, closed), closed_samples, 1e9)
    m[nc + ".elements"] = total(nc, "elements")
    m[nc + ".s"] = secs(nc)

    m["densities.info_density.samples"] = total("densities.info_density", "samples")
    m["densities.info_density.clamped"] = total("densities.info_density", "clamped")
    m["densities.info_density.s"] = secs("densities.info_density")
    m["densities.golden_max.calls"] = calls("densities.golden_max")
    m["densities.golden_max.evals"] = total("densities.golden_max", "evals")
    m["densities.golden_max.s"] = secs("densities.golden_max")
    m["densities.concentration_constant.s"] = secs("densities.concentration_constant")

    m["verify.mi_estimate.calls"] = calls("verify.mi_estimate")
    for fname in ("mi_estimate", "sandwich_check", "concentration_check",
                  "logconcavity_check", "tail_fraction_convergence_check"):
        m[f"verify.{fname}.s"] = secs(f"verify.{fname}")
    for verdict in ("pass", "fail", "inconclusive"):
        m[f"verify.verdict.{verdict}"] = total("verify.run_suite", verdict)

    dec = "simulate.decode"
    m[dec + ".calls"] = calls(dec)
    m[dec + ".s"] = secs(dec)
    m[dec + ".candidates"] = total(dec, "candidates")
    decodes = [span for span in by_name.get(dec, ()) if span[-1]]  # returned
    m[dec + ".candidate_rows"] = sum(e["candidates"] * e["rows"] for *_, e in decodes)
    flat = [e["candidates"] * e["rows"] for *_, e in decodes
            if e["decoder"] == "flat-ml"]
    mc = [e["candidates"] * e["rows"] * e["draws"] for *_, e in decodes
          if e["decoder"] == "mc-marginal"]
    m[dec + ".flat_ml.ns_per_candidate_row"] = per(
        secs(dec, lambda sid, e: e.get("decoder") == "flat-ml"), sum(flat), 1e9)
    m[dec + ".mc_marginal.ns_per_candidate_row_draw"] = per(
        secs(dec, lambda sid, e: e.get("decoder") == "mc-marginal"), sum(mc), 1e9)
    m["simulate.error_curve.s"] = secs("simulate.error_curve")
    m["simulate.trial_overhead_s"] = secs("simulate.error_curve") - secs(dec)
    m["trace.spans"] = len(spans)
    return m

