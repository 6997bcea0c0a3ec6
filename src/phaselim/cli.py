"""Command line front end.

Subcommands: ``thresholds`` (achievability/converse measurement counts),
``figure`` (threshold-vs-SNR curve CSVs), ``verify`` (statistical check
suites as JSON lines), ``simulate`` (tiny-scale decoder error curve CSV),
``replay`` (re-run a recorded manifest and compare output digests).

Every data-producing command writes a run manifest: the resolved parameter
set, seed, version, timestamps, and a sha256 digest per output file.
Replaying the manifest regenerates byte-identical data outputs regardless
of thread count; only the manifest timestamps differ.

Exit codes: 0 success, 1 verification failure / replay mismatch,
2 usage or invalid parameters, 3 I/O failure, 4 numeric failure.

Each parameter is an explicit flag, else the ``--config`` value (a JSON
object or flat ``key = value`` lines whose keys mirror the flag names,
hyphens read as underscores; keys the subcommand does not have are
ignored, and a key set twice or a JSON ``null`` is refused), else its
default. An integer option takes an int or its text, not a float or a
bool. A ``--manifest`` that names a data output of its run, and a manifest
or data output that would be written over the ``--config`` file, are
refused before any work runs.
Only ``verify`` and ``simulate`` draw at random and take ``--seed`` and
``--threads``; their seed falls back to ``PHASELIM_SEED``, then 0. The
other commands record ``master_seed`` as ``null``.
"""
from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .densities import GaussianNoise
from .limits import (MAX_SNR_GRID, ThresholdQuery, figure_curves,
                     measurement_thresholds, write_figure_csv)
from .model import DiscreteFlat, GaussianIID
from .rng import _check_int
from .simulate import SimConfig, error_curve
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]

_NUMERIC_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError)


# ---------------------------------------------------------------- helpers

def _to_int(value) -> int:
    """An int, or the text of one: a flag's text and a config value alike.
    A float, whose fraction ``int`` would drop, and a bool are refused."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _default_seed() -> int:
    raw = os.environ.get("PHASELIM_SEED", "0")
    try:
        return _to_int(raw)
    except ValueError:
        raise ValueError(f"PHASELIM_SEED must be an integer, got {raw!r}")


def _thread_cap(text: str) -> int:
    """``replay --threads``: refused as usage before the manifest is read."""
    try:
        threads = _to_int(text)
        _check_int("threads", threads, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return threads


def _parse_n_grid(value) -> tuple[int, ...]:
    """Accept ``5,10,15`` lists or ``lo:hi:step`` ranges (hi inclusive)."""
    if isinstance(value, (list, tuple)):
        return tuple(_to_int(v) for v in value)
    s = str(value).strip()
    if ":" in s:
        parts = [_to_int(t) for t in s.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {s!r}, want lo:hi or lo:hi:step")
        step = parts[2] if len(parts) == 3 else 1
        return tuple(range(parts[0], parts[1] + 1, step))
    return tuple(_to_int(t) for t in s.split(",") if t.strip())


def _to_bool(value) -> bool:
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _load_config(path: str) -> dict:
    """JSON object, or flat ``key = value`` lines with ``#`` comments. In
    both, a key reads its hyphens as underscores, and two keys that name
    one option are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):   # JSON that parses is an object
        pairs = json.loads(text, object_pairs_hook=list)
    else:
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            pairs.append((key.strip(), val.strip()))
    out: dict = {}
    for key, val in pairs:
        name = key.replace("-", "_")
        if name in out:
            raise ValueError(f"config sets {name} twice")
        out[name] = val
    return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(path: str, command: str, params: dict,
                    outputs: list[str], started: str, finished: str) -> None:
    doc = {
        "command": command,
        "params": params,
        "master_seed": params.get("seed"),
        "version": __version__,
        "started": started,
        "finished": finished,
        "outputs": {out: _sha256(out) for out in outputs},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_path(params: dict, command: str) -> str:
    if params.get("out"):
        return params["out"] + ".manifest.json"
    if params.get("out_dir"):
        return os.path.join(params["out_dir"], "manifest.json")
    return f"{command}_manifest.json"


def _check_not_output(manifest: str, outputs) -> None:
    """Raise ``ValueError`` if the manifest path names one of the run's data
    outputs, which writing the manifest would replace. A run without data
    outputs resolves no path."""
    if not outputs:
        return
    target = os.path.realpath(manifest)
    for out in outputs:
        if os.path.realpath(out) == target:
            raise ValueError(f"manifest {manifest!r} would overwrite the "
                             f"output {out!r}")


def _check_not_config(config: str, manifest: str, outputs) -> None:
    """Raise ``ValueError`` if the manifest or a data output of the run
    would be written over the config file it reads."""
    source = os.path.realpath(config)
    for role, path in (("manifest", manifest),
                       *(("output", out) for out in outputs)):
        if os.path.realpath(path) == source:
            raise ValueError(f"{role} {path!r} would overwrite the config "
                             f"{config!r}")


def _check_location(path: str, is_dir: bool) -> None:
    """Raise ``OSError`` now if ``path`` cannot be written once the work is
    done. A file's directory must exist; a directory is created later, so
    its nearest existing ancestor must be a writable directory."""
    target = os.path.abspath(path)
    if not is_dir and os.path.isdir(target):
        raise IsADirectoryError(f"cannot write {path!r}: it is a directory")
    target = target if is_dir else os.path.dirname(target)
    while is_dir and not os.path.exists(target):
        target = os.path.dirname(target)
    if not (os.path.isdir(target) and os.access(target, os.W_OK | os.X_OK)):
        raise NotADirectoryError(
            f"cannot write {path!r}: no writable directory at {target!r}")


def _signal_for(model: str, c_beta: float, k: int):
    if model == "gaussian":
        return GaussianIID(c_beta=c_beta, k=k)
    if model == "flat":
        return DiscreteFlat(c_beta=c_beta, k=k)
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------- runners
# Each runner takes the resolved JSON-serializable parameter dict, reads
# the keys it needs (an older manifest's ``seed`` stays unread), and
# returns (output paths, stdout text, exit status, stderr summary). Being
# argv-free lets the replay command re-execute a manifest directly.

def _run_thresholds(params: dict):
    signal = _signal_for(params["model"], params["c_beta"], params["k"])
    result = measurement_thresholds(ThresholdQuery(
        p=params["p"], signal=signal, noise=GaussianNoise(params["sigma"]),
        alpha_star=params["alpha_star"], mode=params["mode"]))
    record = {key: params[key] for key in
              ("model", "p", "k", "c_beta", "sigma", "alpha_star", "mode")}
    record.update(result.to_dict())
    if params["json"]:
        text = json.dumps(record, indent=2, sort_keys=True)
    else:
        lines = [f"{'quantity':<12} value",
                 f"{'n_ach':<12} {result.n_ach:.6f}  (alpha {result.alpha_ach:.6f})",
                 f"{'n_con':<12} {result.n_con:.6f}  (alpha {result.alpha_con:.6f})",
                 f"{'n_ach_norm':<12} {result.n_ach_norm:.6f}",
                 f"{'n_con_norm':<12} {result.n_con_norm:.6f}",
                 f"note: {result.regime_note}"]
        text = "\n".join(lines)
    outputs = []
    if params.get("out"):
        with open(params["out"], "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        outputs.append(params["out"])
    return outputs, text, 0, ""


def _run_figure(params: dict):
    step = params["snr_step"]
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("snr_step must be finite and positive")
    lo, hi = params["snr_min"], params["snr_max"]
    if (hi - lo) / step + 1.0 > MAX_SNR_GRID:
        raise ValueError(f"SNR grid {lo!r}:{hi!r}:{step!r} has more than "
                         f"{MAX_SNR_GRID} points")
    grid = np.arange(lo, hi + step / 2.0, step)
    curves = figure_curves(alpha_star=params["alpha_star"],
                           snr_db_values=grid)
    os.makedirs(params["out_dir"], exist_ok=True)
    outputs = []
    for kind, rows in curves.items():
        path = os.path.join(params["out_dir"], _FIGURE_CSVS[kind])
        write_figure_csv(rows, path)
        outputs.append(path)
    return outputs, "wrote " + ", ".join(outputs), 0, ""


def _run_verify(params: dict):
    reports = run_suite(params["suite"], trials=params["trials"],
                        master_seed=params["seed"],
                        threads=params["threads"])
    text = "\n".join(r.to_json_line() for r in reports)
    outputs = []
    if params.get("out"):
        with open(params["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        outputs.append(params["out"])
    bad_numerics = sum(not math.isfinite(r.estimate) for r in reports)
    if bad_numerics:
        return (outputs, text, 4,
                f"numeric failure: {bad_numerics} non-finite estimates")
    counts = {v: sum(r.verdict == v for r in reports)
              for v in ("pass", "fail", "inconclusive")}
    summary = (f"{sum(counts.values())} checks: {counts['pass']} pass, "
               f"{counts['fail']} fail, {counts['inconclusive']} inconclusive")
    if counts["inconclusive"]:
        summary = (f"warning: {counts['inconclusive']} inconclusive verdicts "
                   f"(underpowered run)\n{summary}")
    return outputs, text, 1 if counts["fail"] else 0, summary


def _run_simulate(params: dict):
    signal = _signal_for(params["model"], params["c_beta"], params["k"])
    config = SimConfig(
        p=params["p"], signal=signal, noise=GaussianNoise(params["sigma"]),
        alpha_star=params["alpha_star"],
        n_grid=_parse_n_grid(params["n_grid"]), trials=params["trials"],
        mc_samples=params["mc_samples"], master_seed=params["seed"],
        threads=params["threads"])
    if params["decoder"] not in ("auto", config.decoder):
        raise ValueError(f"--decoder {params['decoder']} does not decode the "
                         f"{params['model']} model, which takes "
                         f"{config.decoder}")
    curve = error_curve(config)
    try:
        ref = measurement_thresholds(ThresholdQuery(
            p=config.p, signal=signal, noise=config.noise,
            alpha_star=config.alpha_star, mode="asymptotic"))
        reference = {"n_ach": ref.n_ach, "n_con": ref.n_con}
    except (ValueError, *_NUMERIC_ERRORS):
        # the curve stands without its asymptotic reference lines
        reference = None
    curve.to_csv(params["out"], reference=reference)
    return [params["out"]], "wrote " + params["out"], 0, ""


# ----------------------------------------------------------------- parser
# One entry per subcommand: its help text, its runner, the parameters that
# name output locations (checked before the work runs, redirected by
# replay), each mapped to ``None`` for a file or to the names of the files
# it receives for a directory, and its options, each ``name: (convert,
# default, add_argument keywords)``. ``convert`` reads the flag's text and
# the config value alike. ``_REQUIRED`` marks an option that a flag or the
# config must set; a callable default is called when neither sets it.

_Command = collections.namedtuple("_Command", "help run outputs options")

_REQUIRED = object()

_COMMON_OPTIONS = {"manifest": (str, None, {
    "help": "run manifest path (default next to outputs)"})}

# the two commands that draw at random
_RANDOM_OPTIONS = {
    "seed": (_to_int, _default_seed,
             {"help": "master seed (env PHASELIM_SEED, default 0)"}),
    "threads": (_to_int, 1,
                {"help": "worker cap; results do not depend on it"}),
}

# the CSV ``figure`` writes for each curve of figure_curves
_FIGURE_CSVS = {kind: f"{kind}_thresholds.csv"
                for kind in ("flat", "gaussian")}

_COMMANDS = {
    "thresholds": _Command("achievability and converse measurement counts",
                           _run_thresholds, {"out": None}, {
        "model": (str, _REQUIRED, {"choices": ("gaussian", "flat")}),
        "p": (_to_int, _REQUIRED, {}),
        "k": (_to_int, _REQUIRED, {}),
        "c_beta": (float, 1.0, {}),
        "sigma": (float, 1.0, {}),
        "alpha_star": (float, 0.1, {}),
        "mode": (str, "asymptotic", {"choices": ("floor", "asymptotic")}),
        "json": (_to_bool, False, {"action": "store_true"}),
        "out": (str, None, {"help": "also write the JSON record here"}),
    }),
    "figure": _Command("threshold-vs-SNR curve CSVs for both models",
                       _run_figure,
                       {"out_dir": tuple(_FIGURE_CSVS.values())}, {
        "alpha_star": (float, 0.1, {}),
        "snr_min": (float, -10.0, {}),
        "snr_max": (float, 40.0, {}),
        "snr_step": (float, 1.0, {}),
        "out_dir": (str, "figures", {}),
    }),
    "verify": _Command("statistical check suites, JSON-lines reports",
                       _run_verify, {"out": None}, {
        "suite": (str, _REQUIRED, {"choices": SUITE_NAMES}),
        "trials": (_to_int, 100000, {}),
        "out": (str, None, {"help": "also write the JSON lines here"}),
        **_RANDOM_OPTIONS,
    }),
    "simulate": _Command("exhaustive-decoder error curve at tiny sizes",
                         _run_simulate, {"out": None}, {
        "p": (_to_int, _REQUIRED, {}),
        "k": (_to_int, _REQUIRED, {}),
        "model": (str, "flat", {"choices": ("flat", "gaussian")}),
        "c_beta": (float, 1.0, {}),
        "sigma": (float, 1.0, {}),
        "alpha_star": (float, 0.5, {}),
        "n_grid": (_parse_n_grid, (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
                   {"help": "comma list (5,10,15) or lo:hi:step range"}),
        "trials": (_to_int, 400, {}),
        "decoder": (str, "auto",
                    {"choices": ("auto", "flat-ml", "mc-marginal"),
                     "help": "the model fixes it: flat-ml for flat, "
                             "mc-marginal for gaussian (auto)"}),
        "mc_samples": (_to_int, 256, {}),
        "out": (str, "error_curve.csv", {}),
        **_RANDOM_OPTIONS,
    }),
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree and its subcommand parsers by name, built once per
    process. Every subcommand option parses to ``None`` when its flag is
    absent; :func:`_resolve` fills in the config value or the default."""
    parser = argparse.ArgumentParser(
        prog="phaselim",
        description="Measurement thresholds for approximate support "
                    "recovery from phaseless observations.")
    parser.add_argument("--version", action="version",
                        version=f"phaselim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, (convert, _, keywords) in {**options,
                                             **_COMMON_OPTIONS}.items():
            if "action" not in keywords:
                keywords = {"type": convert, **keywords}
            sp.add_argument("--" + name.replace("_", "-"), default=None,
                            **keywords)
        sp.add_argument("--config", help="JSON or key=value defaults file")

    rep = sub.add_parser("replay",
                         help="re-run a manifest, compare output digests")
    rep.add_argument("manifest", help="manifest JSON written by a prior run")
    rep.add_argument("--scratch", default=None,
                     help="directory for regenerated outputs (default temp)")
    rep.add_argument("--threads", type=_thread_cap, default=None,
                     help="override the recorded thread count")
    return parser, sub.choices


def _resolve(args, config: dict) -> dict:
    """Every option of ``args.command``: the explicit flag, else the config
    value read by the flag's converter, else the default. A required option
    that neither sets is a usage error (``SystemExit(2)``)."""
    values, missing = {}, []
    options = {**_COMMANDS[args.command].options, **_COMMON_OPTIONS}
    for name, (convert, default, _) in options.items():
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif name in config:
            if config[name] is None:
                raise ValueError(f"bad config value for {name}: null")
            try:
                values[name] = convert(config[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad config value for {name}: {exc}") from exc
        elif default is _REQUIRED:
            missing.append("--" + name.replace("_", "-"))
        else:
            values[name] = default() if callable(default) else default
    if missing:
        _parser()[1][args.command].error(
            "the following arguments are required: " + ", ".join(missing))
    return values


# --------------------------------------------------------------- commands

def _cmd_run(args) -> int:
    command = _COMMANDS[args.command]
    params = _resolve(args, _load_config(args.config) if args.config else {})
    manifest = params.pop("manifest")
    # every data output: each output file, and each output directory with
    # the files it receives
    outputs = []
    for key, names in command.outputs.items():
        if params[key]:
            _check_location(params[key], names is not None)
            outputs += [params[key], *(os.path.join(params[key], name)
                                       for name in names or ())]
    # a default manifest sits beside an output checked here or in the
    # working directory
    if manifest:
        _check_location(manifest, False)
        _check_not_output(manifest, outputs)
    else:
        manifest = _manifest_path(params, args.command)
    if args.config:
        _check_not_config(args.config, manifest, outputs)

    started = _utc_now()
    outputs, text, status, summary = command.run(params)
    finished = _utc_now()
    if text:
        print(text)
    _write_manifest(manifest, args.command, params, outputs, started,
                    finished)
    if summary:
        print(summary, file=sys.stderr)
    return status


def _cmd_replay(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # shapes first: a manifest that cannot be compared runs no command
    if not isinstance(doc, dict):
        raise ValueError(f"manifest is {type(doc).__name__}, not an object")
    for key in ("params", "outputs"):
        if not isinstance(value := doc.get(key, {}), dict):
            raise ValueError(f"{key} is {type(value).__name__}, not an object")
    command = doc.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        print(f"manifest names unknown command {command!r}", file=sys.stderr)
        return 2
    params = dict(doc["params"])
    if args.threads is not None:
        params["threads"] = args.threads
    scratch = args.scratch or tempfile.mkdtemp(prefix="phaselim-replay-")
    os.makedirs(scratch, exist_ok=True)
    for key, names in _COMMANDS[command].outputs.items():
        if params.get(key):
            params[key] = scratch if names is not None else os.path.join(
                scratch, os.path.basename(params[key]))
    outputs = _COMMANDS[command].run(params)[0]
    produced = {os.path.basename(path): path for path in outputs}
    all_match = True
    for orig, digest in sorted(doc.get("outputs", {}).items()):
        new_path = produced.get(os.path.basename(orig))
        actual = _sha256(new_path) if new_path and os.path.exists(new_path) else None
        ok = actual == digest
        all_match &= ok
        print(f"{'match   ' if ok else 'MISMATCH'} {orig}")
    extra = set(produced) - {os.path.basename(o) for o in doc.get("outputs", {})}
    for name in sorted(extra):
        all_match = False
        print(f"UNEXPECTED {produced[name]}")
    print(f"replay of {command!r}: "
          f"{'outputs identical' if all_match else 'digest mismatch'}")
    return 0 if all_match else 1


def main(argv=None) -> int:
    args = _parser()[0].parse_args(argv)
    replay = args.command == "replay"
    try:
        return _cmd_replay(args) if replay else _cmd_run(args)
    except OSError as exc:
        print(f"phaselim: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"phaselim: {'bad manifest: ' if replay else ''}{exc}",
              file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"phaselim: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
