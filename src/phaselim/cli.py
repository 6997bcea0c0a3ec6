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
object or flat ``key = value`` lines whose keys mirror the flag names;
keys the subcommand does not have are ignored), else its default. The
master seed falls back to the ``PHASELIM_SEED`` environment variable,
then 0.
"""
from __future__ import annotations

import argparse
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
from .simulate import SimConfig, error_curve
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]

_NUMERIC_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError)


# ---------------------------------------------------------------- helpers

def _default_seed() -> int:
    raw = os.environ.get("PHASELIM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PHASELIM_SEED must be an integer, got {raw!r}")


def _parse_n_grid(value) -> tuple[int, ...]:
    """Accept ``5,10,15`` lists or ``lo:hi:step`` ranges (hi inclusive)."""
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    s = str(value).strip()
    if ":" in s:
        parts = [int(t) for t in s.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {s!r}, want lo:hi or lo:hi:step")
        step = parts[2] if len(parts) == 3 else 1
        grid = tuple(range(parts[0], parts[1] + 1, step))
    else:
        grid = tuple(int(t) for t in s.split(",") if t.strip())
    if not grid:
        raise ValueError("empty measurement grid")
    return grid


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _load_config(path: str) -> dict:
    """JSON object, or flat ``key = value`` lines with ``#`` comments."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config JSON must be an object")
        return doc
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
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
        "master_seed": params.get("seed", 0),
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
# Each runner takes the resolved JSON-serializable parameter dict and
# returns (output paths, stdout text, metadata). Keeping them argv-free
# lets the replay command re-execute a manifest directly.

def _run_thresholds(params: dict):
    signal = _signal_for(params["model"], params["c_beta"], params["k"])
    query = ThresholdQuery(
        p=params["p"], k=params["k"], signal=signal,
        noise=GaussianNoise(params["sigma"]),
        alpha_star=params["alpha_star"], mode=params["mode"],
        grid_step=params["grid_step"])
    result = measurement_thresholds(query)
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
    return outputs, text, {}


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
                           snr_db_values=grid, sigma=params["sigma"],
                           grid_step=params["grid_step"])
    os.makedirs(params["out_dir"], exist_ok=True)
    outputs = []
    for kind, rows in curves.items():
        path = os.path.join(params["out_dir"], f"{kind}_thresholds.csv")
        write_figure_csv(rows, path)
        outputs.append(path)
    text = "wrote " + ", ".join(outputs)
    return outputs, text, {}


def _run_verify(params: dict):
    reports = run_suite(params["suite"], trials=params["trials"],
                        master_seed=params["seed"],
                        threads=params["threads"])
    lines = [r.to_json_line() for r in reports]
    text = "\n".join(lines)
    outputs = []
    if params.get("out"):
        with open(params["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        outputs.append(params["out"])
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    bad_numerics = 0
    for r in reports:
        counts[r.verdict] += 1
        if not math.isfinite(r.estimate):
            bad_numerics += 1
    meta = {"counts": counts, "bad_numerics": bad_numerics}
    return outputs, text, meta


def _run_simulate(params: dict):
    signal = _signal_for(params["model"], params["c_beta"], params["k"])
    decoder = params["decoder"]
    if decoder == "auto":
        decoder = "mc-marginal" if params["model"] == "gaussian" else "flat-ml"
    config = SimConfig(
        p=params["p"], k=params["k"], signal=signal,
        noise=GaussianNoise(params["sigma"]),
        alpha_star=params["alpha_star"],
        n_grid=_parse_n_grid(params["n_grid"]),
        trials=params["trials"], decoder=decoder,
        mc_samples=params["mc_samples"], master_seed=params["seed"],
        threads=params["threads"])
    curve = error_curve(config)
    try:
        ref_query = ThresholdQuery(
            p=params["p"], k=params["k"], signal=signal,
            noise=GaussianNoise(params["sigma"]),
            alpha_star=params["alpha_star"], mode="asymptotic")
        ref_result = measurement_thresholds(ref_query)
        reference = {"n_ach": ref_result.n_ach, "n_con": ref_result.n_con}
    except (ValueError, *_NUMERIC_ERRORS):
        # the curve stands without its asymptotic reference lines
        reference = None
    curve.to_csv(params["out"], reference=reference)
    text = "wrote " + params["out"]
    return [params["out"]], text, {}


_RUNNERS = {
    "thresholds": _run_thresholds,
    "figure": _run_figure,
    "verify": _run_verify,
    "simulate": _run_simulate,
}

# which parameters name output locations: checked before the work runs,
# redirected by replay
_OUTPUT_KEYS = {
    "thresholds": {"out": "file"},
    "figure": {"out_dir": "dir"},
    "verify": {"out": "file"},
    "simulate": {"out": "file"},
}


# ----------------------------------------------------------------- parser
# Each subcommand option is ``name: (convert, default, add_argument
# keywords)``. ``convert`` reads the flag's text and the config value
# alike; ``_REQUIRED`` marks an option that a flag or the config must set.

_REQUIRED = object()

_COMMON_OPTIONS = {
    "seed": (int, None, {"help": "master seed (env PHASELIM_SEED, default 0)"}),
    "threads": (int, 1, {"help": "worker cap; results do not depend on it"}),
    "manifest": (str, None,
                 {"help": "run manifest path (default next to outputs)"}),
}

_COMMANDS = {
    "thresholds": ("achievability and converse measurement counts", {
        "model": (str, _REQUIRED, {"choices": ("gaussian", "flat")}),
        "p": (int, _REQUIRED, {}),
        "k": (int, _REQUIRED, {}),
        "c_beta": (float, 1.0, {}),
        "sigma": (float, 1.0, {}),
        "alpha_star": (float, 0.1, {}),
        "mode": (str, "asymptotic", {"choices": ("floor", "asymptotic")}),
        "grid_step": (float, 1e-3, {}),
        "json": (_to_bool, False, {"action": "store_true"}),
        "out": (str, None, {"help": "also write the JSON record here"}),
    }),
    "figure": ("threshold-vs-SNR curve CSVs for both models", {
        "alpha_star": (float, 0.1, {}),
        "snr_min": (float, -10.0, {}),
        "snr_max": (float, 40.0, {}),
        "snr_step": (float, 1.0, {}),
        "sigma": (float, 1.0, {}),
        "grid_step": (float, 1e-3, {}),
        "out_dir": (str, "figures", {}),
    }),
    "verify": ("statistical check suites, JSON-lines reports", {
        "suite": (str, _REQUIRED, {"choices": SUITE_NAMES}),
        "trials": (int, 100000, {}),
        "out": (str, None, {"help": "also write the JSON lines here"}),
    }),
    "simulate": ("exhaustive-decoder error curve at tiny sizes", {
        "p": (int, _REQUIRED, {}),
        "k": (int, _REQUIRED, {}),
        "model": (str, "flat", {"choices": ("flat", "gaussian")}),
        "c_beta": (float, 1.0, {}),
        "sigma": (float, 1.0, {}),
        "alpha_star": (float, 0.5, {}),
        "n_grid": (_parse_n_grid, (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
                   {"help": "comma list (5,10,15) or lo:hi:step range"}),
        "trials": (int, 400, {}),
        "decoder": (str, "auto",
                    {"choices": ("auto", "flat-ml", "mc-marginal")}),
        "mc_samples": (int, 256, {}),
        "out": (str, "error_curve.csv", {}),
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
    for command, (help_text, options) in _COMMANDS.items():
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
    rep.add_argument("--threads", type=int, default=None,
                     help="override the recorded thread count")
    return parser, sub.choices


def _resolve(args, config: dict) -> dict:
    """Every option of ``args.command``: the explicit flag, else the config
    value read by the flag's converter, else the default. A required option
    that neither sets is a usage error (``SystemExit(2)``)."""
    values, missing = {}, []
    options = {**_COMMANDS[args.command][1], **_COMMON_OPTIONS}
    for name, (convert, default, _) in options.items():
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif name in config:
            try:
                values[name] = convert(config[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad config value for {name}: {exc}") from exc
        elif default is _REQUIRED:
            missing.append("--" + name.replace("_", "-"))
        else:
            values[name] = default
    if missing:
        _parser()[1][args.command].error(
            "the following arguments are required: " + ", ".join(missing))
    if values["seed"] is None:
        values["seed"] = _default_seed()
    return values


# --------------------------------------------------------------- commands

def _cmd_run(args) -> int:
    config = _load_config(args.config) if args.config else {}
    params = _resolve(args, config)
    manifest = params.pop("manifest")
    # a default manifest sits beside an output checked here or in the
    # working directory
    for key, kind in _OUTPUT_KEYS[args.command].items():
        if params[key]:
            _check_location(params[key], kind == "dir")
    if manifest:
        _check_location(manifest, False)

    started = _utc_now()
    outputs, text, meta = _RUNNERS[args.command](params)
    finished = _utc_now()
    if text:
        print(text)
    _write_manifest(manifest or _manifest_path(params, args.command),
                    args.command, params, outputs, started, finished)

    if args.command == "verify":
        counts = meta["counts"]
        if meta["bad_numerics"]:
            print(f"numeric failure: {meta['bad_numerics']} non-finite "
                  "estimates", file=sys.stderr)
            return 4
        if counts["inconclusive"]:
            print(f"warning: {counts['inconclusive']} inconclusive "
                  "verdicts (underpowered run)", file=sys.stderr)
        print(f"{sum(counts.values())} checks: {counts['pass']} pass, "
              f"{counts['fail']} fail, {counts['inconclusive']} "
              "inconclusive", file=sys.stderr)
        if counts["fail"]:
            return 1
    return 0


def _cmd_replay(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    command = doc.get("command")
    if command not in _RUNNERS:
        print(f"manifest names unknown command {command!r}", file=sys.stderr)
        return 2
    params = dict(doc["params"])
    if args.threads is not None:
        params["threads"] = args.threads
    scratch = args.scratch or tempfile.mkdtemp(prefix="phaselim-replay-")
    os.makedirs(scratch, exist_ok=True)
    for key, kind in _OUTPUT_KEYS[command].items():
        if params.get(key):
            params[key] = (scratch if kind == "dir"
                           else os.path.join(scratch,
                                             os.path.basename(params[key])))
    outputs, _text, _meta = _RUNNERS[command](params)
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
