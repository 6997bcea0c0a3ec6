"""Names that code outside the package reaches into must keep existing:
the functions the benchmark tracer wraps, the names the demos import (and
the keyword arguments the demos pass to them) and the names each module's
``__all__`` lists. Public functions take no parameter that no caller
sets, and the query and simulation configs no field their signal model
already fixes."""
import ast
import dataclasses
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def _demo_imports():
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "phaselim"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_traced_functions_exist():
    traced = _traced_names()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"phaselim.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_demo_imports_exist():
    imports = list(_demo_imports())
    assert {demo for demo, _, _ in imports} == {
        p.name for p in (ROOT / "demos").glob("*.py")}
    for demo, module, name in imports:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{demo}: {module}.{name}"


def test_demo_keywords_exist():
    # test_demos runs the demos; this names the call a dropped parameter breaks
    checked = 0
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "phaselim"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(mod, alias.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            params = inspect.signature(imported[node.func.id]).parameters
            takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
            for kw in node.keywords:
                if kw.arg is not None and not takes_any:
                    assert kw.arg in params, \
                        f"{path.name}:{node.lineno}: {node.func.id}({kw.arg}=)"
                    checked += 1
    assert checked


def test_all_names_exist():
    for module in ("phaselim", "phaselim.densities", "phaselim.limits",
                   "phaselim.model", "phaselim.rng", "phaselim.simulate",
                   "phaselim.verify"):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"


def test_public_signatures_pinned():
    # the quadrature order and forcing switch, the curve kinds and the PAVA
    # weights were set only by tests, or by nothing; a config's k and
    # decoder could only repeat or contradict its signal model
    from phaselim.densities import conditional_output_logpdf
    from phaselim.limits import ThresholdQuery, figure_curves
    from phaselim.simulate import SimConfig, decode, pava_nonincreasing
    for cls, names in (
            (ThresholdQuery,
             ["p", "signal", "noise", "alpha_star", "mode", "grid_step"]),
            (SimConfig,
             ["p", "signal", "noise", "alpha_star", "n_grid", "trials",
              "mc_samples", "master_seed", "threads"])):
        assert [f.name for f in dataclasses.fields(cls)] == names, cls
    # the benchmark tracer reads decode's decoder as positional argument 4
    assert list(inspect.signature(decode).parameters) == [
        "x", "y", "signal", "noise", "decoder", "mc_samples", "rng"]
    for fn, params in (
            (conditional_output_logpdf,
             ["y", "known_sq", "fresh_power", "noise"]),
            (figure_curves,
             ["alpha_star", "snr_db_values", "sigma", "grid_step"]),
            (pava_nonincreasing, ["values"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
