"""Names that code outside the package reaches into must keep existing:
the functions the benchmark tracer wraps, the names the demos import (and
the keyword arguments the demos pass to them) and the names each module's
``__all__`` lists. Public functions take no parameter that no caller
sets, and the query and simulation configs no field their signal model
already fixes. numpy is the one runtime dependency."""
import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

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


_MODULES = ("phaselim", "phaselim.densities", "phaselim.limits",
            "phaselim.model", "phaselim.rng", "phaselim.simulate",
            "phaselim.verify")


def test_all_names_exist():
    for module in _MODULES:
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"


def _src_references() -> set:
    """Names that package code refers to, as a name or an attribute,
    outside their own definition and outside ``__all__``; an import alone
    is not a reference."""
    used = set()

    def visit(node, owners):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and node.id not in owners:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in sorted((ROOT / "src" / "phaselim").glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return used


def test_public_names_have_users():
    # a public name that only tests call belongs in the tests; a user is
    # package code, a demo's import or the benchmark tracer's table
    used = _src_references()
    used |= {name for _, _, name in _demo_imports()}
    used |= {name for names in _traced_names().values() for name in names}
    unused = [f"{module}.{name}" for module in _MODULES
              for name in importlib.import_module(module).__all__
              if name not in used]
    assert not unused, unused


def test_readme_api_list_is_the_package_all():
    # the README's "Public API" block names each package export once
    import phaselim
    text = (ROOT / "README.md").read_text()
    head = "Public API (`import phaselim`):\n"
    assert text.count(head) == 1
    block = text.split(head, 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`([^`]+)`", block)
    assert sorted(listed) == sorted(set(phaselim.__all__) - {"__version__"})


def test_public_signatures_pinned():
    # the quadrature order and forcing switch, the curve kinds and the PAVA
    # weights were set only by tests, or by nothing; a config's k and
    # decoder could only repeat or contradict its signal model; the alpha
    # search's zoom, not a grid step, sets its resolution; the power split
    # sorts the coefficient vector it is given; no record keeps a field its
    # other fields fix (a report's verdict, a curve's se, the constants'
    # scale are properties)
    from phaselim.densities import (ConcentrationConstants,
                                    conditional_output_logpdf)
    from phaselim.limits import ThresholdQuery, figure_curves
    from phaselim.model import partition_powers
    from phaselim.simulate import (ErrorCurve, SimConfig, decode,
                                   pava_nonincreasing)
    from phaselim.verify import VerificationReport
    for cls, names in (
            (ThresholdQuery,
             ["p", "signal", "noise", "alpha_star", "mode"]),
            (SimConfig,
             ["p", "signal", "noise", "alpha_star", "n_grid", "trials",
              "mc_samples", "master_seed", "threads"]),
            (VerificationReport,
             ["check", "params", "estimate", "se", "lower", "upper",
              "trials"]),
            (ErrorCurve, ["n_values", "pe", "trials"]),
            (ConcentrationConstants, ["moment", "noise_peak"])):
        assert [f.name for f in dataclasses.fields(cls)] == names, cls
    # the benchmark tracer reads decode's decoder as positional argument 4
    assert list(inspect.signature(decode).parameters) == [
        "x", "y", "signal", "noise", "decoder", "mc_samples", "rng"]
    for fn, params in (
            (conditional_output_logpdf,
             ["y", "known_sq", "fresh_power", "noise"]),
            (figure_curves, ["alpha_star", "snr_db_values"]),
            (partition_powers, ["beta", "alpha", "mode"]),
            (pava_nonincreasing, ["values"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def _runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:     # Python 3.10: the list is a literal
        block = re.search(r"^dependencies = (\[.*?\])", text, re.M | re.S)
        return ast.literal_eval(block.group(1))
    return tomllib.loads(text)["project"]["dependencies"]


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test oracle only (the `test` extra), and no module of the
    # package imports it
    assert [re.split(r"[<>=!~ ]", dep)[0]
            for dep in _runtime_dependencies()] == ["numpy"]
    for path in sorted((ROOT / "src" / "phaselim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules
                        if m.split(".")[0] == "scipy"], path.name
