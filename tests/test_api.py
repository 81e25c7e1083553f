"""The package's top-level names are exactly the ones README documents.

The last checks stand in for a linter: every module's `__all__`
resolves, no module, in the package or among these tests, imports a
name it never uses, the private names one package module imports
from another are exactly the ones listed here, no package module
calls a wrapper that only the benchmark tracer and tests still use,
one test function alone calls each view or names the efficient method
alias, and every source parses under the oldest supported Python's grammar.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import pendseries

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "pendseries").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def test_every_export_has_a_readme_api_entry():
    lines = README.read_text(encoding="utf-8").splitlines()
    missing = [name for name in pendseries.__all__
               if not any(line.startswith((f"- `{name}`", f"- `{name}(")) for line in lines)]
    assert not missing


def test_readme_api_signatures_match_the_exports():
    # each "- `name(params)`" entry: the positional parameters' names in order,
    # a default exactly where README shows one and with its value; "..." ends it
    entries = [line.split("`")[1] for line in README.read_text(encoding="utf-8").splitlines()
               if line.startswith("- `") and "(" in line.split("`")[1]]
    assert entries
    for entry in entries:
        call = ast.parse(entry, mode="eval").body
        name = call.func.id
        documented = [arg.id if isinstance(arg, ast.Name) else ast.literal_eval(arg)
                      for arg in call.args]
        documented += [(kw.arg, ast.literal_eval(kw.value)) for kw in call.keywords]
        positional = [p for p in inspect.signature(getattr(pendseries, name)).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if ... in documented:
            documented = documented[:documented.index(...)]
            positional = positional[:len(documented)]
        actual = [p.name if p.default is p.empty else (p.name, p.default) for p in positional]
        assert documented == actual, entry


def test_public_attributes_are_exactly_all():
    public = {name for name, value in vars(pendseries).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(pendseries.__all__)


def _bench_entry_points() -> set[str]:
    """Every public `ps.<name>` the benchmark scripts read off the package."""
    return {node.attr for path in BENCH
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ps" and not node.attr.startswith("_")}


def test_benchmark_entry_points_stay_top_level():
    # a top-level removal that bench/ still needs fails here, not in a benchmark run
    names = _bench_entry_points()
    assert {"build_trajectory", "energy_state", "theta_at", "align_to_ics"} <= names
    for name in names:
        assert name in pendseries.__all__ and callable(getattr(pendseries, name)), name


def test_readme_library_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_every_traced_name_resolves(bench_module):
    # the benchmark tracer wraps functions by "<module>.<name>"; a name
    # that moves or disappears would otherwise drop out of --trace silently
    tracer = bench_module("tracer")
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        layer, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"pendseries.{layer}"), name, None)), qual


def test_tracer_counters_read_what_the_package_passes(bench_module):
    # beyond the names, the tracer's counters read evaluate_k(...).method,
    # pendulum_series' positional order, eval_poly's (a, t),
    # theta_at's t and rk4_sample's times and dt; a change to any of them
    # would pass the name check and crash a traced benchmark run
    tracer_mod = bench_module("tracer")
    modules = {layer: importlib.import_module(f"pendseries.{layer}")
               for layer in tracer_mod.LAYERS}

    def binding(qual):
        layer, name = qual.split(".")
        return getattr(modules[layer], name)

    before = {qual: binding(qual) for qual in tracer_mod.FUNCTIONS}
    bound = {name: getattr(pendseries, name) for name in pendseries.__all__}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        trajectory = modules["trajectory"]
        assert trajectory.build_trajectory is not before["trajectory.build_trajectory"]
        state = pendseries.energy_state(1.71)
        for method in trajectory.METHODS:
            start = pendseries.energy_state(2.0) if method == "separatrix" else state
            sol = pendseries.build_trajectory(start, 20, method)
            assert pendseries.theta_at(sol, np.linspace(0.0, 10.0, 5)).shape == (5,)
        pendseries.align_to_ics(sol, 0.0, 2.0)
        omega0 = -math.sqrt(2.0 * (1.71 - 2.0 * math.sin(0.25) ** 2))
        pendseries.align_to_ics(pendseries.build_trajectory(state, 20), 0.5, omega0)
        modules["elliptic"].evaluate_k(0.5, "resummed", 16)
        modules["validation"].rk4_sample(1.0, 0.0, [0.5, 1.0], 0.01)
    finally:
        tracer.remove()
    for qual, original in before.items():
        assert binding(qual) is original, qual
    assert all(getattr(pendseries, name) is value for name, value in bound.items())
    metrics = tracer.metrics(1)
    for name in ("series.coeffs", "series.horner_steps", "elliptic.k_terms",
                 "trajectory.points", "trajectory.align_evals_per_call",
                 "validation.rk4_steps"):
        assert metrics[name] > 0, name


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(pendseries.__path__):
        module = importlib.import_module(f"pendseries.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports through __all__ count as uses
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    assert SOURCES and TESTS
    unused = {path.name: names for path in SOURCES + TESTS
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused


def test_unused_import_check_sees_a_stale_name():
    assert _unused_imports("import math\nfrom .a import b, c\n__all__ = ['c']\n") == [
        "b (line 2)", "math (line 1)"]


# Private (single-underscore) names a package module imports from a sibling.
# A new one is a new coupling between modules: add it here deliberately.
PRIVATE_IMPORTS = {
    "elliptic": {"_whole"},
    "validation": {"_whole", "_orient"},
}


def _private_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "pendseries")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")}


def test_private_imports_across_modules_are_the_listed_ones():
    found = {path.stem: names for path in SOURCES
             if (names := _private_imports(path.read_text(encoding="utf-8")))}
    assert found == PRIVATE_IMPORTS


def test_private_import_check_sees_a_new_name():
    source = ("from . import __version__\nfrom .a import _b, c\n"
              "from pendseries.d import _e\nfrom math import _f\n")
    assert _private_imports(source) == {"_b", "_e"}


# Kept only because bench/tracer.py wraps them (or tests use them): the
# package builds and evaluates without calling any of them.  The views of
# `state.orbit`, `roc_exact` and `eval_poly` among them have one test each,
# so that removing a view deletes exactly one test.
VIEWS = {"canonical_top_ics", "pole_lattice", "period", "eval_efficient"}
BENCH_PINNED_WRAPPERS = VIEWS | {"resum", "eval_resummed"}


def _called_names(source: str) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_package_calls_no_bench_pinned_wrapper():
    assert _called_names("a.resum(x)\neval_efficient(y)[0]\n") == {"resum", "eval_efficient"}
    found = {path.name: hits for path in SOURCES
             if (hits := _called_names(path.read_text(encoding="utf-8")) & BENCH_PINNED_WRAPPERS)}
    assert not found


def _string_constants(source: str) -> set:
    return {node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)}


def _callers(source: str, names: set[str], uses=_called_names) -> dict[str, list[str]]:
    """Each of `names` that `source` uses (by default, calls), with the functions that do.

    A function is a top-level one or a class's method, named `Class.method`;
    a use outside every function is made by `<module>`.
    """
    found = {}
    for node in ast.parse(source).body:
        scope, units = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for unit in units:
            caller = scope + unit.name if isinstance(unit, ast.FunctionDef) else "<module>"
            for name in uses(ast.unparse(unit)) & names:
                found.setdefault(name, []).append(caller)
    return found


def test_each_view_is_called_from_one_test():
    source = ("x = period(s)\ndef test_a():\n    period(s)\n"
              "class TestB:\n    def test_c(self):\n        f(pole_lattice(s).real)\n")
    assert _callers(source, VIEWS) == {"period": ["<module>", "test_a"],
                                       "pole_lattice": ["TestB.test_c"]}
    callers = {name: [] for name in VIEWS}
    for path in TESTS:
        for name, where in _callers(path.read_text(encoding="utf-8"), VIEWS).items():
            callers[name] += [f"{path.name}::{caller}" for caller in where]
    # one test function each, and no call from a helper or at module level
    assert all(len(where) == 1 and re.fullmatch(r"test_\w+\.py::(\w+\.)?test_\w+", where[0])
               for where in callers.values()), callers


def test_one_test_names_the_efficient_alias():
    # "resummed" under a second name, kept for bench/: its one test goes with
    # it; test_cli.py's usage errors reject the name, and this check names it
    alias = {"efficient"}
    assert _callers('@p(["efficient"])\ndef test_a():\n    f("efficient s")\n', alias,
                    _string_constants) == {"efficient": ["test_a"]}
    where = sorted(f"{path.name}::{caller}" for path in TESTS if path.name != "test_cli.py"
                   for caller in _callers(path.read_text(encoding="utf-8"), alias,
                                          _string_constants).get("efficient", []))
    assert where == ["test_api.py::test_one_test_names_the_efficient_alias", "test_trajectory.py::"
                     "TestEfficientBranch.test_agrees_with_resummed_at_convergence_orders"], where


def _run_time_imports(source: str) -> set[str]:
    """Sibling modules a source imports outside its `if TYPE_CHECKING:` blocks."""
    tree = ast.parse(source)
    hidden = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
              for n in ast.walk(node)}
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in hidden}


def test_only_energy_forms_the_orbit_record():
    assert _run_time_imports("from .a import b\nif TYPE_CHECKING:\n    from .c import d\n") == {"a"}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    # energy imports ellipk_prime from elliptic, so elliptic may not import energy back
    assert "energy" not in _run_time_imports(sources["elliptic"])
    # the rest read the record, `state.orbit`, and never name its builder;
    # nor do the tests, but for this file, which holds the name to look for
    assert [stem for stem, source in sources.items() if "_orbit_constants" in source] == ["energy"]
    assert not [path.name for path in TESTS if path.name != "test_api.py"
                and "_orbit_constants" in path.read_text(encoding="utf-8")]


def test_every_source_parses_under_python_3_10():
    # requires-python is >= 3.10.  This checks grammar only: a call into a
    # 3.11+ standard-library API (math.fma, tomllib) still parses here
    try_star = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(try_star, feature_version=(3, 10))
    assert SOURCES and TESTS and BENCH
    for path in SOURCES + TESTS + BENCH:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
