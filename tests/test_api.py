"""The package's top-level names are exactly the ones README documents."""

import importlib
import importlib.util
import math
import types
from pathlib import Path

import pendseries

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_has_a_readme_api_entry():
    lines = README.read_text(encoding="utf-8").splitlines()
    missing = [name for name in pendseries.__all__
               if not any(line.startswith((f"- `{name}`", f"- `{name}(")) for line in lines)]
    assert not missing


def test_public_attributes_are_exactly_all():
    public = {name for name, value in vars(pendseries).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(pendseries.__all__)


def test_benchmark_entry_points_stay_top_level():
    for name in ("build_trajectory", "energy_state", "theta_at", "align_to_ics",
                 "tally_coefficient_ops"):
        assert callable(getattr(pendseries, name))


def test_readme_library_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_every_traced_name_resolves():
    # the benchmark tracer wraps functions by "<module>.<name>"; a name
    # that moves or disappears would otherwise drop out of --trace silently
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        layer, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"pendseries.{layer}"), name, None)), qual
