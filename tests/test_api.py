"""The package's top-level names are exactly the ones README documents."""

import types
from pathlib import Path

import pendseries

README = Path(__file__).resolve().parents[1] / "README.md"


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
