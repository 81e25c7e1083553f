"""The committed BENCH_*.json evidence files name what BENCHMARK.json declares.

A performance claim counts only through such a file, so each one must claim
a declared workload and end-to-end metric, and report parent and change
medians for every end-to-end metric it measured.  BENCHMARK.json is only read.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_the_benchmark(path):
    workloads, metrics = _declared()
    bench = json.loads(path.read_text())
    assert bench["claim"]["workload"] in workloads
    assert bench["claim"]["metric"] in metrics
    assert bench["end_to_end"]
    for name, entry in bench["end_to_end"].items():
        for metric in sorted(metrics):
            assert {"parent_median", "change_median"} <= set(entry["metrics"][metric]), \
                (name, metric)
