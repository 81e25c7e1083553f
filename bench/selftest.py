#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of pendseries).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

The file name keeps these out of the package's own test run: the smoke
test starts the benchmark and takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import truth  # noqa: E402
from tracer import Tracer  # noqa: E402


class _Recorder:
    """Stands in for the truth child: records requests, answers zeros."""

    def __init__(self):
        self.requests = []

    def __call__(self, request):
        self.requests.append(json.dumps(request))
        return {"theta": [[0.0] * len(ts) for _, _, ts in request.get("orbits", [])],
                "phase": [[0.0, 0.0] for _ in request.get("phase", [])]}


def test_inputs_are_deterministic_per_seed():
    for cls in (run.OrbitEval, run.PointQuery, run.CoeffBuild):
        first, again, other = _Recorder(), _Recorder(), _Recorder()
        cls(np.random.default_rng(7), first)
        cls(np.random.default_rng(7), again)
        cls(np.random.default_rng(8), other)
        assert first.requests == again.requests, cls.name
        assert first.requests != other.requests, cls.name


def test_timed_draws_all_build():
    ps, _ = run.import_fresh()
    for seed in (1, 2, 3):
        for cls in (run.OrbitEval, run.CoeffBuild):
            for op in cls(np.random.default_rng(seed), _Recorder()).ops:
                ps.build_trajectory(ps.energy_state(op.energy, op.direction),
                                    op.order, op.method)
        pool = run.PointQuery(np.random.default_rng(seed), _Recorder()).prepare(ps)
        assert not any(isinstance(sol, run.KnownFailure) for sol in pool), seed


def test_domain_probe_reaches_every_known_failure():
    ps, _ = run.import_fresh()
    attempted, failures = run.domain_probe(ps)
    assert attempted == len(run.DOMAIN_CONFIGS) * len(run.DOMAIN_GRID)
    buckets = run.fail_buckets(failures)
    assert all(n > 0 for n in buckets.values()), buckets


def test_reference_matches_rk4():
    from pendseries.validation import rk4_sample
    for energy, direction in ((1e-3, 1), (0.5, -1), (1.9, 1), (2.0, 1), (2.0, -1),
                              (2.5, -1), (10.0, 1)):
        times = np.linspace(0.0, 3.0, 7)
        theta0, omega0 = truth.phase_ref(energy, direction, 0.0)
        rk4, _ = rk4_sample(theta0, omega0, times, 1e-5)
        ref = np.array(truth.theta_ref(energy, direction, times.tolist()))
        assert np.max(np.abs(ref - rk4)) <= 1e-9, (energy, direction)


def test_tracer_sees_eval_poly_inside_theta_at():
    ps, _ = run.import_fresh()
    sol = ps.build_trajectory(ps.energy_state(0.5), 20, "raw")
    series = sys.modules["pendseries.series"]
    original = series.eval_poly
    seen = []

    def counting(*args, **kwargs):
        seen.append(1)
        return original(*args, **kwargs)

    rebound = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("pendseries")
               and getattr(m, "eval_poly", None) is original]
    for mod in rebound:
        mod.eval_poly = counting
    tracer = Tracer()
    tracer.install()
    try:
        ps.theta_at(sol, np.linspace(0.0, 10.0, 50))
    finally:
        tracer.remove()
        for mod in rebound:
            mod.eval_poly = original
    metrics = tracer.metrics(1)
    assert len(seen) > 0
    assert metrics["series.eval_poly.calls"] == len(seen)
    assert metrics["trajectory.theta_at.calls"] == 1
    assert metrics["trajectory.points"] == 50
    total = metrics["trajectory.theta_at.self_s"] + metrics["series.eval_poly.self_s"]
    assert 0.0 < total <= tracer.end[0] - tracer.start[0] + 1e-6


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name, metric in result["metrics"].items():
        assert f"{name} = " in proc.stdout and metric["unit"] in proc.stdout
    return result


def test_smoke_runs_print_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in ("point_query", "cli_readme"):
        got = _smoke(workload, 0)["metrics"]
        assert {k: v["unit"] for k, v in got.items()} == want, workload
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = _smoke("point_query", 1)["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["trajectory.evals_per_point"]["value"] > 0.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
