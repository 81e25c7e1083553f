#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload of BENCHMARK.json it runs ``run.py --trace 0`` once
per seed, one at a time, at BENCHMARK.json's ``run_seconds``, then
``run.py --trace 1`` on the first seed. For each end-to-end
metric it records the median over seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, which BENCHMARK.json's bound must exceed. The
output also names the commit, processor, interpreter, numpy and core
count, so a later change can quote its before and after from two such
files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["report"] = [line for line in proc.stdout.splitlines()[:-1] if " = " not in line]
    return result


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {
        "git_sha": _git_sha(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seeds": args.seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            res = _run(workload, seed, seconds, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: {res['wall_s']:.1f} s, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "spread": spread, "bound": bounds[name],
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            worst = max(worst, spread / bounds[name])
            print(f"  {name:20s} median {median:.6g}  spread {spread:.4f}  "
                  f"(bound {bounds[name]})", flush=True)
        traced = _run(workload, args.seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "all_correct": all(r["correct"] for r in runs),
            "fail_ratio": [r["failed"] / r["attempted"] for r in runs],
            "report_first_seed": runs[0]["report"],
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report_first_seed": traced["report"],
            "wall_s": [r["wall_s"] for r in runs] + [traced["wall_s"]],
        }
    out["worst_spread_over_bound"] = worst
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
