#!/usr/bin/env python3
"""Benchmark of pendseries: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload orbit_eval --seed 1 --seconds 20 --trace 0

The package is driven only through its public functions and the
in-process CLI ``main(argv)``, on one thread, in a closed loop: the next
op starts when the previous one has returned. Each workload is a fixed
list of ops drawn from the seed, and a run times whole passes over that
list until ``--seconds`` of op time has accumulated, so every run of a
seed measures the same mix. Outputs are checked against the
Jacobi-elliptic truth of truth.py, computed in a child process outside
the timed region. Timed ops are drawn where the seed commit solves every
draw (plan.py); a failed op is counted by cause, never dropped. The rest
of the energy mix is covered by an untimed domain probe, reported as
domain_ok_ratio.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the op
list untraced, then the same passes traced (tracer.py), and prints the
per-layer metrics with the tracing overhead. Lines before the last are
for people; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plan import amplitude, approx_period, domain_grid, energy_mix, stratified_indices
from speed import PROBE_EVERY_S, REF_PROBE_S, SpeedLog, probe
from tracer import FUNCTIONS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 9
# A checked point further than this (in units of the orbit's amplitude)
# from the truth is on the wrong orbit, not merely truncated.
CORRECT_TOL = 0.5
# No new pass starts after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "median_err_digits": "digits",
    "p90_err_digits": "digits",
    "domain_ok_ratio": "1",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = (
    ("trajectory", "trajectory --energy 1.71 --method raw --order 6 --periods 2 --out traj.csv"),
    ("error-sweep", "error-sweep --energy 0.5,1.0,1.9998 --order 5,10,20 --out sweep.csv"),
    ("error-sweep-period", "error-sweep --period --energy 1.9998 --order 10,100 --out period.csv"),
    ("surface", "surface --energy 0.5,1.0,1.9,2.0,2.5,4 --periods 2 --out surface.csv"),
    ("roc", "roc --energy 1.71,2.02,5 --out roc.csv"),
)

FAIL_BUCKETS = (("fail.modulus_too_close", "too close to"),
                ("fail.non_finite_coefficient", "non-finite coefficient"))


def _per_layer_units() -> dict[str, str]:
    units = {}
    for qual in FUNCTIONS:
        units[f"{qual}.calls"] = "count"
        units[f"{qual}.self_s"] = "s"
        units[f"{qual}.fail"] = "count"
    units.update({
        "series.coeffs": "count",
        "series.horner_steps": "count",
        "elliptic.k_terms": "count",
        "resummation.coeff_ops": "count",
        "trajectory.points": "count",
        "trajectory.evals_per_point": "1",
        "trajectory.align_evals_per_call": "1",
        "validation.rk4_steps": "count",
        "validation.rk4_steps_per_s": "1/s",
        "cli.self_s": "s",
        "cli.csv_rows": "count",
        "cli.csv_bytes": "count",
    })
    for key, _ in CLI_COMMANDS:
        units[f"cli.{key}_s"] = "s"
    for name, _ in FAIL_BUCKETS:
        units[name] = "count"
    units.update({"fail.other": "count", "warn.runtime": "count",
                  "check.median_err": "1", "check.p99_err": "1", "check.max_err": "1",
                  "check.fail_ratio": "1",
                  "trace.ops_per_s": "1/s", "trace.overhead_pct": "%"})
    return units


PER_LAYER = _per_layer_units()


def call_truth(request: dict) -> dict:
    """Run truth.py in a child process on one request and wait for it."""
    proc = subprocess.run([sys.executable, str(HERE / "truth.py")], input=json.dumps(request),
                          capture_output=True, text=True, cwd=ROOT, timeout=150, check=True)
    return json.loads(proc.stdout)


class KnownFailure(Exception):
    """An op that fails for a cause already recorded (a pool entry that did
    not build, a CLI command with a nonzero exit status)."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


def failure_cause(exc: BaseException) -> str:
    """'layer: Type: message head', the layer being the innermost package module."""
    if isinstance(exc, KnownFailure):
        return exc.cause
    layer = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "pendseries":
            layer = path.stem
    head = str(exc).split("\n")[0]
    head = re.sub(r"[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?", "#", head)[:80]
    return f"{layer}: {type(exc).__name__}: {head}"


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    energy: float
    direction: int
    order: int | None = None
    method: str = "resummed"
    times: np.ndarray | list | None = None  # evaluation times of the op
    checked: np.ndarray | None = None       # indices into the op's output that are checked
    entry: int = -1                         # point_query: pool index
    theta0: float = 0.0                     # point_query: phase point on the orbit
    omega0: float = 0.0


def _series_method(energy: float, order: int, method: str) -> tuple[int | None, str]:
    return (None, "separatrix") if energy == 2.0 else (order, method)


class Workload:
    """A fixed op list from the seed, with a truth value for each checked output."""

    name = ""

    def __init__(self):
        self.ops: list[Op] = []
        self.ref: list[np.ndarray] = []

    def prepare(self, ps):
        """Anything built before the first timed op (counted in setup_s)."""
        return None

    def run(self, ps, cli, state, op: Op):
        """One op."""
        raise NotImplementedError

    def check(self, ps, i: int, out) -> np.ndarray | None:
        """Scaled errors of op i's checked outputs (outside the timer)."""
        op = self.ops[i]
        values = np.asarray(out, dtype=float)
        if op.checked is not None:
            values = values[op.checked]
        return np.abs(values - self.ref[i]) / amplitude(op.energy)

    def finish(self) -> tuple[np.ndarray, list[str]]:
        """Errors only known after the loop, and problems found."""
        return np.empty(0), []

    def cleanup(self) -> None:
        """Remove whatever the workload wrote."""

    def _shuffle_and_reference(self, rng, truth) -> None:
        self.ops = [self.ops[i] for i in rng.permutation(len(self.ops))]
        orbits = [[op.energy, op.direction, np.asarray(op.times)[op.checked].tolist()]
                  for op in self.ops]
        self.ref = [np.array(r) for r in truth({"orbits": orbits})["theta"]]


class OrbitEval(Workload):
    """Build, then theta_at on 1024 evenly spaced points over 1-8 periods."""

    name = "orbit_eval"
    ORDERS = (20, 40, 80)
    METHODS = ("raw", "resummed", "efficient")
    POINTS = 1024
    CHECKED = 32

    def __init__(self, rng, truth):
        super().__init__()
        combos = [(n, m) for m in self.METHODS for n in self.ORDERS]
        bulk, near, directions = energy_mix(
            rng, [combos[i % len(combos)][0] for i in range(225)], 32, 8)
        energies = ([(e, combos[i % len(combos)]) for i, e in enumerate(bulk)]
                    + [(e, combos[i % len(combos)]) for i, e in enumerate(near)]
                    + [(2.0, (None, "separatrix"))] * 8)
        for (e, (order, method)), d in zip(energies, directions):
            periods = int(rng.integers(1, 9))
            times = np.linspace(0.0, periods * approx_period(e), self.POINTS)
            self.ops.append(Op(e, d, *_series_method(e, order, method), times=times,
                               checked=stratified_indices(rng, self.POINTS, self.CHECKED)))
        self._shuffle_and_reference(rng, truth)

    def run(self, ps, cli, state, op):
        sol = ps.build_trajectory(ps.energy_state(op.energy, op.direction), op.order, op.method)
        return ps.theta_at(sol, op.times)


class CoeffBuild(Workload):
    """build_trajectory alone at N in {200, 400, 1000}; checked after the timer."""

    name = "coeff_build"
    ORDERS = (200, 400, 1000)
    METHODS = ("resummed", "efficient")
    CHECKED = 8

    def __init__(self, rng, truth):
        super().__init__()
        combos = [(n, m) for m in self.METHODS for n in self.ORDERS]
        bulk, near, directions = energy_mix(
            rng, [combos[i % len(combos)][0] for i in range(224)], 32)
        energies = ([(e, combos[i % len(combos)]) for i, e in enumerate(bulk)]
                    + [(e, combos[i % len(combos)]) for i, e in enumerate(near)])
        for (e, (order, method)), d in zip(energies, directions):
            span = 2.0 * approx_period(e)
            times = span * (np.arange(self.CHECKED) + rng.random(self.CHECKED)) / self.CHECKED
            self.ops.append(Op(e, d, order, method, times=times,
                               checked=np.arange(self.CHECKED)))
        self._shuffle_and_reference(rng, truth)
        self.checked_ops: set[int] = set()

    def run(self, ps, cli, state, op):
        return ps.build_trajectory(ps.energy_state(op.energy, op.direction), op.order, op.method)

    def check(self, ps, i, out):
        # evaluating N = 1000 point by point costs more than the build,
        # so each op is checked on its first completed pass only
        if i in self.checked_ops:
            return None
        self.checked_ops.add(i)
        return super().check(ps, i, ps.theta_at(out, self.ops[i].times))


class PointQuery(Workload):
    """align_to_ics on a prebuilt solution, then 16 scalar theta_at calls."""

    name = "point_query"
    ORDER = 40
    QUERIES = 16

    def __init__(self, rng, truth):
        super().__init__()
        bulk, near, directions = energy_mix(rng, [self.ORDER] * 216, 32, 8)
        self.pool = list(zip(bulk + near + [2.0] * 8, directions))
        taus = []
        for entry, (e, d) in enumerate(self.pool):
            period = approx_period(e)
            # phase point inside the first period, clear of its ends
            tau = rng.uniform(0.0, 3.0) if e == 2.0 else period * rng.uniform(0.05, 0.95)
            offsets = np.sort(rng.uniform(0.0, 2.0 * period, self.QUERIES))
            self.ops.append(Op(e, d, times=offsets.tolist(), entry=entry))
            taus.append(float(tau))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        taus = [taus[i] for i in order]
        reply = truth({
            "phase": [[op.energy, op.direction, tau] for op, tau in zip(self.ops, taus)],
            "orbits": [[op.energy, op.direction, [tau + s for s in op.times]]
                       for op, tau in zip(self.ops, taus)],
        })
        for op, (theta, omega) in zip(self.ops, reply["phase"]):
            op.theta0, op.omega0 = theta, omega
        self.ref = [np.array(r) for r in reply["theta"]]

    def prepare(self, ps):
        pool = []
        for e, d in self.pool:
            try:
                pool.append(ps.build_trajectory(ps.energy_state(e, d),
                                                *_series_method(e, self.ORDER, "resummed")))
            except Exception as exc:  # counted on every op that uses the entry
                pool.append(KnownFailure(failure_cause(exc)))
        return pool

    def run(self, ps, cli, pool, op):
        sol = pool[op.entry]
        if isinstance(sol, KnownFailure):
            raise KnownFailure(sol.cause)
        t0 = ps.align_to_ics(sol, op.theta0, op.omega0)
        return [ps.theta_at(sol, t0 + s) for s in op.times]


class CliReadme(Workload):
    """The five README commands through main(argv), one op per command.

    A pass is one run of the README; taking each command as an op gives a
    run of 20 s well over 100 ops, so op_p90_ms rests on more than a few
    slow passes.
    """

    name = "cli_readme"
    CHECKED = 640

    def __init__(self, rng, truth):
        super().__init__()
        self.rng = rng
        self.truth = truth
        OUT.mkdir(exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.argv = []
        for key, line in CLI_COMMANDS:
            argv = line.split()
            argv[-1] = str(self.outdir / argv[-1])
            self.argv.append((key, argv))
            self.ops.append(Op(0.0, 0, entry=len(self.ops)))
        self.first: dict[str, bytes] = {}  # each command's CSV output on its first pass
        self.problems: set[str] = set()

    def run(self, ps, cli, state, op):
        key, argv = self.argv[op.entry]
        with contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise KnownFailure(f"cli: exit status {status} from {key}")

    def check(self, ps, i, out):
        key, argv = self.argv[self.ops[i].entry]
        data = Path(argv[-1]).read_bytes()
        if self.first.setdefault(key, data) != data:
            self.problems.add(f"{key}: CSV output differs between passes")
        return None

    @property
    def csv_rows(self) -> int:
        return sum(len(_csv_rows(data)) for data in self.first.values())

    @property
    def csv_bytes(self) -> int:
        return sum(len(data) for data in self.first.values())

    def finish(self):
        if len(self.first) < len(self.argv):
            return np.empty(0), ["not every command completed"]
        # (energy, direction, t, theta); "cw" is direction +1 below E = 2
        # and -1 from the separatrix up
        traj = [(1.71, 1, float(r[0]), float(r[1]))
                for r in _csv_rows(self.first["trajectory"])]
        surface = [(float(r[0]), 1 if float(r[0]) < 2.0 else -1, float(r[1]), float(r[2]))
                   for r in _csv_rows(self.first["surface"])]
        points = [rows[j] for rows in (traj, surface)
                  for j in stratified_indices(self.rng, len(rows), self.CHECKED)]
        reply = self.truth({"orbits": [[e, d, [t]] for e, d, t, _ in points]})
        ref = np.array([r[0] for r in reply["theta"]])
        got = np.array([p[3] for p in points])
        scale = np.array([amplitude(p[0]) for p in points])
        return np.abs(got - ref) / scale, sorted(self.problems)

    def cleanup(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


WORKLOADS = {w.name: w for w in (OrbitEval, PointQuery, CoeffBuild, CliReadme)}

# Every (order, method) a library workload solves at, built once per run
# at each energy of a fixed grid over the full mix.
DOMAIN_CONFIGS = sorted({(n, m) for w in (OrbitEval, CoeffBuild)
                         for n in w.ORDERS for m in w.METHODS})
DOMAIN_GRID = domain_grid(56, 8)


def domain_probe(ps) -> tuple[int, Counter]:
    """Builds of the fixed grid: (attempted, failure causes).

    Timed ops stay where the seed commit solves every draw, so that a
    failure among them is a regression; this probe covers the rest of the
    mix and reports how much of it the package solves.
    """
    failures = Counter()
    attempted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for order, method in DOMAIN_CONFIGS:
            for j, energy in enumerate(DOMAIN_GRID):
                attempted += 1
                try:
                    ps.build_trajectory(ps.energy_state(energy, 1 - 2 * (j % 2)), order, method)
                except Exception as exc:
                    failures[failure_cause(exc)] += 1
    return attempted, failures


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    """What a run did: per op, its start, raw time, outcome and errors.

    Probes run only between ops, and each op is scaled by the probes
    around it.
    """

    ok: list[bool] = field(default_factory=list)
    op_start: list[float] = field(default_factory=list)
    op_raw: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    errors: list[np.ndarray] = field(default_factory=list)
    speed: SpeedLog = field(default_factory=SpeedLog)
    busy: float = 0.0  # raw op time, failed ops included
    passes: int = 0
    _t0: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self, ok: bool) -> None:
        """Record the op started last; maybe probe."""
        dt = time.perf_counter() - self._t0
        self.op_start.append(self._t0)
        self.op_raw.append(dt)
        self.ok.append(ok)
        self.busy += dt
        self.speed.tick(dt)

    def scaled(self) -> np.ndarray:
        """Op times at the reference speed (speed.py), one per attempted op."""
        return np.asarray(self.op_raw) * self.speed.factors(self.op_start)

    def ops_per_s(self) -> float:
        """Completed ops per scaled second, failed ops' time included."""
        return sum(self.ok) / float(np.sum(self.scaled()))


def run_passes(wl: Workload, ps, cli, state, *, seconds: float = 0.0,
               passes: int | None = None, check: bool = True, tracer=None) -> Tally:
    """Whole passes over wl.ops: exactly `passes`, or until `seconds` of op time."""
    tally = Tally()
    wall0 = time.perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = tally.attempted
            tally.start()
            try:
                out = wl.run(ps, cli, state, op)
                ok = True
            except Exception as exc:
                ok = False
                cause = exc
            tally.stop(ok)
            if not ok:
                tally.failures[failure_cause(cause)] += 1
            elif check:
                err = wl.check(ps, i, out)
                if err is not None:
                    tally.errors.append(err)
        tally.passes += 1
        if passes is not None:
            if tally.passes >= passes:
                break
        elif tally.busy >= seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    tally.speed.tick(PROBE_EVERY_S)  # a probe after the last op
    return tally


def import_fresh():
    """Import pendseries and its CLI from this checkout, dropping cached copies."""
    for name in [n for n in sys.modules if n == "pendseries" or n.startswith("pendseries.")]:
        del sys.modules[name]
    ps = importlib.import_module("pendseries")
    cli = importlib.import_module("pendseries.cli")
    if Path(ps.__file__).resolve().parent != SRC / "pendseries":
        raise ImportError(f"pendseries imported from {ps.__file__}, not from {SRC}")
    return ps, cli


def setup(wl: Workload):
    """Import plus prepare, SETUP_REPS times; the last copy is the one used.

    Each repetition is scaled to the reference speed by the probes taken
    just before and just after it.
    """
    times = []
    before = probe()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ps, cli = import_fresh()
        state = wl.prepare(ps)
        took = time.perf_counter() - t0
        after = probe()
        times.append(took * REF_PROBE_S / statistics.median([before, after]))
        before = after
    return statistics.median(times), ps, cli, state


@dataclass
class Accuracy:
    """Scaled errors |theta - theta_ref| / amplitude over all checked points."""

    median: float
    p90: float
    p99: float
    max: float
    wrong: int  # points beyond CORRECT_TOL, or not finite
    count: int

    @classmethod
    def of(cls, tally: Tally, late: np.ndarray) -> "Accuracy":
        errs = np.concatenate(tally.errors + [late])
        if errs.size == 0:
            return cls(math.nan, math.nan, math.nan, math.nan, 0, 0)
        errs = np.where(np.isfinite(errs), errs, np.inf)
        p50, p90, p99 = np.percentile(errs, [50, 90, 99])
        return cls(float(p50), float(p90), float(p99), float(np.max(errs)),
                   int(np.sum(errs > CORRECT_TOL)), errs.size)


def digits(err: float) -> float:
    """Correct decimal digits of a scaled error, -log10(err); errors below
    1e-17, finer than double precision resolves, count as 1e-17."""
    return -math.log10(max(err, 1e-17))


def fail_buckets(failures: Counter) -> dict[str, int]:
    out = {name: 0 for name, _ in FAIL_BUCKETS}
    out["fail.other"] = 0
    for cause, n in failures.items():
        for name, needle in FAIL_BUCKETS:
            if needle in cause:
                out[name] += n
                break
        else:
            out["fail.other"] += n
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pendseries" / "__init__.py").is_file():
        print(f"error: no pendseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rng = np.random.default_rng(args.seed)
    wl = WORKLOADS[args.workload](rng, call_truth)
    try:
        return _measure(wl, args)
    finally:
        wl.cleanup()


def _measure(wl: Workload, args) -> int:
    setup_s, ps, cli, state = setup(wl)
    plain = run_passes(wl, ps, cli, state, seconds=args.seconds * (0.5 if args.trace else 1.0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probed, probe_failures = domain_probe(ps)
    late, problems = wl.finish()
    acc = Accuracy.of(plain, late)
    tallies = [plain]
    if plain.failed == plain.attempted:
        print(f"error: all {plain.attempted} ops failed: {plain.failures.most_common(3)}",
              file=sys.stderr)
        return 1
    print(f"{wl.name} seed={args.seed}: {plain.passes} pass(es), {plain.attempted} ops, "
          f"{plain.attempted - plain.failed} completed, "
          f"fail_ratio={plain.failed / plain.attempted:.6g}, raw {plain.busy:.2f} s of op time, "
          f"probe median {statistics.median(plain.speed.took) * 1e3:.4f} ms")
    if args.trace:
        values, traced = _traced(wl, ps, cli, state, plain, args.seed)
        values.update(fail_buckets(probe_failures))
        values.update({"check.median_err": acc.median, "check.p99_err": acc.p99,
                       "check.max_err": acc.max,
                       "check.fail_ratio": plain.failed / plain.attempted})
        units = PER_LAYER
        tallies.append(traced)
    else:
        completed_ms = plain.scaled()[np.asarray(plain.ok)] * 1e3
        values = {
            "setup_s": setup_s,
            "ops_per_s": plain.ops_per_s(),
            "op_p50_ms": float(np.percentile(completed_ms, 50)),
            "op_p90_ms": float(np.percentile(completed_ms, 90)),
            "median_err_digits": digits(acc.median),
            "p90_err_digits": digits(acc.p90),
            "domain_ok_ratio": 1.0 - sum(probe_failures.values()) / probed,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    failures = sum((t.failures for t in tallies), Counter())
    for cause, count in failures.most_common():
        print(f"failure x{count}: {cause}")
    print(f"domain probe: {probed - sum(probe_failures.values())} of {probed} builds solved")
    for cause, count in probe_failures.most_common():
        print(f"domain probe failure x{count}: {cause}")
    print(f"checked errors over {acc.count} points: median {acc.median:.3e}, p90 {acc.p90:.3e}, "
          f"p99 {acc.p99:.3e}, max {acc.max:.3e}; {acc.wrong} beyond {CORRECT_TOL} amplitudes")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = acc.count > 0 and acc.wrong == 0 and not problems
    print(json.dumps({"correct": correct,
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": sum(t.failed for t in tallies),
                      "metrics": metrics}))
    return 0


def _traced(wl: Workload, ps, cli, state, plain: Tally, seed: int):
    """The passes of `plain` again under the tracer; per-layer values per pass."""
    tracer = Tracer()
    tracer.install()
    try:
        with ps.tally_coefficient_ops() as ops_tally, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced = run_passes(wl, ps, cli, state, passes=plain.passes, check=False,
                                tracer=tracer)
    finally:
        tracer.remove()
    tracer.write_spans(OUT / f"spans-{wl.name}-seed{seed}.npz")
    n = traced.passes
    values = tracer.metrics(n)
    values["resummation.coeff_ops"] = ops_tally.total / n
    values["warn.runtime"] = sum(issubclass(w.category, RuntimeWarning) for w in caught) / n
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.overhead_pct"] = 100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0)
    # cli_readme's ops are the README commands in order; their times come
    # from the untraced passes
    per_op = plain.scaled()
    for j, (key, _) in enumerate(CLI_COMMANDS):
        values[f"cli.{key}_s"] = (float(np.median(per_op[j::len(wl.ops)]))
                                  if isinstance(wl, CliReadme) else 0.0)
    values["cli.csv_rows"] = getattr(wl, "csv_rows", 0)
    values["cli.csv_bytes"] = getattr(wl, "csv_bytes", 0)
    print(f"traced: {n} pass(es); tracing overhead {values['trace.overhead_pct']:.1f}% "
          f"({plain.ops_per_s():.4g} -> {values['trace.ops_per_s']:.4g} ops/s)")
    return values, traced


if __name__ == "__main__":
    sys.exit(main())
