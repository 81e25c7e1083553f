"""Spans and counts around the public functions of each pendseries module.

The tracer works from outside the package. For every wrapped function it
replaces the name in each ``pendseries.*`` namespace that binds the
original object: ``from .series import eval_poly`` copies the binding
into ``trajectory``, and a module looks its globals up at call time, so
the wrapper also sees calls made inside the package (``theta_at`` ->
``_tilde`` -> ``eval_resummed`` -> ``eval_poly``). Callers must reach the
package through module attributes at call time, never through names
bound before ``install``.

Each call records a span (function, start, end, parent span, op id) in
memory; self time is the span minus the time covered by its child spans.
Nothing in the package waits on a queue or a lock, so no wait time is
recorded.
"""

from __future__ import annotations

import math
import re
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = {
    "series": ("pendulum_series", "eval_poly"),
    "elliptic": ("period", "evaluate_k"),
    "resummation": ("resum", "efficient_truncation", "eval_resummed", "eval_efficient"),
    "trajectory": ("build_trajectory", "theta_at", "align_to_ics"),
    "validation": ("rk4_sample", "sup_error"),
    "convergence": ("roc_exact", "roc_estimate", "pole_lattice"),
    "energy": ("energy_state", "canonical_top_ics", "separatrix_theta"),
    "cli": ("main", "cmd_trajectory", "cmd_error_sweep", "cmd_surface", "cmd_roc"),
}

FUNCTIONS = [f"{m}.{f}" for m, names in LAYERS.items() for f in names]

# Canonical-branch evaluators: one call per point when theta_at folds
# point by point.
BRANCH_EVALS = ("series.eval_poly", "resummation.eval_resummed",
                "resummation.eval_efficient", "energy.separatrix_theta")

_ORDER = re.compile(r"order=(\d+)")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rk4_steps(times, dt) -> int:
    ts = np.asarray(times, dtype=float)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    gaps = gaps[gaps > 0.0]
    return int(np.sum(np.ceil(gaps / dt)))


class Tracer:
    """Wraps the functions in LAYERS; install() and remove() bracket a run."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(FUNCTIONS)}
        self.calls = [0] * len(FUNCTIONS)
        self.fails = [0] * len(FUNCTIONS)
        self.self_s = [0.0] * len(FUNCTIONS)
        self.total_s = [0.0] * len(FUNCTIONS)
        self.counts = Counter()
        self.op = -1
        # spans, column-wise
        self.fn = array("i")
        self.parent = array("l")
        self.op_ids = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pendseries" or name.startswith("pendseries."))]
        for qual in FUNCTIONS:
            layer, fname = qual.split(".")
            original = getattr(sys.modules[f"pendseries.{layer}"], fname)
            wrapper = self._wrap(self.ids[qual], original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, fid: int, original):
        tracer = self
        qual = FUNCTIONS[fid]
        counter = _COUNTERS.get(qual)

        def wrapper(*args, **kwargs):
            idx = len(tracer.fn)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            tracer.fn.append(fid)
            tracer.parent.append(parent)
            tracer.op_ids.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.fails[fid] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                child = tracer._child.pop()
                span = t1 - t0
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.calls[fid] += 1
                tracer.self_s[fid] += span - child
                tracer.total_s[fid] += span
                if tracer._child:
                    tracer._child[-1] += span
                if parent >= 0 and qual in BRANCH_EVALS:
                    parent_fn = FUNCTIONS[tracer.fn[parent]]
                    if parent_fn == "trajectory.theta_at":
                        tracer.counts["trajectory.branch_evals"] += 1
                    elif parent_fn == "trajectory.align_to_ics":
                        tracer.counts["trajectory.align_evals"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals: calls, self time and failures of each function,
        plus the layer counts."""
        out = {}
        for qual, fid in self.ids.items():
            out[f"{qual}.calls"] = self.calls[fid] / passes
            out[f"{qual}.self_s"] = self.self_s[fid] / passes
            out[f"{qual}.fail"] = self.fails[fid] / passes
        c = self.counts
        out["series.coeffs"] = c["series.coeffs"] / passes
        out["series.horner_steps"] = c["series.horner_steps"] / passes
        out["elliptic.k_terms"] = c["elliptic.k_terms"] / passes
        out["trajectory.points"] = c["trajectory.points"] / passes
        points = c["trajectory.points"]
        out["trajectory.evals_per_point"] = c["trajectory.branch_evals"] / points if points else 0.0
        aligns = self.calls[self.ids["trajectory.align_to_ics"]]
        out["trajectory.align_evals_per_call"] = c["trajectory.align_evals"] / aligns if aligns else 0.0
        out["validation.rk4_steps"] = c["validation.rk4_steps"] / passes
        rk4_s = self.total_s[self.ids["validation.rk4_sample"]]
        out["validation.rk4_steps_per_s"] = c["validation.rk4_steps"] / rk4_s if rk4_s else 0.0
        cli_ids = [self.ids[f"cli.{f}"] for f in LAYERS["cli"]]
        out["cli.self_s"] = sum(self.self_s[i] for i in cli_ids) / passes
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as columns of a compressed .npz, function names alongside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, functions=np.array(FUNCTIONS), fn=np.array(self.fn, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64), op=np.array(self.op_ids, dtype=np.int64),
            start=np.array(self.start), end=np.array(self.end))


def _count_series(counts, args, kwargs, result):
    counts["series.coeffs"] += int(_arg(args, kwargs, 2, "order")) + 1


def _count_horner(counts, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    coeffs = getattr(a, "coeffs", a)
    upto = _arg(args, kwargs, 2, "upto")
    degree = len(coeffs) - 1 if upto is None else int(upto)
    counts["series.horner_steps"] += np.size(_arg(args, kwargs, 1, "t")) * degree


def _count_k_terms(counts, args, kwargs, result):
    found = _ORDER.search(result.method)
    if found:
        counts["elliptic.k_terms"] += int(found.group(1))


def _count_points(counts, args, kwargs, result):
    counts["trajectory.points"] += np.size(_arg(args, kwargs, 1, "t"))


def _count_rk4(counts, args, kwargs, result):
    dt = float(_arg(args, kwargs, 3, "dt"))
    if math.isfinite(dt) and dt > 0.0:
        counts["validation.rk4_steps"] += _rk4_steps(_arg(args, kwargs, 2, "times"), dt)


_COUNTERS = {
    "series.pendulum_series": _count_series,
    "series.eval_poly": _count_horner,
    "elliptic.evaluate_k": _count_k_terms,
    "trajectory.theta_at": _count_points,
    "validation.rk4_sample": _count_rk4,
}
