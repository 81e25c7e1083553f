"""Machine-speed probe: op times expressed at one reference speed.

On a shared machine the same code runs up to 1.8x slower for seconds at
a time while a neighbour loads the core, so raw wall times of two runs
differ by more than any change worth detecting. The benchmark therefore
times a fixed probe between ops, mixing interpreter work with small
numpy calls as the package does, and scales every op time by

    REF_PROBE_S / (median probe time next to the op).

A scaled time reads as the op would take on the reference machine at
the speed where the probe takes REF_PROBE_S. Process CPU time is no
help: it slows down exactly as wall time does.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median probe time on a 2-core Intel Xeon at 2.1 GHz, Python 3.11,
# numpy 2.4, while the core was not shared.
REF_PROBE_S = 1.7e-4
# A probe runs once this much op time has passed since the last one.
PROBE_EVERY_S = 0.02
# Probes on each side of an op whose median scales it.
WINDOW = 2

_COEFFS = np.linspace(0.1, 1.0, 41)


def probe() -> float:
    """Seconds taken by a fixed mix of work like the package's own.

    About a third of the time goes to scalar RK4 steps in plain Python
    (the CLI's oracle), the rest to Horner steps on 0-d numpy arrays (the
    branch evaluation). The two slow down by different factors when the
    core is shared (about 1.4x and 1.8x), and the package's workloads lie
    between them.
    """
    t0 = time.perf_counter()
    theta, omega, h = 0.3, 0.1, 1e-3
    for _ in range(300):
        k1t, k1w = omega, -math.sin(theta)
        k2t, k2w = omega + 0.5 * h * k1w, -math.sin(theta + 0.5 * h * k1t)
        theta += 0.5 * h * (k1t + k2t)
        omega += 0.5 * h * (k1w + k2w)
    for j in range(3):
        t = np.asarray(0.3 + 0.01 * j)
        acc = np.full_like(t, _COEFFS[-1])
        for c in _COEFFS[-2::-1]:
            acc = acc * t + c
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times along a run, and the scale factor they give each op."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._since = math.inf

    def tick(self, op_time: float) -> None:
        """Account op time; probe when PROBE_EVERY_S of it has passed."""
        self._since += op_time
        if self._since >= PROBE_EVERY_S:
            self.at.append(time.perf_counter())
            self.took.append(probe())
            self._since = 0.0

    def factors(self, starts) -> np.ndarray:
        """REF_PROBE_S over the median of the probes around each start."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        out = np.empty(len(starts))
        for i, t in enumerate(starts):
            j = int(np.searchsorted(at, t))
            near = took[max(0, j - WINDOW):j + WINDOW]
            out[i] = REF_PROBE_S / float(np.median(near))
        return out
