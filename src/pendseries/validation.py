"""Independent checks of the analytic solutions.

The reference here is deliberately boring: classic fixed-step
fourth-order Runge-Kutta on theta' = omega, omega' = -sin theta.  Its
global error scales like dt^4, so dt = 1e-5 resolves trajectories to
roughly rounding level over the time spans used in the test suite;
`sup_error` returns a solution's sup-norm distance from it as a float.

Near E = 2 RK4 is the less accurate of the two: from the same theta_max
with dt = 1e-3 it is 1.2e-10 off the Jacobi-elliptic solution at
E = 2 - 1e-10 and 2.3e-9 at 2 - 2e-12, where the resummed branch is within
1e-14.  Tests at that grade use the mpmath reference `bench/truth.py`.

The stepper runs on Python floats whatever types the caller passes:
numpy-scalar arithmetic gives the same IEEE doubles at several times the
cost per step, and the oracle takes millions of steps.
"""

from __future__ import annotations

import math
import numpy as np

from .energy import SeparatrixError
from .series import _whole
from .trajectory import TrajectorySolution, _orient, _tilde, canonical_initial_state

__all__ = [
    "rk4_sample",
    "sup_error",
]


def _rk4_advance(theta: float, omega: float, h: float, steps: int) -> tuple[float, float]:
    # The textbook step with k_w = -sin carried unnegated: negation is exact
    # and 0.5 * h * k parses as (0.5 * h) * k, so the bits are the same.
    sin = math.sin  # looked up once per call, not once per step
    hh = 0.5 * h
    for _ in range(steps):
        s1 = sin(theta)
        k2t = omega - hh * s1
        s2 = sin(theta + hh * omega)
        k3t = omega - hh * s2
        s3 = sin(theta + hh * k2t)
        k4t = omega - h * s3
        s4 = sin(theta + h * k3t)
        theta += h * (omega + 2.0 * (k2t + k3t) + k4t) / 6.0
        omega -= h * (s1 + 2.0 * (s2 + s3) + s4) / 6.0
    return theta, omega


def rk4_sample(theta0: float, omega0: float, times, dt: float):
    """RK4 state at each requested time, hitting every sample exactly.

    Each gap between consecutive sorted sample times is covered by
    uniform substeps of size <= dt, so no interpolation ever happens.
    Returns (thetas, omegas) aligned with `times`.  Times must be finite,
    sorted and non-negative, the start finite, and dt finite and positive
    with a finite step count times[-1] / dt; otherwise `ValueError`.
    The start, times and step are converted to Python floats before
    stepping, so ndarray or numpy-scalar inputs give the same bits as
    floats at float speed.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if ts[0] < 0.0 or np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be sorted and non-negative")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (math.isfinite(theta0) and math.isfinite(omega0)):
        raise ValueError(f"start must be finite, got theta0={theta0!r}, omega0={omega0!r}")
    ts = ts.tolist()
    dt = float(dt)
    if not math.isfinite(ts[-1] / dt):
        raise ValueError(f"dt = {dt!r} is too small to step over the span {ts[-1]!r}")
    thetas = np.empty(len(ts))
    omegas = np.empty(len(ts))
    theta, omega = float(theta0), float(omega0)
    prev = 0.0
    for i, t in enumerate(ts):
        span = t - prev
        if span > 0.0:
            steps = math.ceil(span / dt)
            theta, omega = _rk4_advance(theta, omega, span / steps, steps)
        thetas[i] = theta
        omegas[i] = omega
        prev = t
    return thetas, omegas


def sup_error(sol: TrajectorySolution, upto: int | None = None,
              grid_points: int = 1001, oracle_dt: float = 1e-4, oracle=None) -> float:
    """Max |theta_series - theta_RK4| over an even grid on [0, T*], as a float.

    The grid covers the canonical branch in the orbit's own sense; the
    separatrix has no finite T* and raises `SeparatrixError`.  `upto`
    evaluates a partial sum of order 0..N (2..N when pinned) of a stored
    series solution, letting one high-order build serve a whole truncation
    sweep.  A precomputed `oracle` (thetas on the same grid) skips the
    RK4 run.  A non-integral `upto` or `grid_points` raises.
    """
    t_star = sol.period_info.T_star
    if not math.isfinite(t_star):
        raise SeparatrixError("the separatrix has no branch on [0, T*] to measure")
    if upto is not None:
        upto = _whole(upto, "upto")
        if not 0 <= upto <= sol.order:
            raise ValueError(f"upto={upto} outside the solution's orders 0..{sol.order}")
    grid_points = _whole(grid_points, "grid_points")
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    grid = np.linspace(0.0, t_star, grid_points)
    approx = _orient(sol.energy_state, _tilde(sol, grid, upto))
    if oracle is None:
        theta0, omega0 = canonical_initial_state(sol)
        oracle, _ = rk4_sample(theta0, omega0, grid, oracle_dt)
    else:
        oracle = np.asarray(oracle, dtype=float)
        if oracle.shape != grid.shape:
            raise ValueError("oracle samples must match the grid")
    return float(np.max(np.abs(approx - oracle)))
