"""Independent checks of the analytic solutions.

The reference here is deliberately boring: classic fixed-step
fourth-order Runge-Kutta on theta' = omega, omega' = -sin theta.  Its
global error scales like dt^4, so dt = 1e-5 resolves trajectories to
roughly rounding level over the time spans used in the test suite,
making it a trustworthy oracle for everything the series methods claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import TrajectorySolution, _orient, _tilde, canonical_initial_state

__all__ = [
    "ErrorReport",
    "rk4_sample",
    "sup_error",
]


@dataclass(frozen=True)
class ErrorReport:
    """Sup-norm deviation of one solution from the RK4 oracle."""

    energy: float
    method: str
    order: int
    grid_points: int
    sup_error: float
    grid_span: tuple[float, float]


def _rk4_advance(theta: float, omega: float, h: float, steps: int,
                 sin=math.sin) -> tuple[float, float]:
    for _ in range(steps):
        k1t = omega
        k1w = -sin(theta)
        k2t = omega + 0.5 * h * k1w
        k2w = -sin(theta + 0.5 * h * k1t)
        k3t = omega + 0.5 * h * k2w
        k3w = -sin(theta + 0.5 * h * k2t)
        k4t = omega + h * k3w
        k4w = -sin(theta + h * k3t)
        theta += h * (k1t + 2.0 * (k2t + k3t) + k4t) / 6.0
        omega += h * (k1w + 2.0 * (k2w + k3w) + k4w) / 6.0
    return theta, omega


def rk4_sample(theta0: float, omega0: float, times, dt: float):
    """RK4 state at each requested time, hitting every sample exactly.

    Each gap between consecutive sorted sample times is covered by
    uniform substeps of size <= dt, so no interpolation ever happens.
    Returns (thetas, omegas) aligned with `times`.  Times must be finite,
    sorted and non-negative, and dt finite and positive; otherwise
    `ValueError`.
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
    thetas = np.empty(ts.size)
    omegas = np.empty(ts.size)
    theta, omega = theta0, omega0
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
              grid_points: int = 1001, oracle_dt: float = 1e-4,
              span: float | None = None, oracle=None) -> ErrorReport:
    """Max |theta_series - theta_RK4| over an even grid on the branch.

    The grid covers [0, T*], the canonical branch in the orbit's own
    sense; `span` shortens it (the separatrix has no T*, so there `span`
    is required), and a span that is not finite or lies outside [0, T*]
    raises.  `upto` evaluates a lower-order partial sum of a stored raw
    or resummed solution, letting one high-order build serve a whole
    truncation sweep.  A precomputed `oracle` (thetas on the
    same grid) skips the RK4 run.
    """
    t_star = sol.period_info.T_star
    if span is None:
        if not math.isfinite(t_star):
            raise ValueError("no finite T*; pass an explicit span")
        span = t_star
    elif not (math.isfinite(span) and 0.0 <= span <= t_star * (1.0 + 1e-12)):
        raise ValueError(f"span must be finite and lie in [0, T*], T* = {t_star}, "
                         f"got {span!r}")
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    grid = np.linspace(0.0, span, grid_points)
    approx = _orient(sol.energy_state, _tilde(sol, grid, upto))
    if oracle is None:
        theta0, omega0 = canonical_initial_state(sol)
        oracle, _ = rk4_sample(theta0, omega0, grid, oracle_dt)
    else:
        oracle = np.asarray(oracle, dtype=float)
        if oracle.shape != grid.shape:
            raise ValueError("oracle samples must match the grid")
    sup = float(np.max(np.abs(approx - oracle)))
    return ErrorReport(sol.energy_state.energy, sol.method,
                       upto if upto is not None else sol.order,
                       grid_points, sup, (0.0, float(span)))
