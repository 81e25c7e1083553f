"""Global-in-time pendulum trajectories from one series branch.

The solvers only ever approximate the canonical branch theta~ on
[0, T*]: starting at the top of the orbit and falling clockwise to the
bottom.  Everything else is exact bookkeeping.  With t^ = t mod T, the
periodic extension is

  libration (4 branches):   theta~(t^),            0    <= t^ <= T*
                            -theta~(2T* - t^),     T*   <= t^ <= 2T*
                            -theta~(t^ - 2T*),     2T*  <= t^ <= 3T*
                            theta~(4T* - t^),      3T*  <= t^ <= 4T*

  rotation (2 branches, clockwise, winding -2 pi per period):
                            -2 pi k + theta~(t^),          0  <= t^ <= T*
                            -2 pi k - theta~(2T* - t^),    T* <= t^ <= 2T*

The two reflections theta -> -theta (libration) and theta -> 2 pi - theta
(rotation) map solutions to solutions and produce the opposite sense of
motion, so one orientation per regime suffices.  The separatrix bypasses
all of this through its closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .energy import (SEPARATRIX_TOLERANCE, EnergyState, Regime, SeparatrixError, energy_of,
                     separatrix_theta)
from .resummation import efficient_truncation
from .series import SeriesCoefficients, eval_poly, pendulum_series

__all__ = [
    "METHODS",
    "TrajectorySolution",
    "build_trajectory",
    "theta_tilde",
    "theta_at",
    "align_to_ics",
    "canonical_initial_state",
]

METHODS = ("raw", "resummed", "efficient", "separatrix")

# Seam snap: the fold snaps a time within this fraction of T onto the nearest
# branch seam, absorbing its rounding.
_SEAM_SNAP_FRACTION = 1e-12

_ENERGY_MATCH_TOL = 1e-10
_ALIGN_TIME_TOL = 1e-12


@dataclass(frozen=True)
class TrajectorySolution:
    """One orbit, ready for evaluation at any finite t.

    `branch` is the one representation of the canonical branch that
    `method` evaluates, None for the separatrix closed form.  For "raw" it
    is the Taylor polynomial a_0..a_N; "resummed" and "efficient" share the
    one endpoint-pinned polynomial of degree N+2 (a_0..a_N, alpha, beta)
    that `efficient_truncation` builds.  Series branches are carried in
    the branch-normalised time s = t/T* (time unit T*), so that their
    coefficients fall like (T*/R)^n and stay in double range at every
    order and energy.  `T` and `T_star` are the orbit's period and T*,
    both inf for the separatrix.  Time 0 is the canonical start;
    `align_to_ics` gives the offset of any other start on the orbit.
    """

    energy_state: EnergyState
    T: float
    T_star: float
    method: str
    order: int
    branch: SeriesCoefficients | None


def build_trajectory(state: EnergyState, order: int | None,
                     method: str = "resummed") -> TrajectorySolution:
    """Construct the canonical-branch solution for one energy.

    `method` picks the branch: "raw" (Taylor partial sum), "resummed" or
    "efficient" (the same endpoint-pinned polynomial, built in O(N) by
    `efficient_truncation`), or "separatrix" (the closed form).
    "separatrix" is the one method at E = 2, since no branch spans the
    infinite T*, and works nowhere else: either mismatch raises
    `SeparatrixError`.  `pendulum_series` checks `order`, a whole N >= 2
    (None: `TypeError`); at E = 2 the order is ignored, so pass None.

    The branch is carried in units of T* (see `TrajectorySolution`):
    plain Taylor coefficients fall like R^-n, which underflows near the
    separatrix (R > 1) and overflows at large E (R << 1) long before
    the order that T*/R requires.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if (method == "separatrix") != (state.regime is Regime.SEPARATRIX):
        raise SeparatrixError(f"method {method!r} does not solve E = {state.energy}: "
                              f"\"separatrix\" is the method at E = 2 "
                              f"(|E - 2| <= {SEPARATRIX_TOLERANCE:g}) and only there")
    if method == "separatrix":
        return TrajectorySolution(state, math.inf, math.inf, method, 0, None)
    c = state.orbit
    branch = pendulum_series(c.theta0, c.omega0, order, time_unit=c.T_star, sin_cos=c.sin_cos)
    if method != "raw":
        branch = efficient_truncation(branch, state)
    return TrajectorySolution(state, c.T, c.T_star, method, int(order), branch)


def _tilde(sol: TrajectorySolution, t):
    """Canonical branch at t, unchecked."""
    if sol.method == "separatrix":
        return separatrix_theta(t)
    theta = eval_poly(sol.branch, t)
    if sol.method == "raw":
        return theta
    # rounding can leave a few ulps at s = 1: return +0.0, so the seams are exact
    if isinstance(theta, float):
        return 0.0 if t == sol.T_star else theta
    theta[t == sol.T_star] = 0.0
    return theta


def _sense(state: EnergyState) -> int:
    """+1 where the orbit runs like the canonical branch, -1 where it is reflected.

    The canonical branch falls from +theta_max (libration, direction +1)
    or turns clockwise (rotation, direction -1).
    """
    return -state.direction if state.regime is Regime.ROTATION else state.direction


def _orient(state: EnergyState, v):
    """Canonical-frame angle(s) v reflected into the orbit's own sense."""
    if _sense(state) > 0:
        return v
    return 2.0 * math.pi - v if state.regime is Regime.ROTATION else -v


def theta_tilde(sol: TrajectorySolution, t):
    """Canonical branch angle on 0 <= t <= T* (scalar or array); other t raise `ValueError`."""
    tt = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tt) & (0.0 <= tt) & (tt <= sol.T_star)):
        raise ValueError(f"branch parameter outside [0, T*], T* = {sol.T_star}")
    return _tilde(sol, tt)


def _theta_at_scalar(sol: TrajectorySolution, t: float) -> float:
    t_star, t_full = sol.T_star, sol.T
    if not math.ulp(t) < t_star:  # NaN, +-inf, or doubles too far apart for a phase
        raise ValueError(f"trajectories need finite t with ulp(t) < T*, got {t!r}")
    state = sol.energy_state
    if state.regime is Regime.SEPARATRIX:
        return _orient(state, _tilde(sol, t))
    snap = _SEAM_SNAP_FRACTION * t_full
    branches = 4 if state.regime is Regime.LIBRATION else 2
    n = math.floor(t / t_star)
    winding, j = divmod(n, branches)
    u = (t - t_full * winding) - j * t_star
    if t_star - u < snap:
        winding, j = divmod(n + 1, branches)
        u = 0.0
    elif u < snap:
        u = 0.0
    # odd branches run backwards, 1 and 2 are negated, rotation winds by -2 pi k
    v = _tilde(sol, t_star - u if j % 2 else u)
    if j in (1, 2):
        v = -v
    if state.regime is Regime.ROTATION:
        v -= 2.0 * math.pi * winding
    return _orient(state, v)


def theta_at(sol: TrajectorySolution, t):
    """Angle at any finite time t (scalar or array), any number of periods.

    Applies the periodic branch extension, the winding count for
    rotation, and the reflection selected by the solution's direction.
    Negative times fold onto [0, T) like any other, so the orbit runs
    backwards from its canonical start too; on the separatrix the closed
    form holds for every real t.  An array result has the input's shape.
    A t with no phase raises `ValueError` in every regime, anywhere in an
    array: NaN, +-inf, or ulp(t) >= T* (|t| >~ 2^52 T*).  Below that the
    error grows like |omega| ulp(t), about 0.4 rad by 2^50 T* at E = 1.71.
    """
    tt = np.asarray(t, dtype=float)
    if tt.ndim == 0:
        return _theta_at_scalar(sol, float(tt))
    flat = [_theta_at_scalar(sol, x) for x in tt.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(tt.shape)


def canonical_initial_state(sol: TrajectorySolution) -> tuple[float, float]:
    """(theta, dtheta/dt) at t = 0.

    These are the exact initial conditions of the orbit the solution
    represents after reflections, suitable for seeding an independent
    integrator.
    """
    state = sol.energy_state
    if state.regime is Regime.SEPARATRIX:
        return 0.0, 2.0 * state.direction
    c = state.orbit
    # + 0.0: a reflected turning point starts at rest with +0.0, not -0.0
    return _orient(state, c.theta0), _sense(state) * c.omega0 + 0.0


def _invert_tilde(sol: TrajectorySolution, target: float) -> float:
    """Bisection solve of theta~(u) = target >= 0 on [0, T*]; 0.0 from theta~(0) up."""
    t_star = sol.T_star
    if target >= _tilde(sol, 0.0):
        return 0.0
    lo, hi = 0.0, t_star
    while hi - lo > _ALIGN_TIME_TOL * min(t_star, 1.0):
        mid = 0.5 * (lo + hi)
        if _tilde(sol, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def align_to_ics(sol: TrajectorySolution, theta0: float, omega0: float) -> float:
    """Time offset t0 with theta_at(sol, t + t0) passing through the ICs.

    The phase point (theta0, omega0) must be finite and on the solution's
    orbit: its energy must match to 1e-10 relative to E (or within the least
    normal double, below which `energy_of` resolves no finer) and, where the
    orbit fixes a velocity sign, the sign must agree.  Periodic
    regimes return t0 in [0, T), resolved to 1e-12 min(T*, 1); the
    separatrix returns 2 atanh(tan(theta/4)), negative behind theta = 0.
    """
    state = sol.energy_state
    user = energy_of(theta0, omega0)
    if omega0 == 0.0 and math.remainder(theta0, math.pi) == 0.0:
        raise ValueError(f"({theta0!r}, {omega0!r}) is a fixed point, not an orbit")
    if not math.isclose(user.energy, state.energy,
                        rel_tol=_ENERGY_MATCH_TOL, abs_tol=sys.float_info.min):
        raise ValueError(
            f"initial conditions have energy {user.energy!r}, "
            f"solution has {state.energy!r}"
        )
    # reflect into the canonical frame, where libration falls from
    # +theta_max, rotation turns clockwise and the separatrix rises
    sense = _sense(state)
    theta_c = math.remainder(sense * theta0, 2.0 * math.pi)
    omega_c = sense * omega0
    if state.regime is Regime.SEPARATRIX:
        if omega_c <= 0.0:
            raise ValueError("velocity sign does not match the solution's branch")
        return 2.0 * math.atanh(math.tan(0.25 * theta_c)) + 0.0  # -0.0 -> +0.0
    # invert the fold of `_theta_at_scalar`: branch j from the signs of
    # angle and velocity, branches 1 and 2 negated, odd branches run backwards
    if state.regime is Regime.ROTATION:
        if omega_c >= 0.0:
            raise ValueError("velocity sign does not match the sense of rotation")
    t_star = sol.T_star
    if omega_c == 0.0:  # libration turning points, exactly
        return 0.0 if theta_c >= 0.0 else 2.0 * t_star
    if omega_c < 0.0:
        j = 0 if theta_c >= 0.0 else 1
    else:
        j = 2 if theta_c <= 0.0 else 3
    u = _invert_tilde(sol, abs(theta_c))
    t0 = (j + 1) * t_star - u if j % 2 else j * t_star + u
    return math.fmod(t0, sol.T)
