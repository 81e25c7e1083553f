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
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyState,
    Regime,
    SeparatrixError,
    canonical_top_ics,
    energy_of,
    energy_state,
    separatrix_theta,
)
from .elliptic import PeriodInfo, period
from .resummation import (
    EfficientTruncation,
    ResummedSeries,
    efficient_truncation,
    eval_efficient,
    eval_resummed,
    resum,
)
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

# Fraction of T within which a time is snapped onto the nearest branch
# seam, so that rounding in t mod T cannot flip the branch choice.
_SEAM_SNAP_FRACTION = 1e-12

_ENERGY_MATCH_TOL = 1e-10
_ALIGN_TIME_TOL = 1e-12


@dataclass(frozen=True)
class TrajectorySolution:
    """One orbit, ready for evaluation at any t >= 0.

    `raw` holds the Taylor coefficients of the canonical branch, in the
    branch-normalised time s = t/T* (``raw.time_unit == T*``), so that
    they fall like (T*/R)^n and stay in double range at every order and
    energy; `resummed` holds the endpoint-pinned form (or its
    two-monomial variant), in the same unit, when the method uses one.
    `origin_shift` is added to every evaluation time, letting a solution
    aligned to user initial conditions be carried around as data.
    """

    energy_state: EnergyState
    period_info: PeriodInfo
    method: str
    order: int
    raw: SeriesCoefficients | None
    resummed: ResummedSeries | EfficientTruncation | None
    origin_shift: float = 0.0


def build_trajectory(state: EnergyState, order: int | None = None,
                     method: str = "resummed") -> TrajectorySolution:
    """Construct the canonical-branch solution for one energy.

    `method` picks the branch representation: "raw" (Taylor partial sum),
    "resummed" (endpoint-pinned form), "efficient" (two-monomial
    correction), or "separatrix" (closed form, E = 2 only).  At the
    separatrix energy any series method falls back to the closed form
    with a warning, since no Taylor branch spans the infinite T*.

    The branch is carried in units of T* (see `TrajectorySolution`):
    plain Taylor coefficients fall like R^-n, which underflows near the
    separatrix (R > 1) and overflows at large E (R << 1) long before
    the order that T*/R requires.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if state.regime is Regime.SEPARATRIX:
        if method != "separatrix":
            warnings.warn(
                f"E = 2 within tolerance: using the closed-form separatrix "
                f"instead of method {method!r}",
                stacklevel=2,
            )
        pinfo = PeriodInfo(math.inf, math.inf, Regime.SEPARATRIX)
        return TrajectorySolution(state, pinfo, "separatrix", 0, None, None)
    if method == "separatrix":
        raise SeparatrixError(f"closed form requires E = 2, got E = {state.energy}")
    if order is None:
        raise ValueError("series methods require a truncation order")
    pinfo = period(state)
    if state.regime is Regime.LIBRATION:
        theta0, omega0 = canonical_top_ics(state)
    else:
        # canonical branch is clockwise regardless of the requested
        # direction; counterclockwise comes out of the reflection below
        theta0, omega0 = canonical_top_ics(energy_state(state.energy, -1))
    raw = pendulum_series(theta0, omega0, order, time_unit=pinfo.T_star)
    if method == "raw":
        rs = None
    elif method == "resummed":
        rs = resum(raw, state, pinfo.T_star)
    else:
        rs = efficient_truncation(raw, state, pinfo.T_star)
    return TrajectorySolution(state, pinfo, method, int(order), raw, rs)


def _tilde(sol: TrajectorySolution, t, upto: int | None = None):
    """Canonical branch at t, unchecked; `upto` selects a partial sum."""
    if sol.method == "raw":
        return eval_poly(sol.raw, t, upto)
    if sol.method == "resummed":
        return eval_resummed(sol.resummed, t, upto)
    if upto is not None:
        raise ValueError(f"partial sums unavailable for method {sol.method!r}; "
                         "only raw and resummed branches truncate")
    if sol.method == "efficient":
        return eval_efficient(sol.resummed, t)
    return separatrix_theta(0.0, t)


def _orient(state: EnergyState, v):
    """Canonical-frame angle(s) v reflected into the orbit's own sense."""
    if state.regime is Regime.ROTATION:
        return v if state.direction < 0 else 2.0 * math.pi - v
    return v if state.direction > 0 else -v


def theta_tilde(sol: TrajectorySolution, t):
    """Canonical branch angle on 0 <= t <= T* (scalar or array); NaN raises."""
    t_star = sol.period_info.T_star
    tt = np.asarray(t, dtype=float)
    slack = _SEAM_SNAP_FRACTION * t_star if math.isfinite(t_star) else 0.0
    if not np.all((-slack <= tt) & (tt <= t_star + slack)):
        raise ValueError(f"branch parameter outside [0, T*], T* = {t_star}")
    return _tilde(sol, tt)


def _theta_at_scalar(sol: TrajectorySolution, t: float) -> float:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"trajectories are evaluated at finite t >= 0 only, got {t!r}")
    tt = t + sol.origin_shift
    state = sol.energy_state
    if state.regime is Regime.SEPARATRIX:
        return _orient(state, _tilde(sol, tt))
    t_full = sol.period_info.T
    t_star = sol.period_info.T_star
    snap = _SEAM_SNAP_FRACTION * t_full
    winding = math.floor(tt / t_full)
    that = tt - t_full * winding
    if that < 0.0:
        that = 0.0
    if t_full - that < snap:
        that = 0.0
        winding += 1
    branches = 4 if state.regime is Regime.LIBRATION else 2
    j = min(int(that // t_star), branches - 1)
    u = that - j * t_star
    if u < snap:
        u = 0.0
    elif t_star - u < snap:
        u = 0.0
        j += 1
        if j == branches:
            j = 0
            winding += 1
    # odd branches run backwards, 1 and 2 are negated, rotation winds by -2 pi k
    v = _tilde(sol, t_star - u if j % 2 else u)
    if j in (1, 2):
        v = -v
    if state.regime is Regime.ROTATION:
        v -= 2.0 * math.pi * winding
    return _orient(state, v)


def theta_at(sol: TrajectorySolution, t):
    """Angle at any time t >= 0 (scalar or array), any number of periods.

    Applies the periodic branch extension, the winding count for
    rotation, and the reflection selected by the solution's direction.
    A negative, infinite or NaN time (anywhere in an array) raises
    `ValueError`, in every regime.
    """
    tt = np.asarray(t, dtype=float)
    if tt.ndim == 0:
        return _theta_at_scalar(sol, float(tt))
    return np.array([_theta_at_scalar(sol, float(x)) for x in tt])


def canonical_initial_state(sol: TrajectorySolution) -> tuple[float, float]:
    """(theta, dtheta/dt) at t = 0 for an unshifted solution.

    These are the exact initial conditions of the orbit the solution
    represents after reflections, suitable for seeding an independent
    integrator.
    """
    state = sol.energy_state
    if state.regime is Regime.SEPARATRIX:
        return 0.0, 2.0 * state.direction
    if state.regime is Regime.LIBRATION:
        theta_top, _ = canonical_top_ics(state)
        return state.direction * theta_top, 0.0
    return math.pi, state.direction * math.sqrt(2.0 * state.energy - 4.0)


def _invert_tilde(sol: TrajectorySolution, target: float) -> float:
    """Bisection solve of theta~(u) = target on [0, T*] (theta~ decreases)."""
    t_star = sol.period_info.T_star
    top = _tilde(sol, 0.0)
    target = min(max(target, 0.0), top)
    lo, hi = 0.0, t_star
    while hi - lo > _ALIGN_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if _tilde(sol, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def align_to_ics(sol: TrajectorySolution, theta0: float, omega0: float) -> float:
    """Time offset t0 with theta_at(sol, t + t0) passing through the ICs.

    The phase point (theta0, omega0) must lie on the solution's orbit:
    its energy must match to 1e-10 and, where the orbit fixes a velocity
    sign, the sign must agree.  Periodic regimes return t0 in [0, T); the
    separatrix returns the closed-form offset, which is negative for
    starts on the far side of the canonical one.
    """
    state = sol.energy_state
    if omega0 == 0.0 and math.remainder(theta0, math.pi) == 0.0:
        raise ValueError(f"({theta0!r}, {omega0!r}) is a fixed point, not an orbit")
    user = energy_of(theta0, omega0)
    if abs(user.energy - state.energy) > _ENERGY_MATCH_TOL:
        raise ValueError(
            f"initial conditions have energy {user.energy!r}, "
            f"solution has {state.energy!r}"
        )
    d = state.direction
    if state.regime is Regime.SEPARATRIX:
        if omega0 * d <= 0.0:
            raise ValueError("velocity sign does not match the solution's branch")
        reduced = math.remainder(d * theta0, 2.0 * math.pi)
        if reduced == 0.0:
            return 0.0  # log(tan(pi/4)) would leave a rounding ulp
        return math.log(math.tan(0.25 * (reduced + math.pi)))
    t_star = sol.period_info.T_star
    if state.regime is Regime.ROTATION:
        if omega0 * d <= 0.0:
            raise ValueError("velocity sign does not match the sense of rotation")
        # map to the clockwise canonical frame and reduce to (-pi, pi]
        theta_c = math.remainder(theta0 if d < 0 else -theta0, 2.0 * math.pi)
        if theta_c == -math.pi:
            theta_c = math.pi
        if theta_c >= 0.0:
            return _invert_tilde(sol, theta_c)
        return 2.0 * t_star - _invert_tilde(sol, -theta_c)
    # libration: reflect into the canonical frame, then pick the branch
    # by velocity sign and angle sign
    theta_c = math.remainder(d * theta0, 2.0 * math.pi)
    omega_c = d * omega0
    if omega_c < 0.0:
        t0 = (_invert_tilde(sol, theta_c) if theta_c >= 0.0
              else 2.0 * t_star - _invert_tilde(sol, -theta_c))
    elif omega_c > 0.0:
        t0 = (2.0 * t_star + _invert_tilde(sol, -theta_c) if theta_c <= 0.0
              else 4.0 * t_star - _invert_tilde(sol, theta_c))
    else:
        t0 = 0.0 if theta_c >= 0.0 else 2.0 * t_star
    t_full = sol.period_info.T
    if t0 >= t_full:
        t0 -= t_full
    return t0
