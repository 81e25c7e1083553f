"""Energy classification and regime-specific initial conditions.

Everything is dimensionless: time carries the small-oscillation frequency,
energy is measured in units of m g l, so

    E = omega0^2 / 2 + 1 - cos(theta0)

and the separatrix sits exactly at E = 2.  Because the trajectory of a
pendulum is determined by its energy up to time shifts and reflections,
the solvers in this package work from canonical initial conditions at the
turning point (libration) or the top of the circle (rotation) and recover
arbitrary starts by realignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "SEPARATRIX_ENERGY",
    "SEPARATRIX_TOLERANCE",
    "Regime",
    "SeparatrixError",
    "EnergyState",
    "classify_energy",
    "energy_state",
    "energy_of",
    "canonical_top_ics",
    "separatrix_theta",
]

SEPARATRIX_ENERGY = 2.0

# Width of the band around E = 2 treated as the separatrix.  Narrower than
# any physically meaningful energy resolution, wide enough to absorb the
# rounding of E computed from user initial conditions.
SEPARATRIX_TOLERANCE = 1e-12


class Regime(Enum):
    LIBRATION = "libration"
    SEPARATRIX = "separatrix"
    ROTATION = "rotation"


class SeparatrixError(ValueError):
    """Raised where an operation is undefined at (or requires) E = 2."""


@dataclass(frozen=True)
class EnergyState:
    """Energy and sense of motion of one pendulum orbit.

    direction is +1 (counterclockwise) or -1 (clockwise), stored as an
    int; any other value raises.  For libration it only fixes which
    turning point the motion starts from; for rotation it is the sign of
    the angular velocity.  `regime` is derived from `energy` by
    `classify_energy`, not passed in.
    """

    energy: float
    direction: int
    regime: Regime = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "regime", classify_energy(self.energy))
        if self.direction not in (-1, 1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        object.__setattr__(self, "direction", int(self.direction))


def classify_energy(energy: float) -> Regime:
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be finite and >= 0, got {energy!r}")
    if abs(energy - SEPARATRIX_ENERGY) <= SEPARATRIX_TOLERANCE:
        return Regime.SEPARATRIX
    if energy < SEPARATRIX_ENERGY:
        return Regime.LIBRATION
    return Regime.ROTATION


def energy_state(energy: float, direction: int = 1) -> EnergyState:
    """EnergyState from an energy value and a sense of motion."""
    return EnergyState(float(energy), direction)


def energy_of(theta0: float, omega0: float) -> EnergyState:
    """Classify the orbit through (theta0, omega0); 1 - cos is 2 sin^2(theta0/2)."""
    if not (math.isfinite(theta0) and math.isfinite(omega0)):
        raise ValueError(f"phase point ({theta0!r}, {omega0!r}) is not finite")
    energy = 0.5 * omega0 * omega0 + 2.0 * math.sin(0.5 * theta0) ** 2
    direction = -1 if omega0 < 0.0 else 1
    return EnergyState(energy, direction)


class _OrbitConstants(NamedTuple):
    """T* = scale K'(k'), the top start with its series seeds, and w* at the bottom."""

    k: float
    k_prime: float
    scale: float
    theta0: float
    omega0: float
    sin_cos: tuple[float, float]
    omega_star: float


def _orbit_constants(state: EnergyState) -> _OrbitConstants:
    """The orbit's constants, all formed from E; E = 2 raises `SeparatrixError`.

    k'^2 is (2 - E)/2 or (E - 2)/E, exact near E = 2, and the seeds are
    sin, cos theta_max = (sqrt(E (2 - E)), 1 - E) or exactly (0, -1) at pi:
    near the separatrix the orbit amplifies any mismatch with E by e^T*.
    """
    e = state.energy
    if state.regime is Regime.SEPARATRIX:
        raise SeparatrixError("the separatrix has no finite period, top start or endpoint")
    if state.regime is Regime.LIBRATION:
        k, k_prime = math.sqrt(0.5 * e), math.sqrt(0.5 * (2.0 - e))
        return _OrbitConstants(k, k_prime, 1.0, 2.0 * math.atan2(k, k_prime), 0.0,
                               (math.sqrt(e * (2.0 - e)), 1.0 - e), -math.sqrt(2.0 * e))
    k, h = math.sqrt(2.0 / e), 0.5 * e
    return _OrbitConstants(k, math.sqrt((e - 2.0) / e), k, math.pi, -2.0 * math.sqrt(h - 1.0),
                           (0.0, -1.0), -2.0 * math.sqrt(h))


def canonical_top_ics(state: EnergyState) -> tuple[float, float]:
    """Start of the canonical branch, at the highest point of the orbit.

    Libration starts at rest at the turning point theta = 2 atan2(k, k'),
    k = sqrt(E/2), k' = sqrt((2 - E)/2): arccos(1 - E) without its
    cancellation at small E or near E = 2.  Rotation starts at theta = pi
    moving clockwise with velocity -2 sqrt(E/2 - 1), finite at every E.
    Like `omega_star` the start describes the canonical branch, whatever
    the direction; the orbit's own sense comes from reflecting it.
    """
    c = _orbit_constants(state)
    return c.theta0, c.omega0


def separatrix_theta(t):
    """Closed-form separatrix angle theta(t) through theta(0) = 0.

    This is the rising (counterclockwise) branch, twice the Gudermannian
    (DLMF 4.23(viii)): 2 gd(t) = 4 arctan(tanh(t/2)), finite for any real
    t, tending to -pi and +pi as t goes to minus and plus infinity.  It is
    exactly odd in floating point: the clockwise branch, the reflection
    -separatrix_theta(t), is separatrix_theta(-t) bit for bit.
    """
    out = 4.0 * np.arctan(np.tanh(0.5 * np.asarray(t, dtype=float)))
    return float(out) if out.ndim == 0 else out
