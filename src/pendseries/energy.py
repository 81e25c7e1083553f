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

    direction is +1 (counterclockwise) or -1 (clockwise).  For libration
    it only fixes which turning point the motion starts from; for rotation
    it is the sign of the angular velocity.  `regime` is not passed in:
    it is derived from `energy` by `classify_energy`.
    """

    energy: float
    direction: int
    regime: Regime = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "regime", classify_energy(self.energy))
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")


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
    return EnergyState(float(energy), int(direction))


def energy_of(theta0: float, omega0: float) -> EnergyState:
    """Classify the orbit through (theta0, omega0); 1 - cos is 2 sin^2(theta0/2)."""
    energy = 0.5 * omega0 * omega0 + 2.0 * math.sin(0.5 * theta0) ** 2
    direction = -1 if omega0 < 0.0 else 1
    return EnergyState(energy, direction)


def canonical_top_ics(state: EnergyState) -> tuple[float, float]:
    """Start of the canonical branch, at the highest point of the orbit.

    Libration starts at the turning point theta = 2 arcsin(sqrt(E/2))
    (= arccos(1 - E), without its cancellation at small E) with zero
    velocity; rotation starts at the inverted position theta = pi moving
    clockwise with velocity -sqrt(2E - 4).  The start does not depend on
    `state.direction`: like `omega_star` it describes the canonical
    branch, and the orbit's own sense comes from reflecting it.
    """
    if state.regime is Regime.SEPARATRIX:
        raise SeparatrixError("the separatrix only reaches theta = pi asymptotically")
    if state.regime is Regime.LIBRATION:
        return 2.0 * math.asin(math.sqrt(0.5 * state.energy)), 0.0
    return math.pi, -math.sqrt(2.0 * state.energy - 4.0)


def separatrix_theta(theta0: float, t):
    """Closed-form separatrix angle theta(t) through theta(0) = theta0.

    This is the rising (counterclockwise) branch,

        theta(t) = -pi + 4 arctan(exp(t) tan((theta0 + pi)/4)),

    valid for any real t; the angle approaches -pi and +pi as t goes to
    minus and plus infinity.  theta0 is reduced mod 2 pi and the unwound
    multiple is added back, so starts outside (-pi, pi) are accepted.
    theta0 = pi (mod 2 pi) is the unstable fixed point and is rejected.
    The clockwise branch is the reflection -separatrix_theta(-theta0, t).
    """
    if math.remainder(theta0 - math.pi, 2.0 * math.pi) == 0.0:
        raise ValueError("theta0 = pi (mod 2 pi) is the unstable fixed point")
    reduced = math.remainder(theta0, 2.0 * math.pi)  # in [-pi, pi]
    offset = theta0 - reduced
    u = math.tan(0.25 * (reduced + math.pi))
    tt = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # exp saturates to inf, arctan caps it
        out = offset - math.pi + 4.0 * np.arctan(np.exp(tt) * u)
    if out.ndim == 0:
        return float(out)
    return out
