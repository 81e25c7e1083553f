"""Analytic trajectories of the nonlinear simple pendulum.

The pendulum equation theta'' = -sin(theta) is solved exactly by a
convergent Taylor series whose radius of convergence always covers the
effective period T* when the expansion starts at the top of the orbit.
One series branch, resummed so that truncations pin the exact endpoint
value and velocity, plus reflection/translation bookkeeping, yields the
angle at any time in any regime; the separatrix is handled in closed
form.  RK4 and AGM oracles are included for validation, and a CLI
(``pendseries``) exports trajectories, error sweeps, surfaces, and
convergence-radius reports as CSV.

The names exported here are the ones README.md documents; the building
blocks behind them are imported from their submodules (``series``,
``energy``, ``elliptic``, ``convergence``, ``resummation``,
``trajectory``, ``validation``).
"""

from .elliptic import period
from .energy import SeparatrixError, energy_state
from .resummation import tally_coefficient_ops
from .trajectory import (
    align_to_ics,
    build_trajectory,
    canonical_initial_state,
    theta_at,
    theta_tilde,
)
from .validation import sup_error

__version__ = "0.1.0"

__all__ = [
    "energy_state", "SeparatrixError", "build_trajectory", "theta_at",
    "theta_tilde", "canonical_initial_state", "align_to_ics", "period",
    "sup_error", "tally_coefficient_ops",
]
