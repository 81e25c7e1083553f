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
"""

from .convergence import (
    SEPARATRIX_BRANCH_POINTS,
    PoleLattice,
    RocReport,
    pole_lattice,
    roc_estimate,
    roc_exact,
)
from .elliptic import (
    EllipticEval,
    PeriodInfo,
    ellipk_agm,
    ellipk_prime,
    ellipk_resummed,
    ellipk_series,
    evaluate_k,
    period,
    resummed_order_for,
)
from .energy import (
    SEPARATRIX_ENERGY,
    SEPARATRIX_TOLERANCE,
    EnergyState,
    Regime,
    SeparatrixError,
    canonical_top_ics,
    classify_energy,
    energy_of,
    energy_state,
    separatrix_theta,
)
from .resummation import (
    EfficientTruncation,
    OpTally,
    ResummedSeries,
    efficient_truncation,
    eval_efficient,
    eval_resummed,
    omega_star,
    resum,
    tally_coefficient_ops,
)
from .series import (
    SeriesCoefficients,
    eval_poly,
    pendulum_series,
)
from .trajectory import (
    METHODS,
    TrajectorySolution,
    align_to_ics,
    build_trajectory,
    canonical_initial_state,
    theta_at,
    theta_tilde,
)
from .validation import ErrorReport, rk4_pendulum, rk4_sample, sup_error

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "SeriesCoefficients", "eval_poly", "pendulum_series",
    # energy
    "SEPARATRIX_ENERGY", "SEPARATRIX_TOLERANCE", "EnergyState", "Regime",
    "SeparatrixError", "canonical_top_ics", "classify_energy", "energy_of",
    "energy_state", "separatrix_theta",
    # elliptic
    "EllipticEval", "PeriodInfo", "ellipk_agm", "ellipk_prime",
    "ellipk_resummed", "ellipk_series", "evaluate_k", "period",
    "resummed_order_for",
    # convergence
    "SEPARATRIX_BRANCH_POINTS", "PoleLattice", "RocReport", "pole_lattice",
    "roc_estimate", "roc_exact",
    # resummation
    "EfficientTruncation", "OpTally", "ResummedSeries",
    "efficient_truncation", "eval_efficient", "eval_resummed", "omega_star",
    "resum", "tally_coefficient_ops",
    # trajectory
    "METHODS", "TrajectorySolution", "align_to_ics", "build_trajectory",
    "canonical_initial_state", "theta_at", "theta_tilde",
    # validation
    "ErrorReport", "rk4_pendulum", "rk4_sample", "sup_error",
]
