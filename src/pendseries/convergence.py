"""Convergence domain of the pendulum Taylor series.

The analytic continuation of theta(t) has simple poles on a rectangular
lattice in complex time, built from K and K' of the regime modulus:

  libration:  n K + i n' K'          with n, n' both odd,
  rotation:   n Kt + i n' Kt'        with n even, n' odd,

where Kt = sqrt(2/E) K(sqrt(2/E)) and Kt' = sqrt(2/E) K'(sqrt(2/E)) are
the rescaled half-lattice constants.  The radius of convergence about a
chosen expansion point is the distance to the nearest pole; for the
canonical top start it always exceeds the effective period T*, which is
what makes the single-branch construction in ``trajectory`` possible.
On the separatrix the lattice degenerates into branch points at
+- i pi/2 (``SEPARATRIX_BRANCH_POINTS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyState, Regime, SeparatrixError
from .elliptic import _modulus, ellipk_agm, ellipk_prime
from .series import SeriesCoefficients

__all__ = [
    "SEPARATRIX_BRANCH_POINTS",
    "PoleLattice",
    "RocReport",
    "pole_lattice",
    "roc_exact",
    "roc_estimate",
]

# Singularities of the separatrix orbit exp(t)-form in complex time.
SEPARATRIX_BRANCH_POINTS = (0.5j * math.pi, -0.5j * math.pi)

_MIN_FIT_COEFFS = 50


@dataclass(frozen=True)
class PoleLattice:
    """Singularity lattice of one orbit, relative to the canonical start."""

    regime: Regime
    energy: float
    poles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.poles, dtype=complex)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "poles", arr)


@dataclass(frozen=True)
class RocReport:
    """Convergence radius about one expansion point, against T*."""

    exact_roc: float
    t_star: float
    margin: float
    ics: str = "top"


def _lattice_constants(state: EnergyState) -> tuple[float, float]:
    """Half-lattice constants (real, imaginary) for the regime."""
    k, scale = _modulus(state)
    return scale * ellipk_agm(k), scale * ellipk_prime(k)


def pole_lattice(state: EnergyState, max_index: int = 1) -> PoleLattice:
    """Poles out to `max_index` lattice cells in each direction.

    For libration the real/imaginary integer pairs are (odd, odd); for
    rotation they are (even, odd) including the pure imaginary column.
    max_index = 1 already contains every pole that can limit convergence
    about the canonical start.
    """
    if state.regime is Regime.SEPARATRIX:
        raise SeparatrixError(
            "no pole lattice at E = 2: the orbit has branch points at "
            "+- i pi/2 (SEPARATRIX_BRANCH_POINTS)"
        )
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    re_unit, im_unit = _lattice_constants(state)
    odds = [s * (2 * j - 1) for j in range(1, max_index + 1) for s in (1, -1)]
    if state.regime is Regime.LIBRATION:
        re_indices = odds
    else:
        re_indices = [0] + [s * 2 * j for j in range(1, max_index + 1) for s in (1, -1)]
    points = sorted((n * re_unit, m * im_unit) for n in re_indices for m in odds)
    return PoleLattice(state.regime, state.energy,
                       np.array([complex(re, im) for re, im in points]))


def roc_exact(state: EnergyState, ics: str = "top") -> RocReport:
    """Exact convergence radius about the canonical top or bottom start.

    Top of the orbit (turning point / inverted position): the nearest
    pole is a corner of the first lattice cell, at
    sqrt(T*^2 + K'^2) (libration) or sqrt(T*^2 + Kt'^2) (rotation).
    Bottom of the orbit: rotation sees the pure imaginary pole at
    distance Kt'; libration is handled by direct minimisation over the
    lattice shifted to the bottom time t = T*.
    """
    if state.regime is Regime.SEPARATRIX:
        raise SeparatrixError(
            "no finite convergence radius to report at E = 2; the orbit's "
            "singularities are branch points at +- i pi/2"
        )
    if ics not in ("top", "bottom"):
        raise ValueError(f"ics must be 'top' or 'bottom', got {ics!r}")
    re_unit, im_unit = _lattice_constants(state)
    t_star = re_unit  # K (libration) or Kt (rotation): exactly T*
    if ics == "top":
        radius = math.hypot(t_star, im_unit)
    elif state.regime is Regime.ROTATION:
        radius = im_unit
    else:
        lattice = pole_lattice(state, max_index=3)
        radius = float(np.min(np.abs(lattice.poles - t_star)))
    return RocReport(radius, t_star, radius - t_star, ics)


def roc_estimate(series: SeriesCoefficients) -> float:
    """Root-test estimate of the convergence radius from coefficients.

    Fits log |a_n| against n by least squares over the top half of the
    orders whose coefficients are nonzero (parity makes half of them
    exact zeros, and far tails may underflow), and returns exp(-slope).
    The fit averages away the oscillation that complex-conjugate pole
    pairs imprint on individual coefficients, where a term-ratio test
    would stall.  The radius is returned in physical time: a series
    stored in time unit h has coefficients a_n h^n, so the fitted radius
    is scaled back by h.
    """
    coeffs = series.coeffs
    nonzero = np.flatnonzero(coeffs != 0.0)
    if nonzero.size == 0:
        raise ValueError("convergence radius undefined for the zero series")
    if nonzero.size < _MIN_FIT_COEFFS:
        raise ValueError(
            f"need at least {_MIN_FIT_COEFFS} nonzero coefficients, "
            f"got {nonzero.size}"
        )
    sel = nonzero[nonzero.size // 2 :]
    slope = np.polyfit(sel.astype(float), np.log(np.abs(coeffs[sel])), 1)[0]
    return float(math.exp(-slope)) * series.time_unit
