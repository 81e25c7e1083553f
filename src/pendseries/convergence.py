"""Convergence domain of the pendulum Taylor series.

The analytic continuation of theta(t) has logarithmic branch points on
a rectangular lattice in complex time, at the poles of sn (libration) or
dn (rotation), built from K and K' of the regime modulus; the names
below call them poles.  Measured from the canonical top start, both
regimes put them at

  libration:  n K + i n' K'          with n, n' both odd,
  rotation:   n Kt + i n' Kt'        with n, n' both odd,

where Kt = sqrt(2/E) K(sqrt(2/E)) and Kt' = sqrt(2/E) K'(sqrt(2/E)) are
the rescaled half-lattice constants, and K or Kt is exactly T*.  About
the bottom, t = T*, the same lattice is (even, odd).  The radius of
convergence about a chosen expansion point is the distance to the
nearest pole; for the canonical top start it always exceeds the
effective period T*, which is what makes the single-branch construction
in ``trajectory`` possible.  ``roc_exact`` is the one place that forms
the lattice constants; ``pole_lattice`` mirrors its top-start corner.
On the separatrix the lattice degenerates into branch points at
+- i pi/2 of 2 gd(t) = 4 arctan(tanh(t/2)); the rest orbit E = 0 has no
poles, and there ``roc_exact`` and ``pole_lattice`` raise ``ValueError``.

The root test of ``roc_estimate`` sees R only past the coefficients'
pre-asymptotic growth: in units of R, a_n ~ (w R)^n / n! until n passes
w R, with frequency w ~ |omega0| at large E and ~1 at small E (a top at
rest too); so the CLI notes orders below max(3 |omega0|, 5) R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyState
from .elliptic import ellipk_prime
from .series import SeriesCoefficients

__all__ = [
    "RocReport",
    "pole_lattice",
    "roc_exact",
    "roc_estimate",
]

_MIN_FIT_COEFFS = 50


@dataclass(frozen=True)
class RocReport:
    """Convergence radius about one expansion point, against T*.

    `nearest_pole` is the lattice pole at distance `exact_roc` from the
    expansion point.
    """

    exact_roc: float
    t_star: float
    margin: float
    nearest_pole: complex


def pole_lattice(state: EnergyState) -> np.ndarray:
    """The four poles of the first lattice cell, as a read-only complex array.

    They are the (odd, odd) corners (+-T*, +-K') or (+-Kt, +-Kt') about
    the canonical top start, sorted by real and then imaginary part: the
    top start's nearest pole from `roc_exact` mirrored through both axes.
    They contain every pole that can limit convergence about the top or
    the bottom start.  It raises where `roc_exact` does, at E = 2 and 0.
    """
    corner = roc_exact(state, "top").nearest_pole
    poles = np.array([complex(n * corner.real, m * corner.imag)
                      for n in (1, -1) for m in (1, -1)])
    poles.flags.writeable = False
    return poles


def roc_exact(state: EnergyState, ics: str = "top") -> RocReport:
    """Exact convergence radius about the canonical top or bottom start.

    Top of the orbit (turning point / inverted position): the nearest
    poles are the corners of the first lattice cell, at
    sqrt(T*^2 + K'^2) (libration) or sqrt(T*^2 + Kt'^2) (rotation).
    Bottom of the orbit, t = T*: the nearest poles sit straight above
    and below it, at K' (libration) or Kt' (rotation).  Of each
    equidistant set the report names the pole (-T*, -K') for the top and
    (T*, -K') for the bottom start, with T* from the record `state.orbit`
    and K' or Kt' from `ellipk_prime`.  It raises `SeparatrixError` at
    E = 2, and at E = 0, the rest orbit, which has no poles,
    `ellipk_prime`'s `ValueError`.
    """
    c = state.orbit
    if ics not in ("top", "bottom"):
        raise ValueError(f"ics must be 'top' or 'bottom', got {ics!r}")
    t_star, im_unit = c.T_star, c.scale * ellipk_prime(c.k)
    x0 = 0.0 if ics == "top" else t_star
    pole = complex(-t_star if ics == "top" else t_star, -im_unit)
    radius = abs(pole - x0)
    return RocReport(radius, t_star, radius - t_star, pole)


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
    if nonzero.size < _MIN_FIT_COEFFS:
        raise ValueError(
            f"need at least {_MIN_FIT_COEFFS} nonzero coefficients, "
            f"got {nonzero.size}"
        )
    sel = nonzero[nonzero.size // 2 :]
    slope = np.polyfit(sel.astype(float), np.log(np.abs(coeffs[sel])), 1)[0]
    return float(math.exp(-slope)) * series.time_unit
