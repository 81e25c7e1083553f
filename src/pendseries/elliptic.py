"""Complete elliptic integral of the first kind and pendulum periods.

K(k) enters the period both below the separatrix, T = 4 K(sqrt(E/2)),
and above it, T = 2 sqrt(2/E) K(sqrt(2/E)).  Two series routes share one
contract: each accepts exactly 0 <= k < 1 and raises `ValueError` for any
other modulus, NaN and infinities included.

* ``ellipk_series``    -- the Maclaurin series in k^2.  Converges for
                          k < 1 but uselessly slowly near 1.
* ``ellipk_resummed``  -- same series with its slow geometric tail summed
                          in closed form through arctanh; the remaining
                          bracketed coefficients decay like 1/(8 n^2), so
                          the truncation error stays O(1/N) even at the
                          logarithmic singularity k -> 1.

``ellipk_prime`` is the one AGM: it forms each orbit's T* = scale K'(k'),
once per state, in its `energy` record, and the series routes are measured
against it.  ``evaluate_k`` dispatches the two series routes at an explicit
order, which ``error-sweep --period`` measures.  ``period`` is a view of
the record, kept for the benchmark tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .series import _whole

if TYPE_CHECKING:  # energy imports this module for ellipk_prime
    from .energy import EnergyState

__all__ = [
    "EllipticEval",
    "ellipk_series",
    "ellipk_resummed",
    "ellipk_prime",
    "evaluate_k",
    "period",
]

@dataclass(frozen=True)
class EllipticEval:
    """One K(k) evaluation together with how it was obtained."""

    value: float
    method: str


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a >= b >= 0."""
    # the gap a - b shrinks quadratically until it hits rounding noise,
    # where it may cycle by an ulp forever; stop on any non-decrease
    gap = math.inf
    for _ in range(64):
        new_gap = a - b
        if new_gap <= 0.0 or new_gap >= gap:
            break
        gap = new_gap
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _series_args(k: float, order: int) -> tuple[float, int]:
    """(k, order) checked, the order first: a whole int >= 0, then 0 <= k < 1."""
    order = _whole(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    return k, order


def _beta_k2n(k: float, order: int) -> np.ndarray:
    """beta_n k^(2n) for n = 1..order.

    beta_n = ((2n)! / (2^n n!)^2)^2 is generated by the stable product
    beta_(n+1) = beta_n ((2n+1)/(2n+2))^2, folded with k^2.
    """
    n = np.arange(1.0, order + 1)
    return np.cumprod(((2.0 * n - 1.0) / (2.0 * n)) ** 2 * (k * k))


def ellipk_series(k: float, order: int) -> float:
    """Partial sum of K(k) = (pi/2) sum_n beta_n k^(2n) through n = order."""
    k, order = _series_args(k, order)
    return 0.5 * math.pi * (1.0 + float(np.sum(_beta_k2n(k, order))))


def _arctanh_over_k(k: float) -> float:
    return math.atanh(k) / k if k else 1.0


def ellipk_resummed(k: float, order: int) -> float:
    """Resummed K(k): bracketed series through n = order plus arctanh tail.

    K(k) = sum_n [ (pi/2) beta_n - 1/(2n+1) ] k^(2n)  +  arctanh(k)/k.

    The subtracted geometric-harmonic part carries the entire k -> 1
    divergence into the closed-form arctanh term, leaving brackets of
    size ~ 1/(8 n^2) that converge at the same slow-but-sure rate for
    every modulus below 1.
    """
    k, order = _series_args(k, order)
    n = np.arange(1.0, order + 1)
    k2n = np.cumprod(np.full(order, k * k))
    brackets = 0.5 * math.pi * _beta_k2n(k, order) - k2n / (2.0 * n + 1.0)
    bracket_0 = 0.5 * math.pi - 1.0
    return bracket_0 + float(np.sum(brackets)) + _arctanh_over_k(k)


def ellipk_prime(k: float) -> float:
    """K'(k) = K(sqrt(1 - k^2)) = pi / (2 AGM(1, k)), 0 < k <= 1; k' is never formed."""
    k = float(k)
    if not (0.0 < k <= 1.0):
        raise ValueError(f"K' requires 0 < k <= 1, got {k!r} (it diverges as k -> 0)")
    return math.pi / (2.0 * _agm(1.0, k))


def evaluate_k(k: float, method: str, order: int) -> EllipticEval:
    """K(k) by the "series" or "resummed" route, which checks `order`; tagged with both."""
    route = {"series": ellipk_series, "resummed": ellipk_resummed}.get(method)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    return EllipticEval(route(k, order), f"{method}(order={int(order)})")


def period(state: EnergyState):
    """`state.orbit`, whose `.T` and `.T_star` are T and T* (E = 2 raises); for the bench tracer.

    Libration: T = 4 K(sqrt(E/2)), T* = T/4; rotation: T = 2 sqrt(2/E) K(sqrt(2/E)), T* = T/2.
    K is K'(k'), k'^2 = (2 - E)/2 or (E - 2)/E from E: T* is within 1.6e-16 relative
    of K of the given E from E = 0.5 to 1e4, 2 -+ 2e-12 included (mpmath, 40 digits).
    """
    return state.orbit
