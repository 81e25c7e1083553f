"""Exact resummation of the pendulum series about the endpoint t = T*.

The raw Taylor polynomial of theta(t) is worst exactly where one branch
ends: at the effective period T* the orbit reaches the bottom of the
circle with angle 0 and speed -sqrt(2E), and a truncated polynomial has
no reason to honour either value.  Rewriting the same series as

    theta(t) = w* (t - T*) + (t - T*)^2 sum_n ahat_n t^n,

with w* = -sqrt(2E) the exact endpoint velocity, pins the endpoint value
(exactly zero) and slope for every truncation order, while the ahat_n
are plain linear images of the original coefficients, so nothing
approximate has been introduced.

The three transforms, ``resum(a, state)``, ``eval_resummed(a_hat, state, t)``
and ``efficient_truncation(a, state)``, take a series and its orbit and read
T* and w* from the orbit's record, `state.orbit`.  With s = t/T* the endpoint
is s = 1 and the form reads

    w* T* (s - 1) + (s - 1)^2 sum_n ahat_n s^n,

so no power of T* is ever formed.  Every series, ``resum``'s ahat_n included,
is carried in units of that T*, as `build_trajectory` carries it; any other
unit raises `ValueError`.  w* is never stored beside the ahat_n.

The form is the unique polynomial of degree N+2 that matches a_0..a_N with
the pinned value and slope, so ``efficient_truncation`` builds it a second
way, in O(N): keep the raw partial sum sigma_N and append the two monomials
alpha s^(N+1) + beta s^(N+2) that restore the endpoint value and slope, an
ordinary polynomial for ``eval_poly``.  Both pinned methods of
`build_trajectory` take this route; ``resum`` is kept as the paper's transform.

Both construction routes add their coefficient-stage floating-point
operation counts to one running total.  On exit a ``tally_coefficient_ops``
block sets its ``.total`` to how far that total moved, so the costs can be
compared directly.  The O(N^2) versus O(N) contrast is one of counted
operations: ``resum`` runs its convolution as a single ``np.convolve``
call, so its wall time grows far slower than its count.  (The total is a
plain counter and is not thread-safe; the numerical routines are pure.)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .energy import EnergyState
from .series import SeriesCoefficients, eval_poly

__all__ = [
    "OpTally",
    "tally_coefficient_ops",
    "resum",
    "eval_resummed",
    "efficient_truncation",
    "eval_efficient",
]


@dataclass
class OpTally:
    """Coefficient-stage floating-point operations counted in one block."""

    total: int = 0


_ops = 0  # every operation counted in this process


@contextmanager
def tally_coefficient_ops():
    """Count the ops of resum/efficient_truncation calls inside; `.total` is set on exit."""
    tally, start = OpTally(), _ops
    try:
        yield tally
    finally:
        tally.total = _ops - start


def _count(n: int) -> None:
    global _ops
    _ops += n


def _endpoint(a: SeriesCoefficients, state: EnergyState):
    """Shared prologue of the three transforms: (N, T*, w*) from the record `state.orbit`.

    Raises, in this order, a `ValueError` for N < 2, a `SeparatrixError` at
    E = 2, and a `ValueError` for a series not carried in units of that T*.
    """
    n_max = a.truncation_order
    if n_max < 2:
        raise ValueError("order must be at least 2")
    c = state.orbit
    if a.time_unit != c.T_star:
        raise ValueError(f"the series must be carried in units of T* = {c.T_star!r}, "
                         f"got time_unit {a.time_unit!r}")
    return n_max, c.T_star, c.omega_star


def resum(a: SeriesCoefficients, state: EnergyState) -> SeriesCoefficients:
    """The ahat_n of the orbit's raw coefficients, as a series in units of T*.

    `a` is in s = t/T*, T* = `state.orbit.T_star`.  With b its coefficients
    after absorbing the linear endpoint term (b_0 = a_0 + w* T*, b_1 = a_1 - w* T*,
    b_n = a_n otherwise), dividing by (s - 1)^2 is the convolution

        ahat_n = sum_{k=0}^{n} b_{n-k} (k+1),

    an O(N^2) coefficient transformation, computed by one `np.convolve`
    and tallied as (N+1)^2 operations.  It is exact: re-expanding the
    resummed form about s = 0 reproduces a_0..a_N identically.
    """
    n_max, t_star, w = _endpoint(a, state)
    w_s = w * t_star
    b = a.coeffs.copy()
    b[0] += w_s
    b[1] -= w_s
    a_hat = np.convolve(np.arange(1.0, n_max + 2), b)[: n_max + 1]
    _count((n_max + 1) ** 2 + 3)  # 2n+1 multiply-adds per ahat_n, 3 to form b
    return SeriesCoefficients(a_hat, t_star)


def eval_resummed(a_hat: SeriesCoefficients, state: EnergyState, t):
    """Evaluate the resummed form of `resum`'s ahat at t (scalar or array).

    By construction the value at t = T* is exactly zero and the slope
    there is exactly w*, independent of where the series is truncated.
    """
    _, t_star, w = _endpoint(a_hat, state)
    ds = (np.asarray(t, dtype=float) - t_star) / t_star
    out = (w * t_star) * ds + ds * ds * eval_poly(a_hat, t)
    return float(out) if out.ndim == 0 else out


def efficient_truncation(a: SeriesCoefficients, state: EnergyState) -> SeriesCoefficients:
    """Append two monomials to the orbit's raw partial sum to pin the endpoint.

    In s = t/T*, the unit of `a`, with T* = `state.orbit.T_star`, requiring
    sigma_N(s) + alpha s^(N+1) + beta s^(N+2) to take the value 0 and slope
    w* T* at s = 1 gives

        alpha = -(N+2) sigma_N(1) - (w* T* - sigma_N'(1))
        beta  =  (N+1) sigma_N(1) + (w* T* - sigma_N'(1))

    which is the exact truncation of the resummed form at order N+2,
    obtained in O(N) operations instead of the O(N^2) convolution.  The
    result is that polynomial: the coefficients a_0..a_N, alpha, beta
    of degree N+2, in units of T*.
    """
    n_max, t_star, w = _endpoint(a, state)
    # Horner at s = 1 is a running sum from a_N down: its partials
    # a_N + ... + a_n are sigma_N(1) at n = 0, and summing the partials
    # for n = N..1 is the derivative's Horner, sigma_N'(1).  Both sums must
    # run in that order, one add at a time, to round as Horner does; ufunc
    # accumulate is sequential (a pairwise sum such as np.sum is not).
    partial = np.add.accumulate(a.coeffs[::-1])
    sig = float(partial[-1])
    dsig = float(np.add.accumulate(partial[:-1])[-1])
    gap = w * t_star - dsig
    alpha = -(n_max + 2) * sig - gap
    beta = (n_max + 1) * sig + gap
    _count(2 * n_max + 6)  # the two running sums, then gap, alpha and beta
    return SeriesCoefficients(np.append(a.coeffs, (alpha, beta)), t_star)


def eval_efficient(e: SeriesCoefficients, t):
    """Evaluate an `efficient_truncation` polynomial at t, as `eval_poly` does."""
    return eval_poly(e, t)
