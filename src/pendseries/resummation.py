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

``efficient_truncation`` produces the identical polynomial a second way:
keep the raw partial sum sigma_N and append only the two monomials
alpha t^(N+1) + beta t^(N+2) that restore the endpoint value and slope.
That replaces the O(N^2) coefficient transformation with O(N) work, and
the result is an ordinary polynomial of degree N+2: the raw coefficients
with alpha and beta appended, evaluated by ``eval_poly`` like any other.

Both construction routes tally their floating-point coefficient-stage
operation counts into any active ``tally_coefficient_ops`` context, so
the costs can be compared directly.  The O(N^2) versus O(N) contrast is
one of counted operations: ``resum`` runs its convolution as a single
``np.convolve`` call, so its wall time grows far slower than its count.
(Tallies are plain counters and are not thread-safe; the numerical
routines themselves are pure.)
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .energy import EnergyState, Regime, SeparatrixError
from .series import SeriesCoefficients, eval_poly

__all__ = [
    "ResummedSeries",
    "OpTally",
    "tally_coefficient_ops",
    "omega_star",
    "resum",
    "eval_resummed",
    "efficient_truncation",
    "eval_efficient",
]


@dataclass(eq=False)
class OpTally:
    """Running count of coefficient-stage floating-point operations.

    Identity comparison only: nested tallies with equal totals must not
    alias each other when the registry drops them.
    """

    total: int = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_tallies: list[OpTally] = []


@contextmanager
def tally_coefficient_ops():
    """Collect the op counts of resum/efficient_truncation calls inside."""
    tally = OpTally()
    _tallies.append(tally)
    try:
        yield tally
    finally:
        _tallies.remove(tally)


def _count(n: int) -> None:
    for tally in _tallies:
        tally.add(n)


@dataclass(frozen=True)
class ResummedSeries:
    """Endpoint-pinned form w*(t - T*) + (t - T*)^2 sum ahat_n t^n.

    `omega_star` and `t_star` are in physical time.  `a_hat` is in the
    raw series' time unit h (``a_hat.time_unit``), where the form reads
    w* h (s - T*/h) + (s - T*/h)^2 sum ahat_n s^n with s = t/h; for
    h = 1 the two readings coincide.
    """

    omega_star: float
    t_star: float
    a_hat: SeriesCoefficients


def omega_star(state: EnergyState) -> float:
    """Angular velocity at the branch endpoint, canonical orientation.

    Every orbit passes its lowest point with speed sqrt(2E).  The
    canonical branch integrated here falls clockwise through the bottom,
    so the signed endpoint velocity is -sqrt(2E); counterclockwise
    solutions are obtained from it by reflection in ``trajectory``.
    """
    if state.regime is Regime.SEPARATRIX:
        raise SeparatrixError("the separatrix never reaches its endpoint; "
                              "no finite-time endpoint velocity exists")
    return -math.sqrt(2.0 * state.energy)


def _endpoint(a: SeriesCoefficients, state: EnergyState, t_star: float):
    """Shared prologue of both resummations, in the series' time unit h.

    Returns (N, w*, s*, w* h, inverse powers) with s* = T*/h and the
    inverse powers (s*)^-n for n = N, N+1, N+2.  Raises, in this order,
    a `ValueError` for N < 2 or for a T* that is not positive and
    finite, a `SeparatrixError` at E = 2, and a `ValueError` if
    (s*)^-(N+2) leaves double range.
    """
    n_max = a.truncation_order
    if n_max < 2:
        raise ValueError("order must be at least 2")
    if not (math.isfinite(t_star) and t_star > 0.0):
        raise ValueError(f"t_star must be positive and finite, got {t_star!r}")
    w = omega_star(state)
    h = a.time_unit
    s_star = t_star / h
    inv_t = 1.0 / s_star
    try:
        p_n = inv_t**n_max
    except OverflowError:
        p_n = math.inf
    p_n1 = p_n * inv_t
    p_n2 = p_n1 * inv_t
    if not math.isfinite(p_n2):
        raise ValueError(
            f"non-finite coefficient encountered: (T*/time_unit)^-{n_max + 2} "
            f"with T*/time_unit = {s_star!r} leaves double range; carry the "
            f"series in a time_unit near T*")
    return n_max, w, s_star, w * h, (p_n, p_n1, p_n2)


def resum(a: SeriesCoefficients, state: EnergyState, t_star: float) -> ResummedSeries:
    """Transform raw coefficients into the endpoint-pinned form.

    With b the raw coefficients after absorbing the linear endpoint term
    (b_0 = a_0 + T* w*, b_1 = a_1 - w*, b_n = a_n otherwise), dividing by
    (t - T*)^2 is the convolution

        ahat_n = sum_{k=0}^{n} b_{n-k} (k+1) (1/T*)^(k+2),

    an O(N^2) coefficient transformation, computed by one `np.convolve`
    and tallied as (N+1)^2 operations.  It is exact: re-expanding the
    resummed form about t = 0 reproduces a_0..a_N identically.

    The transformation runs in the series' own time unit h, s = t/h:
    T* and w* enter as T*/h and w* h, and ahat carries the same time
    unit as `a`.  As in `efficient_truncation`, a `ValueError` is raised
    up front if (T*/h)^-(N+2) leaves double range.
    """
    # the range check raises before the weights overflow
    n_max, w, s_star, w_s, _ = _endpoint(a, state, t_star)
    b = a.coeffs.copy()
    b[0] += s_star * w_s
    b[1] -= w_s
    _count(3)
    inv_t = 1.0 / s_star
    weights = np.arange(1.0, n_max + 2) * inv_t ** np.arange(2.0, n_max + 3)
    _count(2 * (n_max + 1) + 2)
    a_hat = np.convolve(weights, b)[: n_max + 1]
    _count((n_max + 1) ** 2)  # sum over n of 2n+1 multiply-adds
    return ResummedSeries(w, t_star, SeriesCoefficients(a_hat, a.time_unit))


def eval_resummed(r: ResummedSeries, t, upto: int | None = None):
    """Evaluate the resummed form at t (scalar or array).

    By construction the value at t = T* is exactly zero and the slope
    there is exactly w*, independent of where the series is truncated;
    `upto` selects a partial sum of the ahat coefficients.
    """
    h = r.a_hat.time_unit
    ds = (np.asarray(t, dtype=float) - r.t_star) / h
    out = (r.omega_star * h) * ds + ds * ds * eval_poly(r.a_hat, t, upto)
    if out.ndim == 0:
        return float(out)
    return out


def efficient_truncation(a: SeriesCoefficients, state: EnergyState,
                         t_star: float) -> SeriesCoefficients:
    """Append two monomials to the raw partial sum to pin the endpoint.

    Requiring sigma_N(t) + alpha t^(N+1) + beta t^(N+2) to take the value
    0 and slope w* at t = T* gives

        alpha = -(N+2) sigma_N(T*) / T*^(N+1) - (w* - sigma_N'(T*)) / T*^N
        beta  =  (N+1) sigma_N(T*) / T*^(N+2) + (w* - sigma_N'(T*)) / T*^(N+1)

    which is the exact truncation of the resummed form at order N+2,
    obtained in O(N) operations instead of the O(N^2) convolution.  The
    result is that polynomial: the coefficients a_0..a_N, alpha, beta
    of degree N+2, in the time unit h of `a`.  Like `resum` it works in
    that unit (T* -> T*/h, w* -> w* h), so alpha and beta multiply
    (t/h)^(N+1) and (t/h)^(N+2).  A `ValueError` is raised if
    (T*/h)^-(N+2) leaves double range, as it does at high order for a
    unit well above T*.
    """
    n_max, _, s_star, w_s, (p_n, p_n1, p_n2) = _endpoint(a, state, t_star)
    coeffs = a.coeffs.tolist()  # Python floats: same IEEE arithmetic, less overhead
    # fused Horner: value and derivative of the partial sum at T*
    sig = coeffs[n_max]
    dsig = 0.0
    for n in range(n_max - 1, -1, -1):
        dsig = dsig * s_star + sig
        sig = sig * s_star + coeffs[n]
    _count(4 * n_max)
    gap = w_s - dsig
    alpha = -(n_max + 2) * sig * p_n1 - gap * p_n
    beta = (n_max + 1) * sig * p_n2 + gap * p_n1
    _count(15)
    return SeriesCoefficients(np.append(a.coeffs, (alpha, beta)), a.time_unit)


def eval_efficient(e: SeriesCoefficients, t):
    """Evaluate an `efficient_truncation` polynomial at t, as `eval_poly` does."""
    return eval_poly(e, t)
