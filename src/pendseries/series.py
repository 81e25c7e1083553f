"""Formal power series in time: containers and coefficient recurrences.

A series is stored as the coefficient vector (a_0, ..., a_N) of
sum_n a_n (t/h)^n, where h is the series' time unit (1 unless a caller
chooses one).  All arithmetic is double precision.  The pendulum
recurrence below generates the angle series together with its sine and
cosine at O(N^2) total cost via running Cauchy-product sums against the
sine and cosine histories, kept reversed in contiguous buffers.  One
loop serves every start.  A general start costs two dot products per
order; a start with a parity costs half that, because the loop skips
the orders that parity makes exactly zero: the odd ones at rest (omega0
= 0, even in t), and with sin(theta0) exactly 0 (odd about theta0) the
even orders of the angle and sine and the odd ones of the cosine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesCoefficients",
    "eval_poly",
    "pendulum_series",
]


@dataclass(frozen=True, eq=False)
class SeriesCoefficients:
    """Truncated Taylor coefficients (a_0, ..., a_N) of a real series.

    The series is sum_n a_n (t/h)^n with h = `time_unit`.  Coefficients
    about t = 0 fall like (h/R)^n for a convergence radius R, so a unit
    comparable to the span the series is used on keeps them within
    double range where the plain t^n coefficients would underflow
    (R > 1) or overflow (R < 1) at high order.
    """

    coeffs: np.ndarray
    time_unit: float = 1.0

    def __post_init__(self):
        unit = float(self.time_unit)
        if not (math.isfinite(unit) and unit > 0.0):
            raise ValueError(
                f"time_unit must be positive and finite, got {self.time_unit!r}")
        object.__setattr__(self, "time_unit", unit)
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coefficient encountered")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation_order(self) -> int:
        return self.coeffs.size - 1


def _whole(value, name: str) -> int:
    """int(value), raising `ValueError` where int() would truncate."""
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def eval_poly(a: SeriesCoefficients, t):
    """Horner evaluation of the whole stored series at t (scalar or array).

    The series is evaluated at t / time_unit, one rounded multiply and
    one rounded add per coefficient.  A scalar or 0-d t gives a Python
    float and an array t an array of t's shape, also for a constant
    series, which is its a_0 at every t (NaN and +-inf included).
    """
    c = a.coeffs
    s = np.asarray(t, dtype=float)[()] / a.time_unit  # a 0-d t becomes a numpy scalar
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * s + ck
    if np.ndim(s) == 0:
        return float(acc)
    return acc if c.size > 1 else np.full(s.shape, acc)


def pendulum_series(theta0: float, omega0: float, order: int, *, time_unit: float = 1.0,
                    sin_cos: tuple[float, float] | None = None) -> SeriesCoefficients:
    """Taylor coefficients of the pendulum angle theta(t) about t = 0.

    Solves theta'' = -sin(theta), theta(0) = theta0, theta'(0) = omega0,
    order by order, in the scaled time s = t/h with h = `time_unit`:
    d^2 theta/ds^2 = -h^2 sin(theta).  The sine of the unknown series is
    generated alongside it with the coupled recurrences that follow from
    (sin A)' = A' cos A and (cos A)' = -A' sin A,

        s_{n+1} =  (1/(n+1)) sum_{k=0}^{n} (k+1) a_{k+1} c_{n-k}
        c_{n+1} = -(1/(n+1)) sum_{k=0}^{n} (k+1) a_{k+1} s_{n-k},

    with (s_0, c_0) = `sin_cos`, by default (sin theta0, cos theta0) (pass
    exact seeds near theta0 = pi, where the sine of a rounded theta0 is off), so

        a_{n+2} = -h^2 s_n / ((n+1)(n+2)),   a_1 = h omega0,

    and every order is closed: s_{n+1}, c_{n+1} only need a up to n+1.
    The coefficients are those of t^n times h^n; with the default h = 1
    they are the plain Taylor coefficients.  A unit near the span of use
    keeps high orders in double range (see `SeriesCoefficients`).

    One loop computes the orders m = first, first + stride, ... through
    N - 2.  Pass m forms s_m, then a_{m+2}, then c_{m+lag}, one dot
    product each for s and c on the d[:m] or d[:m+lag] view and the
    reversed history tail.  The start's parity sets (first, stride, lag),
    and every order the loop skips is exactly zero and left at +0.0:

    - omega0 == 0 (a start at rest, such as a libration top): the orbit
      is even in t, so a, s and c vanish at every odd order; (2, 2, 0).
    - s_0 == 0.0 (a rotation top seeded (0, -1), or a start at the
      bottom): theta - theta0 is odd in t, so a and s vanish at every
      even order past 0 and c at every odd order.  s_m at odd m and
      c_{m+1} share a pass; (1, 2, 1).
    - any other start: every order, two dot products each; (1, 1, 0).

    A stride of 2 halves the work.  `ndarray.dot` calls the same BLAS
    routine as `np.dot`, so each computed value has the bits a stride-1
    loop with `np.dot` gives it, with less per-call overhead.  A
    non-integral `order` raises `ValueError`.
    """
    order = _whole(order, "order")
    if order < 2:
        raise ValueError("order must be at least 2 to feed the recurrence")
    h = float(time_unit)
    h2 = h * h
    a = np.zeros(order + 1)
    a[0] = theta0
    a[1] = omega0 * h
    top = order - 2  # s_j, c_j are needed for j <= top
    # s_j at s_rev[top - j]: order m reads s_{m-1}..s_0 as the tail [top-m+1:]
    s_rev = np.zeros(top + 1)
    c_rev = np.zeros(top + 1)
    s_n, c_rev[top] = (math.sin(theta0), math.cos(theta0)) if sin_cos is None else sin_cos
    s_rev[top] = s_n
    d = np.zeros(order)  # d_k = (k+1) a_{k+1}
    if omega0 == 0.0:
        first, stride, lag = 2, 2, 0
    else:
        first, stride, lag = (1, 2, 1) if s_n == 0.0 else (1, 1, 0)
        d[0] = a[1]  # at rest d_0 stays +0.0, even for omega0 = -0.0
    if not lag:  # an odd start keeps a_2 = +0.0
        a[2] = a_m = -(h2 * s_n) / 2
        d[1] = 2 * a_m
    for m in range(first, top + 1, stride):
        j = top - m
        dm = d[:m]
        s_n = float(dm.dot(c_rev[j + 1 :])) / m
        s_rev[j] = s_n
        a[m + 2] = a_m = -(h2 * s_n) / ((m + 1) * (m + 2))
        d[m + 1] = (m + 2) * a_m
        k = m + lag  # c trails s by the lag
        if k > top:
            break
        c_rev[top - k] = -float((d[:k] if lag else dm).dot(s_rev[top - k + 1 :])) / k
    return SeriesCoefficients(a, h)
