"""Formal power series in time: containers and coefficient recurrences.

A series is stored as the coefficient vector (a_0, ..., a_N) of
sum_n a_n (t/h)^n, where h is the series' time unit (1 unless a caller
chooses one).  All arithmetic is double precision.  The pendulum
recurrence below generates the angle series together with its sine and
cosine at O(N^2) total cost via running Cauchy-product sums: two dot
products per computed order, against the sine and cosine histories kept
reversed in contiguous buffers.  A start at rest gives an orbit even in
t, whose odd orders are exactly zero, so only the even orders are
computed.
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


def eval_poly(a: SeriesCoefficients, t, upto: int | None = None):
    """Horner evaluation of the truncated series at t (scalar or array).

    The series is evaluated at t / time_unit.  `upto` evaluates the
    partial sum through order `upto`; by default the whole stored series
    is used.  A non-integral `upto` raises rather than being truncated.
    """
    c = a.coeffs
    n = c.size - 1 if upto is None else _whole(upto, "upto")
    if n < 0 or n > c.size - 1:
        raise ValueError(f"upto={upto} outside stored orders 0..{c.size - 1}")
    t = np.asarray(t, dtype=float) / a.time_unit
    acc = np.full_like(t, c[n])
    for k in range(n - 1, -1, -1):
        acc = acc * t + c[k]
    if acc.ndim == 0:
        return float(acc)
    return acc


def pendulum_series(theta0: float, omega0: float, order: int,
                    *, time_unit: float = 1.0) -> SeriesCoefficients:
    """Taylor coefficients of the pendulum angle theta(t) about t = 0.

    Solves theta'' = -sin(theta), theta(0) = theta0, theta'(0) = omega0,
    order by order, in the scaled time s = t/h with h = `time_unit`:
    d^2 theta/ds^2 = -h^2 sin(theta).  The sine of the unknown series is
    generated alongside it with the coupled recurrences that follow from
    (sin A)' = A' cos A and (cos A)' = -A' sin A,

        s_{n+1} =  (1/(n+1)) sum_{k=0}^{n} (k+1) a_{k+1} c_{n-k}
        c_{n+1} = -(1/(n+1)) sum_{k=0}^{n} (k+1) a_{k+1} s_{n-k},

    with s_0 = sin theta0 and c_0 = cos theta0, so

        a_{n+2} = -h^2 s_n / ((n+1)(n+2)),   a_1 = h omega0,

    and every order is closed: s_{n+1}, c_{n+1} only need a up to n+1.
    The coefficients are those of t^n times h^n; with the default h = 1
    they are the plain Taylor coefficients.  A unit near the span of use
    keeps high orders in double range (see `SeriesCoefficients`).

    Each computed order costs two dot products of length n.  When
    omega0 == 0 the orbit is even in t: a_1 = 0, and every odd-order a,
    s and c is a sum of products with an exact zero, so it is exactly
    zero even in floating point.  The loop then steps n by 2, computes
    only the even orders and leaves the odd ones at +0.0, which halves
    the work; any other start steps by 1.  The products use
    `ndarray.dot` on one shared view of the d history: it calls the same
    BLAS routine as `np.dot`, so the bits are the same, with less
    per-call overhead.  A non-integral `order` raises `ValueError`.
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
    s_n = s_rev[top] = math.sin(theta0)
    c_rev[top] = math.cos(theta0)
    d = np.zeros(order)  # d_k = (k+1) a_{k+1}
    # at rest the orbit is even in t: a, s and c vanish at every odd order
    step = 2 if omega0 == 0.0 else 1
    for n in range(0, order - 1, step):
        a[n + 2] = -(h2 * s_n) / ((n + 1) * (n + 2))
        m = n + step
        if m <= top:
            d[m - 1] = m * a[m]
            dm = d[:m]
            s_n = float(dm.dot(c_rev[top - m + 1 :])) / m
            c_rev[top - m] = -float(dm.dot(s_rev[top - m + 1 :])) / m
            s_rev[top - m] = s_n
    return SeriesCoefficients(a, h)
