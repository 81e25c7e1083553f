"""Seeded inputs shared by the library workloads.

Energy mix (README.md in this directory says why):

* bulk: E log-uniform, 7/8 of the draws;
* near-separatrix: |E - 2| log-uniform, 1/8 of the draws, alternating
  sides of E = 2;
* separatrix: E = 2 exactly, 1/32 of the draws where a workload asks
  for it (it is then solved with method "separatrix");
* direction +1 or -1 with equal odds.

The full ranges are E in [1e-14, 1e4] and |E - 2| in [1e-12, 1e-3].
Timed ops draw from the part of them that the seed commit solves, so
that no timed op fails: |E - 2| >= 3e-5 (below about 1.1e-5 the period
route raises "modulus too close to 1"), and at truncation orders of 200
and more an upper end on E below the one where the coefficients
overflow. The whole ranges are still covered by the fixed grid of
`domain_grid`, whose share of successful builds is a metric of its own.

Draws are stratified: each class is an evenly spaced grid of quantiles
moved by one seeded offset, so every seed covers the whole range and the
share of draws past any threshold changes by at most one draw between
seeds.
"""

from __future__ import annotations

import math

import numpy as np

BULK_DECADES = (-14.0, 4.0)
NEAR_DECADES = (-12.0, -3.0)
# Lower end of |E - 2| for timed draws; the seed fails up to about 1.1e-5.
TIMED_NEAR_LOW = math.log10(3e-5)
# Upper end of E for timed draws at a truncation order (orders not named
# keep 1e4); the seed overflows from E ~ 5e3, 1.7e2 and 21 respectively.
TIMED_BULK_HIGH = {200: math.log10(3e3), 400: 2.0, 1000: 1.0}


def shifted_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [0, 1), one per stratum of width 1/n, sharing one seeded offset."""
    return (np.arange(n) + rng.random()) / n


def bulk_energies(quantiles, orders) -> list[float]:
    """Bulk energies at the given quantiles of the timed range of each draw's order."""
    lo = BULK_DECADES[0]
    hi = np.array([TIMED_BULK_HIGH.get(n, BULK_DECADES[1]) for n in orders])
    return (10.0 ** (lo + (hi - lo) * np.asarray(quantiles))).tolist()


def near_energies(quantiles, first_side: float, low: float = TIMED_NEAR_LOW) -> list[float]:
    """2 +- |E - 2| at the given quantiles of [10**low, 1e-3], alternating sides."""
    hi = NEAR_DECADES[1]
    gap = 10.0 ** (low + (hi - low) * np.asarray(quantiles))
    side = np.where(np.arange(gap.size) % 2 == 0, 1.0, -1.0) * first_side
    return (2.0 + side * gap).tolist()


def energy_mix(rng: np.random.Generator, bulk_orders, near_count: int,
               sep_count: int = 0) -> tuple[list[float], list[float], list[int]]:
    """(bulk, near-separatrix, directions) timed energies; E = 2 draws come last.

    One bulk draw is made per entry of `bulk_orders`, the truncation order
    it will be solved at. Both lists are in ascending quantile order, so a
    caller that deals them round-robin onto configurations gives each
    configuration draws from across its whole range.
    """
    bulk = bulk_energies(shifted_grid(rng, len(bulk_orders)), bulk_orders)
    near = near_energies(shifted_grid(rng, near_count), float(rng.choice([-1.0, 1.0])))
    directions = rng.choice([-1, 1], size=len(bulk) + near_count + sep_count).tolist()
    return bulk, near, directions


def domain_grid(bulk_count: int, near_count: int) -> list[float]:
    """Energies at the stratum midpoints of the full bulk and near-separatrix
    ranges, the same for every seed."""
    mid_b = (np.arange(bulk_count) + 0.5) / bulk_count
    mid_n = (np.arange(near_count) + 0.5) / near_count
    lo, hi = BULK_DECADES
    return (10.0 ** (lo + (hi - lo) * mid_b)).tolist() + near_energies(mid_n, 1.0, NEAR_DECADES[0])


def _agm(a: float, b: float) -> float:
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def approx_period(energy: float) -> float:
    """Full period T from a double-precision AGM; 2 pi stands in at E = 2.

    Used only to lay out evaluation times, never as a reference value.
    """
    if energy == 2.0:
        return 2.0 * math.pi
    if energy < 2.0:
        kp = math.sqrt(0.5 * (2.0 - energy))  # sqrt(1 - k^2), k^2 = E/2
        return 4.0 * math.pi / (2.0 * _agm(1.0, kp))
    k = math.sqrt(2.0 / energy)
    kp = math.sqrt((energy - 2.0) / energy)
    return 2.0 * k * math.pi / (2.0 * _agm(1.0, kp))


def amplitude(energy: float) -> float:
    """Angle scale of relative errors: theta_max below E = 2, pi otherwise."""
    if energy < 2.0:
        return 2.0 * math.asin(math.sqrt(0.5 * energy))
    return math.pi


def stratified_indices(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """`count` distinct indices into range(size) (count <= size), one drawn
    from each of `count` equal slices of it."""
    edges = np.arange(count + 1) * size // count
    return edges[:-1] + (rng.random(count) * np.diff(edges)).astype(int)
