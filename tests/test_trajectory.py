"""Solution assembly, periodic extension, and initial-condition alignment."""

import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import (
    SeparatrixError,
    align_to_ics,
    build_trajectory,
    canonical_initial_state,
    energy_state,
    sup_error,
    theta_at,
    theta_tilde,
)
from pendseries.energy import Regime, energy_of, separatrix_theta
from pendseries.trajectory import _SEAM_SNAP_FRACTION, _orient, _tilde
from pendseries.validation import rk4_sample


# the orders that reach 1e-13 at each energy (ROADMAP's table); the
# `rho_order` fixture reproduces them (test_convergence_orders_are_rho_sized)
CONVERGENCE_ORDERS = [
    (0.5, 64), (1.71, 168), (1.9998, 1004), (2.0 - 1e-6, 2096),
    (2.0 + 1e-6, 2096), (2.02, 391), (5.0, 79), (1e4, 23), (1.99, 463),
    (2.0 - 1e-10, 4999), (2.0 + 1e-10, 4999), (2.0 - 2e-12, 6624), (2.0 + 2e-12, 6624)]


def test_convergence_orders_are_rho_sized(rho_order):
    # the hard-coded table and the formula cannot drift apart
    assert [(e, rho_order(energy_state(e), 1e-13, 1)) for e, _ in CONVERGENCE_ORDERS] == \
        CONVERGENCE_ORDERS


def _half_t_star_anchor(c, regime):
    """The canonical branch at T*/2, algebraic in k' (DLMF 22.5(ii)):
    sn = 1/sqrt(1 + k') and dn = sqrt(k') there, so 2 atan2(k/sqrt(1 + k'),
    sqrt(k')) below E = 2 and 2 atan2(1, sqrt(k')) above."""
    root = math.sqrt(c.k_prime)
    if regime is Regime.LIBRATION:
        return 2.0 * math.atan2(c.k / math.sqrt(1.0 + c.k_prime), root)
    return 2.0 * math.atan2(1.0, root)


class TestBuild:
    @pytest.mark.parametrize("energy,order", [
        (1.0, 10), (3.0, 10), (2.0 - 1e-6, 40), (1.99999, 40), (2.0 + 1e-6, 40)])
    def test_carries_its_records_period(self, energy, order):
        # the record's AGM T and T*, exact to rounding as k -> 1, where the
        # resummed K's series would need millions of terms; none at E = 2
        for state in (energy_state(energy, 1), energy_state(energy, -1)):
            for sol in (build_trajectory(state, order, m) for m in ("raw", "resummed")):
                assert (sol.T, sol.T_star, sol.order) == (state.orbit.T, state.orbit.T_star, order)
                assert np.all(np.isfinite(theta_at(sol, np.linspace(0.0, 8.0 * sol.T_star, 17))))
        sep = build_trajectory(energy_state(2.0), None, "separatrix")
        assert (sep.method, sep.T, sep.T_star, sep.order) == ("separatrix", math.inf, math.inf, 0)

    def test_series_method_raises_at_separatrix(self):
        # no branch spans the infinite T*: a series method raises, with no
        # warning; E != 2 is still the separatrix inside the band, and the error says so
        for energy in (2.0, 2.0 - 5e-13, 2.0 + 5e-13):
            assert energy_state(energy).regime is Regime.SEPARATRIX
            for method in ("raw", "resummed"):
                with pytest.raises(SeparatrixError, match=r"\(\|E - 2\| <= 1e-12\)"):
                    build_trajectory(energy_state(energy), 20, method)

    def test_rest_orbit_stays_at_rest(self):
        # E = 0 builds and evaluates theta = 0, though it has no pole lattice
        sol = build_trajectory(energy_state(0.0), 20, "resummed")
        assert np.all(theta_at(sol, np.linspace(0.0, 10.0, 11)) == 0.0)

    def test_separatrix_method_needs_separatrix_energy(self):
        # 2 -+ 2e-12 lie just outside the separatrix band
        for energy in (1.71, 2.0 - 2e-12, 2.0 + 2e-12):
            with pytest.raises(SeparatrixError):
                build_trajectory(energy_state(energy), None, "separatrix")

    def test_series_methods_need_order(self):
        with pytest.raises(TypeError):
            build_trajectory(energy_state(1.71), method="raw")
        with pytest.raises(TypeError):
            build_trajectory(energy_state(1.71), None, "raw")
        with pytest.raises(ValueError):
            build_trajectory(energy_state(1.71), 20, "spectral")


# The prefix test's grid (each order-n build against the order-400 one); the alias
# test's adds the convergence orders and every other pinned build's (energy, order)
PREFIX_ENERGIES = (1e-12, 0.5, 1.71, 1.9998, 2.0 - 1e-6, 2.0 + 1e-6, 2.02, 5.0, 1e4)
PREFIX_ORDERS = (2, 3, 7, 20, 40, 81, 200, 400)
ALIAS_GRID = sorted(
    set(CONVERGENCE_ORDERS)
    | {(e, n) for e in PREFIX_ENERGIES for n in PREFIX_ORDERS}
    | {(e, 1000) for e in (200.0, 1e4)}
    | {(e, 40) for e in (5e-324, 1e-315, 1e-10, 1e-4, 1.99999, 1e3, 1e306, 1e308,
                         sys.float_info.max)})


class TestEfficientBranch:
    @pytest.mark.parametrize("energy,direction", [(0.5, 1), (1.71, -1), (2.02, 1), (5.0, -1)])
    def test_raw_coefficients_with_two_appended(self, energy, direction):
        state = energy_state(energy, direction)
        raw = build_trajectory(state, 20, "raw").branch
        sol = build_trajectory(state, 20, "resummed")
        assert sol.branch.truncation_order == 20 + 2
        assert sol.branch.time_unit == sol.T_star
        assert sol.branch.coeffs[:21].tobytes() == raw.coeffs.tobytes()

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [2.0, 2.0 - 5e-13, 2.0 + 5e-13] + sorted({e for e, _ in ALIAS_GRID}))
    def test_agrees_with_resummed_at_convergence_orders(self, energy, direction, rng):
        # the one test of the alias: "efficient" builds the "resummed" branch
        # and evaluates it to the same bits, on the seams k T* and at T* too
        state = energy_state(energy, direction)
        if state.regime is Regime.SEPARATRIX:
            with pytest.raises(SeparatrixError):
                build_trajectory(state, 20, "efficient")
            return
        t_star = state.orbit.T_star
        ts = np.concatenate([np.arange(-12, 13), [1.0], rng.uniform(-1e3, 1e3, 8)]) * t_star
        tilde_ts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 8)]) * t_star

        def facts(order, method):
            sol = build_trajectory(state, order, method)
            return (sol.T, sol.T_star, sol.order, sol.branch.time_unit, sol.branch.coeffs.tobytes(),
                    theta_at(sol, ts).tobytes(), theta_tilde(sol, tilde_ts).tobytes())
        for order in (n for e, n in ALIAS_GRID if e == energy):
            assert facts(order, "efficient") == facts(order, "resummed"), order

    @pytest.mark.parametrize("energy,order", CONVERGENCE_ORDERS + [
        (1.71, 6), (1.0, 10), (2.0 - 1e-6, 40), (1.99999, 40), (2.0 + 1e-6, 40)])
    def test_exactly_zero_at_t_star(self, energy, order):
        # the rounded polynomial can leave a few ulps at s = 1; the seams need +0.0
        for direction in (1, -1):
            sol = build_trajectory(energy_state(energy, direction), order, "resummed")
            t_star = sol.T_star
            ends = (theta_tilde(sol, t_star), theta_tilde(sol, np.array([0.0, t_star]))[1])
            for end in ends:
                assert end == 0.0 and math.copysign(1.0, end) == 1.0, (direction, end)


class TestCoefficientPrefixes:
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("method", ["raw", "resummed"])
    def test_order_n_build_is_a_prefix_of_a_longer_build(self, method, direction):
        # so the order-n partial sum of a branch is the order-n build, bit for bit
        for energy in PREFIX_ENERGIES:
            state = energy_state(energy, direction)
            longer = build_trajectory(state, PREFIX_ORDERS[-1], method).branch.coeffs
            for n in PREFIX_ORDERS[:-1]:
                branch = build_trajectory(state, n, method).branch.coeffs
                assert branch[:n + 1].tobytes() == longer[:n + 1].tobytes(), (energy, n)


class TestCoefficientRange:
    """The branch is carried in units of T*, so its coefficients stay in range.

    In plain time the coefficients fall like R^-n: at E = 1.9998 they are
    subnormal from n = 388 and zero past n = 404, which left the raw
    branch 5.5e-8 from the truth at any order; at large E they overflow.
    """

    def test_raw_branch_converges_past_the_underflow_order(self):
        sol = build_trajectory(energy_state(1.9998), 800, "raw")
        assert sup_error(sol, oracle_dt=1e-4) < 1e-12

    @pytest.mark.parametrize("energy", [1e4, 200.0])
    def test_large_energy_builds_at_high_order(self, energy):
        sol = build_trajectory(energy_state(energy, -1), 1000, "resummed")
        assert sup_error(sol, oracle_dt=1e-4) < 1e-12

    @pytest.mark.parametrize("energy", [1e306, 1e308, sys.float_info.max])
    def test_largest_energies_build(self, energy):
        # the start velocity and w* are formed from E/2: 2E overflows
        # above about 9e307, although energy_state accepts every finite E
        state = energy_state(energy, -1)
        for method in ("raw", "resummed"):
            sol = build_trajectory(state, 40, method)
            t_star = sol.T_star
            assert np.all(np.isfinite(theta_at(sol, np.linspace(0.0, 4.0 * t_star, 9))))
            assert sup_error(sol, oracle_dt=t_star / 1000) < 1e-12


@pytest.fixture(scope="module")
def jacobi(bench_module):
    """The benchmark's mpmath reference (bench/truth.py, 30 digits): Jacobi
    elliptic functions, sharing no code with the package."""
    return bench_module("truth")


class TestSeparatrixGradeBranch:
    """Near E = 2 every branch input is formed from E itself.

    The orbit amplifies a mismatch between its inputs and E by about
    e^T*, so k' = sqrt(1 - k^2) of a rounded k, theta_max = 2 asin(k) and
    the sine and cosine of a rounded theta0 left the resummed branch off
    by 1.4e-13 at 1.9998, 2.6e-10 at 2 + 1e-6 and 1.1e-4 at 2 - 2e-12.
    """

    @pytest.mark.parametrize("energy,order",
                             [(e, n) for e, n in CONVERGENCE_ORDERS if abs(e - 2.0) < 1e-3])
    def test_resummed_branch_matches_jacobi_solution(self, jacobi, energy, order):
        sol = build_trajectory(energy_state(energy), order, "resummed")
        ts = np.linspace(0.0, sol.T_star, 41)
        # the canonical branch falls from +theta_max, or turns clockwise from pi
        want = jacobi.theta_ref(energy, 1 if energy < 2.0 else -1, ts)
        assert np.max(np.abs(theta_tilde(sol, ts) - want)) < 1e-13

    def test_branch_meets_the_closed_form_at_half_t_star(self, rng, rho_order):
        near = 2.0 + np.array([-1.0, 1.0] * 5) * 10.0 ** rng.uniform(-12.0, -3.0, 10)
        for energy in np.concatenate([10.0 ** rng.uniform(-6.0, 4.0, 16), near]):
            state = energy_state(energy)
            order = rho_order(state, 1e-13, 40)
            sol = build_trajectory(state, order, "resummed")
            want = _half_t_star_anchor(state.orbit, state.regime)
            assert abs(theta_tilde(sol, 0.5 * state.orbit.T_star) - want) <= 2e-15, \
                (energy, order)

    @pytest.mark.parametrize("energy", [0.5, 1.71, 1.99, 2.02, 5.0, 100.0])
    def test_rk4_meets_the_closed_form_velocity_at_half_t_star(self, energy):
        # cn = sqrt(k'/(1 + k')) and dn = sqrt(k') at K/2 give
        # omega = -2 k cn = -2k sqrt(k'/(1 + k')) below E = 2 and
        # -(2/k) dn = -(2/k) sqrt(k') above; the worst gap measured is 4.2e-14, at 1.99
        c = energy_state(energy).orbit
        root = math.sqrt(c.k_prime)
        want = -2.0 * c.k * root / math.sqrt(1.0 + c.k_prime) if energy < 2.0 else \
            -2.0 / c.k * root
        _, omega = rk4_sample(c.theta0, c.omega0, [0.5 * c.T_star], 1e-4)
        assert abs(omega[0] - want) <= 1e-12

    # the worst gap measured over these 5 energies x 2 directions x 8 times
    # is 3.6e-15, one ulp of theta = 26.8 at E = 5, j = 7; below E = 2 it is
    # 5.6e-16.  The gate adds about one ulp of 2 pi k to it.
    @pytest.mark.parametrize("energy", [0.5, 1.71, 2.0 - 1e-10, 2.0 + 1e-10, 5.0])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_orbit_meets_the_closed_form_at_every_odd_half_t_star(self, energy, direction,
                                                                 rho_order):
        # the fold table in `trajectory`'s docstring at t = (2j + 1) T*/2:
        # libration signs +, -, -, + by j mod 4; rotation +, - by j mod 2,
        # winding -2 pi (j // 2); the other direction reflects to -theta
        # (libration) or 2 pi - theta (rotation)
        state = energy_state(energy, direction)
        c = state.orbit
        sol = build_trajectory(state, rho_order(state, 1e-13, 40), "resummed")
        anchor = _half_t_star_anchor(c, state.regime)
        j = np.arange(8)
        times = (2 * j + 1) * 0.5 * c.T_star
        if state.regime is Regime.LIBRATION:
            want = np.where((j % 4 == 1) | (j % 4 == 2), -anchor, anchor)
            want = want if direction == 1 else -want
        else:
            want = np.where(j % 2, -anchor, anchor) - 2.0 * math.pi * (j // 2)
            want = want if direction == -1 else 2.0 * math.pi - want
        assert np.max(np.abs(theta_at(sol, times) - want)) <= 8e-15
        for t, w in zip(times.tolist(), want.tolist()):
            assert abs(theta_at(sol, t) - w) <= 8e-15, t

    def test_rotation_branch_keeps_exact_parity(self):
        # theta - pi is odd in t; seeded with sin(float pi) = 1.2e-16 the
        # even orders held residues up to 9.4e-14, seeded with (0, -1) none
        a = build_trajectory(energy_state(2.0 + 1e-6), 1000, "raw").branch.coeffs
        assert a[0] == math.pi
        assert np.all(a[2::2] == 0.0)


class TestThetaTilde:
    def test_range_guard(self):
        sol = build_trajectory(energy_state(1.0), 10, "resummed")
        with pytest.raises(ValueError):
            theta_tilde(sol, -0.1)
        with pytest.raises(ValueError):
            theta_tilde(sol, 1.001 * sol.T_star)
        # exactly [0, T*]: no slack on either side
        t_star = sol.T_star
        for t in (math.nextafter(t_star, math.inf), -1e-13 * t_star):
            with pytest.raises(ValueError):
                theta_tilde(sol, t)
        for t in (math.nan, [0.1, math.nan]):
            with pytest.raises(ValueError):
                theta_tilde(sol, t)
        sep = build_trajectory(energy_state(2.0), None, "separatrix")
        for t in (math.inf, -math.inf):  # the separatrix has no finite T* to bound t
            with pytest.raises(ValueError):
                theta_tilde(sep, t)


class TestThetaAt:
    @pytest.mark.parametrize("energy,direction", [
        (0.5, 1), (1.0, 1), (1.71, 1), (1.71, -1), (2.02, -1), (2.02, 1), (5.0, 1)])
    def test_whole_periods_are_periodic_images(self, energy, direction, rng):
        # libration repeats exactly; rotation winds by 2 pi per period in
        # its own sense, so t + kT lies 2 pi k ahead (ccw) or behind (cw),
        # for negative times too
        sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
        t_full = sol.T
        winding = 0.0
        if sol.energy_state.regime is Regime.ROTATION:
            winding = 2.0 * math.pi * direction
        ts = np.concatenate([[0.0, 0.3, 0.5 * t_full, 0.9 * t_full],
                             rng.uniform(0.0, 2.0 * t_full, 25)])
        for k in (-5, -2, -1, 1, 2, 5):
            assert_allclose(theta_at(sol, ts + k * t_full),
                            theta_at(sol, ts) + k * winding, rtol=0, atol=1e-12)

    def test_separatrix_aligned_before_the_canonical_start(self):
        # the far-side start has a negative offset; t + t0 < 0 must evaluate
        sol = build_trajectory(energy_state(2.0), None, "separatrix")
        t0 = align_to_ics(sol, -1.0, math.sqrt(2.0 * (1.0 + math.cos(1.0))))
        assert t0 < 0.0
        ts = np.linspace(0.0, 2.0, 41)
        # the rising closed form through theta(0) = -1
        exact = -math.pi + 4.0 * np.arctan(np.exp(ts) * math.tan(0.25 * (math.pi - 1.0)))
        assert_allclose(theta_at(sol, ts + t0), exact, rtol=0, atol=1e-12)

    def test_non_finite_time_rejected(self):
        sols = [build_trajectory(energy_state(1.71), 20, "resummed"),
                build_trajectory(energy_state(2.02, -1), 20, "raw"),
                build_trajectory(energy_state(2.0), None, "separatrix")]
        for sol in sols:
            for t in (math.inf, -math.inf, math.nan, np.array([1.0, math.nan])):
                with pytest.raises(ValueError, match="finite t"):
                    theta_at(sol, t)

    def test_time_without_a_phase_rejected(self):
        # neighbouring doubles T* or more apart leave no phase to fold
        lib = build_trajectory(energy_state(1.71), 20, "resummed")
        for t in (1e200, -1e200, 1.7e308, np.array([1.0, 1e200])):
            with pytest.raises(ValueError, match="finite t"):
                theta_at(lib, t)
        fast = build_trajectory(energy_state(1e300), 20, "resummed")
        with pytest.raises(ValueError, match="finite t"):
            theta_at(fast, 1e200)

    def test_time_just_inside_the_limit(self):
        lib = build_trajectory(energy_state(1.71), 20, "resummed")
        assert math.isfinite(theta_at(lib, 2.0 ** 50 * lib.T_star))
        # on the separatrix T* is infinite: every finite t has a phase
        sep = build_trajectory(energy_state(2.0), None, "separatrix")
        assert theta_at(sep, 1.7e308) == math.pi

    def test_array_keeps_its_shape(self):
        for sol in (build_trajectory(energy_state(1.71), 20, "resummed"),
                    build_trajectory(energy_state(2.0), None, "separatrix")):
            ts = np.linspace(0.0, 7.0, 6)
            grid = theta_at(sol, ts.reshape(2, 3))
            assert grid.shape == (2, 3)
            assert np.all(grid == theta_at(sol, ts).reshape(2, 3))
            empty = theta_at(sol, np.zeros(0))
            assert empty.shape == (0,) and empty.dtype == float

    def test_libration_symmetry_values(self):
        sol = build_trajectory(energy_state(1.71), 30, "resummed")
        t_star = sol.T_star
        theta0 = theta_at(sol, 0.0)
        assert theta_at(sol, sol.T) == theta0
        assert theta_at(sol, 2.0 * t_star) == -theta0
        # quarter-period symmetry: theta(T* + u) = -theta(T* - u)
        for u in (0.3, 0.9):
            assert theta_at(sol, t_star + u) == pytest.approx(
                -theta_at(sol, t_star - u), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("energy", [2.02, 2.5])
    def test_rotation_winding(self, energy):
        for direction, winding in ((-1, -2.0 * math.pi), (1, 2.0 * math.pi)):
            sol = build_trajectory(energy_state(energy, direction), 30, "resummed")
            t_full = sol.T
            theta0 = theta_at(sol, 0.0)
            assert theta_at(sol, t_full) == pytest.approx(
                theta0 + winding, rel=1e-14)
            assert theta_at(sol, 3.5) - theta_at(sol, 3.5 + t_full) == pytest.approx(
                -winding, rel=1e-12)
            # no backtracking over two periods, in the orbit's own sense
            theta = theta_at(sol, np.linspace(0.0, 2.0 * t_full, 257))
            assert np.all(direction * np.diff(theta) > 0.0)
            assert theta[-1] - theta[0] == pytest.approx(2.0 * winding, abs=1e-9)

    @pytest.mark.parametrize("energy,direction,order,method,t_over_t_star,bound", [
        (2.02, -1, 36, "raw", [1.5], 1e-6),
        (1.9998, 1, 40, "resummed", [0.5], 1e-8),
        (1.71, 1, 40, "resummed", np.linspace(0.0, 4.0, 101), 1e-8),  # one whole period
    ])
    def test_folded_branches_against_oracle(self, energy, direction, order, method,
                                            t_over_t_star, bound):
        sol = build_trajectory(energy_state(energy, direction), order, method)
        ts = sol.T_star * np.asarray(t_over_t_star)
        oracle, _ = rk4_sample(*canonical_initial_state(sol), ts, 1e-4)
        assert np.max(np.abs(theta_at(sol, ts) - oracle)) < bound

    def test_libration_reflection_is_exact_negation(self):
        plus = build_trajectory(energy_state(1.71, 1), 20, "resummed")
        minus = build_trajectory(energy_state(1.71, -1), 20, "resummed")
        ts = np.linspace(0.0, 2.0 * plus.T, 17)
        assert np.all(theta_at(minus, ts) == -theta_at(plus, ts))

    def test_rotation_reflection(self):
        cw = build_trajectory(energy_state(5.0, -1), 20, "resummed")
        ccw = build_trajectory(energy_state(5.0, 1), 20, "resummed")
        ts = np.linspace(0.0, 1.7 * cw.T, 13)
        assert_allclose(theta_at(ccw, ts) + theta_at(cw, ts),
                        2.0 * math.pi, rtol=0, atol=1e-12)


def two_level_fold(sol, t):
    """The branch fold as first written: t mod T, then the branch within the period."""
    state = sol.energy_state
    if state.regime is Regime.SEPARATRIX:
        return _orient(state, _tilde(sol, t))
    t_full = sol.T
    t_star = sol.T_star
    snap = _SEAM_SNAP_FRACTION * t_full
    winding = math.floor(t / t_full)
    that = max(t - t_full * winding, 0.0)
    branches = 4 if state.regime is Regime.LIBRATION else 2
    j = min(int(that // t_star), branches - 1)
    u = that - j * t_star
    if u < snap:
        u = 0.0
    elif t_star - u < snap:
        u = 0.0
        j += 1
        if j == branches:
            j = 0
            winding += 1
    v = _tilde(sol, t_star - u if j % 2 else u)
    if j in (1, 2):
        v = -v
    if state.regime is Regime.ROTATION:
        v -= 2.0 * math.pi * winding
    return _orient(state, v)


class TestSubnormalEnergies:
    # k and w* share one sqrt(2E); sqrt(E/2) rounded E/2 first, to 0 at
    # 5e-324 (a start at theta = 0) and by 2.5e-9 relative at 1e-315
    ENERGIES = [5e-324, 1e-315]

    @pytest.mark.parametrize("energy", ENERGIES)
    def test_branch_starts_at_theta_max(self, energy):
        import mpmath as mp
        with mp.workdps(30):
            theta_max = float(2 * mp.asin(mp.sqrt(mp.mpf(energy) / 2)))
        sol = build_trajectory(energy_state(energy), 40, "resummed")
        assert theta_at(sol, 0.0) == theta_max

    @pytest.mark.parametrize("method", ["raw", "resummed"])
    @pytest.mark.parametrize("energy", ENERGIES)
    def test_orbit_is_harmonic_over_two_periods(self, energy, method):
        # theta_max cos t, to O(theta_max^3): at E = 5e-324 the start used to
        # round to theta = 0, a curve of zeros
        sol = build_trajectory(energy_state(energy), 40, method)
        theta_max = math.sqrt(2.0 * energy)  # 2 asin(sqrt(E/2)), 3.14e-162 at 5e-324
        ts = np.linspace(0.0, 2.0 * sol.T, 129)
        theta = theta_at(sol, ts)
        assert_allclose(theta, theta_max * np.cos(ts), rtol=0, atol=1e-12 * theta_max)
        # +-theta_max at every half period, and 0 at the quarters between
        assert theta[::32] == pytest.approx(theta_max * np.array([1, -1, 1, -1, 1]),
                                            rel=1e-15, abs=0.0)
        assert np.all(np.abs(theta[16::32]) < 1e-12 * theta_max)


class TestFoldReference:
    """`theta_at` folds by one branch index floor(t/T*); the two-level fold
    above reduces t mod T first and clamps.  Both give the same bits, to
    array and scalar calls alike."""

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [1e-10, 1e-4, 0.5, 1.71, 1.9998, 2.0, 2.02, 5.0, 1e3])
    def test_bit_identical_to_the_two_level_fold(self, energy, direction, rng):
        state = energy_state(energy, direction)
        methods = ["separatrix"] if energy == 2.0 else ["raw", "resummed"]
        for method in methods:
            sol = build_trajectory(state, 40, method)
            t_full, t_star = sol.T, sol.T_star
            if method == "separatrix":
                t_full = t_star = 2.0 * math.pi
            ts = [k * t_star + off for k in range(-12, 13)
                  for off in (0.0, 1e-13, -1e-13, 1e-13 * t_full, -1e-13 * t_full)]
            ts += list(rng.uniform(-1e6 * t_full, 1e6 * t_full, 50))
            got = theta_at(sol, np.array(ts))
            for t, value in zip(ts, got):
                want = two_level_fold(sol, t).hex()
                assert value.hex() == want, (method, t)
                # a scalar call takes the same fold to the same bits
                assert float.hex(theta_at(sol, float(t))) == want, (method, t)


class TestSeams:
    ENERGIES = (0.5, 1.71, 1.9998, 2.02, 5.0)

    @staticmethod
    def seam_gaps(sol, h):
        t_star = sol.T_star
        eps = 1e-11 * sol.T
        gaps, vgaps = [], []
        for k in range(1, 9):
            left, right = k * t_star - eps, k * t_star + eps
            gaps.append(abs(theta_at(sol, left) - theta_at(sol, right)))
            v_left = (theta_at(sol, left) - theta_at(sol, left - h)) / h
            v_right = (theta_at(sol, right + h) - theta_at(sol, right)) / h
            vgaps.append(abs(v_left - v_right))
        return max(gaps), max(vgaps)

    def test_pinned_branch_at_n40(self):
        for energy in self.ENERGIES:
            direction = -1 if energy > 2 else 1
            sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
            gap, vgap = self.seam_gaps(sol, 1e-7)
            assert gap < 1e-9, f"E={energy}: angle gap {gap}"
            assert vgap < 1e-6, f"E={energy}: velocity gap {vgap}"

    def test_raw_method_where_series_reaches_the_floor(self):
        # the raw partial sum leaves a 2|S_N(T*)| jump at every seam;
        # N = 150 pushes it below 1e-9 for these energies
        for energy in (0.5, 1.71, 5.0):
            direction = -1 if energy > 2 else 1
            sol = build_trajectory(energy_state(energy, direction), 150, "raw")
            gap, vgap = self.seam_gaps(sol, 1e-7)
            assert gap < 1e-9
            assert vgap < 1e-6

    def test_raw_seam_shrinks_with_order(self):
        # close to the separatrix the jump decays too slowly to reach
        # 1e-9 by N=200 (measured 1.18e-9 at E=2.02); assert the decay
        state = energy_state(2.02, -1)
        gaps = []
        for order in (50, 100, 200):
            sol = build_trajectory(state, order, "raw")
            gaps.append(self.seam_gaps(sol, 1e-7)[0])
        assert gaps[2] < 1e-8
        assert gaps[2] < 1e-3 * gaps[0]


class TestCanonicalInitialState:
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy,order", [
        (1.0, 10), (1.71, 6), (1.71, 10), (1.71, 40), (2.0, None), (2.02, 10), (2.02, 40),
        (5.0, 40)])
    def test_matches_the_solution_at_zero(self, energy, order, direction):
        state = energy_state(energy, direction)
        for method in ("separatrix",) if order is None else ("raw", "resummed"):
            sol = build_trajectory(state, order, method)
            theta0, omega0 = canonical_initial_state(sol)
            assert theta0 == theta_at(sol, 0.0), method
            forward = np.sign(theta_at(sol, 1e-6) - theta_at(sol, 0.0))
            if state.regime is Regime.LIBRATION:
                # at rest on a turning point, then moving back toward the bottom
                assert omega0 == 0.0 and forward == -np.sign(theta0), method
            elif order is None:  # the separatrix leaves the bottom at speed 2
                assert omega0 == 2.0 * forward
            else:  # the record's speed over the top, in the orbit's own sense
                assert omega0 == -forward * state.orbit.omega0, method


class TestAlign:
    def test_canonical_start_is_zero_offset(self):
        # a rotation top, whichever turn it is written in, is the start exactly,
        # not half a bisection step past it
        for energy in (0.5, 1.71, 2.02, 2.5, 5.0, 1e4):
            for direction in (1, -1):
                sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
                theta0, omega0 = canonical_initial_state(sol)
                turns = (0.0, -2.0 * math.pi, 2.0 * math.pi) if energy > 2.0 else (0.0,)
                for turn in turns:
                    t0 = align_to_ics(sol, theta0 + turn, omega0)
                    assert t0 == 0.0, (energy, direction, turn, t0)

    def test_bottom_crossing_is_t_star(self):
        sol = build_trajectory(energy_state(1.71), 40, "resummed")
        t0 = align_to_ics(sol, 0.0, -math.sqrt(2.0 * 1.71))
        assert t0 == pytest.approx(sol.T_star, abs=1e-9)

    def test_libration_alignment_against_rk4(self):
        theta0, omega_sq = 1.0, 2.0 * (1.71 - 1.0 + math.cos(1.0))
        omega0 = math.sqrt(omega_sq)
        sol = build_trajectory(energy_of(theta0, omega0), 80, "resummed")
        t0 = align_to_ics(sol, theta0, omega0)
        ts = np.linspace(0.0, sol.T, 201)
        oracle, _ = rk4_sample(theta0, omega0, ts, 1e-4)
        assert np.max(np.abs(theta_at(sol, ts + t0) - oracle)) < 1e-7

    def test_rotation_alignment_against_rk4(self):
        theta0 = -2.0
        omega0 = -math.sqrt(2.0 * (2.5 - 1.0 + math.cos(theta0)))
        sol = build_trajectory(energy_of(theta0, omega0), 60, "resummed")
        t0 = align_to_ics(sol, theta0, omega0)
        assert 0.0 <= t0 < sol.T
        ts = np.linspace(0.0, sol.T, 101)
        oracle, _ = rk4_sample(theta0, omega0, ts, 1e-4)
        assert np.max(np.abs(theta_at(sol, ts + t0) - oracle)) < 1e-7

    def test_separatrix_offset_closed_form(self):
        sol = build_trajectory(energy_state(2.0), None, "separatrix")
        assert align_to_ics(sol, 0.0, 2.0) == 0.0
        for theta0 in (1.0, -1.0):
            omega0 = math.sqrt(2.0 * (1.0 + math.cos(theta0)))
            t0 = align_to_ics(sol, theta0, omega0)
            assert separatrix_theta(t0) == pytest.approx(theta0, rel=1e-12)
        assert align_to_ics(sol, -1.0, math.sqrt(2.0 * (1.0 + math.cos(1.0)))) < 0.0

    def test_consistency_guards(self):
        sol = build_trajectory(energy_state(1.71), 20, "resummed")
        with pytest.raises(ValueError):
            align_to_ics(sol, 0.5, 0.0)  # wrong energy
        with pytest.raises(ValueError):
            align_to_ics(sol, 0.0, 0.0)  # fixed point
        rot = build_trajectory(energy_state(2.5, 1), 20, "resummed")
        with pytest.raises(ValueError):
            align_to_ics(rot, math.pi, -1.0)  # opposite sense of rotation
        sep = build_trajectory(energy_state(2.0), None, "separatrix")
        with pytest.raises(ValueError, match="does not match the solution's branch"):
            align_to_ics(sep, 1.0, -math.sqrt(2.0 * (1.0 + math.cos(1.0))))

    def test_non_finite_phase_point_named(self):
        sol = build_trajectory(energy_state(1.71), 20, "resummed")
        for theta0, omega0 in ((math.inf, 1.0), (-math.inf, 0.0), (1.0, math.inf),
                               (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="phase point .* is not finite"):
                align_to_ics(sol, theta0, omega0)

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [0.5, 1.71, 2.5, 5.0])
    def test_round_trip_on_every_branch(self, energy, direction):
        sol = build_trajectory(energy_state(energy, direction), 60, "resummed")
        t_star, t_full = sol.T_star, sol.T

        def on_orbit(theta, sign):
            return theta, sign * math.sqrt(2.0 * energy - 4.0 * math.sin(0.5 * theta) ** 2)

        starts = []
        for j in range(round(t_full / t_star)):
            for f in (0.1, 0.5, 0.9):
                t = (j + f) * t_star
                rising = theta_at(sol, t + 1e-6) > theta_at(sol, t - 1e-6)
                starts.append(on_orbit(theta_at(sol, t), 1.0 if rising else -1.0))
        if sol.energy_state.regime is Regime.LIBRATION:
            top = theta_at(sol, 0.0)
            starts += [(top, 0.0), (-top, 0.0), on_orbit(0.0, 1.0), on_orbit(0.0, -1.0)]
        else:  # the velocity keeps the sign of the direction
            starts += [on_orbit(theta, float(direction))
                       for theta in (0.0, math.pi, -math.pi, 3.0 * math.pi)]
        for theta0, omega0 in starts:
            t0 = align_to_ics(sol, theta0, omega0)
            assert 0.0 <= t0 < t_full
            assert abs(math.remainder(theta_at(sol, t0) - theta0, 2.0 * math.pi)) < 1e-9

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [1e6, 1e16, 1e100, 1e300])
    def test_round_trip_where_t_star_is_short(self, energy, direction):
        # T* ~ pi / sqrt(2E) << 1: the energy must match relative to E and
        # the offset must resolve a fraction of T*, not of one time unit
        sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
        t_star, t_full = sol.T_star, sol.T
        for t in np.linspace(0.0, t_full, 21)[:-1]:
            theta0 = theta_at(sol, t)
            omega0 = direction * math.sqrt(2.0 * energy - 4.0 * math.sin(0.5 * theta0) ** 2)
            t0 = align_to_ics(sol, theta0, omega0)
            assert abs(math.remainder(t0 - t, t_full)) <= 1e-12 * t_star

    @pytest.mark.parametrize("energy,theta0,omega0,message", [
        # libration just below 2: (pi, sqrt(2e-11)) is 2 + 1e-11, within 1e-10,
        # and was aligned to t0 = 0, 1.0e-5 rad from theta0
        (2.0 - 5e-11, math.pi, math.sqrt(2e-11),
         "energy 2.00000000001 (rotation), solution has 1.99999999995 (libration)"),
        # rotation just above 2: the turning point pi - sqrt(2e-11) is 2 - 1e-11
        (2.0 + 5e-11, math.pi - math.sqrt(2e-11), 0.0,
         "energy 1.99999999999 (libration), solution has 2.00000000005 (rotation)"),
        # the separatrix band ends 1e-12 from 2
        (2.0, math.pi - math.sqrt(1e-11), 0.0,
         "energy 1.999999999995 (libration), solution has 2.0 (separatrix)"),
    ], ids=["libration", "rotation", "separatrix"])
    def test_phase_point_of_the_other_regime_rejected(self, energy, theta0, omega0, message):
        state = energy_state(energy)
        sol = build_trajectory(state, None if energy == 2.0 else 40,
                               "separatrix" if energy == 2.0 else "resummed")
        assert math.isclose(energy_of(theta0, omega0).energy, energy, rel_tol=1e-10)
        with pytest.raises(ValueError, match=re.escape(message)):
            align_to_ics(sol, theta0, omega0)

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [2.5, 4.0])
    def test_rotation_passes_theta0_modulo_two_pi(self, energy, direction):
        # theta_at runs a counterclockwise rotation on [pi, 3 pi) over [0, T),
        # so it passes theta0 + 2 pi there; clockwise it passes theta0 itself
        sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
        turn = 2.0 * math.pi if direction > 0 else 0.0
        for theta0 in (3.0, -3.0, 0.5, -0.5):
            omega0 = direction * math.sqrt(2.0 * energy - 4.0 * math.sin(0.5 * theta0) ** 2)
            t0 = align_to_ics(sol, theta0, omega0)
            assert 0.0 <= t0 < sol.T
            # the offset is resolved to 1e-12 in t: theta to |omega| 1e-12
            assert theta_at(sol, t0) - theta0 == pytest.approx(turn, abs=1e-11), theta0

    def test_energy_matched_relative_to_a_small_orbit(self):
        # (1e-5, 0) has 50 times the energy of E = 1e-12 (theta_max 1.41e-6),
        # yet lies within 1e-10 of it absolutely
        sol = build_trajectory(energy_state(1e-12), 40, "resummed")
        with pytest.raises(ValueError, match="initial conditions have energy"):
            align_to_ics(sol, 1e-5, 0.0)

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [1e-12, 1e-300, 5e-324])
    def test_round_trip_at_small_energies(self, energy, direction):
        # phase points from theta(0) cos t, exact to O(theta_max^3): at
        # subnormal E, sqrt(2E - 4 sin^2(theta/2)) has no digits left
        sol = build_trajectory(energy_state(energy, direction), 40, "resummed")
        top, t_full = theta_at(sol, 0.0), sol.T
        for t in (np.arange(40) + 0.5) * (t_full / 40):
            t0 = align_to_ics(sol, top * math.cos(t), -top * math.sin(t))
            assert abs(math.remainder(t0 - t, t_full)) <= 1e-9

    def test_every_libration_quadrant(self):
        # one start per (angle sign, velocity sign) quadrant of the orbit
        energy = 1.2
        sol = build_trajectory(energy_state(energy), 60, "resummed")
        for theta0 in (0.7, -0.7):
            for sign in (1.0, -1.0):
                omega0 = sign * math.sqrt(2.0 * (energy - 1.0 + math.cos(theta0)))
                t0 = align_to_ics(sol, theta0, omega0)
                assert 0.0 <= t0 < sol.T
                oracle, _ = rk4_sample(theta0, omega0, [0.0, 0.4, 0.9], 1e-4)
                got = theta_at(sol, np.array([0.0, 0.4, 0.9]) + t0)
                assert_allclose(got, oracle, rtol=0, atol=1e-9)
