"""Energy classification, the orbit record against mpmath, and the separatrix closed form."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import SeparatrixError, build_trajectory, energy_state
from pendseries.convergence import roc_exact
from pendseries.energy import (
    SEPARATRIX_ENERGY,
    SEPARATRIX_TOLERANCE,
    EnergyState,
    Regime,
    canonical_top_ics,
    classify_energy,
    energy_of,
    separatrix_theta,
)
from pendseries.elliptic import ellipk_prime, period


class TestClassification:
    def test_regime_boundaries(self):
        assert classify_energy(1.9998) is Regime.LIBRATION
        assert classify_energy(2.0) is Regime.SEPARATRIX
        assert classify_energy(2.02) is Regime.ROTATION

    def test_tolerance_band(self):
        # probe just inside and outside the band; adding the exact
        # tolerance to 2.0 rounds to a difference slightly above it
        tol = SEPARATRIX_TOLERANCE
        assert classify_energy(2.0 + 0.9 * tol) is Regime.SEPARATRIX
        assert classify_energy(2.0 - 0.9 * tol) is Regime.SEPARATRIX
        assert classify_energy(2.0 + 10 * tol) is Regime.ROTATION
        assert classify_energy(2.0 - 10 * tol) is Regime.LIBRATION

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            classify_energy(-0.5)
        with pytest.raises(ValueError):
            classify_energy(math.nan)

    def test_state_consistency_enforced(self):
        with pytest.raises(ValueError):
            EnergyState(1.0, 0)

    def test_direction_is_never_truncated(self):
        assert energy_state(1.0, -1.0).direction == -1
        for bad in (-1.7, 0.5, 1.5, 2):
            with pytest.raises(ValueError, match="direction must be"):
                energy_state(1.0, bad)

    def test_regime_is_derived_from_energy(self):
        for energy, regime in ((1.0, Regime.LIBRATION), (2.0, Regime.SEPARATRIX),
                               (5.0, Regime.ROTATION)):
            assert EnergyState(energy, -1).regime is regime
        with pytest.raises(TypeError):
            EnergyState(1.0, 1, Regime.LIBRATION)
        with pytest.raises(ValueError, match="finite and >= 0"):
            EnergyState(math.nan, 1)


class TestEnergyOf:
    def test_separatrix_points(self):
        assert energy_of(0.0, 2.0).regime is Regime.SEPARATRIX
        assert energy_of(math.pi, 0.0).regime is Regime.SEPARATRIX
        assert energy_of(0.0, 2.0).energy == SEPARATRIX_ENERGY

    def test_kinetic_only(self):
        for omega0 in (0.5, -1.25, 3.0):
            assert energy_of(0.0, omega0).energy == 0.5 * omega0 * omega0

    @pytest.mark.parametrize("energy", [1e-20, 1e-12, 1e-6, 0.1, 0.5, 1.0, 1.71, 1.9, 2.5, 10.0])
    def test_round_trip_through_the_top_start(self, energy):
        # 2 sin^2(theta/2) keeps the digits that 1 - cos(theta) cancels
        c = energy_state(energy).orbit
        assert energy_of(c.theta0, c.omega0).energy == pytest.approx(energy, rel=1e-15, abs=0.0)

    def test_non_finite_phase_point_rejected(self):
        for theta0, omega0 in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="phase point"):
                energy_of(theta0, omega0)

    def test_direction_sign(self):
        assert energy_of(1.0, -0.5).direction == -1
        assert energy_of(1.0, 0.5).direction == 1
        assert energy_of(1.0, 0.0).direction == 1


SEPARATRIX_BAND = r"is the separatrix \(\|E - 2\| <= 1e-12\)"


class TestOrbitRecord:
    """`EnergyState.orbit`: every constant of the orbit, formed once per state, from E alone."""

    @pytest.mark.parametrize("direction", [1, -1])
    def test_is_the_orbit_of_its_energy(self, orbit_mp, direction):
        # theta_max within 1 ulp of mpmath; pi, omega0 and w* correctly
        # rounded (half an ulp); T* within 4e-16 relative
        energy = orbit_mp.energy
        state = energy_state(energy, direction)
        c = state.orbit
        with mpmath.workdps(40):
            for got, want, ulps in ((c.theta0, orbit_mp.theta0, 1.0 if energy < 2.0 else 0.5),
                                    (c.omega0, orbit_mp.omega0, 0.5),
                                    (c.omega_star, orbit_mp.omega_star, 0.5)):
                assert abs(got - want) <= ulps * math.ulp(float(want))
            assert abs(c.T_star - orbit_mp.T_star) <= 4e-16 * orbit_mp.T_star
        assert c.T == (4.0 if energy < 2.0 else 2.0) * c.T_star
        if energy == 0.0:  # the rest orbit's period is the harmonic one, exactly
            assert (c.T_star, c.T) == (0.5 * math.pi, 2.0 * math.pi)
        # E's alone: the same record in both directions
        assert energy_state(energy, -direction).orbit == c
        # formed once and kept, with no part in equality, hash or repr
        assert state.orbit is c
        fresh = energy_state(energy, direction)
        assert state == fresh and hash(state) == hash(fresh) and repr(state) == repr(fresh)

    def test_monotone_in_energy(self):
        librations = [energy_state(e).orbit.T for e in np.linspace(0.05, 1.95, 30)]
        rotations = [energy_state(e).orbit.T for e in np.linspace(2.05, 30.0, 30)]
        assert all(a < b for a, b in zip(librations, librations[1:]))
        assert all(a > b for a, b in zip(rotations, rotations[1:]))

    @pytest.mark.parametrize("energy", [2.0, 2.0 - 5e-13, 2.0 + 5e-13])
    def test_separatrix_has_no_record(self, energy):
        # period, canonical_top_ics and pole_lattice raise it too, each in its view test
        state = energy_state(energy)
        for call in (lambda: state.orbit, lambda: roc_exact(state, "top"),
                     lambda: roc_exact(state, "bottom")):
            with pytest.raises(SeparatrixError, match=SEPARATRIX_BAND):
                call()

    @pytest.mark.parametrize("method", ["raw", "resummed"])
    def test_build_runs_the_agm_once(self, monkeypatch, method):
        calls = []

        def counted(k):
            calls.append(k)
            return ellipk_prime(k)

        monkeypatch.setattr("pendseries.energy.ellipk_prime", counted)
        build_trajectory(energy_state(1.71), 20, method)
        assert len(calls) == 1

    def test_period_is_a_view_of_the_record(self):
        # it takes no route or order: the AGM is the one period route, and
        # the series routes are evaluate_k's
        for energy in (1e-3, 1.71, 2.0 + 2e-12, 5.0):
            state = energy_state(energy)
            assert period(state) is state.orbit
        with pytest.raises(TypeError):
            period(state, "resummed")
        with pytest.raises(TypeError):
            period(state, order=5)
        for energy in (2.0, 2.0 - 5e-13, 2.0 + 5e-13):
            with pytest.raises(SeparatrixError, match=SEPARATRIX_BAND):
                period(energy_state(energy))

    def test_canonical_top_ics_is_a_view_of_the_record(self):
        for energy in (1e-20, 1e-14, 1e-12, 0.1, 1.0, 1.71, 1.9, 2.02, 2.5, 10.0):
            for direction in (1, -1):
                state = energy_state(energy, direction)
                assert canonical_top_ics(state) == (state.orbit.theta0, state.orbit.omega0)
        for energy in (2.0, 2.0 - 5e-13, 2.0 + 5e-13):
            with pytest.raises(SeparatrixError, match=SEPARATRIX_BAND):
                canonical_top_ics(energy_state(energy))


class TestSeparatrixTheta:
    def test_at_origin(self):
        assert separatrix_theta(0.0) == 0.0

    def test_asymptote(self):
        # the approach to pi saturates in doubles near t = 36, so strict
        # monotonicity is only checkable before that
        ts = np.linspace(0.0, 30.0, 150)
        assert np.all(np.diff(separatrix_theta(ts)) > 0.0)
        tail = separatrix_theta(np.linspace(30.0, 40.0, 50))
        assert np.all(tail <= math.pi)
        assert math.pi - tail[-1] < 1e-12

    def test_ode_residual(self, rng):
        # h balances fd truncation (h^2) against rounding (ulp/h^2);
        # the achievable floor for O(1) angles is a few times 1e-8
        h = 3e-4
        ts = rng.uniform(0.0, 5.0, 100)
        second = (separatrix_theta(ts + h) - 2.0 * separatrix_theta(ts)
                  + separatrix_theta(ts - h)) / (h * h)
        residual = second + np.sin(separatrix_theta(ts))
        assert np.max(np.abs(residual)) < 1e-7

    def test_exactly_odd(self):
        # 4 arctan(tanh(t/2)) is odd in floating point too, so the clockwise
        # branch -theta(t) is theta(-t) bit for bit, out to saturation
        ts = np.array([1e-12, 1e-6, 0.3, 1.0, 2.5, 10.0, 30.0, 36.5, 1000.0])
        ts = np.concatenate([ts, -ts])
        assert np.array_equal(separatrix_theta(-ts), -separatrix_theta(ts))
        for t in ts:
            assert separatrix_theta(-t) == -separatrix_theta(t)

    def test_saturates_without_overflow_warning(self):
        # tanh(t/2) saturates to 1 and the angle to 4 arctan(1) = pi, warning-free
        assert_allclose(separatrix_theta(1000.0), math.pi, rtol=1e-15)
