"""Energy classification, canonical starts, and the separatrix closed form."""

import math

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

    def test_turning_point_energy_is_relatively_exact(self):
        # 2 sin^2(theta/2) keeps the digits that 1 - cos(theta) cancels
        for energy in (1e-20, 1e-12, 1e-6, 0.5, 1.71):
            theta0, _ = canonical_top_ics(energy_state(energy))
            assert energy_of(theta0, 0.0).energy == pytest.approx(
                energy, rel=1e-15, abs=0.0)

    def test_non_finite_phase_point_rejected(self):
        for theta0, omega0 in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="phase point"):
                energy_of(theta0, omega0)

    def test_direction_sign(self):
        assert energy_of(1.0, -0.5).direction == -1
        assert energy_of(1.0, 0.5).direction == 1
        assert energy_of(1.0, 0.0).direction == 1


class TestCanonicalTopIcs:
    def test_rotation_just_above_threshold(self):
        # the canonical branch turns clockwise whatever the direction
        for direction in (1, -1):
            theta0, omega0 = canonical_top_ics(energy_state(2.02, direction))
            assert theta0 == math.pi
            assert_allclose(omega0, -0.2, rtol=1e-15)

    def test_libration_reference_energy(self):
        theta0, omega0 = canonical_top_ics(energy_state(1.71))
        assert_allclose(theta0, math.acos(-0.71), rtol=0, atol=1e-15)
        assert theta0 == pytest.approx(2.3603, abs=1e-4)
        assert omega0 == 0.0

    def test_low_energy_limit(self):
        theta0, omega0 = canonical_top_ics(energy_state(1e-14))
        assert theta0 == pytest.approx(0.0, abs=1e-6)
        assert omega0 == 0.0

    def test_separatrix_rejected(self):
        with pytest.raises(SeparatrixError):
            canonical_top_ics(energy_state(2.0))

    def test_small_energy_keeps_relative_precision(self):
        # theta_max = 2 asin(sqrt(E/2)) = sqrt(2E) (1 + E/12 + O(E^2));
        # arccos(1 - E) loses half the digits of E to the cancellation
        energy = 1e-12
        theta0, _ = canonical_top_ics(energy_state(energy))
        expected = math.sqrt(2.0 * energy) * (1.0 + energy / 12.0)
        assert theta0 == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_tiny_energy_does_not_collapse_to_rest(self):
        theta0, _ = canonical_top_ics(energy_state(1e-20))
        assert theta0 == pytest.approx(math.sqrt(2e-20), rel=1e-15, abs=0.0)

    def test_round_trip(self):
        for energy in (0.1, 1.0, 1.9, 2.5, 10.0):
            theta0, omega0 = canonical_top_ics(energy_state(energy))
            assert_allclose(energy_of(theta0, omega0).energy, energy,
                            rtol=0, atol=1e-14)


class TestOrbitRecord:
    """`EnergyState.orbit`: every constant of the orbit, formed once per state."""

    def test_formed_once_and_kept(self):
        state = energy_state(1.71)
        assert state.orbit is state.orbit

    @pytest.mark.parametrize("energy", [1e-8, 1.71, 2.0 - 2e-12, 2.02, 1e4])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_record_takes_no_part_in_equality(self, energy, direction):
        formed = energy_state(energy, direction)
        formed.orbit  # formed and kept
        fresh = energy_state(energy, direction)
        assert formed == fresh and hash(formed) == hash(fresh)
        assert repr(formed) == repr(fresh)

    @pytest.mark.parametrize("energy", [1e-3, 1.71, 2.0 + 2e-12, 5.0])
    def test_period_is_a_view_of_the_record(self, energy):
        state = energy_state(energy)
        c = state.orbit
        assert period(state) is c
        assert c.T == (4.0 if energy < 2.0 else 2.0) * c.T_star

    def test_separatrix_has_no_record(self):
        state = energy_state(2.0)
        for call in (lambda: state.orbit, lambda: period(state), lambda: roc_exact(state)):
            with pytest.raises(SeparatrixError):
                call()

    @pytest.mark.parametrize("method", ["raw", "resummed", "efficient"])
    def test_build_runs_the_agm_once(self, monkeypatch, method):
        calls = []

        def counted(k):
            calls.append(k)
            return ellipk_prime(k)

        monkeypatch.setattr("pendseries.energy.ellipk_prime", counted)
        build_trajectory(energy_state(1.71), 20, method)
        assert len(calls) == 1


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
