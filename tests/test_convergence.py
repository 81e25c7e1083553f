"""Pole lattices, exact convergence radii, and the root-test estimator."""

import math

import numpy as np
import pytest

from pendseries import SeparatrixError, build_trajectory, energy_state, theta_at
from pendseries.convergence import pole_lattice, roc_estimate, roc_exact
from pendseries.elliptic import ellipk_prime
from pendseries.series import SeriesCoefficients


class TestPoleLattice:
    def test_libration_first_cell(self, ellipk_mp):
        state = energy_state(1.0)
        k = math.sqrt(0.5)
        poles = pole_lattice(state)
        expected = {
            (re * ellipk_mp(k), im * ellipk_prime(k))
            for re in (1, -1) for im in (1, -1)
        }
        got = {(p.real, p.imag) for p in poles}
        assert len(got) == 4
        for re, im in expected:
            assert any(math.isclose(re, gr, rel_tol=1e-14)
                       and math.isclose(im, gi, rel_tol=1e-14)
                       for gr, gi in got)

    def test_rotation_first_cell(self, ellipk_mp):
        # relative to the top start, like libration: (odd, odd) corners
        state = energy_state(5.0)
        k = math.sqrt(2.0 / 5.0)
        kt, ktp = k * ellipk_mp(k), k * ellipk_prime(k)
        poles = pole_lattice(state)
        got = {(round(p.real, 12), round(p.imag, 12)) for p in poles}
        expected = {
            (round(n * kt, 12), round(m * ktp, 12))
            for n in (1, -1) for m in (1, -1)
        }
        assert got == expected

    def test_fig5_nearest_singularity(self, ellipk_mp):
        k = math.sqrt(0.855)
        poles = pole_lattice(energy_state(1.71))
        target = complex(ellipk_mp(k), ellipk_prime(k))
        assert min(abs(poles - target)) < 1e-13

    def test_no_real_poles_and_symmetry(self):
        for energy in (0.3, 1.71, 2.5, 12.0):
            poles = pole_lattice(energy_state(energy))
            assert np.all(poles.imag != 0.0)
            as_set = {(p.real, p.imag) for p in poles}
            assert {(p.real, -p.imag) for p in poles} == as_set
            assert {(-p.real, p.imag) for p in poles} == as_set

    def test_corners_mirror_the_top_starts_nearest_pole(self):
        for energy in (1e-14, 0.3, 1.71, 2.02, 12.0, 1e300):
            for direction in (1, -1):
                state = energy_state(energy, direction)
                p = roc_exact(state, "top").nearest_pole
                assert pole_lattice(state).tolist() == [
                    p, p.conjugate(), -p.conjugate(), -p]

    def test_first_cell_is_a_read_only_array_with_t_star_from_period(self):
        for energy in (0.3, 1.71, 2.02, 12.0):
            state = energy_state(energy)
            poles = pole_lattice(state)
            assert poles.shape == (4,) and poles.dtype == complex
            assert not poles.flags.writeable
            assert set(np.abs(poles.real)) == {state.orbit.T_star}


class TestRocExact:
    def test_libration_top_formula(self, ellipk_mp):
        k = math.sqrt(0.855)
        report = roc_exact(energy_state(1.71), "top")
        assert report.exact_roc == pytest.approx(
            math.hypot(ellipk_mp(k), ellipk_prime(k)), rel=1e-15)
        assert report.margin > 0.0

    def test_rotation_top_formula(self, ellipk_mp):
        k = math.sqrt(2.0 / 5.0)
        report = roc_exact(energy_state(5.0), "top")
        assert report.exact_roc == pytest.approx(
            math.hypot(k * ellipk_mp(k), k * ellipk_prime(k)), rel=1e-15)

    def test_rotation_bottom_is_imaginary_pole(self):
        # which of these radii clear T* is criterion 04's
        for energy in (2.5, 3.9, 4.1, 8.0):
            k = math.sqrt(2.0 / energy)
            report = roc_exact(energy_state(energy), "bottom")
            assert report.exact_roc == pytest.approx(k * ellipk_prime(k), rel=1e-15)

    def test_libration_bottom_below_t_star(self):
        # from the bottom turning time the nearest pole is one K' away
        report = roc_exact(energy_state(1.71), "bottom")
        assert report.exact_roc == pytest.approx(
            ellipk_prime(math.sqrt(0.855)), rel=1e-13)
        assert report.margin < 0.0

    def test_small_energy_radius_diverges(self):
        assert roc_exact(energy_state(1e-4), "top").exact_roc > 5.0

    @pytest.mark.parametrize("energy", [0.3, 1.71, 1.9998, 2.02, 5.0, 100.0])
    @pytest.mark.parametrize("ics", ["top", "bottom"])
    def test_nearest_pole_is_a_lattice_pole_at_the_radius(self, energy, ics):
        state = energy_state(energy)
        report = roc_exact(state, ics)
        poles = pole_lattice(state).tolist()
        x0 = 0.0 if ics == "top" else report.t_star
        assert report.nearest_pole in poles
        assert abs(report.nearest_pole - x0) == report.exact_roc
        assert all(abs(p - x0) >= report.exact_roc for p in poles)

    @pytest.mark.parametrize("energy", [5e-324, 1e-315])
    def test_subnormal_energies_have_a_lattice(self, energy):
        # K'(k) = ln(4/k) + O(k^2 ln k), k = sqrt(E/2); at 5e-324, k used to
        # round to 0, where K' diverges
        k_prime_k = math.log(4.0) - 0.5 * (math.log(energy) - math.log(2.0))
        state = energy_state(energy)
        assert roc_exact(state, "bottom").exact_roc == pytest.approx(k_prime_k, rel=1e-14)
        assert roc_exact(state, "top").exact_roc == pytest.approx(
            math.hypot(0.5 * math.pi, k_prime_k), rel=1e-14)

    def test_rest_orbit_has_no_poles(self):
        # E = 0 builds and evaluates (theta = 0), but there is no lattice
        state = energy_state(0.0)
        sol = build_trajectory(state, 20, "resummed")
        assert np.all(theta_at(sol, np.linspace(0.0, 10.0, 11)) == 0.0)
        for call in (lambda: roc_exact(state, "top"), lambda: roc_exact(state, "bottom"),
                     lambda: pole_lattice(state)):
            with pytest.raises(ValueError, match="K' requires 0 < k"):
                call()

    def test_guards(self):
        for call in (roc_exact, pole_lattice):
            with pytest.raises(SeparatrixError):
                call(energy_state(2.0))
        with pytest.raises(ValueError):
            roc_exact(energy_state(1.0), "middle")


class TestRocEstimate:
    def test_geometric_series(self):
        radius = 1.7
        coeffs = radius ** -np.arange(120.0)
        assert roc_estimate(SeriesCoefficients(coeffs)) == pytest.approx(
            radius, rel=1e-2)

    def test_conjugate_pole_pair(self):
        # 1/(1+t^2): alternating even coefficients, radius exactly 1
        n = np.arange(2001)
        coeffs = np.where(n % 2 == 0, (-1.0) ** (n // 2), 0.0)
        assert roc_estimate(SeriesCoefficients(coeffs)) == pytest.approx(
            1.0, rel=2e-2)

    def test_guards(self):
        with pytest.raises(ValueError, match="nonzero coefficients, got 0"):
            roc_estimate(SeriesCoefficients(np.zeros(10)))
        with pytest.raises(ValueError):
            roc_estimate(SeriesCoefficients(np.ones(30)))
