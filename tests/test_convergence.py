"""Exact convergence radii against mpmath, the pole lattice mirror, and the root-test estimator."""

import mpmath
import numpy as np
import pytest

from pendseries import SeparatrixError, energy_state
from pendseries.convergence import pole_lattice, roc_estimate, roc_exact
from pendseries.series import SeriesCoefficients


class TestRocExact:
    @pytest.mark.parametrize("ics", ["top", "bottom"])
    def test_nearest_pole_and_radius(self, orbit_mp, ics):
        # the nearest pole is (-+T*, -K') about the top or the bottom start,
        # x0 = 0 or T*; the radius is its distance, within 4e-16 of mpmath
        state = energy_state(orbit_mp.energy)
        if orbit_mp.energy == 0.0:  # the rest orbit has no poles
            with pytest.raises(ValueError, match="K' requires 0 < k"):
                roc_exact(state, ics)
            return
        report = roc_exact(state, ics)
        t_star, pole = state.orbit.T_star, report.nearest_pole
        x0 = 0.0 if ics == "top" else t_star
        assert report.t_star == t_star and pole.real == (-t_star if ics == "top" else t_star)
        assert report.exact_roc == abs(pole - x0)
        assert report.margin == report.exact_roc - t_star
        corners = [complex(n * pole.real, m * pole.imag) for n in (1, -1) for m in (1, -1)]
        assert min(abs(p - x0) for p in corners) == report.exact_roc
        with mpmath.workdps(40):
            k_prime = orbit_mp.K_prime
            radius = mpmath.hypot(orbit_mp.T_star, k_prime) if ics == "top" else k_prime
            assert abs(-pole.imag - k_prime) <= 4e-16 * k_prime
            assert abs(report.exact_roc - radius) <= 4e-16 * radius

    def test_rejects_an_unknown_start(self):
        with pytest.raises(ValueError, match="ics must be 'top' or 'bottom'"):
            roc_exact(energy_state(1.0), "middle")


def test_pole_lattice_mirrors_the_top_starts_nearest_pole():
    # the four (odd, odd) corners of the first cell, read-only; it raises
    # where roc_exact does, at E = 2 and at the rest orbit E = 0
    for energy in (1e-14, 0.3, 1.71, 2.02, 12.0, 1e300):
        for direction in (1, -1):
            state = energy_state(energy, direction)
            poles = pole_lattice(state)
            p = roc_exact(state, "top").nearest_pole
            assert poles.tolist() == [p, p.conjugate(), -p.conjugate(), -p]
            assert poles.dtype == complex and not poles.flags.writeable
    for energy in (2.0, 2.0 - 5e-13, 2.0 + 5e-13):
        with pytest.raises(SeparatrixError, match=r"is the separatrix \(\|E - 2\| <= 1e-12\)"):
            pole_lattice(energy_state(energy))
    with pytest.raises(ValueError, match="K' requires 0 < k"):
        pole_lattice(energy_state(0.0))


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
