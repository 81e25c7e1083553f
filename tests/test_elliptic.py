"""Elliptic integral routes and pendulum periods.

The AGM route is itself validated here against a second, structurally
different oracle: adaptive Gauss-Legendre quadrature of the defining
integral, with the node count doubled until the value settles.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import SeparatrixError, energy_state, period
from pendseries.elliptic import (
    PeriodInfo,
    ellipk_agm,
    ellipk_prime,
    ellipk_resummed,
    ellipk_series,
    evaluate_k,
    resummed_order_for,
)


def ellipk_gauss_legendre(k, tol=1e-13):
    """Second oracle: node-doubling Gauss-Legendre on [0, pi/2]."""
    previous = None
    for nodes in (16, 32, 64, 128, 256, 512):
        x, w = np.polynomial.legendre.leggauss(nodes)
        phi = 0.25 * math.pi * (x + 1.0)
        value = 0.25 * math.pi * float(
            np.sum(w / np.sqrt(1.0 - (k * np.sin(phi)) ** 2))
        )
        if previous is not None and abs(value - previous) <= tol * abs(value):
            return value
        previous = value
    raise RuntimeError(f"quadrature failed to settle for k={k}")


def bracket_coefficient(n):
    """n-th coefficient of the resummed K series, rebuilt independently."""
    beta = 1.0
    for m in range(1, n + 1):
        beta *= ((2.0 * m - 1.0) / (2.0 * m)) ** 2
    return 0.5 * math.pi * beta - 1.0 / (2.0 * n + 1.0)


class TestAgm:
    def test_k_zero(self):
        assert ellipk_agm(0.0) == 0.5 * math.pi

    def test_logarithmic_divergence_direction(self):
        assert ellipk_agm(0.99999999) > 5.0

    def test_monotone_in_modulus(self):
        ks = np.linspace(0.0, 0.999999, 200)
        values = [ellipk_agm(k) for k in ks]
        assert np.all(np.diff(values) > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ellipk_agm(1.0)
        with pytest.raises(ValueError):
            ellipk_agm(-0.1)

    def test_against_gauss_legendre(self):
        for k in [0.1, 0.3, 0.5, 0.7, 0.9, math.sqrt(1.71 / 2.0)]:
            agm = ellipk_agm(k)
            gl = ellipk_gauss_legendre(k)
            assert abs(agm - gl) < 1e-12 * agm

    def test_terminates_at_one_ulp_plateau(self):
        # k = sqrt(0.5) leaves the AGM gap cycling by one ulp; the
        # iteration must stop on its own rather than loop forever
        value = ellipk_agm(math.sqrt(0.5))
        assert abs(value - ellipk_gauss_legendre(math.sqrt(0.5))) < 1e-13


class TestSeriesRoute:
    def test_k_zero(self):
        for order in (0, 5, 50):
            assert ellipk_series(0.0, order) == 0.5 * math.pi

    def test_first_two_terms(self):
        assert ellipk_series(0.5, 0) == 0.5 * math.pi
        assert_allclose(ellipk_series(0.5, 1), 0.5 * math.pi * 1.0625, rtol=1e-15)

    def test_error_decreases_with_order(self):
        # strict decrease only holds above the rounding floor; small k
        # converges to the floor well before N=128
        floor = 1e-15
        for k in np.arange(0.1, 0.95, 0.1):
            exact = ellipk_agm(k)
            errors = [abs(ellipk_series(k, n) - exact) for n in (2, 8, 32, 128)]
            for a, b in zip(errors, errors[1:]):
                assert b < a or (a < floor and b < floor)


class TestResummedRoute:
    def test_k_zero(self):
        for order in (0, 3, 40):
            assert_allclose(ellipk_resummed(0.0, order), 0.5 * math.pi, rtol=1e-15)

    def test_moderate_modulus(self):
        assert abs(ellipk_resummed(0.5, 30) - ellipk_agm(0.5)) < 1e-12

    def test_beats_raw_series_near_one(self):
        k = 0.999
        exact = ellipk_agm(k)
        assert abs(ellipk_resummed(k, 10) - exact) < abs(ellipk_series(k, 100) - exact)

    def test_dominates_raw_series_at_equal_order(self):
        for k in np.arange(0.1, 0.95, 0.1):
            exact = ellipk_agm(k)
            for order in (2, 5, 10, 20):
                res = abs(ellipk_resummed(k, order) - exact)
                raw = abs(ellipk_series(k, order) - exact)
                # a couple of ulps of slack where both sit at the floor
                assert res <= raw + 5e-16

    def test_bracket_decay(self):
        # brackets die like 1/n^2: the k -> 1 divergence lives in arctanh
        for n in (10, 100, 1000):
            assert abs(bracket_coefficient(n)) * n * n < 0.5
        assert abs(bracket_coefficient(1000)) < abs(bracket_coefficient(100))
        assert abs(bracket_coefficient(100)) < abs(bracket_coefficient(10))

    def test_small_k_branch(self):
        # crossing the series fallback must stay smooth and accurate
        for k in (0.0, 1e-6, 9.9e-5, 1.01e-4, 1e-3):
            assert abs(ellipk_resummed(k, 8) - ellipk_agm(k)) < 1e-14

    def test_auto_order_at_zero_modulus(self):
        # K(0) = pi/2 is the leading term alone
        assert resummed_order_for(0.0) == 0

    def test_auto_order_meets_tolerance(self):
        for k in (0.3, 0.9, 0.999):
            order = resummed_order_for(k)
            assert abs(ellipk_resummed(k, order) - ellipk_agm(k)) < 1e-12


@pytest.mark.parametrize("route", [
    lambda k: ellipk_series(k, 10),
    lambda k: ellipk_resummed(k, 10),
    resummed_order_for,
], ids=["series", "resummed", "order_for"])
@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1.0, -1.0, -0.5])
def test_series_routes_reject_a_modulus_off_the_unit_disc(route, k):
    # NaN used to pass the k^2 >= 1 test: the sums returned NaN and the
    # order search climbed to its cap to report "too close to 1"; a
    # negative k used to pass it too, where the AGM route raised
    with pytest.raises(ValueError, match=r"modulus must satisfy 0 <= k < 1"):
        route(k)


def test_series_routes_reject_a_negative_order():
    for route in (ellipk_series, ellipk_resummed):
        with pytest.raises(ValueError, match="order must be >= 0"):
            route(0.5, -1)


@pytest.mark.parametrize("route", [
    lambda n: ellipk_series(0.5, n),
    lambda n: ellipk_resummed(0.5, n),
    lambda n: evaluate_k(0.5, "series", n).value,
    lambda n: period(energy_state(1.0), "series", n),
    lambda n: period(energy_state(1.0), "resummed", n),
], ids=["series", "resummed", "evaluate_k", "period_series", "period_resummed"])
def test_k_routes_never_truncate_the_order(route):
    # int(order) used to sum 10 terms for order 10.7
    with pytest.raises(ValueError, match="order must be an integer"):
        route(10.7)
    assert route(10.0) == route(10)


class TestKPrime:
    def test_k_one(self):
        assert ellipk_prime(1.0) == 0.5 * math.pi

    def test_self_dual_point(self):
        k = 1.0 / math.sqrt(2.0)
        assert_allclose(ellipk_prime(k), ellipk_agm(k), rtol=1e-15)

    @pytest.mark.parametrize("k", [1e-7, 1e-5])
    def test_small_modulus_asymptotics(self, k):
        # K'(k) = ln(4/k) + (k^2/4)(ln(4/k) - 1) + O(k^4 ln k); forming
        # k' = sqrt(1 - k^2) first would round away the digits of k
        log4k = math.log(4.0 / k)
        expected = log4k + 0.25 * k * k * (log4k - 1.0)
        assert ellipk_prime(k) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_fig5_lattice_value_finite(self):
        value = ellipk_prime(math.sqrt(1.71 / 2.0))
        assert math.isfinite(value) and value > 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ellipk_prime(0.0)


class TestEvaluateK:
    def test_method_tags(self):
        assert evaluate_k(0.5).method == "quadrature"
        assert evaluate_k(0.5, "series", 10).method == "series(order=10)"
        assert evaluate_k(0.5, "resummed", 10).method == "resummed(order=10)"
        # the tag names the whole order the sum used, not the order as passed
        assert evaluate_k(0.5, "series", 10.0).method == "series(order=10)"
        assert evaluate_k(0.5, "resummed", 10.0).method == "resummed(order=10)"

    def test_bad_combinations(self):
        with pytest.raises(ValueError):
            evaluate_k(0.5, "quadrature", 10)
        with pytest.raises(ValueError):
            evaluate_k(0.5, "series")
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_k(0.5, "trapezoid")
        with pytest.raises(ValueError, match="order must be an integer"):
            evaluate_k(-0.5, "series", 10.7)  # the order is checked first

    def test_value_floor(self):
        for k in (0.0, 0.2, 0.8):
            assert evaluate_k(k).value >= 0.5 * math.pi


class TestPeriod:
    def test_harmonic_limit(self):
        info = period(energy_state(1e-6))
        assert abs(info.T - 2.0 * math.pi) < 1e-5

    def test_libration_formula(self):
        info = period(energy_state(1.71))
        assert_allclose(info.T, 4.0 * ellipk_agm(math.sqrt(0.855)), rtol=1e-15)
        assert info.T_star == 0.25 * info.T

    def test_rotation_formula(self):
        info = period(energy_state(5.0))
        k = math.sqrt(2.0 / 5.0)
        assert_allclose(info.T, 2.0 * k * ellipk_agm(k), rtol=1e-15)
        assert info.T_star == 0.5 * info.T

    def test_uniform_rotation_limit(self):
        info = period(energy_state(1e4))
        assert abs(info.T * math.sqrt(0.5e4) / math.pi - 1.0) < 1e-3

    def test_monotone_in_energy(self):
        librations = [period(energy_state(e)).T for e in np.linspace(0.05, 1.95, 30)]
        rotations = [period(energy_state(e)).T for e in np.linspace(2.05, 30.0, 30)]
        assert all(a < b for a, b in zip(librations, librations[1:]))
        assert all(a > b for a, b in zip(rotations, rotations[1:]))

    def test_separatrix_rejected(self):
        with pytest.raises(SeparatrixError):
            period(energy_state(2.0))

    @pytest.mark.parametrize("energy", [1.9998, 1.99999, 2.0 - 1e-6, 2.0 + 1e-6,
                                        2.0 - 1e-10, 2.0 + 1e-10, 2.0 - 2e-12, 2.0 + 2e-12])
    def test_period_next_to_the_separatrix_is_exact_to_rounding(self, energy):
        # k'^2 from E: k' = sqrt((1 - k)(1 + k)) of a rounded k left T* off
        # by 1.5e-11 relative at 2 + 1e-6 and 3.7e-6 at 2 - 2e-12
        import mpmath as mp

        with mp.workdps(40):
            e = mp.mpf(energy)
            m = e / 2 if energy < 2.0 else 2 / e
            want = mp.ellipk(m) * (1 if energy < 2.0 else mp.sqrt(m))
            got = period(energy_state(energy)).T_star
            assert float(abs(got - want) / want) < 4e-16

    def test_resummed_route_at_rest(self):
        # E = 0 is k = 0: the order-0 resummed route is the AGM period, T = 2 pi
        info = period(energy_state(0.0), "resummed")
        assert info == period(energy_state(0.0))
        assert info.T_star == 0.5 * math.pi and info.T == 2.0 * math.pi

    def test_resummed_route_band_next_to_the_separatrix(self):
        # the arctanh-series order cap is reached within ~1.1e-5 of E = 2;
        # the AGM default serves the same energies
        resummed = period(energy_state(1.9999), "resummed")
        assert_allclose(resummed.T, period(energy_state(1.9999)).T, rtol=1e-12)
        for energy in (1.99999, 2.0 - 1e-6):
            with pytest.raises(ValueError, match="too close to 1"):
                period(energy_state(energy), "resummed")
            assert math.isfinite(period(energy_state(energy)).T)

    def test_period_info_validates(self):
        for t, t_star in ((-1.0, -0.25), (math.nan, math.nan), (3.0, 1.0), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                PeriodInfo(t, t_star)
        assert PeriodInfo(2.0, 1.0).T == 2.0 and PeriodInfo(4.0, 1.0).T == 4.0
        info = PeriodInfo(math.inf, math.inf)
        assert math.isinf(info.T_star)
