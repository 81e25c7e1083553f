"""Elliptic integral routes: the AGM `ellipk_prime` and the two K(k) series.

The AGM is validated here against a second, structurally different
oracle: adaptive Gauss-Legendre quadrature of the defining integral, with
the node count doubled until the value settles.  The series routes are
checked against mpmath's K (`ellipk_mp`), so no check compares the AGM
with itself.  The period the AGM forms, the orbit record's T*, is
checked against mpmath in `test_energy.py`.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import energy_state
from pendseries.elliptic import (
    EllipticEval,
    ellipk_prime,
    ellipk_resummed,
    ellipk_series,
    evaluate_k,
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
    @staticmethod
    def ellipk_by_agm(k):
        """K(k) = K'(k') by the package's AGM, k' = sqrt((1 - k)(1 + k))."""
        return ellipk_prime(math.sqrt((1.0 - k) * (1.0 + k)))

    def test_k_zero(self):
        assert self.ellipk_by_agm(0.0) == 0.5 * math.pi

    def test_logarithmic_divergence_direction(self):
        assert self.ellipk_by_agm(0.99999999) > 5.0

    def test_monotone_in_modulus(self):
        ks = np.linspace(0.0, 0.999999, 200)
        values = [self.ellipk_by_agm(k) for k in ks]
        assert np.all(np.diff(values) > 0.0)

    def test_domain(self):
        # k' = 0 is K at k = 1, where K diverges
        for k_prime in (0.0, -0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"K' requires 0 < k <= 1"):
                ellipk_prime(k_prime)

    def test_against_gauss_legendre(self):
        for k in [0.1, 0.3, 0.5, 0.7, 0.9, math.sqrt(1.71 / 2.0)]:
            agm = self.ellipk_by_agm(k)
            gl = ellipk_gauss_legendre(k)
            assert abs(agm - gl) < 1e-12 * agm

    def test_value_floor(self):
        for k in (0.0, 0.2, 0.8):
            assert self.ellipk_by_agm(k) >= 0.5 * math.pi

    def test_terminates_at_one_ulp_plateau(self):
        # AGM(1, sqrt(0.5)) leaves the gap cycling by one ulp; the
        # iteration must stop on its own rather than loop forever
        value = ellipk_prime(math.sqrt(0.5))
        assert abs(value - ellipk_gauss_legendre(math.sqrt(0.5))) < 1e-13


class TestSeriesRoute:
    def test_k_zero(self):
        for order in (0, 5, 50):
            assert ellipk_series(0.0, order) == 0.5 * math.pi

    def test_first_two_terms(self):
        assert ellipk_series(0.5, 0) == 0.5 * math.pi
        assert_allclose(ellipk_series(0.5, 1), 0.5 * math.pi * 1.0625, rtol=1e-15)

    def test_error_decreases_with_order(self, ellipk_mp):
        # strict decrease only holds above the rounding floor; small k
        # converges to the floor well before N=128
        floor = 1e-15
        for k in np.arange(0.1, 0.95, 0.1):
            exact = ellipk_mp(k)
            errors = [abs(ellipk_series(k, n) - exact) for n in (2, 8, 32, 128)]
            for a, b in zip(errors, errors[1:]):
                assert b < a or (a < floor and b < floor)


class TestResummedRoute:
    def test_k_zero(self):
        for order in (0, 3, 40):
            assert_allclose(ellipk_resummed(0.0, order), 0.5 * math.pi, rtol=1e-15)

    def test_dominates_raw_series_at_equal_order(self, ellipk_mp):
        for k in np.arange(0.1, 0.95, 0.1):
            exact = ellipk_mp(k)
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

    def test_small_k_branch(self, ellipk_mp):
        # crossing the series fallback must stay smooth and accurate
        for k in (0.0, 1e-6, 9.9e-5, 1.01e-4, 1e-3):
            assert abs(ellipk_resummed(k, 8) - ellipk_mp(k)) < 1e-14

    def test_orders_sized_by_a_1e13_bracket_tail_bound(self, ellipk_mp):
        # the orders a 1e-13 tail bound, bracket_n <= 1/(4 n^2), asks for
        for k, order in ((0.3, 16), (0.9, 128), (0.999, 16384)):
            assert abs(ellipk_resummed(k, order) - ellipk_mp(k)) < 1e-12

    def test_band_next_to_the_separatrix(self, ellipk_mp):
        # the resummed K needs 524,288 terms for a 1e-13 tail at E = 1.9999;
        # the AGM period serves energies closer to 2 at no such cost
        k = energy_state(1.9999).orbit.k
        assert_allclose(ellipk_resummed(k, 524288), ellipk_mp(k), rtol=1e-12)


@pytest.mark.parametrize("route", [
    lambda k: ellipk_series(k, 10),
    lambda k: ellipk_resummed(k, 10),
], ids=["series", "resummed"])
@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1.0, -1.0, -0.5])
def test_series_routes_reject_a_modulus_off_the_unit_disc(route, k):
    # NaN used to pass the k^2 >= 1 test and the sums returned NaN; a
    # negative k used to pass it too
    with pytest.raises(ValueError, match=r"modulus must satisfy 0 <= k < 1"):
        route(k)


def test_series_routes_reject_a_negative_order():
    for route in (ellipk_series, ellipk_resummed):
        with pytest.raises(ValueError, match="order must be >= 0"):
            route(0.5, -1)


@pytest.mark.parametrize("route", [
    lambda n: ellipk_series(0.5, n),
    lambda n: ellipk_resummed(0.5, n),
], ids=["series", "resummed"])
def test_k_routes_never_truncate_the_order(route):
    # int(order) used to sum 10 terms for order 10.7
    with pytest.raises(ValueError, match="order must be an integer"):
        route(10.7)
    assert route(10.0) == route(10)


class TestKPrime:
    def test_k_one(self):
        assert ellipk_prime(1.0) == 0.5 * math.pi

    def test_self_dual_point(self, ellipk_mp):
        k = 1.0 / math.sqrt(2.0)
        assert_allclose(ellipk_prime(k), ellipk_mp(k), rtol=1e-15)

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
    def test_route_value_and_tag(self):
        for method, route in (("series", ellipk_series), ("resummed", ellipk_resummed)):
            want = EllipticEval(route(0.5, 10), f"{method}(order=10)")
            # the tag names the whole order the sum used, not the order as passed
            assert evaluate_k(0.5, method, 10) == evaluate_k(0.5, method, 10.0) == want
        # k = 0, E = 0: the order-0 resummed K is pi/2
        assert evaluate_k(0.0, "resummed", 0) == EllipticEval(0.5 * math.pi, "resummed(order=0)")

    def test_bad_combinations(self):
        for method in ("series", "resummed"):  # neither route sizes its own order
            with pytest.raises(TypeError):
                evaluate_k(0.5, method)
        for method in ("trapezoid", "quadrature"):  # the AGM route is the orbit record's alone
            with pytest.raises(ValueError, match="unknown method"):
                evaluate_k(0.5, method, 10)
        for method in ("series", "resummed"):  # the order is checked first
            with pytest.raises(ValueError, match="order must be an integer"):
                evaluate_k(-0.5, method, 10.7)
