"""Power-series arithmetic and the pendulum coefficient recurrence."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import SeriesCoefficients, eval_poly, pendulum_series


def taylor_by_cauchy_integral(f, order, radius=0.25, samples=256):
    """Independent Taylor-coefficient oracle via FFT on a complex circle."""
    phi = 2.0 * np.pi * np.arange(samples) / samples
    values = f(radius * np.exp(1j * phi))
    hats = np.fft.fft(values) / samples
    return (hats[: order + 1] / radius ** np.arange(order + 1)).real


class TestSeriesCoefficients:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SeriesCoefficients([1.0, math.nan])
        with pytest.raises(ValueError):
            SeriesCoefficients([math.inf])

    def test_immutable(self):
        a = SeriesCoefficients([1.0, 2.0])
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0

    def test_truncation_order(self):
        assert SeriesCoefficients([3.0, 0.0, 1.0]).truncation_order == 2


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly(SeriesCoefficients([5.0]), 3.7, upto=0) == 5.0

    def test_truncated_exponential(self):
        coeffs = [1.0 / math.factorial(n) for n in range(11)]
        assert abs(eval_poly(SeriesCoefficients(coeffs), 1.0, upto=10) - math.e) < 1e-7

    def test_truncated_sine(self):
        # remainder is the first dropped term, 0.5^7/5040 = 1.55e-6
        coeffs = SeriesCoefficients([0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0])
        assert abs(eval_poly(coeffs, 0.5, upto=5) - math.sin(0.5)) < 2e-6

    def test_upto_out_of_range(self):
        with pytest.raises(ValueError):
            eval_poly(SeriesCoefficients([1.0, 2.0]), 0.5, upto=5)

    def test_array_matches_scalar(self):
        coeffs = SeriesCoefficients([1.0, -2.0, 0.5, 0.25])
        ts = np.linspace(-1.0, 1.0, 7)
        out = eval_poly(coeffs, ts)
        for t, v in zip(ts, out):
            assert v == eval_poly(coeffs, float(t))


class TestPendulumSeries:
    def test_stable_fixed_point(self):
        assert_allclose(pendulum_series(0.0, 0.0, 10).coeffs, np.zeros(11), atol=0)

    def test_unstable_fixed_point(self):
        # sin(float64 pi) is 1.2e-16, not 0, so a residue of that scale
        # leaks into a_2 and decays from there
        coeffs = pendulum_series(math.pi, 0.0, 10).coeffs
        assert coeffs[0] == math.pi
        assert_allclose(coeffs[1:], np.zeros(10), atol=1e-16)

    def test_leading_coefficients(self, rng):
        for _ in range(10):
            theta0 = float(rng.uniform(-3.0, 3.0))
            omega0 = float(rng.uniform(-2.0, 2.0))
            a = pendulum_series(theta0, omega0, 4).coeffs
            assert a[0] == theta0
            assert a[1] == omega0
            assert_allclose(a[2], -math.sin(theta0) / 2.0, rtol=1e-15)
            assert_allclose(a[3], -omega0 * math.cos(theta0) / 6.0, rtol=1e-14,
                            atol=1e-18)

    def test_ode_residual(self, rng):
        # theta'' + sin(theta) must vanish coefficientwise through N - 2;
        # the sine coefficients come from the FFT oracle, not the kernel.
        # At radius 1 the division by radius^n leaves FFT rounding at
        # ~1e-16 through n = 38 (radius 0.25 amplifies it to ~1e6), and
        # sin of the polynomial stays moderate on the circle (at radius 2
        # it does not).
        for _ in range(5):
            theta0 = float(rng.uniform(-3.0, 3.0))
            omega0 = float(rng.uniform(-2.0, 2.0))
            n = 40
            a = pendulum_series(theta0, omega0, n)
            s = taylor_by_cauchy_integral(
                lambda z: np.sin(np.polynomial.polynomial.polyval(z, a.coeffs)),
                n - 2, radius=1.0)
            k = np.arange(2.0, n + 1)
            second = k * (k - 1.0) * a.coeffs[2:]
            assert_allclose(second + s, np.zeros(n - 1), rtol=0, atol=1e-12)

    def test_odd_coefficients_vanish_at_turning_point(self, rng):
        for _ in range(10):
            theta0 = float(rng.uniform(0.05, 3.0))
            a = pendulum_series(theta0, 0.0, 31).coeffs
            assert np.all(a[1::2] == 0.0)

    def test_small_time_against_rk4(self):
        from pendseries import rk4_pendulum

        a = pendulum_series(1.2, -0.3, 30)
        _, thetas, _ = rk4_pendulum(1.2, -0.3, 0.5, 1e-5)
        assert abs(eval_poly(a, 0.5) - thetas[-1]) < 1e-12

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            pendulum_series(1.0, 0.0, 1)

    def test_time_unit_scales_coefficients(self, rng):
        # in s = t/h the coefficients are a_n h^n and evaluate at t/h
        for _ in range(5):
            theta0 = float(rng.uniform(-3.0, 3.0))
            omega0 = float(rng.uniform(-2.0, 2.0))
            h = float(rng.uniform(0.1, 10.0))
            plain = pendulum_series(theta0, omega0, 30)
            scaled = pendulum_series(theta0, omega0, 30, time_unit=h)
            assert scaled.time_unit == h
            assert_allclose(scaled.coeffs, plain.coeffs * h ** np.arange(31.0),
                            rtol=1e-12, atol=1e-300)
            ts = np.linspace(0.0, 0.5, 11)
            assert_allclose(eval_poly(scaled, ts), eval_poly(plain, ts),
                            rtol=0, atol=1e-13)

    def test_time_unit_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="time_unit"):
                SeriesCoefficients([1.0, 2.0], bad)
            with pytest.raises(ValueError, match="time_unit"):
                pendulum_series(1.0, 0.0, 4, time_unit=bad)
