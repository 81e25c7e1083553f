"""Endpoint-pinned resummation and the two-monomial efficient form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import (
    SeparatrixError,
    SeriesCoefficients,
    build_trajectory,
    canonical_top_ics,
    efficient_truncation,
    energy_state,
    eval_efficient,
    eval_poly,
    eval_resummed,
    omega_star,
    pendulum_series,
    period,
    resum,
    sup_error,
    tally_coefficient_ops,
)


def make_inputs(energy, order, direction=1):
    state = energy_state(energy, direction)
    theta0, omega0 = canonical_top_ics(state)
    raw = pendulum_series(theta0, omega0, order)
    t_star = period(state).T_star
    return state, raw, t_star


def reexpand(w, t_star, a_hat):
    """Coefficients of w (t - T*) + (t - T*)^2 sum a_hat_n t^n about t = 0."""
    square = np.array([t_star * t_star, -2.0 * t_star, 1.0])
    prod = np.polymul(a_hat[::-1], square[::-1])[::-1]
    prod[0] -= w * t_star
    prod[1] += w
    return prod


class TestOmegaStar:
    def test_rotation_clockwise_value(self):
        assert omega_star(energy_state(2.02, -1)) == -math.sqrt(4.04)

    def test_libration_magnitude(self):
        assert abs(omega_star(energy_state(1.71))) == pytest.approx(
            math.sqrt(3.42), rel=1e-15)

    def test_vanishes_with_energy(self):
        assert abs(omega_star(energy_state(1e-12))) < 1e-5

    def test_separatrix_rejected(self):
        with pytest.raises(SeparatrixError):
            omega_star(energy_state(2.0))


class TestResum:
    def test_first_two_coefficients(self):
        state, raw, t_star = make_inputs(1.71, 12)
        r = resum(raw, state, t_star)
        w = omega_star(state)
        a = raw.coeffs
        b0, b1 = a[0] + t_star * w, a[1] - w
        assert r.b_shift == (b0, b1)
        assert r.a_hat.coeffs[0] == pytest.approx(b0 / t_star**2, rel=1e-13)
        # the two n=1 convolution terms nearly cancel: compare loosely
        assert r.a_hat.coeffs[1] == pytest.approx(
            b0 * 2.0 / t_star**3 + b1 / t_star**2, rel=1e-11)

    def test_reconstruction_identity(self):
        state, raw, t_star = make_inputs(1.71, 20)
        r = resum(raw, state, t_star)
        back = reexpand(r.omega_star, t_star, r.a_hat.coeffs)
        assert_allclose(back[:21], raw.coeffs, rtol=0, atol=1e-10)

    def test_reconstruction_holds_for_any_slope(self):
        # exactness is an add-and-subtract identity: repeat the coefficient
        # transformation with the opposite slope sign by hand
        state, raw, t_star = make_inputs(1.71, 20)
        w = math.sqrt(2.0 * state.energy)
        b = raw.coeffs.copy()
        b[0] += t_star * w
        b[1] -= w
        inv = 1.0 / t_star
        a_hat = np.array([
            sum(b[n - k] * (k + 1) * inv ** (k + 2) for k in range(n + 1))
            for n in range(21)
        ])
        back = reexpand(w, t_star, a_hat)
        assert_allclose(back[:21], raw.coeffs, rtol=0, atol=1e-10)

    def test_input_validation(self):
        state, raw, _ = make_inputs(1.71, 12)
        with pytest.raises(ValueError):
            resum(raw, state, math.inf)
        with pytest.raises(ValueError):
            resum(SeriesCoefficients([1.0, 2.0]), state, 1.0)  # order < 2


class TestEvalResummed:
    def test_structural_zero_at_endpoint(self):
        for energy in (0.5, 1.71, 1.9998, 2.02, 5.0):
            state, raw, t_star = make_inputs(energy, 14, -1 if energy > 2 else 1)
            r = resum(raw, state, t_star)
            assert eval_resummed(r, t_star) == 0.0

    def test_value_at_origin(self):
        state, raw, t_star = make_inputs(1.71, 14)
        r = resum(raw, state, t_star)
        assert eval_resummed(r, 0.0) == pytest.approx(raw.coeffs[0], rel=1e-13)

    def test_endpoint_slope_is_omega_star(self):
        state, raw, t_star = make_inputs(1.71, 14)
        r = resum(raw, state, t_star)
        h = 1e-6
        slope = (eval_resummed(r, t_star + h) - eval_resummed(r, t_star - h)) / (2 * h)
        assert slope == pytest.approx(omega_star(state), abs=1e-8)

    def test_endpoint_curvature_vanishes_with_order(self):
        # the exact solution has theta'' = 0 at the bottom; truncations
        # only approach it, so test the trend rather than exact zero
        state, raw, t_star = make_inputs(1.71, 80)
        h = 1e-4
        curvatures = []
        for order in (10, 20, 40, 80):
            r = resum(raw, state, t_star, order=order)
            c = (eval_resummed(r, t_star + h) - 2.0 * eval_resummed(r, t_star)
                 + eval_resummed(r, t_star - h)) / (h * h)
            curvatures.append(abs(c))
        assert curvatures[-1] < 1e-6
        assert curvatures[-1] < curvatures[0]

    def test_beats_raw_series_near_separatrix(self):
        state = energy_state(1.9998)
        raw_err = sup_error(build_trajectory(state, 20, "raw"),
                            grid_points=201).sup_error
        res_err = sup_error(build_trajectory(state, 20, "resummed"),
                            grid_points=201).sup_error
        assert res_err < raw_err

    def test_error_dominance_across_regimes(self):
        for energy in (1.5, 1.9, 1.9998, 2.02, 3.0):
            direction = -1 if energy > 2 else 1
            state = energy_state(energy, direction)
            raw_err = sup_error(build_trajectory(state, 10, "raw"),
                                grid_points=101).sup_error
            res_err = sup_error(build_trajectory(state, 10, "resummed"),
                                grid_points=101).sup_error
            assert res_err <= raw_err


class TestEfficientTruncation:
    def test_degenerate_zero_energy(self):
        state = energy_state(0.0)
        raw = SeriesCoefficients(np.zeros(9))
        e = efficient_truncation(raw, state, period(state).T_star)
        assert e.alpha == 0.0 and e.beta == 0.0

    def test_endpoint_matching(self):
        state, raw, t_star = make_inputs(1.71, 20)
        e = efficient_truncation(raw, state, t_star)
        assert abs(eval_efficient(e, t_star)) < 1e-12
        h = 1e-6
        slope = (eval_efficient(e, t_star + h) - eval_efficient(e, t_star - h)) / (2 * h)
        assert slope == pytest.approx(omega_star(state), abs=1e-8)

    def test_alpha_beta_formulas(self):
        state, raw, t_star = make_inputs(2.02, 8, -1)
        e = efficient_truncation(raw, state, t_star)
        n = 8
        a = raw.coeffs
        sigma = sum(a[i] * t_star**i for i in range(n + 1))
        dsigma = sum(i * a[i] * t_star ** (i - 1) for i in range(1, n + 1))
        gap = omega_star(state) - dsigma
        alpha = -(n + 2) * sigma * t_star ** (-n - 1) - gap * t_star**-n
        beta = (n + 1) * sigma * t_star ** (-n - 2) + gap * t_star ** (-n - 1)
        assert e.alpha == pytest.approx(alpha, rel=1e-12)
        assert e.beta == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("energy,direction", [(1.71, 1), (2.02, -1)])
    @pytest.mark.parametrize("order", [6, 20])
    def test_endpoint_derivatives_match_direct_form(self, energy, direction, order):
        # both are the same degree-(N+2) polynomial, so the derivatives
        # agree to rounding; higher orders cancel too hard to compare
        # relatively (the second derivative shrinks toward 0 with N)
        state, raw, t_star = make_inputs(energy, order, direction)
        r = resum(raw, state, t_star)
        e = efficient_truncation(raw, state, t_star)
        c = np.asarray(e.base.coeffs)
        powers = t_star ** np.arange(c.size)
        d1_sigma = np.dot(np.arange(c.size), c * powers) / t_star
        d1 = (d1_sigma + e.alpha * (order + 1) * t_star**order
              + e.beta * (order + 2) * t_star ** (order + 1))
        assert d1 == pytest.approx(r.omega_star, rel=1e-12)
        ks = np.arange(c.size)
        d2_sigma = np.dot(ks * (ks - 1), c * powers) / t_star**2
        d2 = (d2_sigma + e.alpha * (order + 1) * order * t_star ** (order - 1)
              + e.beta * (order + 2) * (order + 1) * t_star**order)
        d2_direct = 2.0 * eval_poly(r.a_hat, t_star)
        assert d2 == pytest.approx(d2_direct, rel=1e-10)

    @pytest.mark.parametrize("energy,direction", [(1.71, 1), (2.02, -1)])
    @pytest.mark.parametrize("order", [6, 20, 36])
    def test_equals_direct_resummation(self, energy, direction, order):
        state, raw, t_star = make_inputs(energy, order, direction)
        r = resum(raw, state, t_star)
        e = efficient_truncation(raw, state, t_star)
        grid = np.linspace(0.0, t_star, 100)
        direct = eval_resummed(r, grid)
        fast = eval_efficient(e, grid)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) < 1e-11 * scale

    def test_out_of_range_coefficients_raise_value_error(self):
        # plain (unit 1) coefficients at E = 30, N = 1000: (1/T*)^N
        # overflows, and both constructions must say so with a ValueError
        state, raw, t_star = make_inputs(30.0, 1000, -1)
        with pytest.raises(ValueError, match="non-finite coefficient"):
            resum(raw, state, t_star)
        with pytest.raises(ValueError, match="time_unit"):
            efficient_truncation(raw, state, t_star)


class TestOpTally:
    def test_counts_are_the_documented_polynomials(self):
        state, raw, t_star = make_inputs(1.71, 6)
        with tally_coefficient_ops() as direct:
            resum(raw, state, t_star)
        with tally_coefficient_ops() as fast:
            efficient_truncation(raw, state, t_star)
        n = 6
        assert direct.total == (n + 1) ** 2 + 2 * n + 7
        assert fast.total == 4 * n + 15

    def test_nested_tallies_both_collect(self):
        state, raw, t_star = make_inputs(1.71, 6)
        with tally_coefficient_ops() as outer:
            with tally_coefficient_ops() as inner:
                efficient_truncation(raw, state, t_star)
            efficient_truncation(raw, state, t_star)
        assert inner.total == 4 * 6 + 15
        assert outer.total == 2 * inner.total

    def test_quadratic_vs_linear_scaling(self):
        state, raw, t_star = make_inputs(1.71, 200)
        with tally_coefficient_ops() as direct:
            resum(raw, state, t_star)
        with tally_coefficient_ops() as fast:
            efficient_truncation(raw, state, t_star)
        assert fast.total < direct.total / 40
