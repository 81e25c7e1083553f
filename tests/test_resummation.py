"""Endpoint-pinned resummation and the two-monomial efficient form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import (
    SeparatrixError,
    build_trajectory,
    energy_state,
    sup_error,
    tally_coefficient_ops,
)
from pendseries.resummation import (
    efficient_truncation,
    eval_efficient,
    eval_resummed,
    resum,
)
from pendseries.series import SeriesCoefficients, eval_poly, pendulum_series


def make_inputs(energy, order, direction=1):
    """The raw branch `build_trajectory` ships: seeded by the record, in units of T*."""
    state = energy_state(energy, direction)
    return state, build_trajectory(state, order, "raw").branch, state.orbit.T_star


def reexpand(w, t_star, a_hat):
    """Coefficients of w (t - T*) + (t - T*)^2 sum a_hat_n t^n about t = 0.

    Called in s = t/T* units: T* -> 1 and w -> w* T*.
    """
    square = np.array([t_star * t_star, -2.0 * t_star, 1.0])
    prod = np.polymul(a_hat[::-1], square[::-1])[::-1]
    prod[0] -= w * t_star
    prod[1] += w
    return prod


def unit_inputs(energy, order, direction):
    """`make_inputs` plus the endpoint in s = t/T*: s* = 1 and w_s = w* T*."""
    state, raw, t_star = make_inputs(energy, order, direction)
    return state, raw, t_star, 1.0, state.orbit.omega_star * t_star


def fused_horner_alpha_beta(a, state):
    """Reference: alpha and beta from the Python loop `efficient_truncation`
    ran before its two running sums moved into `np.add.accumulate`."""
    n_max = a.truncation_order
    coeffs = a.coeffs.tolist()
    sig = coeffs[n_max]
    dsig = 0.0
    for n in range(n_max - 1, -1, -1):
        dsig += sig
        sig += coeffs[n]
    gap = state.orbit.omega_star * state.orbit.T_star - dsig
    return -(n_max + 2) * sig - gap, (n_max + 1) * sig + gap


FSUM_CASES = [(0.5, 1), (1.71, -1), (1.9998, 1), (5.0, -1)]
FSUM_ORDERS = [2, 3, 6, 10, 20, 200, 1000]

# eval_resummed at one t, so that all three transforms take (series, state)
TRANSFORMS = {
    "resum": resum,
    "efficient_truncation": efficient_truncation,
    "eval_resummed": lambda a, state: eval_resummed(a, state, 0.0),
}


class TestOmegaStar:
    def test_rotation_clockwise_value(self):
        assert energy_state(2.02, -1).orbit.omega_star == -math.sqrt(4.04)

    def test_libration_magnitude(self):
        assert abs(energy_state(1.71).orbit.omega_star) == pytest.approx(
            math.sqrt(3.42), rel=1e-15)

    def test_vanishes_with_energy(self):
        assert abs(energy_state(1e-12).orbit.omega_star) < 1e-5

    def test_separatrix_rejected(self):
        with pytest.raises(SeparatrixError):
            energy_state(2.0).orbit.omega_star


class TestResum:
    def test_first_two_coefficients(self):
        state, raw, t_star = make_inputs(1.71, 12)
        r = resum(raw, state)
        s, w = 1.0, state.orbit.omega_star * t_star  # the endpoint in s = t/T*
        a = raw.coeffs
        b0, b1 = a[0] + s * w, a[1] - w
        assert r.coeffs[0] == pytest.approx(b0 / s**2, rel=1e-13)
        # the two n=1 convolution terms nearly cancel: compare loosely
        assert r.coeffs[1] == pytest.approx(
            b0 * 2.0 / s**3 + b1 / s**2, rel=1e-11)

    def test_reconstruction_identity(self):
        state, raw, t_star = make_inputs(1.71, 20)
        r = resum(raw, state)
        back = reexpand(state.orbit.omega_star * t_star, 1.0, r.coeffs)
        assert_allclose(back[:21], raw.coeffs, rtol=0, atol=1e-10)

    def test_reconstruction_holds_for_any_slope(self):
        # exactness is an add-and-subtract identity: repeat the coefficient
        # transformation with the opposite slope sign by hand
        state, raw, t_star = make_inputs(1.71, 20)
        s, w = 1.0, math.sqrt(2.0 * state.energy) * t_star  # in s = t/T*
        b = raw.coeffs.copy()
        b[0] += s * w
        b[1] -= w
        inv = 1.0 / s
        a_hat = np.array([
            sum(b[n - k] * (k + 1) * inv ** (k + 2) for k in range(n + 1))
            for n in range(21)
        ])
        back = reexpand(w, s, a_hat)
        assert_allclose(back[:21], raw.coeffs, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("energy,direction", FSUM_CASES)
    @pytest.mark.parametrize("order", FSUM_ORDERS)
    def test_matches_fsum_definition(self, energy, direction, order):
        # ahat_n = sum_k b_{n-k} (k+1) (1/s*)^(k+2), each n one math.fsum,
        # in the series' unit s = t/T*, where s* = 1.  The weights do not
        # decay there, so a high ahat_n is a near-cancelling sum of terms
        # of size ~ n |b_0|: bound each error by 1e-14 of that absolute
        # scale, and check that the branch it builds matches the exact one
        state, raw, t_star, s_star, w_s = unit_inputs(energy, order, direction)
        b = raw.coeffs.tolist()
        b[0] += s_star * w_s
        b[1] -= w_s
        q = 1.0 / s_star
        ref = np.array([math.fsum(b[n - k] * (k + 1) * q ** (k + 2) for k in range(n + 1))
                        for n in range(order + 1)])
        scale = np.array([math.fsum(abs(b[n - k]) * (k + 1) * q ** (k + 2)
                                    for k in range(n + 1))
                          for n in range(order + 1)])
        r = resum(raw, state)
        assert r.time_unit == t_star
        assert np.all(np.abs(r.coeffs - ref) <= 1e-14 * scale)
        grid = np.linspace(0.0, t_star, 101)
        branch = eval_resummed(SeriesCoefficients(ref, t_star), state, grid)
        gap = np.max(np.abs(eval_resummed(r, state, grid) - branch))
        assert gap <= 1e-14 * np.max(np.abs(branch))

    def test_input_validation(self):
        # order < 2, checked before the unit by all three transforms
        for transform in TRANSFORMS.values():
            for coeffs in ([1.0], [1.0, 2.0]):
                with pytest.raises(ValueError, match="order must be at least 2"):
                    transform(SeriesCoefficients(coeffs), energy_state(1.71))


class TestEvalResummed:
    def test_structural_zero_at_endpoint(self):
        for energy in (0.5, 1.71, 1.9998, 2.02, 5.0):
            state, raw, t_star = make_inputs(energy, 14, -1 if energy > 2 else 1)
            r = resum(raw, state)
            assert eval_resummed(r, state, t_star) == 0.0

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy", [2.02, 5.0, 40.0])
    def test_canonical_start_agrees_with_its_raw_sum(self, energy, direction):
        # resum pins w* = -sqrt(2E), the canonical branch's endpoint, so the
        # start it is handed must be the canonical one whatever the direction
        state = energy_state(energy, direction)
        t_star = state.orbit.T_star
        raw = build_trajectory(state, 200, "raw").branch
        grid = np.linspace(0.0, t_star, 201)
        gap = eval_resummed(resum(raw, state), state, grid) - eval_poly(raw, grid)
        assert np.max(np.abs(gap)) < 1e-8

    def test_value_at_origin(self):
        state, raw, _ = make_inputs(1.71, 14)
        r = resum(raw, state)
        assert eval_resummed(r, state, 0.0) == pytest.approx(raw.coeffs[0], rel=1e-13)

    def test_endpoint_slope_is_omega_star(self):
        state, raw, t_star = make_inputs(1.71, 14)
        r = resum(raw, state)
        h = 1e-6
        slope = (eval_resummed(r, state, t_star + h)
                 - eval_resummed(r, state, t_star - h)) / (2 * h)
        assert slope == pytest.approx(state.orbit.omega_star, abs=1e-8)

    def test_endpoint_curvature_vanishes_with_order(self):
        # the exact solution has theta'' = 0 at the bottom; truncations
        # only approach it, so test the trend rather than exact zero; the
        # order-n partial sum is the order-n build
        h = 1e-4
        curvatures = []
        for order in (10, 20, 40, 80):
            state, raw, t_star = make_inputs(1.71, order)
            r = resum(raw, state)
            c = (eval_resummed(r, state, t_star + h) - 2.0 * eval_resummed(r, state, t_star)
                 + eval_resummed(r, state, t_star - h)) / (h * h)
            curvatures.append(abs(c))
        assert curvatures[-1] < 1e-6
        assert curvatures[-1] < curvatures[0]

    def test_beats_raw_series_near_separatrix(self):
        state = energy_state(1.9998)
        raw_err = sup_error(build_trajectory(state, 20, "raw"),
                            grid_points=201)
        res_err = sup_error(build_trajectory(state, 20, "resummed"),
                            grid_points=201)
        assert res_err < raw_err

    def test_error_dominance_across_regimes(self):
        for energy in (1.5, 1.9, 1.9998, 2.02, 3.0):
            direction = -1 if energy > 2 else 1
            state = energy_state(energy, direction)
            raw_err = sup_error(build_trajectory(state, 10, "raw"),
                                grid_points=101)
            res_err = sup_error(build_trajectory(state, 10, "resummed"),
                                grid_points=101)
            assert res_err <= raw_err


class TestEfficientTruncation:
    def test_degenerate_zero_energy(self):
        state = energy_state(0.0)
        t_star = state.orbit.T_star
        raw = SeriesCoefficients(np.zeros(9), t_star)
        e = efficient_truncation(raw, state)
        assert e.coeffs[-2] == 0.0 and e.coeffs[-1] == 0.0

    def test_endpoint_matching(self):
        state, raw, t_star = make_inputs(1.71, 20)
        e = efficient_truncation(raw, state)
        assert abs(eval_efficient(e, t_star)) < 1e-12
        h = 1e-6
        slope = (eval_efficient(e, t_star + h) - eval_efficient(e, t_star - h)) / (2 * h)
        assert slope == pytest.approx(state.orbit.omega_star, abs=1e-8)

    def test_alpha_beta_formulas(self):
        state, raw, t_star = make_inputs(2.02, 8, -1)
        e = efficient_truncation(raw, state)
        n = 8
        a = raw.coeffs
        s = 1.0  # the endpoint in s = t/T*
        sigma = sum(a[i] * s**i for i in range(n + 1))
        dsigma = sum(i * a[i] * s ** (i - 1) for i in range(1, n + 1))
        gap = state.orbit.omega_star * t_star - dsigma
        alpha = -(n + 2) * sigma * s ** (-n - 1) - gap * s**-n
        beta = (n + 1) * sigma * s ** (-n - 2) + gap * s ** (-n - 1)
        assert e.coeffs[-2] == pytest.approx(alpha, rel=1e-12)
        assert e.coeffs[-1] == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("energy,direction", FSUM_CASES)
    @pytest.mark.parametrize("order", FSUM_ORDERS)
    def test_matches_fsum_endpoint_sums(self, energy, direction, order):
        # alpha and beta from sigma_N(T*) and sigma_N'(T*) summed with
        # math.fsum; an error of 1e-14 of the sums' absolute scale in
        # sigma_N and sigma_N' moves alpha and beta by at most `tol`
        state, raw, _, s, w_s = unit_inputs(energy, order, direction)
        c = raw.coeffs.tolist()
        sigma = math.fsum(c[n] * s**n for n in range(order + 1))
        dsigma = math.fsum(n * c[n] * s ** (n - 1) for n in range(1, order + 1))
        scale0 = math.fsum(abs(c[n]) * s**n for n in range(order + 1))
        scale1 = abs(w_s) + math.fsum(n * abs(c[n]) * s ** (n - 1)
                                      for n in range(1, order + 1))
        p0, p1, p2 = s**-order, s ** -(order + 1), s ** -(order + 2)
        gap = w_s - dsigma
        e = efficient_truncation(raw, state)
        tol = 1e-14
        assert abs(e.coeffs[-2] - (-(order + 2) * sigma * p1 - gap * p0)) <= tol * (
            (order + 2) * scale0 * p1 + scale1 * p0)
        assert abs(e.coeffs[-1] - ((order + 1) * sigma * p2 + gap * p1)) <= tol * (
            (order + 1) * scale0 * p2 + scale1 * p1)

    @pytest.mark.parametrize("energy", [1e-10, 0.5, 1.71, 2.0 - 1e-6, 2.0 + 1e-6, 5.0, 1e3])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_bit_identical_to_the_fused_horner_loop(self, energy, direction):
        # on the branch build_trajectory expands, exact seeds included
        state = energy_state(energy, direction)
        c = state.orbit
        t_star = state.orbit.T_star
        for order in (2, 3, 40, 200, 1000, 4999):
            raw = pendulum_series(c.theta0, c.omega0, order, time_unit=t_star,
                                  sin_cos=c.sin_cos)
            with tally_coefficient_ops() as ops:
                e = efficient_truncation(raw, state)
            assert ops.total == 2 * order + 6
            want = fused_horner_alpha_beta(raw, state)
            assert [x.hex() for x in e.coeffs[-2:].tolist()] == [x.hex() for x in want], order

    @pytest.mark.parametrize("energy,direction", [(1.71, 1), (2.02, -1)])
    @pytest.mark.parametrize("order", [6, 20])
    def test_endpoint_derivatives_match_direct_form(self, energy, direction, order):
        # both are the same degree-(N+2) polynomial, so the derivatives
        # agree to rounding; higher orders cancel too hard to compare
        # relatively (the second derivative shrinks toward 0 with N);
        # derivatives in s = t/T*, at the endpoint s = 1
        state, raw, t_star = make_inputs(energy, order, direction)
        r = resum(raw, state)
        e = efficient_truncation(raw, state)
        s = 1.0
        c = e.coeffs[:-2]
        powers = s ** np.arange(c.size)
        d1_sigma = np.dot(np.arange(c.size), c * powers) / s
        d1 = (d1_sigma + e.coeffs[-2] * (order + 1) * s**order
              + e.coeffs[-1] * (order + 2) * s ** (order + 1))
        assert d1 == pytest.approx(state.orbit.omega_star * t_star, rel=1e-12)
        ks = np.arange(c.size)
        d2_sigma = np.dot(ks * (ks - 1), c * powers) / s**2
        d2 = (d2_sigma + e.coeffs[-2] * (order + 1) * order * s ** (order - 1)
              + e.coeffs[-1] * (order + 2) * (order + 1) * s**order)
        d2_direct = 2.0 * eval_poly(r, t_star)
        assert d2 == pytest.approx(d2_direct, rel=1e-10)

    @pytest.mark.parametrize("energy,direction", [(1.71, 1), (2.02, -1)])
    @pytest.mark.parametrize("order", [6, 20, 36])
    def test_equals_direct_resummation(self, energy, direction, order):
        state, raw, t_star = make_inputs(energy, order, direction)
        r = resum(raw, state)
        e = efficient_truncation(raw, state)
        grid = np.linspace(0.0, t_star, 100)
        direct = eval_resummed(r, state, grid)
        fast = eval_efficient(e, grid)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) < 1e-11 * scale

    @pytest.mark.parametrize("energy,order,direction,unit,per_t_star", [
        (30.0, 1000, -1, 1.0, False),  # plain unit 1, where (1/T*)^N would overflow
        (1.71, 20, 1, 0.9, True),      # 0.9 T*, a unit that stays in range
        (1.71, 20, 1, 3.0, False),     # 3.0, although this orbit's T* is 2.4047
    ])
    def test_series_in_another_unit_raises_value_error(self, energy, order, direction,
                                                       unit, per_t_star):
        # all three transforms need the series in units of the orbit's own
        # T*, and say so with one ValueError, never an OverflowError; the
        # ahat that eval_resummed is handed is resum's, carried in the other unit
        state = energy_state(energy, direction)
        c = state.orbit
        unit = unit * c.T_star if per_t_star else unit
        raw = pendulum_series(c.theta0, c.omega0, order, time_unit=unit, sin_cos=c.sin_cos)
        a_hat = SeriesCoefficients(resum(make_inputs(energy, order, direction)[1], state).coeffs,
                                   unit)
        messages = set()
        for call in (lambda: resum(raw, state), lambda: efficient_truncation(raw, state),
                     lambda: eval_resummed(a_hat, state, c.T_star)):
            with pytest.raises(ValueError, match=r"units of T\*") as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1


class TestSharedEndpointCheck:
    # the three transforms read N, T* and w* through one check, so they
    # reject the same inputs the same way
    @pytest.mark.parametrize("name", TRANSFORMS)
    @pytest.mark.parametrize("energy", [2.0, 2.0 - 5e-13, 2.0 + 5e-13])
    def test_separatrix_raises_separatrix_error(self, name, energy):
        with pytest.raises(SeparatrixError, match="is the separatrix"):
            TRANSFORMS[name](SeriesCoefficients(np.zeros(9)), energy_state(energy))


class TestOpTally:
    def test_counts_are_the_documented_polynomials(self):
        # exact at high order too: the benchmark's resummation.coeff_ops
        # reads these totals
        for n in (6, 1000):
            state, raw, _ = make_inputs(1.71, n)
            with tally_coefficient_ops() as direct:
                resum(raw, state)
            with tally_coefficient_ops() as fast:
                efficient_truncation(raw, state)
            assert direct.total == (n + 1) ** 2 + 3
            assert fast.total == 2 * n + 6

    def test_nested_tallies_both_collect(self):
        state, raw, _ = make_inputs(1.71, 6)
        with tally_coefficient_ops() as outer:
            with tally_coefficient_ops() as inner:
                efficient_truncation(raw, state)
            efficient_truncation(raw, state)
        assert inner.total == 2 * 6 + 6
        assert outer.total == 2 * inner.total

    def test_quadratic_vs_linear_scaling(self):
        state, raw, _ = make_inputs(1.71, 200)
        with tally_coefficient_ops() as direct:
            resum(raw, state)
        with tally_coefficient_ops() as fast:
            efficient_truncation(raw, state)
        assert fast.total < direct.total / 40
