"""The RK4 oracle and the sup-norm comparison against it."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import (
    build_trajectory,
    canonical_initial_state,
    energy_state,
    sup_error,
)
from pendseries.energy import separatrix_theta
from pendseries.validation import rk4_sample


class TestRk4Pendulum:
    """RK4 on the pendulum as an oracle: its accuracy, through rk4_sample."""

    def test_fixed_point_stays_put(self):
        thetas, omegas = rk4_sample(0.0, 0.0, np.linspace(0.0, 1.0, 1001), 1e-3)
        assert np.all(thetas == 0.0)
        assert np.all(omegas == 0.0)

    def test_harmonic_limit(self):
        ts = np.linspace(0.0, 2.0 * math.pi, 1001)
        thetas, _ = rk4_sample(0.001, 0.0, ts, 1e-4)
        assert abs(thetas[-1] - 0.001) < 1e-7
        assert np.max(np.abs(thetas - 0.001 * np.cos(ts))) < 1e-7

    def test_separatrix_closed_form(self):
        ts = np.linspace(0.0, 5.0, 101)
        thetas, _ = rk4_sample(0.0, 2.0, ts, 1e-5)
        exact = np.array([separatrix_theta(0.0, t) for t in ts])
        assert abs(thetas[-1] - separatrix_theta(0.0, 5.0)) < 1e-10
        assert np.max(np.abs(thetas - exact)) < 1e-10

    def test_fourth_order_self_convergence(self):
        # reference is the closed form, so only truncation error remains;
        # dt below 2e-3 hits the rounding floor on this span
        ts = np.linspace(0.0, 5.0, 101)
        exact = np.array([separatrix_theta(0.0, t) for t in ts])

        def err(dt):
            thetas, _ = rk4_sample(0.0, 2.0, ts, dt)
            return np.max(np.abs(thetas - exact))

        e8, e4, e2 = err(8e-3), err(4e-3), err(2e-3)
        assert 8.0 < e8 / e4 < 32.0
        assert 8.0 < e4 / e2 < 32.0

    def test_period_return_convergence_off_separatrix(self):
        sol = build_trajectory(energy_state(0.5), 10, "resummed")
        theta0, omega0 = canonical_initial_state(sol)
        t_full = sol.period_info.T

        def return_error(k):
            # T / (T / 2^k) is exactly 2^k, so the run takes 2^k steps
            thetas, omegas = rk4_sample(theta0, omega0, [t_full], t_full / 2**k)
            return math.hypot(thetas[-1] - theta0, omegas[-1] - omega0)

        errors = [return_error(k) for k in (6, 7, 8, 9)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 < coarse / fine < 32.0

    def test_energy_drift_below_oracle_budget(self):
        sol = build_trajectory(energy_state(1.71), 4, "resummed")
        theta0, omega0 = canonical_initial_state(sol)
        ts = np.linspace(0.0, 4.0 * sol.period_info.T, 201)
        thetas, omegas = rk4_sample(theta0, omega0, ts, 1e-5)
        energies = 0.5 * omegas**2 + 1.0 - np.cos(thetas)
        assert np.max(np.abs(energies - 1.71)) < 1e-10

    def test_degenerate_and_invalid_inputs(self):
        thetas, omegas = rk4_sample(0.5, 0.0, [0.0], 1e-3)
        assert thetas.tolist() == [0.5] and omegas.tolist() == [0.0]
        with pytest.raises(ValueError):
            rk4_sample(0.0, 1.0, [1.0], 0.0)


class TestRk4Sample:
    def test_agrees_with_dense_run(self):
        # dt marginally above the grid step keeps one substep per dense
        # gap and seven per coarse gap: sampling must not change the run
        ts = np.linspace(0.0, 3.0, 3001)
        thetas, omegas = rk4_sample(0.4, -0.2, ts, 1.05e-3)
        got_t, got_w = rk4_sample(0.4, -0.2, ts[::7], 1.05e-3)
        assert_allclose(got_t, thetas[::7], rtol=0, atol=1e-12)
        assert_allclose(got_w, omegas[::7], rtol=0, atol=1e-12)

    def test_initial_sample_is_exact(self):
        thetas, omegas = rk4_sample(0.7, 0.3, [0.0, 1.0], 1e-3)
        assert thetas[0] == 0.7 and omegas[0] == 0.3

    def test_repeated_times_share_state(self):
        thetas, _ = rk4_sample(0.7, 0.3, [1.0, 1.0, 2.0], 1e-3)
        assert thetas[0] == thetas[1]

    def test_input_guards(self):
        with pytest.raises(ValueError):
            rk4_sample(0.0, 1.0, [], 1e-3)
        with pytest.raises(ValueError):
            rk4_sample(0.0, 1.0, [1.0, 0.5], 1e-3)
        with pytest.raises(ValueError):
            rk4_sample(0.0, 1.0, [-1.0, 0.5], 1e-3)
        with pytest.raises(ValueError):
            rk4_sample(0.0, 1.0, [0.0, 1.0], -1e-3)
        for dt in (math.inf, math.nan):
            with pytest.raises(ValueError):
                rk4_sample(0.0, 1.0, [0.0, 1.0], dt)
        for times in ([0.0, math.inf], [0.0, 1.0, math.nan, 2.0, 3.0], [math.nan]):
            with pytest.raises(ValueError):
                rk4_sample(1.0, 0.0, times, 1e-2)


class TestSupError:
    def test_report_shape(self):
        sol = build_trajectory(energy_state(1.71), 20, "resummed")
        report = sup_error(sol, grid_points=51)
        assert report.energy == 1.71
        assert report.method == "resummed"
        assert report.order == 20
        assert report.grid_points == 51
        assert report.grid_span == (0.0, sol.period_info.T_star)
        assert math.isfinite(report.sup_error) and report.sup_error >= 0.0

    def test_separatrix_needs_span_then_sits_at_floor(self):
        sol = build_trajectory(energy_state(2.0), method="separatrix")
        with pytest.raises(ValueError):
            sup_error(sol)
        report = sup_error(sol, span=5.0, grid_points=101, oracle_dt=1e-5)
        assert report.sup_error < 1e-10

    def test_resummed_beats_raw_at_same_order(self):
        state = energy_state(1.71)
        raw = sup_error(build_trajectory(state, 20, "raw"))
        res = sup_error(build_trajectory(state, 20, "resummed"))
        assert res.sup_error < raw.sup_error

    def test_error_shrinks_with_order(self):
        sol = build_trajectory(energy_state(1.71), 40, "raw")
        oracle, _ = rk4_sample(*canonical_initial_state(sol),
                               np.linspace(0.0, sol.period_info.T_star, 201), 1e-4)
        low = sup_error(sol, upto=6, grid_points=201, oracle=oracle)
        high = sup_error(sol, grid_points=201, oracle=oracle)
        assert high.sup_error < low.sup_error
        assert low.order == 6 and high.order == 40

    def test_partial_sums_match_direct_builds(self):
        # one high-order build must reproduce the low-order build exactly
        state = energy_state(1.71)
        big = build_trajectory(state, 40, "resummed")
        small = build_trajectory(state, 12, "resummed")
        grid = np.linspace(0.0, big.period_info.T_star, 201)
        oracle, _ = rk4_sample(*canonical_initial_state(big), grid, 1e-4)
        a = sup_error(big, upto=12, grid_points=201, oracle=oracle)
        b = sup_error(small, grid_points=201, oracle=oracle)
        assert a.sup_error == b.sup_error

    def test_partial_sums_respect_rotation_reflection(self):
        sol = build_trajectory(energy_state(2.02, 1), 36, "raw")
        report = sup_error(sol, upto=36, grid_points=201)
        assert report.sup_error < 1.5e-3

    @pytest.mark.parametrize("energy,direction",
                             [(0.5, 1), (1.71, 1), (2.02, -1), (5.0, 1)])
    def test_full_order_equals_partial_sum_at_full_order(self, energy, direction):
        # both paths measure the same raw polynomial on the same branch,
        # including its value at T*, which no seam rule may flip
        sol = build_trajectory(energy_state(energy, direction), 20, "raw")
        grid = np.linspace(0.0, sol.period_info.T_star, 1001)
        oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-3)
        full = sup_error(sol, oracle=oracle)
        partial = sup_error(sol, upto=sol.order, oracle=oracle)
        assert full.sup_error == partial.sup_error

    def test_guards(self):
        sol = build_trajectory(energy_state(1.71), 10, "resummed")
        with pytest.raises(ValueError):
            sup_error(sol, grid_points=1)
        with pytest.raises(ValueError):
            sup_error(sol, upto=5, span=2.0 * sol.period_info.T_star)
        with pytest.raises(ValueError):
            sup_error(sol, span=2.0 * sol.period_info.T_star)
        with pytest.raises(ValueError):
            sup_error(sol, span=-1.0, grid_points=11, oracle=np.zeros(11))
        with pytest.raises(ValueError):
            sup_error(sol, grid_points=11, oracle=np.zeros(10))
        eff = build_trajectory(energy_state(1.71), 10, "efficient")
        with pytest.raises(ValueError):
            sup_error(eff, upto=5)
        sep = build_trajectory(energy_state(2.0), method="separatrix")
        with pytest.raises(ValueError):
            sup_error(sep, upto=5, span=1.0)
        for span in (math.inf, math.nan):
            with pytest.raises(ValueError):
                sup_error(sep, span=span)
