"""The RK4 oracle and the sup-norm comparison against it."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import (
    SeparatrixError,
    build_trajectory,
    canonical_initial_state,
    energy_state,
    sup_error,
    theta_at,
    theta_tilde,
)
from pendseries import validation
from pendseries.energy import separatrix_theta
from pendseries.series import eval_poly
from pendseries.trajectory import _orient
from pendseries.validation import rk4_sample


def _textbook_advance(theta, omega, h, steps, sin=math.sin):
    # the classic four-stage step as first written, kept as the bit reference
    for _ in range(steps):
        k1t = omega
        k1w = -sin(theta)
        k2t = omega + 0.5 * h * k1w
        k2w = -sin(theta + 0.5 * h * k1t)
        k3t = omega + 0.5 * h * k2w
        k3w = -sin(theta + 0.5 * h * k2t)
        k4t = omega + h * k3w
        k4w = -sin(theta + h * k3t)
        theta += h * (k1t + 2.0 * (k2t + k3t) + k4t) / 6.0
        omega += h * (k1w + 2.0 * (k2w + k3w) + k4w) / 6.0
    return theta, omega


def _textbook_sample(theta0, omega0, times, dt):
    ts = np.asarray(times, dtype=float)
    thetas = np.empty(ts.size)
    omegas = np.empty(ts.size)
    theta, omega = theta0, omega0
    prev = 0.0
    for i, t in enumerate(ts):
        span = t - prev
        if span > 0.0:
            steps = math.ceil(span / dt)
            theta, omega = _textbook_advance(theta, omega, span / steps, steps)
        thetas[i] = theta
        omegas[i] = omega
        prev = t
    return thetas, omegas


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

    def test_fourth_order_self_convergence(self):
        # reference is the closed form, so only truncation error remains;
        # dt below 2e-3 hits the rounding floor on this span
        ts = np.linspace(0.0, 5.0, 101)
        exact = np.array([separatrix_theta(t) for t in ts])

        def err(dt):
            thetas, _ = rk4_sample(0.0, 2.0, ts, dt)
            return np.max(np.abs(thetas - exact))

        e8, e4, e2 = err(8e-3), err(4e-3), err(2e-3)
        assert 8.0 < e8 / e4 < 32.0
        assert 8.0 < e4 / e2 < 32.0

    def test_period_return_convergence_off_separatrix(self):
        sol = build_trajectory(energy_state(0.5), 10, "resummed")
        theta0, omega0 = canonical_initial_state(sol)
        t_full = sol.T

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
        ts = np.linspace(0.0, 4.0 * sol.T, 201)
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

    @pytest.mark.parametrize("theta0,omega0", [(math.nan, 0.0), (0.5, math.inf)])
    def test_non_finite_start_rejected(self, theta0, omega0):
        # NaN used to run to NaN columns, inf to a bare "math domain error"
        with pytest.raises(ValueError, match="start must be finite"):
            rk4_sample(theta0, omega0, [1.0], 0.1)

    @pytest.mark.parametrize("dt", [5e-324, np.float64(5e-324)], ids=["float", "float64"])
    def test_too_small_dt_rejected(self, dt):
        # span / dt overflowed to a bare OverflowError from math.ceil
        with pytest.raises(ValueError, match=r"dt = 5e-324 .* span 0\.1"):
            rk4_sample(0.1, 0.0, [1e-3, 0.1], dt)

    def test_steps_on_python_floats(self, monkeypatch):
        # numpy scalars give the same bits several times slower per step
        seen = []
        advance = validation._rk4_advance

        def spy(theta, omega, h, steps):
            seen.append((theta, omega, h))
            return advance(theta, omega, h, steps)

        monkeypatch.setattr(validation, "_rk4_advance", spy)
        rk4_sample(np.float64(0.4), np.float64(-0.2), np.linspace(0.0, 1.0, 5),
                   np.float64(1e-2))
        assert len(seen) == 4
        assert all(type(x) is float for call in seen for x in call)

    @pytest.mark.parametrize("theta0,omega0", [
        (2.0, 0.5),   # libration, E = 1.54
        (0.3, 2.4),   # rotation, E = 2.92
        (0.0, 2.0),   # separatrix, E = 2 exactly
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dt", [1e-2, 1.05e-3, 3e-4])
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_bits_match_textbook_step(self, theta0, omega0, sign, dt, scalar):
        times = [0.0, 0.25, 0.25, 1.0, 1.7, 1.7, 1.7, 3.0]
        want = _textbook_sample(theta0, sign * omega0, times, dt)
        got = rk4_sample(scalar(theta0), scalar(sign * omega0),
                         times if scalar is float else np.array(times), scalar(dt))
        for g, w in zip(got, want):
            assert [x.hex() for x in g.tolist()] == [x.hex() for x in w.tolist()]


class TestSupError:
    def test_returns_the_sup_norm_as_a_float(self):
        sol = build_trajectory(energy_state(1.71), 20, "resummed")
        grid = np.linspace(0.0, sol.T_star, 51)
        oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-4)
        err = sup_error(sol, grid_points=51)
        assert type(err) is float
        assert err == np.max(np.abs(theta_at(sol, grid) - oracle))

    def test_separatrix_has_no_branch_to_measure(self):
        kwargs = ({}, {"grid_points": 11, "oracle": np.zeros(11)})
        for direction in (1, -1):
            sol = build_trajectory(energy_state(2.0, direction), None, "separatrix")
            for kw in kwargs:
                with pytest.raises(SeparatrixError, match=r"no branch on \[0, T\*\]"):
                    sup_error(sol, **kw)

    @pytest.mark.parametrize("energy,orders", [(1.0, (5, 10)), (1.71, (6, 40)), (2.5, (5, 10))])
    def test_error_shrinks_with_order(self, energy, orders):
        state = energy_state(energy, 1 if energy < 2 else -1)
        low, high = (build_trajectory(state, n, "raw") for n in orders)
        oracle, _ = rk4_sample(*canonical_initial_state(high),
                               np.linspace(0.0, high.T_star, 201), 1e-4)
        assert (sup_error(high, grid_points=201, oracle=oracle)
                < sup_error(low, grid_points=201, oracle=oracle))

    @pytest.mark.parametrize("direction", [1, -1])
    def test_rotation_raw_branch_in_either_sense(self, direction):
        # the N = 36 raw branch's sup error is 1.29e-3, dominated by the last
        # tenth of [0, T*]; the reflected orbit is measured in its own sense
        sol = build_trajectory(energy_state(2.02, direction), 36, "raw")
        assert sup_error(sol, grid_points=1001, oracle_dt=1e-5) < 1.5e-3

    @pytest.mark.parametrize("energy,direction",
                             [(0.5, 1), (1.71, 1), (2.02, -1), (5.0, 1)])
    def test_full_order_equals_partial_sum_at_full_order(self, energy, direction):
        # sup_error measures the branch itself, the raw polynomial's partial
        # sum at its full order, with its non-zero value at T*: theta_at
        # would fold t = T* onto branch 1 and read -theta~(T*) there instead
        state = energy_state(energy, direction)
        sol = build_trajectory(state, 20, "raw")
        grid = np.linspace(0.0, sol.T_star, 1001)
        oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-3)
        branch = theta_tilde(sol, grid)
        assert branch.tobytes() == eval_poly(sol.branch, grid).tobytes()
        assert branch[-1] != 0.0
        expected = np.max(np.abs(_orient(state, branch) - oracle))
        assert sup_error(sol, oracle=oracle) == expected

    def test_grid_points_is_never_truncated(self):
        # np.linspace used to raise a bare TypeError for 51.0
        sol = build_trajectory(energy_state(1.71), 10, "resummed")
        oracle = np.zeros(51)
        assert (sup_error(sol, grid_points=51.0, oracle=oracle)
                == sup_error(sol, grid_points=51, oracle=oracle))
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            sup_error(sol, grid_points=50.5, oracle=oracle)

    def test_guards(self):
        sol = build_trajectory(energy_state(1.71), 10, "resummed")
        with pytest.raises(ValueError):
            sup_error(sol, grid_points=1)
        with pytest.raises(ValueError):
            sup_error(sol, grid_points=11, oracle=np.zeros(10))

    def test_takes_no_partial_sum_order(self):
        # the order-n branch is build_trajectory(state, n, method); a second
        # argument, by keyword or by position, is not read as an order
        sol = build_trajectory(energy_state(1.71), 10, "resummed")
        with pytest.raises(TypeError):
            sup_error(sol, upto=5)
        with pytest.raises(TypeError):
            sup_error(sol, 5)
