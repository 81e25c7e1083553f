"""Power-series arithmetic and the pendulum coefficient recurrence."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pendseries import build_trajectory, energy_state, period
from pendseries.convergence import roc_exact
from pendseries.energy import _orbit_constants, canonical_top_ics, energy_of
from pendseries.series import SeriesCoefficients, eval_poly, pendulum_series
from pendseries.validation import rk4_sample


def taylor_by_cauchy_integral(f, order, radius=0.25, samples=256):
    """Independent Taylor-coefficient oracle via FFT on a complex circle."""
    phi = 2.0 * np.pi * np.arange(samples) / samples
    values = f(radius * np.exp(1j * phi))
    hats = np.fft.fft(values) / samples
    return (hats[: order + 1] / radius ** np.arange(order + 1)).real


def pendulum_series_by_fsum(theta0, omega0, order, h):
    """Second oracle: the docstring's s/c recurrence in Python floats, one
    exactly rounded `math.fsum` per order.

    Returns the coefficients and, for each, the scale its order's sum
    carries: h^2 sum_k |(k+1) a_{k+1} c_{n-1-k}| / (n (n+1) (n+2)) for
    a_{n+2}, |a_n| for n < 2.  Coefficients oscillate in sign, so one
    that falls near a sign change is a heavy cancellation and can only
    be held relative to that scale, not to its own size.
    """
    a = [theta0, omega0 * h] + [0.0] * (order - 1)
    scale = [abs(a[0]), abs(a[1])] + [0.0] * (order - 1)
    s, c, s_abs = [math.sin(theta0)], [math.cos(theta0)], [abs(math.sin(theta0))]
    for n in range(order - 1):
        a[n + 2] = -h * h * s[n] / ((n + 1) * (n + 2))
        scale[n + 2] = h * h * s_abs[n] / ((n + 1) * (n + 2))
        m = n + 1
        if m <= order - 2:
            d = [(k + 1) * a[k + 1] for k in range(m)]
            terms = [d[k] * c[n - k] for k in range(m)]
            s.append(math.fsum(terms) / m)
            s_abs.append(math.fsum(map(abs, terms)) / m)
            c.append(-math.fsum(d[k] * s[n - k] for k in range(m)) / m)
    return np.array(a), np.array(scale)


def _two_dot_series(theta0, omega0, order, h, sin_cos=None):
    """Reference kernel: every order 1..N on stride 1, two `np.dot` calls
    each, as the recurrence ran before it skipped the exactly zero orders
    of a start at rest or with sin(theta0) seeded 0."""
    h2 = h * h
    a = np.zeros(order + 1)
    a[0] = theta0
    a[1] = omega0 * h
    top = order - 2
    s_rev = np.zeros(top + 1)
    c_rev = np.zeros(top + 1)
    s_n, c_rev[top] = (math.sin(theta0), math.cos(theta0)) if sin_cos is None else sin_cos
    s_rev[top] = s_n
    d = np.zeros(order)
    for n in range(order - 1):
        a[n + 2] = -(h2 * s_n) / ((n + 1) * (n + 2))
        m = n + 1
        if m <= top:
            d[n] = m * a[m]
            s_n = float(np.dot(d[:m], c_rev[top - n :])) / m
            c_rev[top - m] = -float(np.dot(d[:m], s_rev[top - n :])) / m
            s_rev[top - m] = s_n
    return a


def _indexed_horner(a, t):
    """Reference `eval_poly`: Horner from a `np.full_like` start on t as an
    array (0-d for a scalar), reading each coefficient by index, the loop
    `eval_poly` ran before it moved to numpy scalars."""
    c = a.coeffs
    t = np.asarray(t, dtype=float) / a.time_unit
    acc = np.full_like(t, c[-1])
    for k in range(c.size - 2, -1, -1):
        acc = acc * t + c[k]
    return float(acc) if acc.ndim == 0 else acc


def _top_start(energy, seeded=False):
    """(theta0, omega0, seeds, T*) of the top start; `seeded` passes the
    exact (sin, cos) seeds that `build_trajectory` passes."""
    state = energy_state(energy)
    c = _orbit_constants(state)
    return c.theta0, c.omega0, c.sin_cos if seeded else None, period(state).T_star


def _roc_bottom_start(energy):
    """The bottom start (0, w*) as `roc` expands it, in units of its radius."""
    state = energy_state(energy)
    return 0.0, _orbit_constants(state).omega_star, None, roc_exact(state, "bottom").exact_roc


# (theta0, omega0, seeds, unit, orders at which unit 1 overflows): libration
# and rotation tops, the inverted rest point, a start at rest with omega0 =
# -0.0, the bottom start and a general one; unseeded, and seeded as the
# package builds them, each checked in its unit and in unit 1
PINNED_STARTS = {
    **{f"libration {e:g}": (*_top_start(e), ())
       for e in (1e-12, 1e-6, 0.5, 1.71, 1.9998, 2.0 - 1e-6)},
    **{f"rotation {e:g}": (*_top_start(e), ()) for e in (2.0 + 1e-6, 5.0)},
    "rotation 10000": (*_top_start(1e4), (1000, 4999)),
    "inverted at rest": (math.pi, 0.0, None, 1.0, ()),
    "at rest -0.0": (1.0, -0.0, None, period(energy_of(1.0, -0.0)).T_star, ()),
    "bottom 0.5": (0.0, 1.0, None, 1.0, ()),
    "general": (0.3, 0.7, None, 1.0, ()),
    **{f"seeded rotation {e:g}": (*_top_start(e, seeded=True), ()) for e in (2.0 + 1e-6, 5.0)},
    "seeded rotation 10000": (*_top_start(1e4, seeded=True), (1000, 4999)),
    **{f"roc bottom {e:g}": (*_roc_bottom_start(e), ()) for e in (0.5, 1.71, 5.0)},
}


class TestSeriesCoefficients:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SeriesCoefficients([1.0, math.nan])
        with pytest.raises(ValueError):
            SeriesCoefficients([math.inf])

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]]])
    def test_rejects_empty_or_not_a_vector(self, coeffs):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            SeriesCoefficients(coeffs)

    def test_immutable(self):
        a = SeriesCoefficients([1.0, 2.0])
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0

    def test_truncation_order(self):
        assert SeriesCoefficients([3.0, 0.0, 1.0]).truncation_order == 2


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly(SeriesCoefficients([5.0]), 3.7) == 5.0

    def test_truncated_exponential(self):
        coeffs = [1.0 / math.factorial(n) for n in range(11)]
        assert abs(eval_poly(SeriesCoefficients(coeffs), 1.0) - math.e) < 1e-7

    def test_truncated_sine(self):
        # remainder is the first dropped term, 0.5^7/5040 = 1.55e-6
        coeffs = SeriesCoefficients([0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0])
        assert abs(eval_poly(coeffs, 0.5) - math.sin(0.5)) < 2e-6

    def test_takes_no_truncation_order(self):
        # an order-n partial sum is the order-n build, or a slice of a larger one
        coeffs = SeriesCoefficients([1.0, -2.0, 0.5, 0.25, 3.0])
        with pytest.raises(TypeError):
            eval_poly(coeffs, 0.3, upto=3)
        with pytest.raises(TypeError):
            eval_poly(coeffs, 0.3, 3)

    def test_array_matches_scalar(self):
        coeffs = SeriesCoefficients([1.0, -2.0, 0.5, 0.25])
        ts = np.linspace(-1.0, 1.0, 7)
        out = eval_poly(coeffs, ts)
        for t, v in zip(ts, out):
            assert v == eval_poly(coeffs, float(t))

    @pytest.mark.parametrize("t", [0.3, 2, np.float64(0.3), np.array(0.3), np.array(2)])
    @pytest.mark.parametrize("coeffs", [[5.0], [1.0, -2.0, 0.5, 0.25]])
    def test_scalar_gives_a_python_float(self, coeffs, t):
        assert type(eval_poly(SeriesCoefficients(coeffs), t)) is float

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,), (0, 3)])
    @pytest.mark.parametrize("coeffs", [[5.0], [1.0, -2.0, 0.5, 0.25]])
    def test_array_gives_the_shape_of_t(self, coeffs, shape):
        t = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
        out = eval_poly(SeriesCoefficients(coeffs), t)
        assert isinstance(out, np.ndarray)
        assert out.shape == shape and out.dtype == np.float64

    def test_constant_series_is_its_value_at_every_t(self):
        # a one-coefficient series runs no Horner step, so t never enters
        const = SeriesCoefficients([5.0])
        out = eval_poly(const, np.array([math.nan, math.inf, -math.inf, 1.0]))
        assert out.tolist() == [5.0, 5.0, 5.0, 5.0]
        assert eval_poly(const, math.nan) == 5.0
        assert eval_poly(const, -math.inf) == 5.0


class TestEvalPolyBits:
    """`eval_poly` on numpy scalars rounds the same two operations per step
    as the indexed loop over 0-d arrays (`_indexed_horner`), so every value
    carries the same bits, on scalars and arrays alike."""

    # TestFoldReference's energies that carry a series branch (E = 2 is the
    # closed form), and two branches at their radius-sized orders
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("energy, order", [
        *[(e, 40) for e in (1e-10, 1e-4, 0.5, 1.71, 1.9998, 2.02, 5.0, 1e3)],
        (1.9998, 1004), (2.0 - 1e-10, 4999)])
    @pytest.mark.parametrize("method", ["raw", "resummed"])
    def test_bit_identical_to_the_indexed_loop(self, method, energy, order, direction):
        sol = build_trajectory(energy_state(energy, direction), order, method)
        branch, t_star = sol.branch, sol.period_info.T_star
        ts = [0.0, t_star, -0.0, *np.linspace(0.0, t_star, 101).tolist()]
        for t in ts:
            assert float.hex(eval_poly(branch, t)) == float.hex(_indexed_horner(branch, t)), t
        arr = np.array(ts)
        assert eval_poly(branch, arr).tobytes() == _indexed_horner(branch, arr).tobytes()


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

    @pytest.mark.parametrize("energy", [0.5, 1.9998, 5.0])
    @pytest.mark.parametrize("order", [2, 3, 20, 200, 1000])
    def test_matches_fsum_recurrence(self, energy, order):
        # in units of T*, as build_trajectory carries the branch, so the
        # high orders stay in double range
        state = energy_state(energy)
        theta0, omega0 = canonical_top_ics(state)
        h = period(state).T_star
        got = pendulum_series(theta0, omega0, order, time_unit=h).coeffs
        ref, scale = pendulum_series_by_fsum(theta0, omega0, order, h)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_odd_coefficients_vanish_at_turning_point(self, rng):
        for _ in range(10):
            theta0 = float(rng.uniform(0.05, 3.0))
            a = pendulum_series(theta0, 0.0, 31).coeffs
            assert np.all(a[1::2] == 0.0)

    @pytest.mark.parametrize("name", sorted(PINNED_STARTS))
    def test_matches_two_dot_kernel(self, name):
        # equal by value: the reference leaves -0.0 where a start with a
        # parity skips an exactly zero order and keeps +0.0
        theta0, omega0, seeds, own_unit, overflows = PINNED_STARTS[name]
        raised = []
        for order in (2, 3, 4, 5, 6, 7, 41, 200, 1000, 4999):
            for unit in (1.0, own_unit):
                try:
                    want = _two_dot_series(theta0, omega0, order, unit, seeds)
                except RuntimeWarning as exc:
                    raised.append(order)
                    with pytest.raises(RuntimeWarning, match=re.escape(str(exc))):
                        pendulum_series(theta0, omega0, order, time_unit=unit, sin_cos=seeds)
                    continue
                got = pendulum_series(theta0, omega0, order, time_unit=unit,
                                      sin_cos=seeds).coeffs
                assert np.array_equal(got, want), (order, unit)
        assert tuple(raised) == overflows

    # a libration top by its energy, or a `PINNED_STARTS` name
    @pytest.mark.parametrize("start", [0.5, 1.71, 1.9998, "at rest -0.0", "inverted at rest"])
    def test_start_at_rest_never_writes_odd_orders(self, start):
        theta0, omega0, seeds, unit = (
            PINNED_STARTS[start][:4] if isinstance(start, str) else _top_start(start))
        # the inverted rest point's even orders underflow to 0 from order 204 on
        order = 41 if start == "inverted at rest" else 1000
        a = pendulum_series(theta0, omega0, order, time_unit=unit, sin_cos=seeds).coeffs
        # a_1 = h omega0 keeps the sign of omega0's zero
        assert a[1] == 0.0 and np.signbit(a[1]) == np.signbit(omega0)
        assert np.all(a[3::2] == 0.0)
        assert not np.any(np.signbit(a[3::2]))
        assert np.all(a[2::2] != 0.0)

    # a rotation top, seeded, by its energy, or a `PINNED_STARTS` name with
    # sin(theta0) exactly 0; at E = 1e4 the odd orders underflow to 0 from
    # order 563 on, and at the bottom in unit 1 from order 963 on
    @pytest.mark.parametrize("start,order", [
        (2.0 + 1e-6, 1000), (5.0, 1000), (1e4, 500), ("bottom 0.5", 500),
        ("roc bottom 0.5", 1000), ("roc bottom 1.71", 1000), ("roc bottom 5", 1000)])
    def test_seeded_rotation_top_never_writes_even_orders(self, start, order):
        theta0, omega0, seeds, unit = (
            PINNED_STARTS[start][:4] if isinstance(start, str) else _top_start(start, seeded=True))
        a = pendulum_series(theta0, omega0, order, time_unit=unit, sin_cos=seeds).coeffs
        assert np.all(a[2::2] == 0.0)
        assert not np.any(np.signbit(a[2::2]))
        assert np.all(a[1::2] != 0.0)

    def test_sin_cos_replaces_the_default_seeds(self):
        for theta0, omega0 in ((2.3, 0.0), (0.3, 0.7)):
            seeds = (math.sin(theta0), math.cos(theta0))
            assert np.array_equal(pendulum_series(theta0, omega0, 40, sin_cos=seeds).coeffs,
                                  pendulum_series(theta0, omega0, 40).coeffs)
        # seeded exactly, the inverted rest point stays at rest
        coeffs = pendulum_series(math.pi, 0.0, 10, sin_cos=(0.0, -1.0)).coeffs
        assert coeffs[0] == math.pi and np.all(coeffs[1:] == 0.0)

    def test_small_time_against_rk4(self):
        a = pendulum_series(1.2, -0.3, 30)
        thetas, _ = rk4_sample(1.2, -0.3, [0.5], 1e-5)
        assert abs(eval_poly(a, 0.5) - thetas[-1]) < 1e-12

    def test_order_n_series_is_a_prefix_of_a_longer_series(self):
        # roc's bottom starts, in units of their radius, and a general start
        bottoms = (1e-12, 0.5, 1.71, 1.9998, 2.0 - 1e-6, 2.0 + 1e-6, 2.02, 5.0, 1e4)
        starts = [*map(_roc_bottom_start, bottoms), PINNED_STARTS["general"][:4]]
        for theta0, omega0, seeds, unit in starts:
            longer = pendulum_series(theta0, omega0, 400, time_unit=unit, sin_cos=seeds).coeffs
            for n in (2, 3, 7, 20, 40, 81, 200):
                series = pendulum_series(theta0, omega0, n, time_unit=unit, sin_cos=seeds)
                assert series.coeffs.tobytes() == longer[:n + 1].tobytes(), (omega0, n)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            pendulum_series(1.0, 0.0, 1)

    def test_order_is_never_truncated(self):
        assert pendulum_series(1.0, 0.0, 20.0).truncation_order == 20
        with pytest.raises(ValueError, match="order must be an integer"):
            pendulum_series(1.0, 0.0, 20.9)

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
