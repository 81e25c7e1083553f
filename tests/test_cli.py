"""Command-line artifact generation, exercised through cli.main."""

import argparse
import csv
import io
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from pendseries import canonical_initial_state, cli, energy_state, period, sup_error
from pendseries.elliptic import evaluate_k
from pendseries.energy import _orbit_constants
from pendseries.validation import rk4_sample


def run_csv(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out


def parse_csv(path):
    meta, data = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        (meta if line.startswith("#") else data).append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    return meta, rows[0], rows[1:]


def column(rows, header, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


class TestTrajectoryCommand:
    def test_header_and_grid(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "trajectory", "--energy", "1.71", "--method", "resummed",
            "--order", "40", "--grid", "101", "--oracle-dt", "1e-3"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta[0].startswith(f"# pendseries {cli.__version__} trajectory")
        assert meta[1].startswith("# config: ")
        assert "energy=1.71" in meta[2] and "method=resummed" in meta[2]
        assert header == ["t", "theta_analytic", "theta_rk4", "abs_error"]
        assert len(rows) == 101
        assert np.max(column(rows, header, "abs_error")) < 1e-8

    def test_deterministic_bytes(self, tmp_path):
        argv = ["trajectory", "--energy", "2.02", "--method", "raw",
                "--order", "12", "--grid", "41", "--oracle-dt", "1e-2"]
        run_csv(tmp_path, argv)
        first = (tmp_path / "out.csv").read_bytes()
        run_csv(tmp_path, argv)
        assert (tmp_path / "out.csv").read_bytes() == first
        assert b"\r" not in first

    def test_auto_dispatches_separatrix(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "trajectory", "--energy", "2", "--grid", "101"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert any("method=separatrix" in line for line in meta)
        assert np.max(column(rows, header, "abs_error")) < 1e-9
        # span falls back to 2*pi per "period" on the infinite-period orbit
        assert float(rows[-1][0]) == pytest.approx(2.0 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("method", ["raw", "resummed"])
    def test_series_method_at_separatrix_is_noted(self, tmp_path, capsys, method):
        # the CLI takes the closed form itself: one note, no library warning
        argv = ["trajectory", "--energy", "2", "--grid", "21", "--oracle-dt", "1e-2"]
        run_csv(tmp_path, argv, "auto.csv")
        assert capsys.readouterr().err == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_csv(tmp_path, argv + ["--method", method])
        assert code == 0
        assert capsys.readouterr().err == (
            f"note: energy=2 is the separatrix: using the closed form "
            f"instead of method '{method}'\n")
        meta, header, rows = parse_csv(out)
        auto_meta, _, auto_rows = parse_csv(tmp_path / "auto.csv")
        assert meta[2:] == auto_meta[2:] and "method=separatrix" in meta[2]
        assert rows == auto_rows

    def test_energy_next_to_the_separatrix(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "trajectory", "--energy", "1.99999", "--grid", "65",
            "--oracle-dt", "1e-2"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 65


@pytest.mark.parametrize("argv,angles", [
    (["trajectory", "--energy", "1.0", "--order", "10", "--grid", "21",
      "--oracle-dt", "1e-2"], ["theta_analytic", "theta_rk4", "abs_error"]),
    (["error-sweep", "--energy", "1.0,2.5", "--order", "5,10", "--grid", "21",
      "--oracle-dt", "1e-2"], ["sup_error"]),
    (["surface", "--energy", "1.0,2.0,2.5", "--order", "10", "--grid", "21"], ["theta"]),
], ids=["trajectory", "error-sweep", "surface"])
def test_degrees_only_rescales_display(tmp_path, argv, angles):
    _, out = run_csv(tmp_path, argv, "rad.csv")
    rad_meta, header, rad = parse_csv(out)
    _, out = run_csv(tmp_path, argv + ["--degrees"], "deg.csv")
    deg_meta, _, deg = parse_csv(out)
    assert deg_meta[2:] == rad_meta[2:]
    for name in header:
        if name in angles:
            np.testing.assert_allclose(column(deg, header, name),
                                       np.degrees(column(rad, header, name)), rtol=1e-15)
        else:  # time, energy, order and method untouched
            i = header.index(name)
            assert [r[i] for r in deg] == [r[i] for r in rad], name


def test_period_sweep_ignores_degrees(tmp_path):
    argv = ["error-sweep", "--period", "--energy", "0.5,2.5", "--order", "5,10"]
    _, out = run_csv(tmp_path, argv, "rad.csv")
    rad_meta, _, rad = parse_csv(out)
    _, out = run_csv(tmp_path, argv + ["--degrees"], "deg.csv")
    deg_meta, _, deg = parse_csv(out)
    assert deg_meta[2:] == rad_meta[2:] and deg == rad


class TestErrorSweepCommand:
    def test_period_sweep_resummed_beats_long_raw(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "error-sweep", "--period", "--energy", "1.9998",
            "--order", "10,100"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["energy", "order", "method", "T_star_abs_error"]
        err = {(r[1], r[2]): float(r[3]) for r in rows}
        assert err[("10", "resummed")] < err[("100", "series")]

    def test_period_sweep_rows_are_the_k_routes(self, tmp_path):
        # each row is |scale K_route(k) - T*|, rotations (scale = k) included
        code, out = run_csv(tmp_path, [
            "error-sweep", "--period", "--energy", "0.3,1.9998,2.02,5,300",
            "--order", "2,10,100"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [(float(r[0]), r[1], r[2]) for r in rows] == [
            (e, n, route) for e in (0.3, 1.9998, 2.02, 5.0, 300.0)
            for n in ("2", "10", "100") for route in ("series", "resummed")]
        for e, n, route, err in rows:
            state = energy_state(float(e))
            c = _orbit_constants(state)
            approx = c.scale * evaluate_k(c.k, route, int(n)).value
            assert err == cli._fmt(abs(approx - period(state).T_star))

    def test_separatrix_rows_are_skipped_not_faked(self, tmp_path, capsys):
        code, out = run_csv(tmp_path, [
            "error-sweep", "--period", "--energy", "1.5,2.0,3.0",
            "--order", "5"])
        assert code == 1
        assert "separatrix" in capsys.readouterr().err
        _, header, rows = parse_csv(out)
        assert {r[0] for r in rows} == {"1.5", "3"}
        assert len(rows) == 4  # 2 energies x {series, resummed}

    def test_trajectory_sweep_orders_methods(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "error-sweep", "--energy", "1.0,2.5", "--order", "5,10",
            "--grid", "101", "--oracle-dt", "1e-3"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["energy", "order", "method", "sup_error"]
        err = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        assert len(err) == 8  # 2 energies x 2 orders x {raw, resummed}
        for e in ("1", "2.5"):
            for n in ("5", "10"):
                assert err[(e, n, "resummed")] <= err[(e, n, "raw")]
            assert err[(e, "10", "raw")] < err[(e, "5", "raw")]

    @pytest.mark.parametrize("method,builds", [
        ("raw", [(5, "raw"), (10, "raw")]),
        ("auto", [(5, "raw"), (5, "resummed"), (10, "raw"), (10, "resummed")]),
    ])
    def test_trajectory_sweep_builds_only_the_requested_methods(
            self, tmp_path, monkeypatch, method, builds):
        calls = []
        real_build = cli.build_trajectory

        def counting_build(state, order, method="resummed"):
            calls.append((order, method))
            return real_build(state, order, method)

        monkeypatch.setattr(cli, "build_trajectory", counting_build)
        code, _ = run_csv(tmp_path, [
            "error-sweep", "--energy", "1.0", "--order", "5,10", "--method", method,
            "--grid", "11", "--oracle-dt", "1e-2"])
        assert code == 0
        assert sorted(calls) == builds

    @pytest.mark.parametrize("direction", ["cw", "ccw"])
    @pytest.mark.parametrize("method", ["auto", "resummed"])
    def test_trajectory_sweep_rows_are_direct_builds(self, tmp_path, method, direction):
        # each row measures build_trajectory(state, n, method) against one
        # RK4 oracle per energy
        code, out = run_csv(tmp_path, [
            "error-sweep", "--energy", "0.5,2.02", "--order", "4,9", "--grid", "41",
            "--oracle-dt", "1e-2", "--method", method, "--direction", direction])
        assert code == 0
        _, _, rows = parse_csv(out)
        methods = ["raw", "resummed"] if method == "auto" else [method]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (e, n, m) for e in ("0.5", "2.02") for m in methods for n in ("4", "9")]
        for e, n, m, err in rows:
            sol = cli.build_trajectory(cli._state(float(e), direction), int(n), m)
            grid = np.linspace(0.0, sol.period_info.T_star, 41)
            oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-2)
            assert err == cli._fmt(sup_error(sol, grid_points=41, oracle=oracle))


class TestSurfaceCommand:
    def test_libration_reflection(self, tmp_path):
        argv = ["surface", "--energy", "0.5,1.0", "--order", "12",
                "--grid", "33", "--periods", "1"]
        _, out = run_csv(tmp_path, argv, "cw.csv")
        _, header, cw = parse_csv(out)
        assert header == ["energy", "t", "theta"]
        _, out = run_csv(tmp_path, argv + ["--direction", "ccw"], "ccw.csv")
        _, _, ccw = parse_csv(out)
        assert np.all(column(ccw, header, "theta") == -column(cw, header, "theta"))

    def test_rotation_winds_monotonically(self, tmp_path):
        _, out = run_csv(tmp_path, [
            "surface", "--energy", "2.5", "--order", "30",
            "--grid", "257", "--periods", "2"])
        _, header, rows = parse_csv(out)
        theta = column(rows, header, "theta")
        assert np.all(np.diff(theta) < 0.0)  # clockwise, no backtracking
        assert theta[0] - theta[-1] == pytest.approx(4.0 * math.pi, abs=1e-9)

    def test_separatrix_energy_uses_closed_form(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "surface", "--energy", "1.9,2.0,2.1", "--grid", "65"])
        assert code == 0
        _, header, rows = parse_csv(out)
        sep = [r for r in rows if r[0] == "2"]
        assert len(sep) == 65
        assert np.all(np.abs(column(sep, header, "theta")) < math.pi)

    def test_energies_next_to_the_separatrix(self, tmp_path):
        code, out = run_csv(tmp_path, [
            "surface", "--energy", "1.99999,2.00001", "--grid", "33"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 66
        assert np.all(np.isfinite(column(rows, header, "theta")))

    def test_smallest_energy_swings_to_theta_max(self, tmp_path):
        # at E = 5e-324 the start used to round to theta = 0, a curve of zeros
        code, out = run_csv(tmp_path, ["surface", "--energy", "5e-324", "--grid", "9"])
        assert code == 0
        _, header, rows = parse_csv(out)
        theta = column(rows, header, "theta")
        theta_max = math.sqrt(2.0 * 5e-324)  # 2 asin(sqrt(E/2)), 3.14e-162
        assert theta[::2] == pytest.approx(theta_max * np.array([1, -1, 1, -1, 1]),
                                           rel=1e-15, abs=0.0)
        assert np.all(np.abs(theta[1::2]) < 1e-12 * theta_max)


class TestRocCommand:
    def test_report_rows(self, tmp_path):
        code, out = run_csv(tmp_path, ["roc", "--energy", "1.71,2.02,5"])
        assert code == 0
        _, header, rows = parse_csv(out)
        rec = {(r[0], r[1]): r for r in rows}
        assert len(rec) == 6

        def margin(key):
            return float(rec[key][header.index("margin")])

        assert margin(("1.71", "top")) > 0.0
        assert margin(("2.02", "bottom")) < 0.0  # diverges before T*
        assert margin(("5", "bottom")) > 0.0
        exact = float(rec[("1.71", "top")][header.index("exact_roc")])
        estimate = float(rec[("1.71", "top")][header.index("root_test_estimate")])
        assert abs(estimate - exact) / exact < 0.02

    def test_nearest_pole_is_on_the_circle(self, tmp_path):
        _, out = run_csv(tmp_path, ["roc", "--energy", "1.71,2.02,5", "--order", "100"])
        _, header, rows = parse_csv(out)
        assert len(rows) == 6
        for row in rows:
            pole = complex(float(row[header.index("nearest_pole_re")]),
                           float(row[header.index("nearest_pole_im")]))
            start = 0.0 if row[1] == "top" else float(row[header.index("t_star")])
            assert abs(pole - start) == pytest.approx(
                float(row[header.index("exact_roc")]), rel=1e-12), row[:2]

    def test_estimate_keeps_improving_near_separatrix(self, tmp_path):
        # plain coefficients underflow here and stall the estimate
        _, out = run_csv(tmp_path, ["roc", "--energy", "2.0002", "--order", "2000"])
        _, header, rows = parse_csv(out)
        for row in rows:
            exact = float(row[header.index("exact_roc")])
            estimate = float(row[header.index("root_test_estimate")])
            assert estimate == pytest.approx(exact, rel=1e-3)


    def test_pre_asymptotic_rows_are_noted(self, tmp_path, capsys):
        # at E = 1e300, 3|omega0|R is about 2079 for both starts: at order
        # 400 the coefficients still grow like (omega0 R)^n / n! and the
        # estimate is 0.43 of the exact radius
        code, out = run_csv(tmp_path, ["roc", "--energy", "1e300"])
        assert code == 0
        err = capsys.readouterr().err
        for ics in ("top", "bottom"):
            assert (f"ics={ics} is pre-asymptotic: order 400 < "
                    f"max(3|omega0|, 5)R = 2079") in err
        _, header, rows = parse_csv(out)
        assert all(float(r[header.index("root_test_estimate")]) > 0.0 for r in rows)
        # the README energies are well past their thresholds (12 at most)
        run_csv(tmp_path, ["roc", "--energy", "1.71,2.02,5"])
        assert "pre-asymptotic" not in capsys.readouterr().err

    def test_small_energy_rows_are_noted_below_five_radii(self, tmp_path, capsys):
        # at E = 1e-300 the orbit is theta_max cos t, of frequency 1, so in
        # units of R = 347 the coefficients grow like R^n / n! from either
        # start, the top at rest included: at order 400 the estimate is
        # 0.86 of the exact radius, and it settles by about 4.6 R
        run_csv(tmp_path, ["roc", "--energy", "1e-300"])
        err = capsys.readouterr().err
        for ics in ("top", "bottom"):
            assert f"ics={ics} is pre-asymptotic: order 400 < max(3|omega0|, 5)R = " in err
        _, out = run_csv(tmp_path, ["roc", "--energy", "1e-300", "--order", "2000"])
        assert "pre-asymptotic" not in capsys.readouterr().err
        _, header, rows = parse_csv(out)
        for row in rows:
            exact = float(row[header.index("exact_roc")])
            estimate = float(row[header.index("root_test_estimate")])
            assert estimate == pytest.approx(exact, rel=0.02), row[1]

    def test_smallest_energy_reports(self, tmp_path, capsys):
        # at E = 5e-324, k = sqrt(E/2) used to round to 0 and K'(0) raised
        code, out = run_csv(tmp_path, ["roc", "--energy", "5e-324"])
        assert code == 0
        capsys.readouterr()
        _, header, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["top", "bottom"]
        for name in ("exact_roc", "t_star", "margin"):
            assert np.all(np.isfinite(column(rows, header, name))), name

    def test_too_few_coefficients_leave_the_estimate_empty(self, tmp_path, capsys):
        # at order 60 a libration series is nonzero only in its even (top)
        # or odd (bottom) orders, too few for the root test: the rows stay,
        # with a note and a blank estimate
        code, out = run_csv(tmp_path, ["roc", "--energy", "1.71", "--order", "60"])
        assert code == 0
        err = capsys.readouterr().err
        for ics, got in (("top", 31), ("bottom", 30)):
            assert (f"no root-test estimate for energy=1.71 ics={ics}: "
                    f"need at least 50 nonzero coefficients, got {got}") in err
        _, header, rows = parse_csv(out)
        assert [r[header.index("root_test_estimate")] for r in rows] == ["", ""]


USAGE_ERRORS = [
    (["trajectory"], "the following arguments are required: --energy\n"),
    (["trajectory", "--energy", "1.0,2.5"],
     "argument --energy: takes a single value, got '1.0,2.5'\n"),
    (["trajectory", "--energy", "1.0", "--order", "1"],
     "argument --order: must be finite and >= 2, got 1\n"),
    (["trajectory", "--energy", "-0.5"], "argument --energy: must be finite and > 0, got -0.5\n"),
    (["trajectory", "--energy", "1.0", "--grid", "1"],
     "argument --grid: must be finite and >= 2, got 1\n"),
    (["trajectory", "--energy", "1.0", "--periods", "0"],
     "argument --periods: must be finite and >= 1, got 0\n"),
    (["trajectory", "--energy", "1.0", "--oracle-dt", "0"],
     "argument --oracle-dt: must be finite and > 0, got 0.0\n"),
    # the rest of this message differs between Python versions
    (["trajectory", "--energy", "1.0", "--direction", "up"],
     "argument --direction: invalid choice: 'up'"),
    (["error-sweep", "--energy", "1.0", "--order", "5,1"],
     "argument --order: must be finite and >= 2, got 1\n"),
    (["trajectory", "--energy", "nan"], "argument --energy: must be finite and > 0, got nan\n"),
    (["trajectory", "--energy", "inf"], "argument --energy: must be finite and > 0, got inf\n"),
    (["surface", "--energy", "1,inf"], "argument --energy: must be finite and > 0, got inf\n"),
    (["trajectory", "--energy", "1.0", "--oracle-dt", "inf"],
     "argument --oracle-dt: must be finite and > 0, got inf\n"),
    (["trajectory", "--energy", "1.0", "--oracle-dt", "nan"],
     "argument --oracle-dt: must be finite and > 0, got nan\n"),
    (["trajectory", "--energy", "1.0", "--grid", "1,2"],
     "argument --grid: takes a single value, got '1,2'\n"),
]


class TestUsageErrors:
    # ids by index: the default would put each message into the test's name
    @pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
    def test_rejected_with_usage_exit(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pendseries {argv[0]}")
        assert f"pendseries {argv[0]}: error: {message}" in err

    @pytest.mark.parametrize("command", ["trajectory", "error-sweep", "surface"])
    def test_plot_script_is_not_an_option(self, tmp_path, command, capsys):
        # the CLI writes the CSV and nothing else
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--energy", "1.71", "--plot-script", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot-script" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trajectory", "error-sweep"])
    def test_method_choices_name_distinct_branches(self, tmp_path, command, capsys):
        # "efficient" built the same polynomial as "resummed", so the CLI
        # offers one name for it
        parser = cli._build_parser()
        method = next(a for a in subcommands(parser)[command]._actions
                      if "--method" in a.option_strings)
        assert tuple(method.choices) == ("raw", "resummed", "auto")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--energy", "1.71", "--method", "efficient", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --method: invalid choice: 'efficient'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("abc", "invalid float value in 'abc'"),
        (",", "empty list"),
    ])
    def test_list_flag_names_what_it_rejects(self, text, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "--energy", text])
        assert exc.value.code == 2
        assert f"argument --energy: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trajectory", "error-sweep"])
    def test_library_rejection_exits_2(self, command, capsys):
        # the flag check passes 5e-324; rk4_sample then rejects it
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--energy", "1.71", "--oracle-dt", "5e-324"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pendseries")
        assert "error: dt = 5e-324 is too small to step over the span" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["roc", "--energy", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pendseries")
        assert f"error: cannot write --out {str(out)!r}: No such file or directory" in err

    @pytest.mark.parametrize("command", ["trajectory", "surface", "error-sweep"])
    def test_largest_energies_build(self, tmp_path, command):
        # the rotation start's velocity is formed without 2E, which
        # overflows above about 9e307; pytest turns any overflow warning
        # into an error
        code, out = run_csv(tmp_path, [command, "--energy", "1e308", "--grid", "11"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert rows
        for name in header:
            if name != "method":
                assert np.all(np.isfinite(column(rows, header, name))), name

    def test_stdout_default(self, capsys):
        code = cli.main(["trajectory", "--energy", "1.0", "--order", "6",
                         "--grid", "5", "--oracle-dt", "1e-2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("# pendseries")


def readme_cli_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    return [shlex.split(line)[1:] for line in readme_cli_section().splitlines()
            if line.startswith("    pendseries ")]


# option -> (default, required, choices, nargs) per subcommand; nargs 0 is a
# flag that takes no value
INTERFACE = {
    "trajectory": {
        "--energy": (None, True, None, None),
        "--order": (20, False, None, None),
        "--method": ("auto", False, ("raw", "resummed", "auto"), None),
        "--direction": ("cw", False, ("cw", "ccw"), None),
        "--periods": (1, False, None, None),
        "--grid": (1001, False, None, None),
        "--oracle-dt": (1e-4, False, None, None),
        "--degrees": (False, False, None, 0),
        "--out": (None, False, None, None),
    },
    "error-sweep": {
        "--energy": (None, True, None, None),
        "--order": ([5, 10, 20], False, None, None),
        "--method": ("auto", False, ("raw", "resummed", "auto"), None),
        "--direction": ("cw", False, ("cw", "ccw"), None),
        "--grid": (1001, False, None, None),
        "--oracle-dt": (1e-4, False, None, None),
        "--period": (False, False, None, 0),
        "--degrees": (False, False, None, 0),
        "--out": (None, False, None, None),
    },
    "surface": {
        "--energy": (None, True, None, None),
        "--order": (40, False, None, None),
        "--direction": ("cw", False, ("cw", "ccw"), None),
        "--periods": (2, False, None, None),
        "--grid": (257, False, None, None),
        "--degrees": (False, False, None, 0),
        "--out": (None, False, None, None),
    },
    "roc": {
        "--energy": (None, True, None, None),
        "--order": (400, False, None, None),
        "--out": (None, False, None, None),
    },
}


def subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_parser_matches_the_interface_table():
    commands = subcommands(cli._build_parser())
    assert list(commands) == list(INTERFACE)
    for command, options in INTERFACE.items():
        got = {opt: (type(a.default), a.default, a.required,
                     tuple(a.choices) if a.choices else None, a.nargs)
               for a in commands[command]._actions for opt in a.option_strings
               if opt not in ("-h", "--help")}
        assert got == {opt: (type(spec[0]), *spec) for opt, spec in options.items()}, command


@pytest.mark.parametrize("command", [[], *([c] for c in INTERFACE)],
                         ids=["pendseries", *INTERFACE])
def test_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: pendseries", *command]))
    for option in INTERFACE[command[0]] if command else ["--version", *INTERFACE]:
        assert option in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"pendseries {cli.__version__}\n"


def test_every_readme_flag_is_an_option():
    # a README that still names a removed flag fails here
    parser = cli._build_parser()
    options = {opt for p in [parser, *subcommands(parser).values()]
               for action in p._actions for opt in action.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_cli_section()))
    assert {"--out", "--degrees", "--oracle-dt"} <= flags
    assert flags <= options, sorted(flags - options)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        # README: the documented commands print no note
        assert capsys.readouterr().err == "", argv
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.read_text(encoding="utf-8").startswith("# pendseries"), argv
