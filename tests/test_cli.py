"""Command-line artifact generation, exercised through cli.main.

Each subcommand's rows are pinned to the library calls that make them:
every data row equals `cli._fmt` of those values. The library's own
guarantees are asserted by tests/test_acceptance.py and the module tests,
so the tests here check the CLI alone: notes, skips, usage errors,
formatting, --degrees, the cw/ccw mapping, and the README commands.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pendseries import (
    build_trajectory,
    canonical_initial_state,
    cli,
    energy_state,
    sup_error,
    theta_at,
)
from pendseries.convergence import roc_estimate, roc_exact
from pendseries.elliptic import evaluate_k
from pendseries.series import pendulum_series
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


def library_state(energy, flag):
    """The orbit `--direction flag` names: cw is +1 below E = 2 and -1 from E = 2 up."""
    sense = 1 if flag == "cw" else -1
    return energy_state(energy, sense if energy < 2.0 else -sense)


def library_orbit(energy, flag, method, order, periods, points):
    """The build behind `trajectory`/`surface` rows, its grid, and its meta line.

    `auto` is resummed; E = 2 is the closed form, over 2 pi per period.
    """
    state = library_state(energy, flag)
    if energy == 2.0:
        sol, span = build_trajectory(state, None, "separatrix"), 2.0 * math.pi
    else:
        sol = build_trajectory(state, order, "resummed" if method == "auto" else method)
        span = sol.T
    meta = (f"# energy={cli._fmt(energy)} method={sol.method} order={sol.order} "
            f"T={cli._fmt(sol.T)} T_star={cli._fmt(sol.T_star)}")
    return sol, np.linspace(0.0, periods * span, points), meta


class TestTrajectoryCommand:
    @pytest.mark.parametrize("flag", ["cw", "ccw"])
    @pytest.mark.parametrize("energy,method", [
        (1.71, "auto"), (1.99999, "auto"), (2.02, "raw"), (2.0, "auto")])
    def test_rows_are_the_library_orbit(self, tmp_path, energy, method, flag):
        # theta_at of the build, RK4 from its canonical start, and their gap
        code, out = run_csv(tmp_path, [
            "trajectory", "--energy", str(energy), "--method", method, "--direction", flag,
            "--order", "12", "--periods", "2", "--grid", "41", "--oracle-dt", "1e-2"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        sol, grid, line = library_orbit(energy, flag, method, 12, 2, 41)
        theta = theta_at(sol, grid)
        oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-2)
        assert meta[0] == f"# pendseries {cli.__version__} trajectory"
        assert meta[1].startswith("# config: ") and meta[2:] == [line]
        assert header == ["t", "theta_analytic", "theta_rk4", "abs_error"]
        assert rows == [[cli._fmt(x) for x in (t, a, r, abs(a - r))]
                        for t, a, r in zip(grid, theta, oracle)]

    @pytest.mark.parametrize("method", ["raw", "resummed"])
    def test_series_method_at_separatrix_is_noted(self, tmp_path, capsys, method):
        # the CLI takes the closed form itself: one note, no library warning
        argv = ["trajectory", "--energy", "2", "--grid", "21", "--oracle-dt", "1e-2"]
        run_csv(tmp_path, argv, "auto.csv")
        assert capsys.readouterr().err == ""
        code, out = run_csv(tmp_path, argv + ["--method", method])
        assert code == 0
        assert capsys.readouterr().err == (
            f"note: energy=2 is the separatrix: using the closed form "
            f"instead of method '{method}'\n")
        meta, header, rows = parse_csv(out)
        auto_meta, _, auto_rows = parse_csv(tmp_path / "auto.csv")
        assert meta[2:] == auto_meta[2:] and "method=separatrix" in meta[2]
        assert rows == auto_rows

    @pytest.mark.parametrize("energy", ["1.9999999999995", "2.0000000000005"])
    def test_in_band_energy_is_noted(self, tmp_path, capsys, energy):
        # inside |E - 2| <= 1e-12 both columns are the E = 2 orbit, the RK4
        # one seeded from it too, while the meta line names the energy asked for
        argv = ["trajectory", "--energy", energy, "--grid", "21", "--oracle-dt", "1e-2"]
        band = (f"note: energy={energy} is in the separatrix band (|E - 2| <= 1e-12): "
                "the columns describe E = 2\n")
        run_csv(tmp_path, ["trajectory", "--energy", "2", *argv[3:]], "two.csv")
        assert capsys.readouterr().err == ""
        code, out = run_csv(tmp_path, argv)
        assert code == 0 and capsys.readouterr().err == band
        meta, _, rows = parse_csv(out)
        assert meta[2].startswith(f"# energy={energy} method=separatrix ")
        assert rows == parse_csv(tmp_path / "two.csv")[2]
        run_csv(tmp_path, argv + ["--method", "raw"])
        assert capsys.readouterr().err == band + (
            f"note: energy={energy} is the separatrix: using the closed form "
            "instead of method 'raw'\n")


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
    def test_period_sweep_rows_are_the_k_routes(self, tmp_path):
        # each row is |scale K_route(k) - T*|, rotations (scale = k) included
        code, out = run_csv(tmp_path, [
            "error-sweep", "--period", "--energy", "0.3,1.9998,2.02,5,300",
            "--order", "2,10,100"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["energy", "order", "method", "T_star_abs_error"]
        assert [(float(r[0]), r[1], r[2]) for r in rows] == [
            (e, n, route) for e in (0.3, 1.9998, 2.02, 5.0, 300.0)
            for n in ("2", "10", "100") for route in ("series", "resummed")]
        for e, n, route, err in rows:
            c = energy_state(float(e)).orbit
            approx = c.scale * evaluate_k(c.k, route, int(n)).value
            assert err == cli._fmt(abs(approx - c.T_star))

    def test_separatrix_rows_are_skipped_not_faked(self, tmp_path, capsys):
        code, out = run_csv(tmp_path, [
            "error-sweep", "--period", "--energy", "1.5,2.0,3.0",
            "--order", "5"])
        assert code == 1
        assert "separatrix" in capsys.readouterr().err
        _, header, rows = parse_csv(out)
        assert {r[0] for r in rows} == {"1.5", "3"}
        assert len(rows) == 4  # 2 energies x {series, resummed}

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
        _, header, rows = parse_csv(out)
        assert header == ["energy", "order", "method", "sup_error"]
        methods = ["raw", "resummed"] if method == "auto" else [method]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (e, n, m) for e in ("0.5", "2.02") for m in methods for n in ("4", "9")]
        for e, n, m, err in rows:
            sol = build_trajectory(library_state(float(e), direction), int(n), m)
            grid = np.linspace(0.0, sol.T_star, 41)
            oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, 1e-2)
            assert err == cli._fmt(sup_error(sol, grid_points=41, oracle=oracle))


class TestSurfaceCommand:
    @pytest.mark.parametrize("flag", ["cw", "ccw"])
    def test_rows_are_the_library_orbits(self, tmp_path, flag):
        # the defaults: order 40 and 2 periods per energy
        energies = [0.5, 1.99999, 2.0, 2.00001, 2.5]
        code, out = run_csv(tmp_path, ["surface", "--energy", ",".join(map(str, energies)),
                                       "--direction", flag, "--grid", "33"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["energy", "t", "theta"]
        lines, expected = [], []
        for e in energies:
            sol, grid, line = library_orbit(e, flag, "auto", 40, 2, 33)
            lines.append(line)
            expected += [[cli._fmt(x) for x in (e, t, th)]
                         for t, th in zip(grid, theta_at(sol, grid))]
        assert meta[2:] == lines
        assert rows == expected

    def test_in_band_energies_are_noted_and_two_is_not(self, tmp_path, capsys):
        code, out = run_csv(tmp_path, [
            "surface", "--energy", "1.9999999999995,2,2.0000000000005", "--grid", "17"])
        assert code == 0
        assert capsys.readouterr().err == "".join(
            f"note: energy={e} is in the separatrix band (|E - 2| <= 1e-12): "
            "the columns describe E = 2\n" for e in ("1.9999999999995", "2.0000000000005"))
        _, _, rows = parse_csv(out)
        curves = [[r[1:] for r in rows[i:i + 17]] for i in (0, 17, 34)]
        assert curves[0] == curves[1] == curves[2]


class TestRocCommand:
    def test_rows_are_the_library_reports(self, tmp_path):
        # per start: roc_exact's columns, and the root test on the series
        # seeded by the record and carried in units of the exact radius
        energies = [0.3, 1.71, 2.02, 5.0]
        code, out = run_csv(tmp_path, ["roc", "--energy", ",".join(map(str, energies)),
                                       "--order", "300"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["energy", "ics", "exact_roc", "t_star", "margin",
                          "root_test_estimate", "nearest_pole_re", "nearest_pole_im"]
        expected = []
        for e in energies:
            state = energy_state(e)
            c = state.orbit
            for ics, (theta0, omega0, sin_cos) in (("top", (c.theta0, c.omega0, c.sin_cos)),
                                                   ("bottom", (0.0, c.omega_star, None))):
                rep = roc_exact(state, ics)
                series = pendulum_series(theta0, omega0, 300, time_unit=rep.exact_roc,
                                         sin_cos=sin_cos)
                expected.append([cli._fmt(e), ics, *map(cli._fmt, (
                    rep.exact_roc, rep.t_star, rep.margin, roc_estimate(series),
                    rep.nearest_pole.real, rep.nearest_pole.imag))])
        assert rows == expected

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
        # the note leaves the row's estimate in place
        _, header, rows = parse_csv(out)
        assert all(r[header.index("root_test_estimate")] for r in rows)

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

    def test_smallest_energy_reports(self, tmp_path):
        # at E = 5e-324, k = sqrt(E/2) used to round to 0 and K'(0) raised
        code, out = run_csv(tmp_path, ["roc", "--energy", "5e-324"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["top", "bottom"]

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
    # the rest of these two messages differs between Python versions
    (["trajectory", "--energy", "1.0", "--direction", "up"],
     "argument --direction: invalid choice: 'up'"),
    # "efficient" built the same polynomial as "resummed": one name for it
    (["error-sweep", "--energy", "1.71", "--method", "efficient"],
     "argument --method: invalid choice: 'efficient'"),
    (["error-sweep", "--energy", "1.0", "--order", "5,1"],
     "argument --order: must be finite and >= 2, got 1\n"),
    (["trajectory", "--energy", "nan"], "argument --energy: must be finite and > 0, got nan\n"),
    (["trajectory", "--energy", "inf"], "argument --energy: must be finite and > 0, got inf\n"),
    (["surface", "--energy", "1,inf"], "argument --energy: must be finite and > 0, got inf\n"),
    (["surface", "--energy", "abc"], "argument --energy: invalid float value in 'abc'\n"),
    (["surface", "--energy", ","], "argument --energy: empty list\n"),
    (["trajectory", "--energy", "1.0", "--oracle-dt", "inf"],
     "argument --oracle-dt: must be finite and > 0, got inf\n"),
    (["trajectory", "--energy", "1.0", "--oracle-dt", "nan"],
     "argument --oracle-dt: must be finite and > 0, got nan\n"),
    (["trajectory", "--energy", "1.0", "--grid", "1,2"],
     "argument --grid: takes a single value, got '1,2'\n"),
    # a blank single value is one missing value, not an empty list
    (["trajectory", "--energy", ""], "argument --energy: expected a single float value, got ''\n"),
    (["trajectory", "--energy", "1.71", "--grid", " "],
     "argument --grid: expected a single int value, got ' '\n"),
    (["roc", "--energy", "1", "--order", ""],
     "argument --order: expected a single int value, got ''\n"),
    # the CLI writes the CSV and nothing else
    (["surface", "--energy", "1.71", "--plot-script", "--out", "x.csv"],
     "unrecognized arguments: --plot-script\n"),
    # the flag check passes 5e-324; rk4_sample then rejects it
    (["trajectory", "--energy", "1.71", "--oracle-dt", "5e-324"],
     "dt = 5e-324 is too small to step over the span"),
    (["error-sweep", "--energy", "1.71", "--oracle-dt", "5e-324"],
     "dt = 5e-324 is too small to step over the span"),
    (["roc", "--energy", "1", "--out", "missing/x.csv"],
     "cannot write --out 'missing/x.csv': No such file or directory\n"),
]


FMT_CASES = [
    (-0.0, "0"), (np.float64(-0.0), "0"), (0.0, "0"), (math.nan, "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (5e-324, "4.9406564584124654e-324"), (1 / 3, "0.33333333333333331"),
    (1e308, "1e+308")]


@pytest.mark.parametrize("x,text", FMT_CASES)
def test_fmt_strings(x, text):
    # 17 significant digits round-trip every double; -0 is never written
    assert cli._fmt(x) == text


def test_emitted_rows_format_reals_like_fmt():
    # a data row writes each real as `_fmt` writes it, -0.0 as 0, from a float
    # array and from a list alike; empty text and None are empty fields
    reals = np.array([x for x, _ in FMT_CASES])
    text = ["", "a b", ""] * 3
    gappy = [None if i % 2 == 0 else -x for i, x in enumerate(reals.tolist())]
    stream = io.StringIO()
    args = argparse.Namespace(command="surface", energy=[1.5, 2.0])
    cli._emit(stream, args, ["energy=1.5"], ["x", "label", "y"], [reals, text, gappy])
    lines = stream.getvalue().split("\n")
    assert lines[:4] == [f"# pendseries {cli.__version__} surface", "# config: energy=1.5,2",
                         "# energy=1.5", "x,label,y"]
    assert lines[4:] == [
        f"{want},{label},{'' if i % 2 == 0 else cli._fmt(-x)}"
        for i, ((x, want), label) in enumerate(zip(FMT_CASES, text))] + [""]
    assert lines[4] == "0,,"


class TestUsageErrors:
    # ids by index: the default would put each message into the test's name
    @pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
    def test_rejected_with_usage_exit(self, argv, message, tmp_path, monkeypatch, capsys):
        # a flag's own error comes from the subcommand's parser; unrecognized
        # arguments and what main() rejects after parsing, from the top level
        flag_error = message.startswith(("argument ", "the following "))
        prog = f"pendseries {argv[0]}" if flag_error else "pendseries"
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} ")
        assert f"\n{prog}: error: {message}" in err
        assert not any(tmp_path.iterdir())  # a rejected command writes nothing

    @pytest.mark.parametrize("command", ["trajectory", "surface", "error-sweep"])
    def test_largest_energies_build(self, tmp_path, command):
        # the rotation start's velocity is formed without 2E, which
        # overflows above about 9e307; pytest turns any overflow warning
        # into an error
        code, out = run_csv(tmp_path, [command, "--energy", "1e308", "--grid", "11"])
        assert code == 0
        assert parse_csv(out)[2]

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


def run_python(*args, cwd=None):
    """`python *args` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=60)


def test_module_runs_as_a_script():
    # `python -m pendseries.cli` reaches main() and exits with its status
    skipped = run_python("-m", "pendseries.cli", "roc", "--energy", "2")
    assert skipped.returncode == 1
    assert skipped.stderr == ("skipped: energy=2 reason=separatrix "
                              "(branch points at +-i*pi/2, no pole lattice)\n")
    version = run_python("-m", "pendseries.cli", "--version")
    assert version.returncode == 0 and version.stdout == f"pendseries {cli.__version__}\n"


def test_every_readme_flag_is_an_option():
    # a README that still names a removed flag fails here
    parser = cli._build_parser()
    options = {opt for p in [parser, *subcommands(parser).values()]
               for action in p._actions for opt in action.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_cli_section()))
    assert {"--out", "--degrees", "--oracle-dt"} <= flags
    assert flags <= options, sorted(flags - options)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each command exits 0 with no note, and writes the bytes that a second
    # interpreter, running all five in its own directory, writes
    commands = readme_commands()
    assert len(commands) == 5
    (tmp_path / "child").mkdir()
    child = run_python("-c", "import json, sys; from pendseries.cli import main; "
                       "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))",
                       json.dumps(commands), cwd=tmp_path / "child")
    assert (child.returncode, child.stderr) == (0, "")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        # README: the documented commands print no note
        assert capsys.readouterr().err == "", argv
        name = argv[argv.index("--out") + 1]
        data = (tmp_path / name).read_bytes()
        assert data.startswith(b"# pendseries") and b"\r" not in data, argv
        assert data == (tmp_path / "child" / name).read_bytes(), argv
