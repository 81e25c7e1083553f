"""CSV front end for trajectories, error sweeps, surfaces, and radii.

Four subcommands produce self-describing CSV artifacts:

  trajectory   one orbit sampled against the RK4 oracle
  error-sweep  sup-norm error (or period error with --period) over
               energy and truncation-order grids
  surface      long-format (energy, t, theta) tables over several orbits
  roc          exact and estimated convergence radii per energy

The flags several subcommands share (--out, the comma-list --energy,
--direction, --degrees, --oracle-dt) are declared once, in parent parsers.

Output is deterministic for a fixed configuration: `#`-prefixed metadata
lines echo the package version and the config, reals carry 17
significant digits, and rows are emitted in input order.  Angles are
computed in radians; --degrees rescales them at formatting time only.
Energies that fall on the separatrix are skipped where the requested
quantity does not exist there (no finite period); each skip is listed on
standard error and makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import __version__
from .convergence import roc_estimate, roc_exact
from .elliptic import evaluate_k
from .energy import SEPARATRIX_TOLERANCE, Regime, classify_energy, energy_state
from .series import pendulum_series
from .trajectory import build_trajectory, canonical_initial_state, theta_at
from .validation import rk4_sample, sup_error

__all__ = ["main"]

_RAD2DEG = 180.0 / math.pi


def _fmt(x) -> str:
    return "%.17g" % (float(x) + 0.0)  # -0.0 + 0.0 is +0.0: never emit -0


def _number(kind, low, strict=False, many=False):
    """One value, or a comma list if many: each finite and >= low (> low if strict)."""

    def parse(text: str):
        if not many and "," in text:
            raise argparse.ArgumentTypeError(f"takes a single value, got {text!r}")
        try:
            values = [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value in {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(
                "empty list" if many else f"expected a single {kind.__name__} value, got {text!r}")
        for v in values:
            if not (math.isfinite(v) and (v > low if strict else v >= low)):
                raise argparse.ArgumentTypeError(
                    f"must be finite and {'>' if strict else '>='} {low:g}, got {v!r}")
        return values if many else values[0]

    return parse


def _state(e: float, flag: str):
    """The orbit of energy e whose initial sense of motion is cw or ccw.

    cw means clockwise (theta decreasing): that is the canonical +1 branch
    for libration (released from +theta_max) but the -1 branch for
    circulating and separatrix orbits.
    """
    libration = classify_energy(e) is Regime.LIBRATION
    return energy_state(e, 1 if (flag == "cw") == libration else -1)


def _off_separatrix(energies, skipped: list, reason: str):
    """Yield the energies with a finite period; record each other one as a skip."""
    for e in energies:
        if classify_energy(e) is Regime.SEPARATRIX:
            skipped.append(f"energy={_fmt(e)} reason=separatrix ({reason})")
        else:
            yield e


def _angle_scale(args) -> float:
    return _RAD2DEG if args.degrees else 1.0


def _orbit(e: float, args, method: str):
    """One orbit on `args.grid` points over `args.periods` periods (2 pi each at E = 2).

    `auto` is resummed.  E = 2 takes the closed form for every method,
    with a note on stderr naming any method other than `auto`, and another
    for any other energy in the separatrix band.  Returns (solution, grid,
    theta on the grid, meta line).
    """
    state = _state(e, args.direction)
    if state.regime is Regime.SEPARATRIX:
        if e != 2.0:
            print(f"note: energy={_fmt(e)} is in the separatrix band (|E - 2| <= "
                  f"{SEPARATRIX_TOLERANCE:g}): the columns describe E = 2", file=sys.stderr)
        if method != "auto":
            print(f"note: energy={_fmt(e)} is the separatrix: using the closed form "
                  f"instead of method {method!r}", file=sys.stderr)
        method = "separatrix"
    elif method == "auto":
        method = "resummed"
    sol = build_trajectory(state, args.order, method)  # E = 2 ignores the order
    span = args.periods * (sol.T if math.isfinite(sol.T) else 2.0 * math.pi)
    grid = np.linspace(0.0, span, args.grid)
    meta = (f"energy={_fmt(e)} method={sol.method} order={sol.order} "
            f"T={_fmt(sol.T)} T_star={_fmt(sol.T_star)}")
    return sol, grid, theta_at(sol, grid), meta


# ---------------------------------------------------------------------------
# subcommands: each returns (meta_lines, header, rows, skipped)


def cmd_trajectory(args):
    sol, grid, theta, meta = _orbit(args.energy, args, args.method)
    oracle, _ = rk4_sample(*canonical_initial_state(sol), grid, args.oracle_dt)
    scale = _angle_scale(args)
    rows = [
        [_fmt(t), _fmt(scale * a), _fmt(scale * r), _fmt(scale * abs(a - r))]
        for t, a, r in zip(grid, theta, oracle)
    ]
    return [meta], ["t", "theta_analytic", "theta_rk4", "abs_error"], rows, []


def cmd_error_sweep(args):
    if args.period:
        return _period_sweep(args)
    return _trajectory_sweep(args)


def _period_sweep(args):
    meta, rows, skipped = [], [], []
    for e in _off_separatrix(args.energy, skipped, "no finite period"):
        c = energy_state(e).orbit
        meta.append(f"energy={_fmt(e)} T_star={_fmt(c.T_star)}")
        for n in args.order:
            for route in ("series", "resummed"):
                approx = c.scale * evaluate_k(c.k, route, n).value
                rows.append([_fmt(e), str(n), route, _fmt(abs(approx - c.T_star))])
    return meta, ["energy", "order", "method", "T_star_abs_error"], rows, skipped


def _trajectory_sweep(args):
    meta, rows, skipped = [], [], []
    methods = ["raw", "resummed"] if args.method == "auto" else [args.method]
    scale = _angle_scale(args)
    for e in _off_separatrix(args.energy, skipped, "no finite T*"):
        state = _state(e, args.direction)
        sols = [build_trajectory(state, n, method) for method in methods for n in args.order]
        t_star = sols[0].T_star  # shared by every build
        meta.append(f"energy={_fmt(e)} T_star={_fmt(t_star)}")
        grid = np.linspace(0.0, t_star, args.grid)
        oracle, _ = rk4_sample(*canonical_initial_state(sols[0]), grid, args.oracle_dt)
        for sol in sols:
            err = sup_error(sol, grid_points=args.grid, oracle=oracle)
            rows.append([_fmt(e), str(sol.order), sol.method, _fmt(scale * err)])
    return meta, ["energy", "order", "method", "sup_error"], rows, skipped


def cmd_surface(args):
    meta, rows = [], []
    scale = _angle_scale(args)
    for e in args.energy:
        _, grid, theta, line = _orbit(e, args, "auto")
        meta.append(line)
        rows.extend([_fmt(e), _fmt(t), _fmt(scale * th)] for t, th in zip(grid, theta))
    return meta, ["energy", "t", "theta"], rows, []


def cmd_roc(args):
    """Exact and root-test radii about both starts; notes orders below max(3|omega0|, 5) R."""
    meta, rows, skipped = [], [], []
    reason = "branch points at +-i*pi/2, no pole lattice"
    for e in _off_separatrix(args.energy, skipped, reason):
        state = energy_state(e)
        c = state.orbit
        starts = {"top": (c.theta0, c.omega0, c.sin_cos), "bottom": (0.0, c.omega_star, None)}
        for ics, (theta0, omega0, sin_cos) in starts.items():
            rep = roc_exact(state, ics)
            estimate, note = "", None
            try:
                # the radius as unit keeps a_n R^n in range at any order;
                # the fitted radius does not depend on the unit
                series = pendulum_series(theta0, omega0, args.order,
                                         time_unit=rep.exact_roc, sin_cos=sin_cos)
                estimate = _fmt(roc_estimate(series))
            except ValueError as exc:
                note = f"no root-test estimate for energy={_fmt(e)} ics={ics}: {exc}"
            else:
                reach = max(3.0 * abs(omega0), 5.0) * rep.exact_roc
                if args.order < reach:
                    note = (f"root-test estimate for energy={_fmt(e)} ics={ics} is "
                            f"pre-asymptotic: order {args.order} < "
                            f"max(3|omega0|, 5)R = {reach:.4g}")
            if note:
                print(f"note: {note}", file=sys.stderr)
            rows.append(
                [_fmt(e), ics, _fmt(rep.exact_roc), _fmt(rep.t_star),
                 _fmt(rep.margin), estimate, _fmt(rep.nearest_pole.real),
                 _fmt(rep.nearest_pole.imag)]
            )
    header = ["energy", "ics", "exact_roc", "t_star", "margin",
              "root_test_estimate", "nearest_pole_re", "nearest_pole_im"]
    return meta, header, rows, skipped


# ---------------------------------------------------------------------------
# plumbing


def _config_echo(args) -> str:
    items = []
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command") or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = _fmt(value)
        items.append(f"{key}={value}")
    return " ".join(items)


def _emit(stream, args, meta, header, rows) -> None:
    stream.write(f"# pendseries {__version__} {args.command}\n")
    stream.write(f"# config: {_config_echo(args)}\n")
    for line in meta:
        stream.write(f"# {line}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
    energies = argparse.ArgumentParser(add_help=False)  # E = 0 is the rest fixed point
    energies.add_argument("--energy", type=_number(float, 0.0, strict=True, many=True),
                          required=True, help="comma-separated energy grid")
    orbit = argparse.ArgumentParser(add_help=False)
    orbit.add_argument("--direction", choices=("cw", "ccw"), default="cw",
                       help="initial sense of motion")
    orbit.add_argument("--degrees", action="store_true",
                       help="format angle columns in degrees")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--oracle-dt", type=_number(float, 0.0, strict=True), default=1e-4,
                        help="RK4 oracle step (1e-5 reproduces the reference runs)")

    parser = argparse.ArgumentParser(
        prog="pendseries", description="Analytic pendulum trajectories as CSV artifacts.")
    parser.add_argument("--version", action="version",
                        version=f"pendseries {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", parents=[orbit, oracle, out],
                       help="one orbit sampled against the RK4 oracle")
    p.add_argument("--energy", type=_number(float, 0.0, strict=True), required=True,
                   help="orbit energy (single value)")
    p.add_argument("--order", type=_number(int, 2), default=20, help="truncation order N")
    p.add_argument("--method", choices=("raw", "resummed", "auto"), default="auto",
                   help="raw or resummed branch; auto = resummed, closed form at E=2")
    p.add_argument("--periods", type=_number(int, 1), default=1,
                   help="time span in full periods (2*pi units at E=2)")
    p.add_argument("--grid", type=_number(int, 2), default=1001, help="number of samples")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("error-sweep", parents=[energies, orbit, oracle, out],
                       help="sup-norm or period error over energy/order grids")
    p.add_argument("--order", type=_number(int, 2, many=True), default=[5, 10, 20],
                   help="comma-separated truncation orders")
    p.add_argument("--method", choices=("raw", "resummed", "auto"), default="auto",
                   help="raw or resummed branch; auto = compare raw and resummed")
    p.add_argument("--grid", type=_number(int, 2), default=1001,
                   help="samples per [0, T*] error grid")
    p.add_argument("--period", action="store_true",
                   help="sweep the effective-period error of K routes instead "
                        "(ignores --method, --direction, --grid, --oracle-dt, --degrees)")
    p.set_defaults(func=cmd_error_sweep)

    p = sub.add_parser("surface", parents=[energies, orbit, out],
                       help="long-format (energy, t, theta) over several orbits")
    p.add_argument("--order", type=_number(int, 2), default=40)
    p.add_argument("--periods", type=_number(int, 1), default=2)
    p.add_argument("--grid", type=_number(int, 2), default=257, help="samples per energy")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("roc", parents=[energies, out],
                       help="convergence radii, exact and estimated")
    p.add_argument("--order", type=_number(int, 2), default=400,
                   help="coefficient count for the root-test estimate")
    p.set_defaults(func=cmd_roc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        meta, header, rows, skipped = args.func(args)
    except ValueError as exc:  # a value the flag checks pass but the library rejects
        parser.error(str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                _emit(stream, args, meta, header, rows)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out!r}: {exc.strerror}")
    else:
        _emit(sys.stdout, args, meta, header, rows)
    for line in skipped:
        print(f"skipped: {line}", file=sys.stderr)
    return 1 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
