"""Command-line front end: runs scans, writes CSV tables and SVG plots.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from os.path import realpath
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    MAX_GRID_POINTS,
    revival_analysis,
    scan_lambda,
    scan_time,
    scan_transition,
)
from .model import (
    DEFAULT_G,
    DEFAULT_TAIL_TOL,
    AtomState,
    FieldConfig,
    ModelParams,
)
from .svgplot import atomic_writer, render_plot

# The library's entropies are in nats; --log-base 2 multiplies the entropy
# columns (dem_*, s_*) by this factor.
BITS_PER_NAT = 1.0 / math.log(2.0)

COMMANDS = {
    "transition": "excited-start transition probability vs time",
    "scan-time": "entanglement degree and entropies vs time",
    "scan-lambda": "entanglement degree at revival times vs lambda0",
    "revival": "collapse/revival report from the transition series",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jc-entangle",
        description=(
            "Exact resonant atom-field dynamics on a truncated photon space "
            "and the mutual-entropy degree of entanglement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--mean-photons", type=float, default=5.0,
                         help="coherent-field mean photon number (default 5)")
        cmd.add_argument("--lambda0", type=float, default=0.7,
                         help="initial ground-level weight (default 0.7)")
        cmd.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                         help="photon-tail truncation tolerance (default 1e-12)")
        if name == "scan-lambda":
            cmd.add_argument("--lambda-points", type=int, default=21,
                             help="lambda0 grid size (default 21)")
        else:
            cmd.add_argument("--g", type=float, default=DEFAULT_G,
                             help="coupling constant (default 1)")
            cmd.add_argument("--t-max", type=float, default=50.0,
                             help="time-grid end (default 50)")
            cmd.add_argument("--dt", type=float, default=0.05,
                             help="time-grid step (default 0.05)")
        if name in ("scan-time", "scan-lambda"):
            cmd.add_argument("--log-base", choices=("e", "2"), default="e",
                             help="entropy logarithm base (default e)")
        cmd.add_argument("--out-csv", default=f"jc_{name.replace('-', '_')}.csv",
                         help="CSV output path (default jc_<command>.csv)")
        cmd.add_argument("--out-svg", default=None,
                         help="also write an SVG plot to this path")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse flags and validate them by building the model objects, which
    stay on the namespace as params, field and atom for run.

    Any ValueError they raise becomes a usage error, exit code 2.  The time
    grid is checked by the command that reads it: what a scan refuses before
    it computes, run reports the same way.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan-lambda" and not 2 <= args.lambda_points <= MAX_GRID_POINTS:
        parser.error(f"--lambda-points must lie in [2, {MAX_GRID_POINTS}], "
                     f"got {args.lambda_points}")
    if "" in (args.out_csv, args.out_svg):
        parser.error("--out-csv and --out-svg need a non-empty path")
    if args.out_svg and realpath(args.out_svg) == realpath(args.out_csv):
        parser.error(f"--out-csv and --out-svg name the same file: {args.out_csv}")
    try:
        args.params = ModelParams(getattr(args, "g", DEFAULT_G))
        args.field = FieldConfig(args.mean_photons, args.tail_tol)
        args.atom = AtomState(args.lambda0)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def _write_csv(path: str, x_name: str, x, columns: dict) -> None:
    """One row per x value: bool columns print as 0/1, all else as .12e.
    Raises ValueError, writing nothing, if any value is not finite."""
    cols = [np.asarray(col) for col in (x, *columns.values())]
    if not all(np.isfinite(col).all() for col in cols):
        raise ValueError(f"cannot write non-finite values to {path}")
    fmt = ["%d" if col.dtype == bool else "%.12e" for col in cols]
    with atomic_writer(path) as out:
        np.savetxt(out, np.column_stack(cols), fmt=fmt, delimiter=",",
                   header=",".join([x_name, *columns]), comments="")


def run(args: argparse.Namespace) -> int:
    """Execute one command; raises on a failure to write, before any print.

    A ValueError while the table is computed, before anything is written, is
    an input a scan refuses to evaluate, a time grid included: a usage error,
    exit code 2."""
    params, field = args.params, args.field
    flags, lines = {}, []
    try:
        if args.command == "scan-lambda":
            lambdas = np.linspace(0.0, 1.0, args.lambda_points)
            scan = scan_lambda(field, params, lambdas)
            x_name, x = "lambda0", scan.lambdas
            columns = {f"dem_T{k}": col for k, col in scan.dem_at_T.items()}
            flags = {"conjecture_holds": scan.conjecture_holds}
            held = int(scan.conjecture_holds.sum())
            lines = [f"conjecture holds at {held}/{len(scan.lambdas)} grid points"]
        else:
            # transition and revival follow the excited-start convention
            # regardless of --lambda0, and need no entropies
            if args.command == "scan-time":
                series = scan_time(args.atom, field, params, args.t_max, args.dt)
            elif args.command == "transition":
                series = scan_transition(field, params, args.t_max, args.dt)
            else:
                report = revival_analysis(field, params, args.t_max, args.dt)
                series = report.series
                times = {"t_collapse": report.t_collapse,
                         **{f"T{k}": t for k, t in enumerate(report.revival_times, 1)},
                         "detected_revival": report.detected_revival}
                # four decimals, as at the defaults, where they hold four to ten digits
                lines = [f"{name}={t:.4f}" if 0.1 <= t < 1e6 else f"{name}={t:#.4g}"
                         for name, t in times.items()]
            x_name, x, columns = "t", series.times, series.columns
    except ValueError as exc:
        build_parser().error(str(exc))

    if getattr(args, "log_base", "e") == "2":
        columns = {name: col * BITS_PER_NAT if name.startswith(("dem_", "s_")) else col
                   for name, col in columns.items()}
    _write_csv(args.out_csv, x_name, x, {**columns, **flags})
    if args.out_svg:
        render_plot(x, columns, x_name, args.out_svg, args.command)
        lines.append(f"wrote {args.out_svg}")
    print(*lines, f"wrote {args.out_csv}", sep="\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(parse_args(argv))
    except SystemExit as exc:  # argparse exits 0 on --help, 2 on a usage error
        return exc.code
    except Exception as exc:
        print(f"jc-entangle: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
