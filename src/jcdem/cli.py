"""Command-line front end: runs scans, writes CSV tables and SVG plots.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    TimeSeries,
    revival_analysis,
    scan_lambda,
    scan_time,
    scan_transition,
    time_grid,
)
from .model import (
    DEFAULT_G,
    DEFAULT_LAMBDA0,
    DEFAULT_MEAN_PHOTONS,
    DEFAULT_OMEGA0,
    DEFAULT_TAIL_TOL,
    AtomState,
    FieldConfig,
    ModelParams,
)
from .svgplot import atomic_write_text, render_plot

DEFAULT_T_MAX = 50.0
DEFAULT_DT = 0.05
DEFAULT_LAMBDA_POINTS = 21

COMMANDS = {
    "transition": "excited-start transition probability vs time",
    "scan-time": "entanglement degree and entropies vs time",
    "scan-lambda": "entanglement degree at revival times vs lambda0",
    "revival": "collapse/revival report from the transition series",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation parameters."""

    command: str
    g: float = DEFAULT_G
    omega0: float = DEFAULT_OMEGA0
    mean_photons: float = DEFAULT_MEAN_PHOTONS
    lambda0: float = DEFAULT_LAMBDA0
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    tail_tol: float = DEFAULT_TAIL_TOL
    log_base: str = "e"
    lambda_points: int = DEFAULT_LAMBDA_POINTS
    out_csv: str = ""
    out_svg: Optional[str] = None


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
        cmd.add_argument("--g", type=float, default=DEFAULT_G,
                         help="coupling constant (default 1)")
        cmd.add_argument("--omega0", type=float, default=DEFAULT_OMEGA0,
                         help="resonance frequency (default 1)")
        cmd.add_argument("--mean-photons", type=float, default=DEFAULT_MEAN_PHOTONS,
                         help="coherent-field mean photon number (default 5)")
        cmd.add_argument("--lambda0", type=float, default=DEFAULT_LAMBDA0,
                         help="initial ground-level weight (default 0.7)")
        cmd.add_argument("--t-max", type=float, default=DEFAULT_T_MAX,
                         help="time-grid end (default 50)")
        cmd.add_argument("--dt", type=float, default=DEFAULT_DT,
                         help="time-grid step (default 0.05)")
        cmd.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                         help="photon-tail truncation tolerance (default 1e-12)")
        cmd.add_argument("--log-base", choices=("e", "2"), default="e",
                         help="entropy logarithm base (default e)")
        cmd.add_argument("--lambda-points", type=int, default=DEFAULT_LAMBDA_POINTS,
                         help="lambda0 grid size for scan-lambda (default 21)")
        cmd.add_argument("--out-csv", default=None,
                         help="CSV output path (default jc_<command>.csv)")
        cmd.add_argument("--out-svg", default=None,
                         help="also write an SVG plot to this path")
    return parser


def _model(config: RunConfig) -> tuple[ModelParams, FieldConfig]:
    return (
        ModelParams(g=config.g, omega0=config.omega0),
        FieldConfig.from_mean_photons(config.mean_photons, config.tail_tol),
    )


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse flags and validate them by building the model objects.

    Any ValueError those constructors raise becomes a usage error, which
    exits with code 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.lambda_points < 2:
        parser.error(f"--lambda-points must be at least 2, got {args.lambda_points}")
    if args.out_csv is None:
        args.out_csv = f"jc_{args.command.replace('-', '_')}.csv"
    # the parser's destinations are exactly RunConfig's fields
    config = RunConfig(**vars(args))
    try:
        _model(config)
        AtomState.from_ground_weight(config.lambda0)
        time_grid(config.t_max, config.dt)
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _series_rows(series: TimeSeries):
    for i, t in enumerate(series.times):
        yield [f"{t:.12e}"] + [f"{col[i]:.12e}" for col in series.columns.values()]


def run(config: RunConfig) -> int:
    """Execute one command; raises on numerical or I/O failure."""
    params, field = _model(config)

    if config.command == "scan-lambda":
        scan = scan_lambda(
            field,
            params,
            np.linspace(0.0, 1.0, config.lambda_points),
            k_list=(1, 2, 3),
            log_base=config.log_base,
        )
        rows = (
            [f"{lam:.12e}"]
            + [f"{scan.dem_at_T[k][i]:.12e}" for k in (1, 2, 3)]
            + [f"{int(scan.conjecture_holds[i]):d}"]
            for i, lam in enumerate(scan.lambdas)
        )
        _write_csv(
            config.out_csv,
            ["lambda0", "dem_T1", "dem_T2", "dem_T3", "conjecture_holds"],
            rows,
        )
        held = int(scan.conjecture_holds.sum())
        print(f"conjecture holds at {held}/{len(scan.lambdas)} grid points")
        if config.out_svg:
            render_plot(scan, config.out_svg, config.command)
            print(f"wrote {config.out_svg}")
        print(f"wrote {config.out_csv}")
        return 0

    if config.command == "scan-time":
        atom = AtomState.from_ground_weight(config.lambda0)
        series = scan_time(
            atom, field, params, config.t_max, config.dt, log_base=config.log_base
        )
    else:
        # transition probability and revival detection follow the
        # excited-start convention regardless of --lambda0, and need no
        # entropies
        series = scan_transition(field, params, config.t_max, config.dt)

    if config.command == "revival":
        report = revival_analysis(field, params, 3, series)
        print(f"t_collapse={report.t_collapse:.4f}")
        for k, t_k in enumerate(report.revival_times, start=1):
            print(f"T{k}={t_k:.4f}")
        print(f"detected_revival={report.detected_revival:.4f}")

    _write_csv(config.out_csv, ["t", *series.columns], _series_rows(series))
    if config.out_svg:
        render_plot(series, config.out_svg, config.command)
        print(f"wrote {config.out_svg}")
    print(f"wrote {config.out_csv}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return run(config)
    except Exception as exc:
        print(f"jc-entangle: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
