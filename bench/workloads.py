"""The benchmark's workloads: seeded inputs, one operation, its output check.

Each workload reaches jcdem only through its public functions and the
jc-entangle CLI. The seed draws only inputs: lambda0 uniform in
(0.05, 0.95), so the atom is never pure and scan_time never takes its
cheaper excited-start branch.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from jcdem import analysis, cli
from jcdem.model import AtomState, FieldConfig, ModelParams

LAMBDA_LOW, LAMBDA_HIGH = 0.05, 0.95
K_LIST = (1, 2, 3)
CLI_TIMEOUT_S = 60.0

# What a fresh interpreter does before a workload's first operation.
SETUP_CODE = (
    "import sys\n"
    "from jcdem.model import FieldConfig, ModelParams\n"
    "ModelParams()\n"
    "FieldConfig.from_mean_photons(float(sys.argv[1]))\n"
)


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def revival_time(k: int, mean_photons: float, g: float = 1.0) -> float:
    return 2.0 * math.pi * k * math.sqrt(mean_photons) / g


class Workload:
    """Shared workload state: the seeded input stream and the reference."""

    name = ""
    mean_photons = 0.0
    # operations per cycle; a run always ends on a whole cycle
    cycle = 1
    # True when each operation is its own process
    subprocess_ops = False

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.spot_rng = np.random.default_rng([seed, 1])
        self.out_dir = out_dir
        self.params = ModelParams()
        self.field = FieldConfig.from_mean_photons(self.mean_photons)
        self.reference = checks.DenseReference(
            self.mean_photons, self.field.n_max, self.params.g, self.params.omega0)
        self.index = 0

    def next_input(self):
        inp = self.make_input(self.index)
        self.index += 1
        return inp

    def draw_lambda(self, size=None):
        return self.rng.uniform(LAMBDA_LOW, LAMBDA_HIGH, size)


class CliDefault(Workload):
    """The four jc-entangle commands in turn at their default grid."""

    name = "cli-default"
    mean_photons = 5.0
    commands = ("transition", "scan-time", "revival", "scan-lambda")
    cycle = len(commands)
    subprocess_ops = True
    times = np.arange(1001) * 0.05
    lambdas = np.linspace(0.0, 1.0, 21)
    headers = {
        "transition": ("t", "c_closed", "c_exact"),
        "revival": ("t", "c_closed", "c_exact"),
        "scan-time": checks.TIME_HEADER,
        "scan-lambda": checks.LAMBDA_HEADER,
    }

    def make_input(self, index):
        return self.commands[index % self.cycle], float(self.draw_lambda())

    def argv(self, inp):
        command, lambda0 = inp
        stem = self.out_dir / command
        return [command, "--lambda0", repr(lambda0),
                "--out-csv", f"{stem}.csv", "--out-svg", f"{stem}.svg"]

    def run(self, inp, in_process: bool) -> CliRun:
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv(inp))
            return CliRun(code, out.getvalue(), err.getvalue())
        proc = subprocess.run(
            [sys.executable, "-m", "jcdem.cli", *self.argv(inp)],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return CliRun(proc.returncode, proc.stdout, proc.stderr)

    def points(self, inp) -> int:
        if inp[0] == "scan-lambda":
            return len(self.lambdas) * len(K_LIST)
        return len(self.times)

    def check(self, inp, out: CliRun) -> list[str]:
        command, lambda0 = inp
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.strip()}"]
        stem = self.out_dir / command
        problems, cols = checks.parse_csv(Path(f"{stem}.csv").read_text("utf-8"),
                                          self.headers[command])
        problems += checks.check_svg(Path(f"{stem}.svg").read_text("utf-8"))
        if f"wrote {stem}.csv" not in out.stdout.splitlines():
            problems.append("stdout does not report the CSV path")
        if cols is None:
            return problems
        if command == "scan-lambda":
            dem = {k: cols[f"dem_T{k}"] for k in K_LIST}
            holds = cols["conjecture_holds"]
            problems += checks.check_lambda_scan(cols["lambda0"], dem, holds, self.lambdas)
            summary = f"conjecture holds at {int(holds.sum())}/{len(holds)} grid points"
            if summary not in out.stdout.splitlines():
                problems.append("stdout conjecture count disagrees with the CSV")
            if problems:
                return problems
            i, k = self.spot_rng.integers(len(self.lambdas)), int(self.spot_rng.choice(K_LIST))
            t = revival_time(k, self.mean_photons, self.params.g)
            return checks.compare_point(self.reference, float(self.lambdas[i]), t,
                                        {"dem_exact": float(dem[k][i])})
        values = {name: col for name, col in cols.items() if name != "t"}
        problems += checks.check_time_rows(cols["t"], values, lambda0, self.times)
        if command == "revival":
            problems += checks.check_revival_stdout(out.stdout, self.mean_photons,
                                                    self.params.g)
        if problems:
            return problems
        row = self.spot_rng.integers(len(self.times))
        names = ("dem_exact", "s_atom", "c_exact") if command == "scan-time" else ("c_exact",)
        # transition and revival always start from the excited atom
        return checks.compare_point(self.reference, lambda0 if command == "scan-time" else 0.0,
                                    float(self.times[row]),
                                    {name: float(cols[name][row]) for name in names})


class ScanTimeM200(Workload):
    """scan_time at m=200 on a coarse grid that runs past T1 = 88.9."""

    name = "scan-time-m200"
    mean_photons = 200.0
    t_max, dt = 100.0, 50.0
    times = np.array([0.0, 50.0, 100.0])

    def make_input(self, index):
        return float(self.draw_lambda())

    def run(self, lambda0, in_process: bool):
        atom = AtomState.from_ground_weight(lambda0)
        return analysis.scan_time(atom, self.field, self.params, self.t_max, self.dt)

    def points(self, lambda0) -> int:
        return len(self.times)

    def check(self, lambda0, series) -> list[str]:
        problems = checks.check_time_rows(series.times, series.columns, lambda0, self.times)
        if problems:
            return problems
        row = self.spot_rng.integers(len(self.times))
        return checks.compare_point(
            self.reference, lambda0, float(self.times[row]),
            {name: float(series.columns[name][row])
             for name in ("dem_exact", "s_atom", "c_exact")})


class ScanLambdaM50(Workload):
    """scan_lambda at m=50 over a sorted seeded grid of lambda0 at T1..T3."""

    name = "scan-lambda-m50"
    mean_photons = 50.0
    grid_points = 16

    def make_input(self, index):
        return np.sort(self.draw_lambda(self.grid_points))

    def run(self, lambdas, in_process: bool):
        return analysis.scan_lambda(self.field, self.params, lambdas, k_list=K_LIST)

    def points(self, lambdas) -> int:
        return len(lambdas) * len(K_LIST)

    def check(self, lambdas, scan) -> list[str]:
        problems = checks.check_lambda_scan(scan.lambdas, scan.dem_at_T,
                                            scan.conjecture_holds, lambdas)
        if problems:
            return problems
        i, k = self.spot_rng.integers(len(lambdas)), int(self.spot_rng.choice(K_LIST))
        t = revival_time(k, self.mean_photons, self.params.g)
        return checks.compare_point(self.reference, float(lambdas[i]), t,
                                    {"dem_exact": float(scan.dem_at_T[k][i])})


WORKLOADS = {w.name: w for w in (CliDefault, ScanTimeM200, ScanLambdaM50)}
