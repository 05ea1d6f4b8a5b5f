"""Time and parameter scans: transition probability, entanglement degree,
collapse/revival detection, and the revival-time monotonicity check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import dem_closed_form, dem_exact
from .linalg import dagger
from .model import (
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    initial_joint_state,
    propagator,
)

MAX_GRID_POINTS = 1_000_000
# Numerical slack for the revival-time monotonicity comparison.
CONJECTURE_SLACK = 1e-9
# Window width (time units) used to quantify the oscillation amplitude
# when checking for collapse; the revival detector sizes its own window
# from the dominant Rabi period instead.
COLLAPSE_WINDOW = 2.0

TIME_COLUMNS = (
    "c_closed",
    "c_exact",
    "dem_exact",
    "dem_closed",
    "s_atom",
    "s_field",
    "s_joint",
)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectories on a strictly increasing time grid."""

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, col in self.columns.items():
            if len(col) != len(self.times):
                raise ValueError(
                    f"column {name!r} has {len(col)} entries for "
                    f"{len(self.times)} times"
                )


@dataclass(frozen=True)
class LambdaScan:
    """Entanglement degree at revival times over a ground-weight grid."""

    lambdas: np.ndarray
    dem_at_T: dict[int, np.ndarray]
    conjecture_holds: np.ndarray

    def __post_init__(self) -> None:
        for k, col in self.dem_at_T.items():
            if len(col) != len(self.lambdas):
                raise ValueError(f"dem_at_T[{k}] misaligned with lambda grid")
        if len(self.conjecture_holds) != len(self.lambdas):
            raise ValueError("conjecture_holds misaligned with lambda grid")


@dataclass(frozen=True)
class RevivalReport:
    """Analytic collapse/revival times plus the detector's location."""

    t_collapse: float
    revival_times: tuple[float, ...]
    detected_revival: float


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Grid {0, dt, 2dt, ...} up to and including floor(t_max/dt)*dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max <= dt:
        raise ValueError(f"t_max must exceed dt, got t_max={t_max}, dt={dt}")
    # the epsilon keeps t_max/dt = 999.9999... from losing its last row
    n_steps = int(math.floor(t_max / dt + 1e-9))
    if n_steps + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid of {n_steps + 1} points exceeds {MAX_GRID_POINTS}")
    return np.arange(n_steps + 1) * dt


def revival_period(field: FieldConfig, params: ModelParams) -> float:
    """First revival time 2*pi*|theta|/g."""
    return 2.0 * math.pi * math.sqrt(field.mean_photons) / params.g


def scan_time(
    atom: AtomState,
    field: FieldConfig,
    params: ModelParams,
    t_max: float,
    dt: float,
    log_base: str = "e",
) -> TimeSeries:
    """Exact pipeline and closed forms sampled on a uniform time grid.

    The c columns always follow the excited-start convention: c_exact is
    the excited-level population evolved from lambda1 = 1 even when the
    requested atom state is mixed, matching the analytic c_closed.
    """
    times = time_grid(t_max, dt)
    dims = (2, field.n_max + 1)
    rho0 = initial_joint_state(atom, field)
    excited_start = atom.lambda1 == 1.0
    rho0_exc = rho0 if excited_start else initial_joint_state(
        AtomState(0.0, 1.0), field
    )
    cols = {name: np.empty(len(times)) for name in TIME_COLUMNS}
    coeffs = closed_form_coeffs(times, atom, field, params)
    cols["c_closed"] = coeffs.c
    cols["dem_closed"] = dem_closed_form(coeffs, log_base)
    for i, t in enumerate(times):
        u = propagator(float(t), params, field.n_max)
        ud = dagger(u)
        joint = u @ rho0 @ ud
        joint = 0.5 * (joint + dagger(joint))
        report = dem_exact(joint, dims, log_base)
        joint_exc = joint if excited_start else u @ rho0_exc @ ud
        cols["c_exact"][i] = joint_exc.diagonal().real[field.n_max + 1 :].sum()
        cols["dem_exact"][i] = report.dem
        cols["s_atom"][i] = report.s_atom
        cols["s_field"][i] = report.s_field
        cols["s_joint"][i] = report.s_joint
    return TimeSeries(times=times, columns=cols)


def sliding_amplitude(times, values, width: float) -> np.ndarray:
    """max - min of values within a centered window of the given width."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    half = width / 2.0
    out = np.empty(len(values))
    lo = 0
    hi = -1
    for i in range(len(values)):
        while times[i] - times[lo] > half:
            lo += 1
        hi = max(hi, i)
        while hi + 1 < len(values) and times[hi + 1] - times[i] <= half:
            hi += 1
        window = values[lo : hi + 1]
        out[i] = window.max() - window.min()
    return out


def revival_analysis(
    field: FieldConfig,
    params: ModelParams,
    k_max: int,
    series: TimeSeries,
) -> RevivalReport:
    """Analytic collapse/revival times and a data-driven revival locator.

    The detector slides a window one dominant Rabi period wide over the
    excited-population oscillation amplitude and picks the maximizing
    center within [0.5, 1.5] revival periods.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    t1 = revival_period(field, params)
    times = np.asarray(series.times)
    if len(times) == 0 or times[-1] < t1:
        raise ValueError(
            f"series ends at t={times[-1] if len(times) else 0}, "
            f"before the first revival at {t1:.4f}"
        )
    dominant_n = int(math.floor(field.mean_photons))
    width = 2.0 * math.pi / (params.g * math.sqrt(dominant_n + 1.0))
    amp = sliding_amplitude(times, series.columns["c_exact"], width)
    mask = (times >= 0.5 * t1) & (times <= 1.5 * t1)
    centers = times[mask]
    detected = float(centers[np.argmax(amp[mask])])
    return RevivalReport(
        t_collapse=1.0 / params.g,
        revival_times=tuple(k * t1 for k in range(1, k_max + 1)),
        detected_revival=detected,
    )


def scan_lambda(
    field: FieldConfig,
    params: ModelParams,
    lambda_grid,
    k_list: tuple[int, ...] = (1, 2, 3),
    log_base: str = "e",
) -> LambdaScan:
    """Entanglement degree at the revival times T_k over a lambda0 grid.

    The per-point conjecture flag records whether the degree is
    nondecreasing along consecutive entries of k_list, up to
    CONJECTURE_SLACK; a violation is data, not an error.
    """
    lambdas = np.asarray(lambda_grid, dtype=float)
    if len(lambdas) == 0 or lambdas.min() < 0.0 or lambdas.max() > 1.0:
        raise ValueError("lambda grid must be nonempty and lie in [0, 1]")
    if list(k_list) != sorted(set(k_list)) or min(k_list) < 1:
        raise ValueError(f"k_list must be strictly increasing positive, got {k_list}")
    t1 = revival_period(field, params)
    dims = (2, field.n_max + 1)
    units = {k: propagator(k * t1, params, field.n_max) for k in k_list}
    dem_at_T = {k: np.empty(len(lambdas)) for k in k_list}
    for i, lam in enumerate(lambdas):
        atom = AtomState.from_ground_weight(float(lam))
        rho0 = initial_joint_state(atom, field)
        for k in k_list:
            u = units[k]
            joint = u @ rho0 @ dagger(u)
            joint = 0.5 * (joint + dagger(joint))
            dem_at_T[k][i] = dem_exact(joint, dims, log_base).dem
    holds = np.ones(len(lambdas), dtype=bool)
    for k_prev, k_next in zip(k_list, k_list[1:]):
        holds &= dem_at_T[k_prev] <= dem_at_T[k_next] + CONJECTURE_SLACK
    return LambdaScan(lambdas=lambdas, dem_at_T=dem_at_T, conjecture_holds=holds)
