"""Time and parameter scans: transition probability, entanglement degree,
collapse/revival detection, and the revival-time monotonicity check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import dem_closed_form, entropies_at
from .model import (
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve_vectors,
    time_chunks,
)

MAX_GRID_POINTS = 1_000_000
# Revival times T1..T{REVIVALS} that revival_analysis reports and
# scan_lambda samples by default.
REVIVALS = 3
# Numerical slack for the revival-time monotonicity comparison.
CONJECTURE_SLACK = 1e-9

TIME_COLUMNS = ("c_closed", "c_exact", "dem_exact", "dem_closed",
                "s_atom", "s_field", "s_joint")


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
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max={t_max}, dt={dt}")
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


def _excited_population(
    field: FieldConfig, params: ModelParams, times: np.ndarray
) -> np.ndarray:
    """Excited-level weight of the excited-start state, in time chunks."""
    width = field.n_levels
    c_exact = np.empty(len(times))
    # psi_g and psi_e, 2W each, and evolve_vectors' three W-wide temporaries
    for sl in time_chunks(len(times), 7 * width):
        psi_e = evolve_vectors(field, params, times[sl])[1]
        c_exact[sl] = np.sum(np.abs(psi_e[:, width:]) ** 2, axis=1)
    return c_exact


def scan_time(
    atom: AtomState,
    field: FieldConfig,
    params: ModelParams,
    t_max: float,
    dt: float,
) -> TimeSeries:
    """Exact pipeline and closed forms sampled on a uniform time grid.

    The c columns always follow the excited-start convention: c_exact is
    the excited-level population evolved from lambda1 = 1 even when the
    requested atom state is mixed, matching the analytic c_closed.  The
    entropies are entropies_at's over the grid.
    """
    times = time_grid(t_max, dt)
    coeffs = closed_form_coeffs(times, atom, field, params)
    report = entropies_at(atom, field, params, times)
    columns = (coeffs.c, _excited_population(field, params, times), report.dem,
               dem_closed_form(coeffs), report.s_atom, report.s_field,
               report.s_joint)
    return TimeSeries(times=times, columns=dict(zip(TIME_COLUMNS, columns)))


def scan_transition(
    field: FieldConfig, params: ModelParams, t_max: float, dt: float
) -> TimeSeries:
    """Excited-start transition probability alone: c_closed and c_exact.

    The same columns as scan_time's, without any entropy, evaluated in
    time chunks so memory stays bounded on long grids.
    """
    times = time_grid(t_max, dt)
    c_closed = closed_form_coeffs(times, AtomState(0.0, 1.0), field, params).c
    c_exact = _excited_population(field, params, times)
    return TimeSeries(times=times, columns={"c_closed": c_closed, "c_exact": c_exact})


def sliding_amplitude(times, values, width: float) -> np.ndarray:
    """max - min of values within a centered window of the given width.

    times must be a uniform grid, as time_grid builds, so the window is a
    fixed number of samples either side; windows that reach past an end
    are clipped to the series.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times for {len(values)} values")
    if len(times) < 2:
        return np.zeros(len(values))
    step = (times[-1] - times[0]) / (len(times) - 1)
    uniform = times[0] + step * np.arange(len(times))
    if not (step > 0 and np.allclose(times, uniform, rtol=0.0, atol=1e-6 * step)):
        raise ValueError("times must be a uniform, strictly increasing grid")
    # the epsilon keeps a half-width of exactly k steps from losing sample k
    half = min(int(math.floor(width / 2.0 / step + 1e-9)), len(values) - 1)
    # repeating the end values leaves each clipped window's max and min as is
    padded = np.pad(values, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return windows.max(axis=1) - windows.min(axis=1)


def revival_analysis(
    field: FieldConfig, params: ModelParams, series: TimeSeries
) -> RevivalReport:
    """The collapse time, revival times T1..T{REVIVALS} and a data-driven
    revival locator.

    The detector slides a window one dominant Rabi period wide over the
    excited-population oscillation amplitude and picks the maximizing
    center within [0.5, 1.5] revival periods.  A vacuum field (m = 0) has
    no revival, and a grid with no point in that window, or one coarser
    than half the Rabi period, cannot place one; all three raise ValueError.
    """
    t1 = revival_period(field, params)
    times = np.asarray(series.times)
    step = times[1] - times[0] if len(times) > 1 else 0.0
    if t1 == 0.0:
        raise ValueError(
            f"mean photon number m = 0 has no revival to detect (dt={step:g})"
        )
    if len(times) == 0 or times[-1] < t1:
        raise ValueError(
            f"series ends at t={times[-1] if len(times) else 0}, "
            f"before the first revival at {t1:.4f}"
        )
    mask = (times >= 0.5 * t1) & (times <= 1.5 * t1)
    if not mask.any():
        raise ValueError(
            f"no grid point in the revival window [{0.5 * t1:.4f}, "
            f"{1.5 * t1:.4f}] at dt={step:g}"
        )
    dominant_n = int(math.floor(field.mean_photons))
    width = 2.0 * math.pi / (params.g * math.sqrt(dominant_n + 1.0))
    if 2.0 * step > width:
        raise ValueError(
            f"dt={step:g} is more than half the dominant Rabi period {width:.4f}, "
            "so no detector window holds an oscillation"
        )
    amp = sliding_amplitude(times, series.columns["c_exact"], width)
    detected = float(times[mask][np.argmax(amp[mask])])
    return RevivalReport(
        t_collapse=1.0 / params.g,
        revival_times=tuple(k * t1 for k in range(1, REVIVALS + 1)),
        detected_revival=detected,
    )


def scan_lambda(
    field: FieldConfig,
    params: ModelParams,
    lambda_grid,
    k_list: tuple[int, ...] = tuple(range(1, REVIVALS + 1)),
) -> LambdaScan:
    """Entanglement degree at the revival times T_k over a lambda0 grid.

    The per-point conjecture flag records whether the degree is
    nondecreasing along consecutive entries of k_list, up to
    CONJECTURE_SLACK; a violation is data, not an error.
    """
    lambdas = np.asarray(lambda_grid, dtype=float)
    if len(lambdas) == 0 or lambdas.min() < 0.0 or lambdas.max() > 1.0:
        raise ValueError("lambda grid must be nonempty and lie in [0, 1]")
    if list(k_list) != sorted(set(k_list)) or min(k_list, default=0) < 1:
        raise ValueError(f"k_list must be strictly increasing positive, got {k_list}")
    times = revival_period(field, params) * np.asarray(k_list, dtype=float)
    dem = np.array([
        entropies_at(AtomState.from_ground_weight(float(lam)), field, params, times).dem
        for lam in lambdas
    ])
    dem_at_T = {k: dem[:, j] for j, k in enumerate(k_list)}
    holds = np.ones(len(lambdas), dtype=bool)
    for k_prev, k_next in zip(k_list, k_list[1:]):
        holds &= dem_at_T[k_prev] <= dem_at_T[k_next] + CONJECTURE_SLACK
    return LambdaScan(lambdas=lambdas, dem_at_T=dem_at_T, conjecture_holds=holds)
