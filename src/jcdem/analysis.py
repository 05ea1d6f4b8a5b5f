"""Time and parameter scans: transition probability, entanglement degree,
collapse/revival detection, and the revival-time monotonicity check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropies_at
from .model import AtomState, FieldConfig, ModelParams, closed_form_coeffs

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
    """Sampled trajectories on a strictly increasing, so NaN-free, time grid."""

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
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

    def __post_init__(self) -> None:
        for k, col in self.dem_at_T.items():
            if len(col) != len(self.lambdas):
                raise ValueError(f"dem_at_T[{k}] misaligned with lambda grid")

    @property
    def conjecture_holds(self) -> np.ndarray:
        """Per grid point, whether the degree is nondecreasing along
        consecutive revival indices, up to CONJECTURE_SLACK; a violation is
        data, not an error."""
        ks = sorted(self.dem_at_T)
        holds = np.ones(len(self.lambdas), dtype=bool)
        for k_prev, k_next in zip(ks, ks[1:]):
            holds &= self.dem_at_T[k_prev] <= self.dem_at_T[k_next] + CONJECTURE_SLACK
        return holds


@dataclass(frozen=True)
class RevivalReport:
    """Analytic collapse/revival times plus the detector's location."""

    t_collapse: float
    revival_times: tuple[float, ...]
    detected_revival: float
    series: TimeSeries


def _grid_size(t_max: float, dt: float) -> int:
    """Point count of time_grid(t_max, dt), checked without building it."""
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max={t_max}, dt={dt}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max <= dt:
        raise ValueError(f"t_max must exceed dt, got t_max={t_max}, dt={dt}")
    # the epsilon keeps t_max/dt = 999.9999... from losing its last row;
    # the cap is checked first, since the ratio may overflow to infinity
    steps = t_max / dt + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"grid of t_max/dt = {t_max / dt:.6g} steps exceeds "
                         f"{MAX_GRID_POINTS} points")
    return math.floor(steps) + 1


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Grid {0, dt, 2dt, ...} up to and including floor(t_max/dt)*dt."""
    return np.arange(_grid_size(t_max, dt)) * dt


def revival_period(field: FieldConfig, params: ModelParams) -> float:
    """First revival time 2*pi*sqrt(m)/g."""
    return 2.0 * math.pi * math.sqrt(field.mean_photons) / params.g


def scan_time(
    atom: AtomState, field: FieldConfig, params: ModelParams, t_max: float, dt: float
) -> TimeSeries:
    """Exact pipeline and closed forms sampled on a uniform time grid.

    The c columns always follow the excited-start convention, whatever
    the requested atom state: both are closed_form_coeffs' sums from
    lambda1 = 1.  The entropies are entropies_at's over the grid.
    """
    times = time_grid(t_max, dt)
    # entropies_at first: a time too large for it is refused before any work
    report = entropies_at(atom, field, params, times)
    coeffs = closed_form_coeffs(atom, field, params, times)
    columns = (coeffs.c, coeffs.c_exact, report.dem, coeffs.dem,
               report.s_atom, report.s_field, report.s_joint)
    return TimeSeries(times=times, columns=dict(zip(TIME_COLUMNS, columns)))


def scan_transition(
    field: FieldConfig, params: ModelParams, t_max: float, dt: float
) -> TimeSeries:
    """Excited-start transition probability alone: c_closed and c_exact.

    The same columns as scan_time's, without any entropy or state vector:
    both are closed_form_coeffs' Poisson sums, evaluated in time chunks so
    memory stays bounded on long grids.
    """
    times = time_grid(t_max, dt)
    coeffs = closed_form_coeffs(AtomState(0.0), field, params, times)
    return TimeSeries(times, {"c_closed": coeffs.c, "c_exact": coeffs.c_exact})


def revival_analysis(
    field: FieldConfig, params: ModelParams, t_max: float, dt: float
) -> RevivalReport:
    """The collapse time, revival times T1..T{REVIVALS} and a data-driven
    revival locator on scan_transition's grid, which the report keeps.

    The detector scores each center within [0.5, 1.5] revival periods by the
    max - min of c_exact over a window one dominant Rabi period wide, clipped
    to the series, and picks the best.  Before it scans, it needs a grid that
    reaches T1, a dominant Rabi period shorter than T1 (exactly when m >= 1)
    and a step at most half that period; each failure raises ValueError.
    These put a grid point in the search range and keep the half-window below
    the series length.
    """
    t1 = revival_period(field, params)
    if (_grid_size(t_max, dt) - 1) * dt < t1:
        raise ValueError(f"time grid does not cover [{0.5 * t1:.4g}, {t1:.4g}], "
                         "up to the first revival")
    # dividing twice keeps the period from overflowing with g sqrt(floor(m) + 1)
    width = 2.0 * math.pi / params.g / math.sqrt(math.floor(field.mean_photons) + 1.0)
    if width >= t1:
        raise ValueError(f"mean photon number m = {field.mean_photons:g} has no "
                         f"revival to detect (dt={dt:g})")
    if 2.0 * dt > width:
        raise ValueError(
            f"dt={dt:g} is more than half the dominant Rabi period {width:.4g}, "
            "so no detector window holds an oscillation"
        )
    series = scan_transition(field, params, t_max, dt)
    times = series.times
    # the epsilon keeps sample k in a half-width of k steps
    half = math.floor(width / 2.0 / dt + 1e-9)
    lo, hi = times.searchsorted(0.5 * t1), times.searchsorted(1.5 * t1, "right")
    # edge padding keeps each clipped window's max and min; slicing copies no window
    padded = np.pad(series.columns["c_exact"], half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)[lo:hi]
    detected = float(times[lo + np.argmax(windows.max(axis=1) - windows.min(axis=1))])
    return RevivalReport(
        t_collapse=1.0 / params.g,
        revival_times=tuple(k * t1 for k in range(1, REVIVALS + 1)),
        detected_revival=detected,
        series=series,
    )


def scan_lambda(
    field: FieldConfig, params: ModelParams, lambda_grid,
    k_list: tuple[int, ...] = tuple(range(1, REVIVALS + 1)),
) -> LambdaScan:
    """Entanglement degree at the revival times T_k over a lambda0 grid,
    with LambdaScan's conjecture flag over consecutive entries of k_list."""
    lambdas = np.asarray(lambda_grid, dtype=float)
    # AtomState checks each value's range
    if lambdas.ndim != 1 or len(lambdas) == 0:
        raise ValueError("lambda grid must be nonempty and 1-D, "
                         f"got shape {lambdas.shape}")
    # only whole k, never a bool, name revival times, which conjecture_holds compares
    whole = [isinstance(k, (int, np.integer)) and type(k) is not bool for k in k_list]
    if (not all(whole)
            or list(k_list) != sorted(set(k_list)) or min(k_list, default=0) < 1):
        raise ValueError("k_list must be strictly increasing positive integers, "
                         f"got {k_list}")
    times = revival_period(field, params) * np.asarray(k_list, dtype=float)
    dem = np.array([
        entropies_at(AtomState(float(lam)), field, params, times).dem
        for lam in lambdas
    ])
    return LambdaScan(lambdas, {k: dem[:, j] for j, k in enumerate(k_list)})
