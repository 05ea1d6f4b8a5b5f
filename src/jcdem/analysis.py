"""Time and parameter scans: transition probability, entanglement degree,
collapse/revival detection, and the revival-time monotonicity check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import dem_closed_form, dem_exact
from .model import (
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve,
    evolve_vectors,
    time_chunks,
)

MAX_GRID_POINTS = 1_000_000
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
    requested atom state is mixed, matching the analytic c_closed.  The
    entropies come from the rank-2 joint state
    lambda0 |psi_g><psi_g| + lambda1 |psi_e><psi_e| at each time.
    """
    times = time_grid(t_max, dt)
    dims = (2, field.n_max + 1)
    cols = {name: np.empty(len(times)) for name in TIME_COLUMNS}
    coeffs = closed_form_coeffs(times, atom, field, params)
    cols["c_closed"] = coeffs.c
    cols["dem_closed"] = dem_closed_form(coeffs, log_base)
    for sl in time_chunks(len(times), field.n_max + 1):
        psi_g, psi_e = evolve_vectors(field, params, times[sl])
        cols["c_exact"][sl] = np.sum(np.abs(psi_e[:, dims[1] :]) ** 2, axis=1)
        for i, g, e in zip(range(sl.start, sl.stop), psi_g, psi_e):
            joint = atom.lambda0 * np.outer(g, g.conj()) + atom.lambda1 * np.outer(
                e, e.conj()
            )
            report = dem_exact(joint, dims, log_base)
            cols["dem_exact"][i] = report.dem
            cols["s_atom"][i] = report.s_atom
            cols["s_field"][i] = report.s_field
            cols["s_joint"][i] = report.s_joint
    return TimeSeries(times=times, columns=cols)


def scan_transition(
    field: FieldConfig, params: ModelParams, t_max: float, dt: float
) -> TimeSeries:
    """Excited-start transition probability alone: c_closed and c_exact.

    The same columns as scan_time's, without any entropy, evaluated in
    time chunks so memory stays bounded on long grids.
    """
    times = time_grid(t_max, dt)
    c_exact = np.empty(len(times))
    for sl in time_chunks(len(times), field.n_max + 1):
        psi_e = evolve_vectors(field, params, times[sl])[1]
        c_exact[sl] = np.sum(np.abs(psi_e[:, field.n_max + 1 :]) ** 2, axis=1)
    c_closed = closed_form_coeffs(times, AtomState(0.0, 1.0), field, params).c
    return TimeSeries(times=times, columns={"c_closed": c_closed, "c_exact": c_exact})


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
    # the joint state at T_k is lambda0 G_k + lambda1 E_k, with G_k and E_k
    # the evolved ground- and excited-start states
    pure = (AtomState(1.0, 0.0), AtomState(0.0, 1.0))
    projectors = {k: [evolve(a, field, params, k * t1) for a in pure] for k in k_list}
    dem_at_T = {k: np.empty(len(lambdas)) for k in k_list}
    for i, lam in enumerate(lambdas):
        atom = AtomState.from_ground_weight(float(lam))
        for k, (ground, excited) in projectors.items():
            joint = atom.lambda0 * ground + atom.lambda1 * excited
            dem_at_T[k][i] = dem_exact(joint, dims, log_base).dem
    holds = np.ones(len(lambdas), dtype=bool)
    for k_prev, k_next in zip(k_list, k_list[1:]):
        holds &= dem_at_T[k_prev] <= dem_at_T[k_next] + CONJECTURE_SLACK
    return LambdaScan(lambdas=lambdas, dem_at_T=dem_at_T, conjecture_holds=holds)
