"""Tests for time scans, revival detection, and the lambda sweep."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import marginal_product, propagated_joint, relative_entropy, windowed_range

import jcdem.analysis
import jcdem.entropy
import jcdem.model
from jcdem.analysis import (
    CONJECTURE_SLACK,
    MAX_GRID_POINTS,
    TIME_COLUMNS,
    LambdaScan,
    TimeSeries,
    revival_analysis,
    revival_period,
    scan_lambda,
    scan_time,
    scan_transition,
    time_grid,
)
from jcdem.cli import main
from jcdem.model import AtomState, FieldConfig, ModelParams, closed_form_coeffs

T1_FROZEN = 14.049629462081453  # 2*pi*sqrt(5)
BINARY_ENTROPY_07 = 0.6108643020548935

FIELD = FieldConfig(5.0)
PARAMS = ModelParams()


@pytest.fixture(scope="module")
def excited_series():
    return scan_time(AtomState(0.0), FIELD, PARAMS, 22.0, 0.05)


@pytest.fixture(scope="module")
def mixed_series():
    return scan_time(AtomState(0.7), FIELD, PARAMS, 10.0, 0.05)


def test_time_grid_default_row_count():
    grid = time_grid(50.0, 0.05)
    assert len(grid) == 1001
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(50.0, abs=1e-9)


def test_time_grid_row_count_formula():
    grid = time_grid(1.0, 0.3)
    assert len(grid) == 4
    assert np.allclose(grid, [0.0, 0.3, 0.6, 0.9])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        time_grid(10.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(0.05, 0.05)
    with pytest.raises(ValueError):
        time_grid(2000.0, 1e-6)  # exceeds MAX_GRID_POINTS
    with pytest.raises(ValueError, match="exceeds"):
        time_grid(1e308, 1e-10)  # t_max/dt overflows to infinity
    assert MAX_GRID_POINTS == 1_000_000


def test_scan_time_first_row(mixed_series):
    assert abs(mixed_series.columns["dem_exact"][0]) <= 1e-10
    assert mixed_series.columns["c_closed"][0] == pytest.approx(1.0, abs=1e-10)
    assert mixed_series.columns["s_field"][0] <= 1e-9
    assert mixed_series.columns["dem_closed"][0] == pytest.approx(
        BINARY_ENTROPY_07, abs=1e-10
    )


def test_scan_time_column_layout(mixed_series):
    assert tuple(mixed_series.columns) == TIME_COLUMNS
    for col in mixed_series.columns.values():
        assert len(col) == len(mixed_series.times)


def test_scan_time_value_ranges(mixed_series):
    for name in ("c_closed", "c_exact"):
        col = mixed_series.columns[name]
        assert np.all(col >= -1e-9) and np.all(col <= 1.0 + 1e-9)
    for name in ("dem_exact", "s_atom", "s_field", "s_joint"):
        assert np.all(mixed_series.columns[name] >= -1e-9)


def test_scan_time_c_columns_follow_excited_convention(mixed_series):
    # the transition columns are excited-start even for a mixed atom state
    assert mixed_series.columns["c_exact"][0] == pytest.approx(1.0, abs=1e-10)


def test_scan_time_closed_form_matches_exact_transition(excited_series):
    gap = np.abs(
        excited_series.columns["c_closed"] - excited_series.columns["c_exact"]
    ).max()
    assert gap <= 1e-12


def test_scan_transition_equals_the_scan_time_c_columns(mixed_series):
    series = scan_transition(FIELD, PARAMS, 10.0, 0.05)
    assert np.array_equal(series.times, mixed_series.times)
    assert tuple(series.columns) == ("c_closed", "c_exact")
    for name, col in series.columns.items():
        assert np.array_equal(col, mixed_series.columns[name])


def test_transition_and_revival_compute_no_entropies(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an entropy was computed")

    monkeypatch.setattr(jcdem.entropy, "_entropies", refuse)
    revival_analysis(FIELD, PARAMS, 22.0, 0.05)
    for command in ("transition", "revival"):
        assert main([command, "--out-csv", str(tmp_path / f"{command}.csv")]) == 0


def test_scan_transition_memory_is_bounded_on_long_grids():
    field = FieldConfig(200.0)
    tracemalloc.start()
    try:
        series = scan_transition(field, PARAMS, 1000.0, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series.times) == 100_001
    assert peak < 64 * 2**20


def test_closed_form_chunks_count_each_times_footprint(monkeypatch):
    # each time in a chunk holds about 4 W entries: the W cosines, written
    # over the phases, the W sines, their cos^2 and one W-wide sin cos product
    field = FieldConfig(50.0)
    monkeypatch.setattr(jcdem.model, "CHUNK_ELEMENTS", 1 << 30)
    whole = scan_transition(field, PARAMS, 30.0, 0.05).columns
    budget = 4096
    monkeypatch.setattr(jcdem.model, "CHUNK_ELEMENTS", budget)
    counts, sizes = [], []
    original = jcdem.model.time_chunks

    def record(n_times, entries_per_time):
        chunks = original(n_times, entries_per_time)
        counts.append(entries_per_time)
        sizes.extend(len(range(n_times)[sl]) for sl in chunks)
        return chunks

    monkeypatch.setattr(jcdem.model, "time_chunks", record)
    chunked = scan_transition(field, PARAMS, 30.0, 0.05).columns
    # a chunk's matrix-vector product may round a row differently from the
    # whole grid's, by an ulp or two
    for name in ("c_closed", "c_exact"):
        assert np.abs(chunked[name] - whole[name]).max() <= 4 * np.finfo(float).eps
    assert counts == [4 * field.n_levels]
    assert sum(sizes) == len(whole["c_exact"]) and len(sizes) > 1
    assert max(sizes) * counts[0] <= budget


def test_scan_time_refuses_a_time_beyond_the_memory_limit_before_any_work(
        walk_chunks):
    # at m = 1e5 one time of the dense entropies needs 2527 MiB: entropies_at
    # refuses it before the closed forms walk their 143 chunks of the grid
    with pytest.raises(ValueError, match="one time needs 2527 MiB > 1024 MiB"):
        scan_time(AtomState(0.7), FieldConfig(1e5), PARAMS, 50.0, 0.05)
    assert walk_chunks == []


def test_scan_time_joint_entropy_constant(mixed_series):
    err = np.abs(mixed_series.columns["s_joint"] - BINARY_ENTROPY_07).max()
    assert err <= 1e-8


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 0.0, 1.0]), columns={})
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), columns={"x": np.zeros(3)})
    # NaN compares False both ways, so a check for a step <= 0 would pass it
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries(times=np.array([0.0, math.nan, 1.0]), columns={})


@pytest.fixture
def no_scan(monkeypatch):
    """Fail any scan_transition call: a refusal must come before the scan."""
    def refuse(*args, **kwargs):
        raise AssertionError("the series was scanned")

    monkeypatch.setattr(jcdem.analysis, "scan_transition", refuse)


def _oracle_revival(m, field, params, series):
    """The detector's pick by brute force: the center in [0.5, 1.5] T1 whose
    window one dominant Rabi period, 2 pi / (g sqrt(floor(m) + 1)) at the
    requested m, wide has the largest range."""
    t1 = revival_period(field, params)
    width = 2.0 * math.pi / (params.g * math.sqrt(math.floor(m) + 1.0))
    times = series.times
    score = windowed_range(times, series.columns["c_exact"], width)
    search = (times >= 0.5 * t1) & (times <= 1.5 * t1)
    return times[search][np.argmax(score[search])]


@pytest.mark.parametrize(
    "m, g, t_max, dt",
    [(5.0, 1.0, 50.0, 0.05), (5.0, 1.0, 14.5, 0.05), (1.0, 1.0, 10.0, 0.002)],
    # the second grid ends inside the search range, so its last windows are
    # clipped; the third has a half-window of 1110 samples
    ids=["cli-grid", "ends-in-last-window", "half-window-1110"],
)
def test_revival_detector_matches_the_window_oracle(m, g, t_max, dt):
    field, params = FieldConfig(m), ModelParams(g=g)
    report = revival_analysis(field, params, t_max, dt)
    series = scan_transition(field, params, t_max, dt)
    assert np.array_equal(report.series.times, series.times)
    for name, col in series.columns.items():
        assert np.array_equal(report.series.columns[name], col)
    assert report.detected_revival == _oracle_revival(m, field, params, report.series)


def _traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs, and call()'s result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_revival_detector_copies_no_window_of_the_largest_grid():
    # at g = 0.15 the search range holds 9366 centers and each window 1711
    # samples: a copy of those windows would take 128 MB.  Past the scan's own
    # peak the detector may hold the edge-padded c_exact and its scores.
    t_max, dt, params = 0.01 * (MAX_GRID_POINTS - 1), 0.01, ModelParams(g=0.15)
    scan_peak, series = _traced_peak(lambda: scan_transition(FIELD, params, t_max, dt))
    assert len(series.times) == MAX_GRID_POINTS
    del series
    peak, report = _traced_peak(lambda: revival_analysis(FIELD, params, t_max, dt))
    assert peak < scan_peak + 2 * report.series.times.nbytes
    assert 0.5 <= report.detected_revival / report.revival_times[0] <= 1.5


def test_revival_report_analytic_times():
    report = revival_analysis(FIELD, PARAMS, 22.0, 0.05)
    assert report.t_collapse == pytest.approx(1.0)
    assert report.revival_times[0] == pytest.approx(T1_FROZEN, abs=1e-12)
    assert np.allclose(
        report.revival_times, [T1_FROZEN, 2 * T1_FROZEN, 3 * T1_FROZEN], atol=1e-12
    )
    assert revival_period(FIELD, PARAMS) == pytest.approx(T1_FROZEN, abs=1e-12)


def test_revival_detector_lands_near_first_revival():
    report = revival_analysis(FIELD, PARAMS, 22.0, 0.05)
    assert report.detected_revival == pytest.approx(14.25, abs=1e-9)
    assert abs(report.detected_revival - T1_FROZEN) <= 2.0


def test_revival_scaling_with_coupling():
    params2 = ModelParams(g=2.0)
    report = revival_analysis(FIELD, params2, 12.0, 0.025)
    assert report.t_collapse == pytest.approx(0.5)
    assert report.revival_times[0] == pytest.approx(T1_FROZEN / 2.0, abs=1e-12)
    assert abs(report.detected_revival - T1_FROZEN / 2.0) <= 1.0


def test_revival_requires_series_through_first_revival(no_scan):
    with pytest.raises(ValueError, match=r"does not cover \[7\.025, 14\.05\]"):
        revival_analysis(FIELD, PARAMS, 5.0, 0.1)


@pytest.mark.parametrize(
    "m, t_max, dt, period",
    [(1e3, 320.0, 0.1, 0.1986), (200.0, 100.0, 0.25, 0.4432), (5.0, 30.0, 1.5, 2.5651),
     (5.0, 23.0, 22.0, 2.5651), (3.0, 30.0, 1.7, 3.1416)],
    # m = 3's square root squares back to 3 only if rounded up: a floor of
    # 2.9999999999999996 took the period 2 pi / sqrt(3) = 3.6276 and passed dt = 1.7
)
def test_revival_rejects_a_grid_coarser_than_half_the_rabi_period(
        m, t_max, dt, period, no_scan):
    # the detector's window would hold one sample, so every amplitude would
    # read 0 and argmax would return the first point of the search window;
    # at dt = 22 no grid point even falls in [0.5, 1.5] T1
    field = FieldConfig(m)
    message = f"dt={dt:g} is more than half the dominant Rabi period {period:.4g}"
    with pytest.raises(ValueError, match=re.escape(message)):
        revival_analysis(field, PARAMS, t_max, dt)


def test_revival_detector_resolves_a_grid_just_below_half_the_rabi_period():
    # at m = 1e3 half the period is 0.0993
    field = FieldConfig(1e3)
    report = revival_analysis(field, PARAMS, 320.0, 0.09)
    assert abs(report.detected_revival / report.revival_times[0] - 1.0) <= 3e-3


def test_revival_rejects_a_vacuum_field(no_scan):
    # below one photon the dominant Rabi period 2 pi / g outlasts T1, so every
    # window reaches back to the collapse and the scores cannot place a revival
    for m in (0.0, 0.3, 0.5, 0.9):
        field = FieldConfig(m)
        message = f"m = {m:g} has no revival to detect (dt=0.05)"
        with pytest.raises(ValueError, match=re.escape(message)):
            revival_analysis(field, PARAMS, 10.0, 0.05)


def test_revival_cli_reports_the_empty_window(tmp_path, capsys):
    cases = [(["--t-max", "10"], "does not cover [7.025, 14.05]"),
             (["--mean-photons", "0"], "m = 0 has no revival to detect"),
             (["--mean-photons", "0.5"], "m = 0.5 has no revival to detect"),
             (["--mean-photons", "1000", "--t-max", "320", "--dt", "0.1"],
              "half the dominant Rabi period")]
    for flags, message in cases:
        assert main(["revival", *flags, "--out-csv", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_revival_cli_refuses_its_grid_before_scanning(tmp_path, capsys, no_scan):
    # the grid guards read only the flags: this grid's 100 001 times took
    # 2.5 s to scan before its step was refused, and the run exited 1
    argv = ["revival", "--mean-photons", "1e4", "--t-max", "5000", "--dt", "0.05",
            "--out-csv", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    assert "dt=0.05 is more than half the dominant Rabi period 0.06283" in (
        capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()


def test_revival_cli_names_the_rabi_period_of_a_huge_coupling(tmp_path, capsys, no_scan):
    # 2 pi / (g sqrt(6)) overflows in its product at g = 1e308 and read 0.0;
    # the period itself, 2.565e-308, is a normal float
    argv = ["revival", "--g", "1e308", "--t-max", "1", "--dt", "0.5",
            "--out-csv", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    assert "dt=0.5 is more than half the dominant Rabi period 2.565e-308" in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "m, t_max, dt",
    [(5.0, 50.0, 0.05), (5.0, 14.0496, 0.05), (5.0, 14.05, 0.05), (0.5, 50.0, 0.05),
     (1e3, 320.0, 0.1), (1e3, 320.0, 0.09), (5.0, 23.0, 22.0), (3.0, 30.0, 1.7)],
    # T1 = 14.04963 at m = 5: the grid to 14.0496 stops at 14.0 and misses it
)
def test_revival_cli_and_detector_refuse_the_same_grids(m, t_max, dt, tmp_path, capsys):
    field = FieldConfig(m)
    try:
        revival_analysis(field, PARAMS, t_max, dt)
        refused = None
    except ValueError as exc:
        refused = str(exc)
    argv = ["revival", "--mean-photons", str(m), "--t-max", str(t_max), "--dt", str(dt),
            "--out-csv", str(tmp_path / "r.csv")]
    code, err = main(argv), capsys.readouterr().err
    if refused is None:
        assert (code, err) == (0, "")
    else:
        assert code == 2 and err.endswith(f"error: {refused}\n")


def test_collapse_amplitude_profile(excited_series):
    amp = windowed_range(excited_series.times, excited_series.columns["c_exact"], 2.0)
    times = excited_series.times
    early = amp[(times >= 0.0) & (times <= 1.0)]
    quiet = amp[(times >= 4.0) & (times <= 6.0)]
    assert early.max() > 0.4
    assert quiet.max() < 0.1


def test_exact_peak_sits_late_in_the_window(mixed_series):
    # The exact entanglement degree keeps climbing toward the revival and
    # peaks near t = 9.8 on [0, 10], well after the analytic peak at 3.15.
    # The acceptance gate asserts the analytic window and reports this gap.
    times = mixed_series.times
    peak_t = times[int(np.argmax(mixed_series.columns["dem_exact"]))]
    assert peak_t == pytest.approx(9.8, abs=1e-9)


def test_closed_form_peak_lands_in_window(mixed_series):
    times = mixed_series.times
    peak_t = times[int(np.argmax(mixed_series.columns["dem_closed"]))]
    assert peak_t == pytest.approx(3.15, abs=1e-9)
    assert 3.0 <= peak_t <= 7.0


def test_scan_lambda_shapes_and_flags():
    grid = np.array([0.0, 0.5, 1.0])
    scan = scan_lambda(FIELD, PARAMS, grid, k_list=(1, 2))
    assert np.array_equal(scan.lambdas, grid)
    assert set(scan.dem_at_T) == {1, 2}
    for col in scan.dem_at_T.values():
        assert len(col) == 3
        assert np.all(col >= -1e-9)
        assert np.all(np.isfinite(col))
    expected = scan.dem_at_T[1] <= scan.dem_at_T[2] + CONJECTURE_SLACK
    assert np.array_equal(scan.conjecture_holds, expected)


def test_scan_lambda_matches_the_dense_oracle_at_revival_times():
    lambdas = [0.0, 0.3, 0.7, 1.0]
    scan = scan_lambda(FIELD, PARAMS, lambdas)
    dims = (2, FIELD.n_max + 1)
    for i, lam in enumerate(lambdas):
        for k in (1, 2, 3):
            joint = propagated_joint(
                AtomState(lam), FIELD, PARAMS, k * T1_FROZEN
            )
            oracle = relative_entropy(joint, marginal_product(joint, dims))
            assert abs(scan.dem_at_T[k][i] - oracle) <= 1e-10, (lam, k)


def test_scan_lambda_validation():
    with pytest.raises(ValueError):
        scan_lambda(FIELD, PARAMS, [0.0, 1.5])
    with pytest.raises(ValueError):
        scan_lambda(FIELD, PARAMS, [])
    with pytest.raises(ValueError, match=r"1-D, got shape \(1, 2\)"):
        scan_lambda(FIELD, PARAMS, [[0.1, 0.2]])
    with pytest.raises(ValueError):
        scan_lambda(FIELD, PARAMS, [0.0, 1.0], k_list=(2, 1))
    with pytest.raises(ValueError):
        scan_lambda(FIELD, PARAMS, [0.0, 1.0], k_list=(0, 1))
    # dem_at_T[1.5] would be the degree at 1.5 T1, which is no revival time,
    # yet conjecture_holds would compare it as one; a bool is an int in
    # Python but names no revival
    for k_list in ((1.5, 2), (1, 2.0), (1, np.float64(3.0)), (True, 2), (np.True_, 2)):
        with pytest.raises(ValueError, match="strictly increasing positive integers"):
            scan_lambda(FIELD, PARAMS, [0.3, 0.7], k_list=k_list)


def test_scan_lambda_rejects_an_empty_k_list():
    with pytest.raises(ValueError, match="k_list must be strictly increasing positive"):
        scan_lambda(FIELD, PARAMS, [0.0, 1.0], k_list=())


def test_scan_lambda_accepts_numpy_integer_revival_indices():
    scan = scan_lambda(FIELD, PARAMS, [0.3, 0.7], k_list=np.array([1, 3]))
    expected = scan_lambda(FIELD, PARAMS, [0.3, 0.7], k_list=(1, 3))
    for k in (1, 3):
        assert np.array_equal(scan.dem_at_T[k], expected.dem_at_T[k])


def test_lambda_scan_validation():
    with pytest.raises(ValueError):
        LambdaScan(
            lambdas=np.array([0.0, 1.0]),
            dem_at_T={1: np.zeros(3)},
        )


def test_closed_form_degree_is_monotone_across_revivals():
    # The analytic degree satisfies the nondecreasing-revival property at
    # every grid point; the exact pipeline violates it near the pure
    # endpoints, which the acceptance gate reports.
    t1 = revival_period(FIELD, PARAMS)
    for lam in np.linspace(0.0, 1.0, 21):
        atom = AtomState(float(lam))
        d1, d2, d3 = (
            closed_form_coeffs(atom, FIELD, PARAMS, k * t1).dem
            for k in (1, 2, 3)
        )
        assert d1 <= d2 + CONJECTURE_SLACK
        assert d2 <= d3 + CONJECTURE_SLACK
