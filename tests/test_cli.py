"""Tests for argument parsing, the CLI commands, and plot rendering."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcdem.cli
from jcdem.analysis import TimeSeries, time_grid
from jcdem.cli import COMMANDS, build_parser, main, parse_args
from jcdem.svgplot import _ticks, atomic_writer, render_plot


SRC = Path(jcdem.cli.__file__).parents[1]


def svg_elements(path, local_name):
    root = ET.parse(path).getroot()
    return [e for e in root.iter() if e.tag.endswith(local_name)]


def test_parse_args_defaults():
    config = parse_args(["scan-time"])
    assert isinstance(config, argparse.Namespace)
    assert config.command == "scan-time"
    assert config.out_csv == "jc_scan_time.csv"
    assert config.g == 1.0
    assert config.omega0 == 1.0
    assert config.mean_photons == 5.0
    assert config.lambda0 == 0.7
    assert config.t_max == 50.0
    assert config.dt == 0.05
    assert config.tail_tol == 1e-12
    assert config.log_base == "e"
    assert config.lambda_points == 21
    assert config.out_svg is None


def test_parse_args_overrides():
    config = parse_args(
        [
            "scan-lambda",
            "--g", "2.0",
            "--mean-photons", "3.0",
            "--lambda-points", "11",
            "--log-base", "2",
            "--out-csv", "custom.csv",
            "--out-svg", "plot.svg",
        ]
    )
    assert config.command == "scan-lambda"
    assert config.g == 2.0
    assert config.mean_photons == 3.0
    assert config.lambda_points == 11
    assert config.log_base == "2"
    assert config.out_csv == "custom.csv"
    assert config.out_svg == "plot.svg"


def _traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_args_checks_the_grid_without_building_it(tmp_path, capsys):
    # 1 000 001 points, 8 MB as a float grid, and a grid whose size overflows:
    # the command refuses both without building them
    csv = tmp_path / "tr.csv"
    for argv in (["transition", "--t-max", "50000", "--dt", "0.05"],
                 ["transition", "--t-max", "1e308", "--dt", "1e-10"]):
        assert _traced_peak(lambda: main([*argv, "--out-csv", str(csv)])) < 1 << 20
        assert "exceeds 1000000 points" in capsys.readouterr().err
    assert not csv.exists()


def test_parse_args_default_csv_name_follows_command():
    assert parse_args(["revival"]).out_csv == "jc_revival.csv"
    assert parse_args(["scan-lambda"]).out_csv == "jc_scan_lambda.csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-time", "--lambda0", "1.5"],
        ["scan-time", "--lambda0", "-0.1"],
        ["scan-time", "--g", "0"],
        ["scan-time", "--dt", "0"],
        ["scan-time", "--t-max", "0.01"],
        ["scan-time", "--tail-tol", "2"],
        ["scan-time", "--omega0", "-1"],
        ["scan-time", "--mean-photons", "-1"],
        ["scan-lambda", "--lambda-points", "1"],
        ["scan-time", "--log-base", "10"],
        ["scan-time", "--no-such-flag"],
        ["no-such-command"],
        [],
        ["transition", "--g", "inf"],
        ["transition", "--omega0", "inf"],
        ["transition", "--t-max", "inf"],
        ["transition", "--out-csv", "same.out", "--out-svg", "./same.out"],
        ["transition", "--t-max", "1e308", "--dt", "1e-10"],
        ["scan-lambda", "--lambda-points", "1000001"],
        ["scan-lambda", "--lambda-points", "100000000000000000000"],
        ["transition", "--out-csv", ""],
        ["transition", "--out-svg", ""],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "usage" in capsys.readouterr().err.lower()
    assert list(tmp_path.iterdir()) == []


def test_scan_lambda_reads_no_time_grid(tmp_path, capsys):
    # scan-lambda samples T1..T3 alone, so a grid transition refuses is no
    # error for it
    plain = tmp_path / "plain.csv"
    assert main(["scan-lambda", "--out-csv", str(plain)]) == 0
    for flags in (["--dt", "100"], ["--t-max", "1e308", "--dt", "1e-10"]):
        csv = tmp_path / "flags.csv"
        assert main(["scan-lambda", *flags, "--out-csv", str(csv)]) == 0
        assert csv.read_bytes() == plain.read_bytes()
    assert main(["transition", "--t-max", "1e308", "--dt", "1e-10",
                 "--out-csv", str(tmp_path / "tr.csv")]) == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "tr.csv").exists()


NON_FINITE = (math.nan, math.inf, -math.inf)


def _box(usual, refused):
    """usual's values five times in six, else one of refused."""
    return st.tuples(st.integers(0, 5), st.sampled_from(refused), usual).map(
        lambda pick: pick[1] if pick[0] == 5 else pick[2])


# Each flag draws from a box that also holds values the model refuses, or
# extremes such as g = 1e308, whose phases overflow; the usual values keep a
# run cheap: m <= 20 and at most 401 grid points.
FLAG_VALUES = {
    "--g": _box(st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
                (*NON_FINITE, -1.0, 0.0, 5e-324, 1e308)),
    "--mean-photons": _box(st.floats(0.0, 20.0), (*NON_FINITE, -1.0, 1e8)),
    "--t-max": _box(st.floats(2.0, 40.0), (*NON_FINITE, -1.0, 0.0, 1e308)),
    "--dt": _box(st.floats(0.1, 2.0), (*NON_FINITE, -1.0, 0.0)),
    "--tail-tol": _box(st.floats(-15.0, -0.3).map(lambda e: 10.0**e),
                       (*NON_FINITE, -1.0, 0.0, 1.0)),
    "--lambda0": _box(st.floats(0.0, 1.0), (*NON_FINITE, -1.0, 1.5)),
    "--lambda-points": _box(st.integers(2, 50), (1,)),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(FLAG_VALUES))
def test_every_command_exits_0_with_a_finite_table_or_2_with_usage(command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        argv = [command, *(f"{name}={value}" for name, value in flags.items()),
                "--out-csv", str(csv)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            assert table.size and np.isfinite(table).all(), argv
        else:
            assert code == 2 and "usage" in err.getvalue(), (argv, err.getvalue())
            assert list(Path(tmp).iterdir()) == [], argv


def test_a_symlink_naming_the_csv_as_the_svg_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    argv = ["transition", "--out-csv", str(tmp_path / "d" / "out.csv"),
            "--out-svg", str(tmp_path / "link" / "out.csv")]
    assert main(argv) == 2
    assert "name the same file" in capsys.readouterr().err
    assert list((tmp_path / "d").iterdir()) == []


def test_usage_errors_carry_the_model_message(tmp_path, capsys):
    assert main(["scan-time", "--mean-photons", "nan"]) == 2
    assert "mean_photons must be finite and nonnegative" in capsys.readouterr().err
    # beyond the supported range the CLI stops before any Poisson table
    out = tmp_path / "big.csv"
    assert main(["transition", "--mean-photons", "1e8", "--out-csv", str(out)]) == 2
    assert "at most 1000000" in capsys.readouterr().err
    assert not out.exists()


def _run_child(script, arg, cwd):
    """Run script with one argument in a fresh interpreter on one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, arg],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60)


# Runs each argv of argv[1] through main under a 2 GiB address space, so a
# dense entropy that slips past the guard fails fast instead of taking the host.
GUARDED_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from jcdem.cli import main, parse_args
runs = []
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    runs.append([main(argv), time.perf_counter() - start])
width = parse_args(["transition", "--mean-photons", "1e6"]).field.n_levels
print(json.dumps({"runs": runs, "transition_width": width}))
"""


def test_entropy_commands_refuse_a_time_beyond_the_memory_limit(tmp_path):
    # one time of the dense entropies holds 128 W^2 bytes: 2527 MiB at m = 1e5
    # (W = 4550) and 25700 MiB at 1e6 (W = 14510), so both are usage errors,
    # while transition needs no entropy and keeps m = 1e6
    argvs = [[cmd, "--mean-photons", m] for cmd in ("scan-time", "scan-lambda")
             for m in ("1e5", "1e6")]
    child = _run_child(GUARDED_CHILD, json.dumps(argvs), tmp_path)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert [code for code, _ in report["runs"]] == [2, 2, 2, 2], child.stderr
    assert max(seconds for _, seconds in report["runs"]) < 1.0
    assert report["transition_width"] == 14510
    for size in ("2527 MiB", "25700 MiB"):
        message = f"one time needs {size} > 1024 MiB: lower --mean-photons or raise --tail-tol"
        assert child.stderr.count(message) == 2
    assert list(tmp_path.iterdir()) == []


# Under the same limit, the rise of the peak RSS while entropies_at takes one
# time at m = argv[1], after a warm-up, and the bytes the walk's guard counts
# for that time.
MEASURED_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import jcdem.model
from jcdem.entropy import entropies_at
from jcdem.model import AtomState, FieldConfig, ModelParams
counted, chunks = [], jcdem.model.time_chunks
def record(n_times, entries_per_time):
    counted.append(16 * entries_per_time)
    return chunks(n_times, entries_per_time)
jcdem.model.time_chunks = record
atom, params = AtomState(0.7), ModelParams()
entropies_at(atom, FieldConfig(5.0), params, 1.0)
field = FieldConfig(float(sys.argv[1]))
entropies_at(atom, field, params, [])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
entropies_at(atom, field, params, 7.0)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) << 10
print(json.dumps({"rise": rise, "counted": counted[-1], "width": field.n_levels}))
"""


def test_memory_guard_counts_the_peak_of_one_time(tmp_path):
    # one time holds the 2W-dim joint state and eigvalsh's working copy of it,
    # 128 W^2 bytes: 75 MiB at m = 3e3 (W = 786), which the peak RSS rose by
    # 1.02x in a measured run; a count of the joint and a W-dim field
    # marginal alone, 80 W^2 bytes, read 1.62x
    child = _run_child(MEASURED_CHILD, "3e3", tmp_path)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["width"] == 786
    assert report["rise"] <= 1.1 * report["counted"], report


def test_help_states_each_default_the_parser_holds():
    # every "(default X)" in a flag's help must name the parser's default
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    stated_count = 0
    for name, cmd in sub.choices.items():
        for action in cmd._actions:
            found = re.search(r"\(default (\S+)\)", action.help or "")
            if found is None:
                continue
            stated_count += 1
            stated = found.group(1)
            if action.type in (int, float):
                assert action.type(stated) == action.default, (name, action.dest)
            elif action.dest == "out_csv":
                resolved = stated.replace("<command>", name.replace("-", "_"))
                assert resolved == parse_args([name]).out_csv, name
            else:
                assert stated == action.default, (name, action.dest)
    assert stated_count == 10 * len(COMMANDS)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_transition_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    code = main(
        ["transition", "--t-max", "3", "--dt", "0.1", "--out-csv", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,c_closed,c_exact"
    assert len(lines) == 1 + 31  # header + floor(3/0.1)+1 rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
    assert f"wrote {out}" in capsys.readouterr().out


def test_csv_values_round_trip_at_12_digits(tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["transition", "--t-max", "2", "--dt", "0.25", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            assert f"{float(cell):.12e}" == cell


def test_scan_time_default_grid_row_count(tmp_path):
    out = tmp_path / "st.csv"
    assert main(["scan-time", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,c_closed,c_exact,dem_exact,dem_closed,s_atom,s_field,s_joint"
    assert len(lines) == 1 + 1001
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(50.0, abs=1e-9)


def test_scan_lambda_csv_layout(tmp_path):
    out = tmp_path / "sl.csv"
    assert main(["scan-lambda", "--lambda-points", "5", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda0,dem_T1,dem_T2,dem_T3,conjecture_holds"
    assert len(lines) == 1 + 5
    lambdas = [float(line.split(",")[0]) for line in lines[1:]]
    assert lambdas == pytest.approx(list(np.linspace(0.0, 1.0, 5)))
    for line in lines[1:]:
        assert line.split(",")[4] in {"0", "1"}


def test_revival_report_lines(tmp_path, capsys):
    out = tmp_path / "rev.csv"
    code = main(["revival", "--t-max", "22", "--out-csv", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "t_collapse=1.0000" in lines
    assert "T1=14.0496" in lines
    assert "T2=28.0993" in lines
    assert "T3=42.1489" in lines
    assert "detected_revival=14.2500" in lines
    assert out.read_text().splitlines()[0] == "t,c_closed,c_exact"


def test_outputs_are_byte_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        argv = [
            "scan-time", "--t-max", "4", "--dt", "0.1",
            "--out-csv", str(csv), "--out-svg", str(svg),
        ]
        assert main(argv) == 0
        paths.append((csv, svg))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_no_partial_files_left_behind(tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["transition", "--t-max", "2", "--dt", "0.5", "--out-csv", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tr.csv"]


def test_write_csv_matches_an_f_string_reference(tmp_path):
    x = np.array([-0.0, 5e-324, 1e300, -1.5e-12])
    y = np.array([1e300, -1.5e-12, -0.0, 5e-324])
    flags = np.array([True, False, False, True])
    out = tmp_path / "edge.csv"
    jcdem.cli._write_csv(str(out), "t", x, {"y": y, "holds": flags})
    rows = [f"{float(a):.12e},{float(b):.12e},{int(f):d}\n"
            for a, b, f in zip(x, y, flags)]
    assert out.read_bytes() == ("t,y,holds\n" + "".join(rows)).encode()


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_atomic_writer_keeps_the_target_on_any_exception(tmp_path, existed):
    target = tmp_path / "out.csv"
    if existed:
        target.write_bytes(b"old\n")
    with pytest.raises(KeyError):
        with atomic_writer(str(target)) as out:
            out.write("new\n")
            raise KeyError("not an OSError")
    if existed:
        assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existed else [])


def test_atomic_writer_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it, even for an instant, would give
    # files that other threads create meanwhile the wrong mode
    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    csv, svg = tmp_path / "tr.csv", tmp_path / "tr.svg"
    argv = ["transition", "--t-max", "2", "--dt", "0.5",
            "--out-csv", str(csv), "--out-svg", str(svg)]
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tr.csv", "tr.svg"]


def test_atomic_writer_takes_a_250_byte_basename(tmp_path):
    # the temporary name does not grow with the target's
    target = tmp_path / ("n" * 246 + ".svg")
    with atomic_writer(str(target)) as out:
        out.write("ok\n")
    assert target.read_bytes() == b"ok\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_a_temporary_name_collision_raises_and_removes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "urandom", bytes)  # every name draw is the same
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    with atomic_writer(str(first)) as out:
        out.write("a\n")
        with pytest.raises(FileExistsError, match="b.csv"):
            with atomic_writer(str(second)):
                pass
    assert first.read_bytes() == b"a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def _wide_table(rows):
    """scan-time's shape: a uniform time grid and seven value columns."""
    rng = np.random.default_rng(0)
    return np.arange(rows) * 0.05, {f"c{k}": rng.random(rows) for k in range(7)}


def test_write_csv_holds_no_table_of_strings(tmp_path):
    # 2^13 rows of 8 columns: 0.5 MiB as one float table, about 9 MiB as
    # Python strings
    t, columns = _wide_table(1 << 13)
    path = str(tmp_path / "wide.csv")
    assert _traced_peak(lambda: jcdem.cli._write_csv(path, "t", t, columns)) < 1 << 20


def test_render_plot_streams_its_polylines_in_chunks(tmp_path):
    # 2^15 rows of 8 columns: about 11 MiB as one joined document, under
    # 1 MiB written a time chunk at a time
    t, columns = _wide_table(1 << 15)
    path = str(tmp_path / "wide.svg")
    assert _traced_peak(lambda: render_plot(t, columns, "t", path, "wide")) < 2 << 20


def test_unwritable_output_exits_1(tmp_path, capsys):
    bad = tmp_path / "missing" / "out.csv"
    code = main(["transition", "--t-max", "2", "--dt", "0.5", "--out-csv", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()
    assert not bad.exists()


@pytest.mark.parametrize("command", ["revival", "scan-lambda"])
def test_unwritable_output_prints_no_report(command, tmp_path, capsys):
    bad = tmp_path / "missing" / "out.csv"
    assert main([command, "--lambda-points", "3", "--out-csv", str(bad)]) == 1
    assert capsys.readouterr().out == ""


def test_write_errors_name_the_requested_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["revival", "--out-csv", "missing/x.csv"]) == 1
    err = capsys.readouterr().err
    assert "missing/x.csv" in err and ".tmp" not in err


def test_non_finite_results_exit_1_without_writing(tmp_path, capsys, monkeypatch):
    def nan_transition(field, params, t_max, dt):
        times = time_grid(t_max, dt)
        return TimeSeries(times, {"c_closed": np.full(len(times), np.nan),
                                  "c_exact": np.full(len(times), np.nan)})

    monkeypatch.setattr(jcdem.cli, "scan_transition", nan_transition)
    csv = tmp_path / "tr.csv"
    argv = ["transition", "--t-max", "1", "--dt", "0.5", "--out-csv", str(csv)]
    assert main(argv) == 1
    assert "non-finite values" in capsys.readouterr().err
    assert not csv.exists() and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_overflowing_phases_are_a_usage_error(command, tmp_path, capsys):
    # g sqrt(n_max + 1) t overflows at g = 1e308, for scan-lambda at T3 too
    csv = tmp_path / "out.csv"
    argv = [command, "--g", "1e308", "--t-max", "1", "--dt", "0.5",
            "--out-csv", str(csv)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert "usage" in capsys.readouterr().err.lower()
    assert caught == [] and not csv.exists()


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"]
)
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    csv, svg = tmp_path / "tr.csv", tmp_path / "tr.svg"
    argv = [
        "transition", "--t-max", "2", "--dt", "0.5",
        "--out-csv", str(csv), "--out-svg", str(svg),
    ]
    previous = os.umask(umask)
    try:
        assert main(argv) == 0
    finally:
        os.umask(previous)
    for path in (csv, svg):
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_transition_svg_structure(tmp_path):
    svg = tmp_path / "tr.svg"
    argv = [
        "transition", "--t-max", "3", "--dt", "0.1",
        "--out-csv", str(tmp_path / "tr.csv"), "--out-svg", str(svg),
    ]
    assert main(argv) == 0
    assert len(svg_elements(svg, "polyline")) == 2
    texts = [e.text for e in svg_elements(svg, "text")]
    assert "c_closed" in texts and "c_exact" in texts
    assert "transition" in texts  # title names the command
    root = ET.parse(svg).getroot()
    assert root.get("width") == "800" and root.get("height") == "500"


def test_scan_lambda_svg_has_three_curves(tmp_path):
    svg = tmp_path / "sl.svg"
    argv = [
        "scan-lambda", "--lambda-points", "3",
        "--out-csv", str(tmp_path / "sl.csv"), "--out-svg", str(svg),
    ]
    assert main(argv) == 0
    assert len(svg_elements(svg, "polyline")) == 3
    texts = [e.text for e in svg_elements(svg, "text")]
    assert {"dem_T1", "dem_T2", "dem_T3"} <= set(texts)


def _y_ticks(path):
    vals = []
    for e in svg_elements(path, "text"):
        if e.get("text-anchor") == "end":
            vals.append(float(e.text))
    return vals


def test_svg_y_range_snaps_to_unit_interval(tmp_path):
    times = np.array([0.0, 1.0, 2.0, 3.0])
    within = {"y": np.array([0.2, 0.8, 0.5, 0.6])}
    target = tmp_path / "within.svg"
    render_plot(times, within, "t", str(target), "within")
    # data inside the unit interval snaps the axis to exactly [0, 1]
    assert min(_y_ticks(target)) == pytest.approx(0.0)
    assert max(_y_ticks(target)) == pytest.approx(1.0)


def test_svg_y_range_widens_beyond_unit_interval(tmp_path):
    times = np.array([0.0, 1.0, 2.0, 3.0])
    beyond = {"y": np.array([0.0, 2.0, 1.0, 0.5])}
    target = tmp_path / "beyond.svg"
    render_plot(times, beyond, "t", str(target), "beyond")
    assert max(_y_ticks(target)) > 1.0


def test_svg_text_is_escaped(tmp_path):
    target = tmp_path / "escaped.svg"
    columns = {"a<b & c": np.array([0.2, 0.4])}
    render_plot([0.0, 1.0], columns, "x<y", str(target), "R&D")
    texts = [e.text for e in svg_elements(target, "text")]
    assert {"a<b & c", "x<y", "R&D"} <= set(texts)


@pytest.mark.parametrize(
    "x, y, axis, centre",
    [([0.0, 1.0], [1e17, 1e17], 1, 247.0), ([-3e16], [0.5], 0, 350.0)],
    ids=["constant-column", "single-point"],
)
def test_render_plot_widens_a_range_rounding_collapses(tmp_path, x, y, axis, centre):
    # v -+ 0.5 rounds back to v above about 1e16; such a range widens by
    # 5 percent of |v| instead, so v sits mid-axis
    target = tmp_path / "collapsed.svg"
    render_plot(np.array(x), {"y": np.array(y)}, "t", str(target), "collapsed")
    (line,) = svg_elements(target, "polyline")
    points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
    assert {point[axis] for point in points} == {centre}


def test_render_plot_ticks_a_tiny_span(tmp_path):
    # ticks are rounded relative to their step: 12 fixed decimals would
    # make all six on [0, 1e-13] 0.0, drawn at the left edge
    ticks, labels = zip(*_ticks(0.0, 1e-13))
    assert len(ticks) == 6 and list(ticks) == sorted(set(ticks))
    target = tmp_path / "tiny.svg"
    render_plot(np.array([0.0, 1e-13]), {"y": np.array([0.2, 0.4])}, "t",
                str(target), "tiny")
    x_ticks = [e for e in svg_elements(target, "text")
               if e.get("text-anchor") == "middle" and e.text in labels]
    positions = [float(e.get("x")) for e in x_ticks]
    assert len(positions) == 6 and positions == sorted(set(positions))


def test_render_plot_labels_each_tick_of_a_narrow_span_far_from_zero(tmp_path):
    # "{:g}" labelled all seven x ticks on [1e9, 1e9 + 3e-6] "1e+09"
    target = tmp_path / "narrow.svg"
    render_plot(np.array([1e9, 1e9 + 3e-6]), {"y": np.array([0.2, 0.4])}, "t",
                str(target), "narrow")
    x_labels = [e.text for e in svg_elements(target, "text")
                if e.get("text-anchor") == "middle" and e.text not in ("narrow", "t")]
    assert len(x_labels) == 7 and len(set(x_labels)) == 7
    assert [float(label) for label in x_labels] == sorted(map(float, x_labels))
    # the default axes keep "{:g}" labels
    assert _ticks(0.0, 50.0)[1] == (10.0, "10") and _ticks(0.0, 1.0)[1] == (0.2, "0.2")


def test_render_plot_rejects_empty_series(tmp_path):
    target = tmp_path / "empty.svg"
    with pytest.raises(ValueError):
        render_plot(np.array([]), {}, "t", str(target), "x")
    assert not target.exists()


def test_render_plot_rejects_non_finite_values(tmp_path):
    target = tmp_path / "nan.svg"
    columns = {"y": np.array([0.0, math.nan])}
    with pytest.raises(ValueError):
        render_plot(np.array([0.0, 1.0]), columns, "t", str(target), "x")
    assert not target.exists()
    # a span that underflows (a fifth of it rounds to zero) or overflows to
    # infinity is no more plottable than a NaN; a NaN after a finite column
    # is caught too, although Python's min and max would drop it
    for x, y, axis in [([0.0, 5e-324], [0.2, 0.4], "x"),
                       ([-1e308, 1e308], [0.2, 0.4], "x"),
                       ([0.0, 1.0], [-1e308, 1e308], "y")]:
        with pytest.raises(ValueError, match=f"{axis} axis"):
            render_plot(np.array(x), {"y": np.array(y)}, "t", str(target), "x")
        assert list(tmp_path.iterdir()) == []
    two = {"a": np.array([0.2, 0.4]), "b": np.array([math.nan, math.nan])}
    with pytest.raises(ValueError, match="y axis"):
        render_plot(np.array([0.0, 1.0]), two, "t", str(target), "x")
    assert list(tmp_path.iterdir()) == []


def test_render_plot_rejects_misaligned_columns(tmp_path):
    target = tmp_path / "short.svg"
    columns = {"y": np.array([0.2, 0.8, 0.5]), "short": np.array([0.1, 0.2])}
    with pytest.raises(ValueError):
        render_plot(np.array([0.0, 1.0, 2.0]), columns, "t", str(target), "x")
    assert not target.exists()


def _csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


@pytest.mark.parametrize(
    "command, entropies",
    [
        ("scan-time", ("dem_exact", "dem_closed", "s_atom", "s_field", "s_joint")),
        ("scan-lambda", ("dem_T1", "dem_T2", "dem_T3")),
    ],
)
def test_log_base_2_writes_entropies_in_bits(tmp_path, command, entropies):
    argv = [command, "--t-max", "4", "--dt", "0.1", "--lambda-points", "5"]
    nats, bits = tmp_path / "nats.csv", tmp_path / "bits.csv"
    assert main([*argv, "--out-csv", str(nats)]) == 0
    assert main([*argv, "--log-base", "2", "--out-csv", str(bits)]) == 0
    in_nats, in_bits = _csv_columns(nats), _csv_columns(bits)
    assert list(in_nats) == list(in_bits)
    # each cell carries 13 significant digits, so the two roundings may
    # differ by 1e-12 relative once a value exceeds one bit
    for name in entropies:
        expected = np.array(in_nats[name], dtype=float) / math.log(2.0)
        assert np.allclose(np.array(in_bits[name], dtype=float), expected,
                           rtol=1e-12, atol=1e-12)
    # the grid, the transition probabilities and the conjecture flag, which
    # is decided in nats, do not depend on the base
    for name in set(in_nats) & {"t", "lambda0", "c_closed", "c_exact",
                                "conjecture_holds"}:
        assert in_bits[name] == in_nats[name]
