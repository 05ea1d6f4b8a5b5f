"""Smoke tests of the benchmark itself: python3 -m pytest bench

Each workload runs for one cycle in both modes and must print every metric
of BENCHMARK.json with its unit; the output checks must flag perturbed
results.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from jcdem import analysis  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in wanted:
        assert any(line.startswith(f"{metric['name']} ") and
                   line.split()[2] == metric["unit"] for line in lines[:-1])
    assert any(line.startswith("error_rate ") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "cli-default", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


class SmallScanTime(workloads.ScanTimeM200):
    mean_photons = 5.0


class SmallScanLambda(workloads.ScanLambdaM50):
    mean_photons = 5.0
    grid_points = 4


def test_check_flags_scaled_dem_column(tmp_path):
    wl = SmallScanTime(0, tmp_path)
    lambda0 = wl.next_input()
    series = wl.run(lambda0, in_process=True)
    assert wl.check(lambda0, series) == []
    scaled = {**series.columns, "dem_exact": 1.01 * series.columns["dem_exact"]}
    assert wl.check(lambda0, dataclasses.replace(series, columns=scaled))


def test_check_flags_values_off_the_dense_reference(tmp_path):
    wl = SmallScanLambda(0, tmp_path)
    lambdas = wl.next_input()
    scan = wl.run(lambdas, in_process=True)
    assert wl.check(lambdas, scan) == []
    shifted = {k: v + 1e-6 for k, v in scan.dem_at_T.items()}
    problems = wl.check(lambdas, dataclasses.replace(scan, dem_at_T=shifted))
    assert any("reference" in p for p in problems)


def test_check_flags_truncated_csv(tmp_path):
    wl = workloads.CliDefault(0, tmp_path)
    inp = ("scan-lambda", 0.5)
    out = wl.run(inp, in_process=True)
    assert wl.check(inp, out) == []
    csv = tmp_path / "scan-lambda.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-3]))
    assert wl.check(inp, out)


def test_tracer_counts_calls_and_restores_functions(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "model.removed", ("jcdem.model", "removed"))
    wl = SmallScanTime(0, tmp_path)
    original = analysis.propagator
    tracer = tracing.Tracer()
    with tracer.installed():
        assert analysis.propagator is not original
        with tracer.span(tracing.ROOT_SPAN):
            wl.run(wl.next_input(), in_process=True)
    assert analysis.propagator is original
    metrics = tracer.layer_metrics(ops=1)
    points = len(wl.times)
    assert metrics["model.propagator.calls"][0] == points
    assert metrics["entropy.dem_exact.calls"][0] == points
    assert metrics["linalg.hermitian_eigensystem.calls"][0] == 3 * points
    dim = 2 * (wl.field.n_max + 1)
    assert metrics["linalg.eigh_dim3_sum"][0] == points * (
        dim**3 + (dim // 2) ** 3 + 2**3)
    assert metrics["cli.main.calls"][0] == 0
    assert metrics["model.removed.calls"][0] == 0
    self_total = sum(v for k, (v, _) in metrics.items()
                     if k in {f"{m}.self_s" for m in tracing.MODULES})
    assert 0 < self_total <= sum(e - s for _, s, e, p in tracer.spans if p < 0)
