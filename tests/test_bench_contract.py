"""The benchmark in bench/ still runs against the package as it stands.

bench/ reaches jcdem from outside: its tracer imports every module it
traces, and each workload calls the public scans and the CLI with fixed
arguments, then checks the output against an independent dense reference.
One in-process operation of every workload, and a whole cli-default cycle
of all four commands, both in process and as the child processes the
benchmark starts, under the installed tracer, catch a change to the
package that would break the benchmark.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_of_each_workload_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=3, out_dir=tmp_path)
    with tracing.Tracer().installed() as tracer:
        inp = workload.next_input()
        out = workload.run(inp, in_process=True)
    assert workload.check(inp, out) == []
    assert tracer.spans, "the tracer recorded no call into jcdem"


@pytest.mark.parametrize("in_process", [True, False], ids=["in-process", "subprocess"])
def test_a_whole_cli_default_cycle_passes_its_checks(in_process, tmp_path, monkeypatch):
    # the benchmark runs cli-default as `python -m jcdem.cli` child processes
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    workload = workloads.CliDefault(seed=3, out_dir=tmp_path)
    with tracing.Tracer().installed():
        for _ in range(workload.cycle):
            inp = workload.next_input()
            out = workload.run(inp, in_process=in_process)
            assert workload.check(inp, out) == [], inp
