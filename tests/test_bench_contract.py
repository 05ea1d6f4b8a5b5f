"""The benchmark in bench/ still runs against the package as it stands.

bench/ reaches jcdem from outside: its tracer imports every module it
traces, and each workload calls the public scans and the CLI with fixed
arguments, then checks the output against an independent dense reference.
One in-process operation of every workload, under the installed tracer,
catches a change to the package that would break the benchmark.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
