"""Benchmark of jcdem, timed from outside through its public API and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, each closed loop with one client and one process:

  cli-default      transition, scan-time, revival and scan-lambda in turn,
                   each a fresh `python -m jcdem.cli` process with --out-svg
                   at the default grid (m=5, n_max=32, 1001 points). The only
                   workload where start-up, import, CSV and SVG block results.
  scan-time-m200   in-process scan_time with a mixed atom at m=200
                   (joint dimension 626) on the grid {0, 50, 100}, past the
                   first revival T1 = 88.9: dense eigh and conjugation.
  scan-lambda-m50  in-process scan_lambda at m=50, T1..T3, over 16 sorted
                   seeded lambda0: propagators built once, per-state
                   conjugation and dem_exact dominate.

Operations run until their summed time reaches --seconds (cli-default
finishes its cycle of four commands). Every output is checked outside the
timed region (see checks.py); a failed check counts as a failed operation.

--trace 0 prints the end-to-end metrics. --trace 1 runs the operations
in-process (cli-default calls jcdem.cli.main), alternating untraced and
traced cycles, and prints per-layer self times and counts per traced
operation, the tracing overhead and the large-m set-up probe.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The environment and every sample go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
TAIL_BEYOND = 10
PROBE_M = (100, 272, 273, 300, 746, 1000, 1500)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(np, threads: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)), "numpy_threads": int(threads),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "git_sha": git_sha()}


def setup_seconds(workloads, mean_photons: float) -> float:
    """Median wall time of a fresh interpreter importing jcdem and building
    the workload's ModelParams/FieldConfig."""
    cmd = [sys.executable, "-c", workloads.SETUP_CODE, repr(mean_photons)]
    subprocess.run(cmd, check=True, cwd=ROOT)  # compiles bytecode once
    runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class Loop:
    """Closed loop of operations until their summed time reaches `seconds`."""

    def __init__(self):
        self.times: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.busy = 0.0

    def once(self, workload, in_process: bool, tracer=None) -> None:
        """Run and check one operation."""
        inp = workload.next_input()
        self.attempted += 1
        span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = workload.run(inp, in_process)
        except Exception as exc:  # counted as a failed operation
            self.failures.append(f"op {self.attempted} raised {exc!r}")
            self.busy += time.perf_counter() - start
            return
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        try:
            problems = workload.check(inp, out)
        except (OSError, ValueError) as exc:  # missing or unreadable output file
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
        else:
            self.times.append(elapsed)
            self.points += workload.points(inp)

    def run(self, workload, seconds: float) -> "Loop":
        deadline = time.monotonic() + 2.0 * seconds + 30.0
        while (self.busy < seconds or self.attempted % workload.cycle) \
                and time.monotonic() < deadline:
            self.once(workload, in_process=False)
        return self


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def probe_from_mean_photons(FieldConfig) -> tuple[float, list[str]]:
    """Largest probed m that FieldConfig.from_mean_photons accepts, and
    the failures."""
    ok, failures = [], []
    for m in PROBE_M:
        try:
            FieldConfig.from_mean_photons(float(m))
            ok.append(m)
        except ValueError as exc:
            failures.append(f"m={m}: {exc}")
    return float(max(ok, default=0)), failures


def timed_run(workload, seconds: float, setup_s: float, report: dict) -> tuple[dict, list[Loop]]:
    loop = Loop().run(workload, seconds)
    who = resource.RUSAGE_CHILDREN if workload.subprocess_ops else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if not loop.times:
        return {}, [loop]
    tail_s, pct = tail(loop.times)
    report.update(op_s_tail_percentile=pct, samples=len(loop.times),
                  op_times_s=loop.times)
    ok_rate = (loop.attempted - len(loop.failures)) / loop.attempted
    return {
        "op_s_p50": (statistics.median(loop.times), "s"),
        "op_s_tail": (tail_s, "s"),
        "points_per_s": (loop.points / sum(loop.times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_rate": (ok_rate, "1"),
    }, [loop]


def traced_run(workload, seconds: float, report: dict,
               spans_path: Path) -> tuple[dict, list[Loop]]:
    from jcdem.model import FieldConfig

    max_ok_m, probe_failures = probe_from_mean_photons(FieldConfig)
    report["from_mean_photons_failures"] = probe_failures
    plain, traced, tracer = Loop(), Loop(), Tracer()
    deadline = time.monotonic() + 2.0 * seconds + 30.0
    # alternate whole cycles so both halves see the same machine conditions
    while plain.busy + traced.busy < seconds and time.monotonic() < deadline:
        for _ in range(workload.cycle):
            plain.once(workload, in_process=True)
        with tracer.installed():
            for _ in range(workload.cycle):
                traced.once(workload, in_process=True, tracer=tracer)
    tracer.dump(spans_path)
    report.update(spans=str(spans_path.relative_to(ROOT)),
                  samples={"untraced": len(plain.times), "traced": len(traced.times)})
    if not (plain.times and traced.times):
        return {}, [plain, traced]
    metrics = tracer.layer_metrics(traced.attempted)
    untraced_p50 = statistics.median(plain.times)
    traced_p50 = statistics.median(traced.times)
    metrics.update({
        "trace.op_s_p50_untraced": (untraced_p50, "s"),
        "trace.op_s_p50_traced": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "model.from_mean_photons.max_ok_m": (max_ok_m, "photons"),
    })
    return metrics, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jcdem" / "__init__.py").is_file():
        print(f"run.py: no jcdem sources at {SRC / 'jcdem'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update(dict.fromkeys(THREAD_VARS, threads))
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    # numpy reads the thread limits when it is first imported, so these
    # imports wait until the environment is set
    import numpy as np
    import jcdem
    import workloads

    if Path(jcdem.__file__).resolve().parent != SRC / "jcdem":
        print(f"run.py: imported jcdem from {jcdem.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **environment(np, threads)}
    scratch = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        warm_up = Loop()
        warm_up.once(workload, in_process=bool(args.trace))
        if args.trace:
            metrics, loops = traced_run(workload, args.seconds, report,
                                       OUT / f"spans-{stem}.json")
        else:
            setup_s = setup_seconds(workloads, workload.mean_photons)
            metrics, loops = timed_run(workload, args.seconds, setup_s, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(loop.attempted for loop in [warm_up, *loops])
    failures = [f for loop in [warm_up, *loops] for f in loop.failures]
    report.update(attempted=attempted, failed=len(failures), failures=failures,
                  metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps({k: report.get(k) for k in (
        "workload", "seed", "nproc", "numpy_threads", "python", "numpy", "blas",
        "git_sha", "samples")}))
    for failure in failures[:10]:
        print("FAILED " + failure)
    for failure in report.get("from_mean_photons_failures", []):
        print("from_mean_photons failure: " + failure)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_s_tail":
            note = f"  (p{report['op_s_tail_percentile']:.1f} of {report['samples']} samples)"
        print(f"{name} {value:.10g} {unit}{note}")
    print(f"error_rate {len(failures) / attempted:.6g} 1  "
          f"({len(failures)} of {attempted} failed)")
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
