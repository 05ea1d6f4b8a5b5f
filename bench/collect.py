"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/collect.py [--workloads a,b] [--seeds 1-10] [--trace-seed N]
                             [--out FILE]

For each workload: one --trace 0 run per seed, summarised per end-to-end
metric as median, quartiles and spread (quartile distance as a share of
the median, next to the bound in BENCHMARK.json); then one --trace 1 run
for the per-layer metrics (skipped with --trace-seed 0). The summary goes
to stdout and, with --out, to a JSON file that later runs compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, envs = [], []
        for seed in args.seeds:
            env, result = run_once(workload, seed, 0)
            envs.append(env)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        entry = {
            "env": {k: v for k, v in envs[0].items() if k not in ("seed", "samples")},
            "samples": [env["samples"] for env in envs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = summarise(values, metric["bound"])
        if args.trace_seed:
            _, traced = run_once(workload, args.trace_seed, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        summary["workloads"][workload] = entry

        print(f"\n{workload}  correct={entry['correct']}  samples/run={entry['samples']}")
        for name, stats in entry["end_to_end"].items():
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {name:14s} median {stats['median']:.6g}  spread {spread}"
                  f"  bound {stats['bound']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
