"""Run the benchmark over several seeds and print every metric per workload.

    python3 bench/report.py                      # every workload, seeds 0..9
    python3 bench/report.py --trace --runs 2     # per-layer table
    python3 bench/report.py --save bench/BASELINE.json

Each run is one ``bench/run.py`` invocation of ``run_seconds`` (from
BENCHMARK.json) with its own seed, 0 to runs-1. For every end-to-end metric the table gives the median,
the first and third quartiles as ``statistics.quantiles(values, n=4)``
computes them, the spread (q3 - q1) / median and the number of runs, and
under it the correctness outcome with failed/attempted operations. With
``--trace`` it prints the per-layer medians instead, with
``trace.overhead`` and the share of the traced run_s that the span self
times account for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)
from run import record_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record_path(workload, seed, trace), encoding="utf-8") as fh:
        record = json.load(fh)
    result["machine"], result["process"] = record["machine"], record["process"]
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    seeds = list(range(args.runs))
    for name in WORKLOADS:
        runs = [run_once(name, seed, seconds, args.trace) for seed in seeds]
        values: dict = {}
        for run in runs:
            for key, metric in run["metrics"].items():
                values.setdefault(key, ([], metric["unit"]))[0].append(metric["value"])
        rows = {key: {"unit": unit, **summarize(vals)} for key, (vals, unit) in values.items()}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        summary["workloads"][name] = {
            "seeds": seeds,
            "correct": correct, "attempted": attempted, "failed": failed, "metrics": rows,
        }
        summary.setdefault("machine", runs[-1].get("machine"))
        summary.setdefault("process", runs[-1].get("process"))

        print(f"\n== {name}  ({args.runs} runs of {seconds:g} s, seeds 0..{args.runs - 1})")
        print(f"{'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'n':>3s}")
        for key, row in rows.items():
            bound = bounds.get(key)
            print(f"{key:40s} {row['unit']:>6s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:7.3f} "
                  f"{'' if bound is None else f'{bound:.2f}':>6s} {row['n']:3d}")
        print(f"correct: {'yes' if correct else 'NO'}   failed/attempted operations: "
              f"{failed}/{attempted}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
