"""Fast self-check of the benchmark harness on four-site chains.

    python3 bench/selfcheck.py

For each workload family, shrunk to L=4 and short protocols, it

1. writes a reference output with one operation;
2. runs the workload untraced and traced against that reference, checking
   that both runs are correct, that they emit every end-to-end and every
   per-layer metric of BENCHMARK.json with its unit, and that the layer
   spans other than the runner's own loop cover most of the traced run_s;
3. moves one reference value just past the gate's tolerance and checks
   that the gate then fails every operation.

Finally it asserts that the benchmark refuses to run, printing no result,
in a directory holding only BENCHMARK.json and bench/. The repository's
tests are not involved. Exit code 0 means every assertion held.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_runs", "selfcheck")

sys.path.insert(0, BENCH)
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SITES = 4


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {message}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write_reference(name: str) -> str:
    """Run one operation and keep its output as the reference."""
    outdir = os.path.join(WORK, name)
    os.makedirs(outdir)
    config_path = os.path.join(outdir, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(run.workload_config(name, 0, SITES))
    op = run._spawn(config_path, outdir, False, 120)
    _require(op.ok, f"reference run failed: {op.problems}")
    reference = os.path.join(WORK, f"{name}.csv")
    shutil.copy(os.path.join(outdir, op.report["output"]), reference)
    return reference


def _perturb(reference: str, name: str) -> str:
    """Copy of the reference with one fidelity or eigenvalue moved past tolerance."""
    with open(reference, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[len(rows) // 2]
    if WORKLOADS[name].trajectory:
        row["fidelity"] = repr(float(row["fidelity"]) - 3e-7)
    else:
        row["energy_mhz"] = repr(float(row["energy_mhz"]) + 2e-6)  # 1.3e-8 rad/ns
    path = reference.replace(".csv", "-perturbed.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _assert_metrics(result: dict, wanted: list) -> None:
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    _require(emitted == expected, f"emitted {emitted}, BENCHMARK.json names {expected}")
    for key, metric in result["metrics"].items():
        _require(isinstance(metric["value"], (int, float)), f"{key} is {metric!r}")


def check_workload(name: str, spec: dict) -> None:
    reference = _write_reference(name)

    for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        record = run.measure(name, 0, 0, trace, SITES, reference)
        result = record["result"]
        _require(result["correct"] and result["failed"] == 0, str(record["operations"]))
        _assert_metrics(result, wanted)
    # trace.accounted is 1 by construction (the outermost spans are the run);
    # what can fail is time left in the runner's own loop, outside every layer.
    metric = {k: m["value"] for k, m in result["metrics"].items()}
    layers = metric["trace.accounted"] - (
        metric["quenchlab.experiments.self.s"] / metric["trace.run_s"])
    _require(layers > 0.8, f"layer spans cover only {layers:.3f} of traced run_s")

    record = run.measure(name, 0, 0, True, SITES, _perturb(reference, name))
    result = record["result"]
    _require(not result["correct"], "the gate passed a perturbed reference")
    _require(result["failed"] == result["attempted"], str(record["operations"]))


def check_refuses_without_sources() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "reversal-full", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    _require(proc.returncode != 0, "ran without the program's sources")
    _require(not proc.stdout.strip(), f"printed {proc.stdout!r} without the sources")


def main() -> int:
    started = time.monotonic()
    spec = _spec()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        for name in WORKLOADS:
            check_workload(name, spec)
            print(f"ok  {name} at L={SITES}")
        check_refuses_without_sources()
        print("ok  refuses to run without the program's sources")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"self-check passed in {time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
