"""quenchsim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload reversal-full --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The workload's config document is
generated from its figure preset and the seed (bench/workloads.py). Each
operation is one fresh process (bench/child.py) running the public
``load_config`` -> ``run_experiment`` -> ``write_output`` path with
``OPENBLAS_NUM_THREADS=1``. Operations repeat while the next one still
fits in ``--seconds`` (at least one, and one of each kind when traced), so
a slow machine runs fewer operations rather than overrunning the time
budget. Every operation passes through the
correctness gate (bench/gate.py) and counts as failed if it raises or
fails a check.

``--trace 0`` reports the end-to-end metrics: the median ``run_s`` over
operations, the largest ``peak_rss_mb`` (an operation's peak lands on
one of two allocator states, about 4% apart on the full basis, so the
maximum is steadier than a median), the median set-up time ``setup_s`` over
the operations (three to five per run on this benchmark's workloads), and
the 50th and 90th percentiles of the time between emitted samples, taken
per operation and reported as the median over operations, so that one
operation slowed by the shared machine does not set the run's figure
(the spectrum workload has one step per operation: the call into
``sector_spectrum`` until its return). ``--trace 1`` alternates
untraced and traced operations and reports the per-layer medians of the
traced ones plus ``trace.overhead``, traced over untraced ``run_s``.

The last stdout line is the JSON result; the lines before it, starting
with ``#``, give machine facts. The full record of the run is written to
``.bench_runs/<workload>-seed<seed>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(ROOT, ".bench_runs")
REFERENCE = os.path.join(BENCH, "reference")
SRC = os.path.join(ROOT, "src")

RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, BENCH)
import gate  # noqa: E402
from facts import machine_facts  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def _percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Operation:
    """One child process and what the gate found in its output."""

    def __init__(self, report=None, problems=(), traced=False):
        self.report = report or {}
        self.problems = list(problems)
        self.traced = traced

    @property
    def ok(self) -> bool:
        return not self.problems


def _spawn(config_path, outdir, traced, timeout) -> Operation:
    os.makedirs(outdir, exist_ok=True)
    args = [sys.executable, os.path.join(BENCH, "child.py"), config_path, outdir]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    cmd = args + [repr(spawned)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Operation(problems=[f"operation exceeded {timeout:.0f} s"], traced=traced)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return Operation(problems=[f"operation raised: {tail[0]}"], traced=traced)
    return Operation(json.loads(proc.stdout.strip().splitlines()[-1]), traced=traced)


def workload_config(name: str, seed: int, sites: int = 10) -> str:
    """The config document of a workload, from this checkout's presets."""
    if not os.path.isfile(os.path.join(SRC, "quenchsim", "__init__.py")):
        raise FileNotFoundError(f"no quenchsim sources under {SRC}")
    sys.path.insert(0, SRC)
    from quenchsim.quenchlab.presets import preset_text

    workload = WORKLOADS[name]
    return config_text(preset_text(workload.preset), workload, seed, sites)


def record_path(name: str, seed: int, trace: bool) -> str:
    return os.path.join(RUNS, f"{name}-seed{seed}{'-trace' if trace else ''}.json")


def measure(name: str, seed: int, seconds: float, trace: bool, sites: int = 10,
            reference: str | None = None) -> dict:
    """Run one workload for ``seconds`` and return the result and its record.

    ``reference`` is the output every operation must match, if any.
    ``sites`` below ten serves the harness self-check; the benchmark
    itself runs the ten-site workloads.
    """
    started = time.monotonic()
    text = workload_config(name, seed, sites)
    rundir = os.path.join(RUNS, f"{name}-seed{seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    config_path = os.path.join(rundir, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)

    ops: list = []
    walls: list = []

    def run(traced):
        t0 = time.monotonic()
        timeout = RUN_LIMIT_S - (t0 - started)
        outdir = os.path.join(rundir, f"op{len(ops)}")
        op = _spawn(config_path, outdir, traced, timeout)
        if op.ok:
            try:
                op.problems += gate.check(op.report, os.path.join(outdir, op.report["output"]),
                                          text, reference)
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"gate could not read the output: {exc!r}")
        ops.append(op)
        walls.append(time.monotonic() - t0)

    while True:
        run(traced=trace and len(walls) % 2 == 1)
        elapsed = time.monotonic() - started
        next_wall = statistics.median(walls)
        if elapsed + next_wall > RUN_LIMIT_S - 10:
            break
        if len(walls) >= (2 if trace else 1) and elapsed + next_wall > seconds:
            break

    # Timings come from the operations that passed the gate; when none did,
    # from those that at least finished, so a failing run still reports.
    finished = [o for o in ops if "run_s" in o.report]
    full = [o for o in finished if o.ok] or finished
    untraced = [o for o in full if not o.traced]
    traced = [o for o in full if o.traced]
    metrics: dict = {}
    if untraced and (traced or not trace):
        if trace:
            layer: dict = {}
            for op in traced:
                for key, value in op.report["trace"].items():
                    layer.setdefault(key, []).append(value)
            metrics = {k: statistics.median(v) for k, v in layer.items()}
            metrics["trace.overhead"] = statistics.median(
                o.report["run_s"] for o in traced) / statistics.median(
                o.report["run_s"] for o in untraced)
        else:
            def step_ms(q):
                return statistics.median(_percentile(o.report["steps_ms"], q) for o in untraced)

            metrics = {
                "run_s": statistics.median(o.report["run_s"] for o in untraced),
                "setup_s": statistics.median(o.report["setup_s"] for o in untraced),
                "step_ms.p50": step_ms(50),
                "step_ms.p90": step_ms(90),
                "peak_rss_mb": max(o.report["peak_rss_mb"] for o in untraced),
            }
    units = _units(trace)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    failed = [o for o in ops if not o.ok]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": text,
        "machine": machine_facts(),
        "process": full[0].report.get("facts") if full else None,
        "operations": [
            {"traced": o.traced, "problems": o.problems,
             **{k: v for k, v in o.report.items()
                if k in ("run_s", "setup_s", "peak_rss_mb", "samples", "trace")}}
            for o in ops
        ],
        "wall_s": time.monotonic() - started,
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        },
    }
    shutil.rmtree(rundir, ignore_errors=True)
    return record


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    from tracer import Tracer

    units = {k: unit for k, (_, unit) in Tracer().metrics(1.0).items()}
    units["trace.overhead"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        # seed 0 is the documented workload, whose output must match the seed code's
        reference = os.path.join(REFERENCE, f"{args.workload}.csv") if args.seed == 0 else None
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         reference=reference)
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    with open(record_path(args.workload, args.seed, bool(args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = record["result"]
    for op in record["operations"]:
        for problem in op["problems"]:
            print(f"# FAILED: {problem}", file=sys.stderr)
    if not result["metrics"]:
        print("benchmark produced no measurement: no operation finished", file=sys.stderr)
        return 1
    print("# machine " + json.dumps(record["machine"]))
    print("# process " + json.dumps(record["process"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
