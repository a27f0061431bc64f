"""One workload operation in a fresh process: load, run, write, report.

Usage: child.py CONFIG OUTDIR SPAWN_TIME [--trace]

CONFIG is the generated config document, OUTDIR receives the written
output (as QUENCHSIM_OUTDIR) and SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process, so set-up time
counts interpreter start and imports. The program is driven through its
public path: ``load_config`` -> ``run_experiment`` -> ``write_output``.

Untraced, the only hook is one clock read per emitted sample (spectrum
mode: at the entry to and return from ``sector_spectrum``). With
``--trace`` every layer entry point is wrapped by bench/tracer.py. The
last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _install_sample_clock(experiments, stamps):
    """Read the clock once per emitted sample, through the runner's observer."""
    make_observer = experiments._observer

    def timed_observer(config, psi0=None):
        observe = make_observer(config, psi0)

        def timed(t, psi, cross=None):
            stamps.append(time.monotonic())
            return observe(t, psi, cross=cross)

        return timed

    spectrum = experiments.sector_spectrum

    def timed_spectrum(*args, **kwargs):
        stamps.append(time.monotonic())
        report = spectrum(*args, **kwargs)
        stamps.append(time.monotonic())
        return report

    experiments._observer = timed_observer
    experiments.sector_spectrum = timed_spectrum


def _summary(result) -> dict:
    """The in-process values the correctness gate checks."""
    if isinstance(result, list):
        return {
            "samples": len(result),
            "fidelity": [rec.fidelity for rec in result],
            "population_error": [
                float(abs(rec.populations.sum(axis=1) - 1.0).max()) for rec in result
            ],
        }
    return {"samples": 1, "dim": int(result.dim)}


def main(argv) -> int:
    config_path, outdir, spawned = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv
    os.environ["QUENCHSIM_OUTDIR"] = outdir
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quenchsim.quenchlab as ql
    from quenchsim.quenchlab import experiments

    if not ql.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported quenchsim from {ql.__file__}, not from this checkout")
    sys.path.insert(0, BENCH)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stamps: list = []
    _install_sample_clock(experiments, stamps)

    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    config = ql.load_config(text)
    start = time.monotonic()
    result = ql.run_experiment(config)
    path = ql.write_output(config, result)
    run_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not stamps:
        raise RuntimeError("the sample clock saw no emitted sample")
    if isinstance(result, list):
        steps = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    else:
        steps = [(stamps[1] - stamps[0]) * 1e3]
    from facts import process_facts

    report = {
        "run_s": run_s,
        "setup_s": stamps[0] - spawned,
        "steps_ms": steps,
        "peak_rss_mb": peak_rss_mb,
        "output": os.path.relpath(path, outdir),
        "facts": process_facts(),
        **_summary(result),
    }
    if tracer is not None:
        report["trace"] = {k: v for k, (v, _) in tracer.metrics(run_s).items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
