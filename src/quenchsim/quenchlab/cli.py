"""Command line interface.

Subcommands: ``run`` a config file, ``preset`` to print or run a named
figure preset, and ``spectrum`` for number-sector eigenvalues. A config
with sweep axes runs every point of its sweep. Exit codes: 0 success, 2
validation error, 3 numerics or resource error.
"""

from __future__ import annotations

import argparse
import sys

from ..analysis import ResourceLimitError
from ..operators import mhz_from_omega
from ..propagator import NumericsError
from .config import ConfigError, load_config
from .experiments import run_experiment, run_sweep, write_output
from .presets import preset, preset_names, preset_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Exact dynamics of driven chains of K-level bosonic sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file, every point of its sweep")
    p_run.add_argument("-c", "--config", required=True, help="config file path")
    p_run.add_argument("-o", "--output", help="output file, the config key path")
    p_run.add_argument("--format", choices=("csv", "json"), help="output format override")
    p_run.add_argument("--axis", action="append", default=[], metavar="key=v1,v2",
                       help="sweep axis, the config key axis_<key> (repeatable)")
    p_run.add_argument("-j", "--jobs", type=int, default=None,
                       help="parallel workers, the config key parallelism")

    p_pre = sub.add_parser("preset", help="print or run a figure preset")
    p_pre.add_argument("name", help="preset name: " + ", ".join(preset_names()))
    p_pre.add_argument("--run", action="store_true", dest="do_run",
                       help="run the preset instead of printing it")
    p_pre.add_argument("-o", "--output", help="output file when running")
    p_pre.add_argument("--format", choices=("csv", "json"))
    p_pre.set_defaults(axis=[], jobs=None)

    p_spec = sub.add_parser("spectrum", help="number-sector spectrum of the chain")
    p_spec.add_argument("-L", "--sites", type=int, required=True)
    p_spec.add_argument("-N", "--particles", type=int, required=True)
    p_spec.add_argument("-K", "--levels", type=int, required=True)
    p_spec.add_argument("--J", type=float, required=True, help="coupling/2pi in MHz")
    p_spec.add_argument("--U", type=float, required=True, help="anharmonicity/2pi in MHz")
    p_spec.add_argument("-o", "--output", help="write the spectrum to this file")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _run(config, args, stem: str) -> int:
    """Apply the flags as config overrides and run the config as it reads.

    ``-o`` is the key path, ``--format`` format, ``--axis k=v1,v2`` axis_k
    and ``-j N`` parallelism. The path defaults to ``<stem>.<format>``. A
    config with sweep axes writes each point beside that path and exits 3
    if any point failed; one without writes the path.
    """
    fmt = args.format or config.format
    overrides = {"format": fmt, "path": args.output or config.path or f"{stem}.{fmt}"}
    for pair in args.axis:
        key, _, values = pair.partition("=")
        overrides[f"axis_{key.strip()}"] = values
    if args.jobs is not None:
        overrides["parallelism"] = args.jobs
    config = config.with_overrides(overrides)
    if not config.sweep_axes:
        print(f"wrote {write_output(config, run_experiment(config))}")
        return 0
    results = run_sweep(config)
    for r in results:
        print(f"{r.params} -> {r.path if r.path else f'FAILED: {r.error}'}")
    return 3 if any(r.error for r in results) else 0


def _cmd_run(args) -> int:
    return _run(load_config(args.config), args, "run")


def _cmd_preset(args) -> int:
    if args.do_run:
        return _run(preset(args.name), args, args.name)
    sys.stdout.write(preset_text(args.name))
    return 0


def _cmd_spectrum(args) -> int:
    """Run the flags as a spectrum-mode config, so they pass its validation."""
    config = load_config(
        f"[lattice]\nsites = {args.sites}\nlevels = {args.levels}\n"
        f"[profiles]\ncoupling_mhz = {args.J!r}\nanharmonicity_mhz = {args.U!r}\n"
        f"[protocol]\nmode = spectrum\n[spectrum]\nparticles = {args.particles}\n"
        f"[output]\nformat = {args.format}\n"
    )
    report = run_experiment(config)
    lo = mhz_from_omega(report.eigenvalues[0])
    hi = mhz_from_omega(report.eigenvalues[-1])
    print(f"dimension {report.dim}, energies (value/2pi) {lo:.3f} .. {hi:.3f} MHz, "
          f"{len(set(report.bands.tolist()))} band(s)")
    if args.output:
        print(f"wrote {write_output(config, report, args.output)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_spectrum(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
