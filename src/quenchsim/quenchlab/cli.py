"""Command line interface.

Subcommands: ``run`` a config file, ``preset`` to print or run a named
figure preset, ``sweep`` a config over parameter axes, and ``spectrum`` for
number-sector eigenvalues. Exit codes: 0 success, 2 validation error, 3
numerics or resource error.
"""

from __future__ import annotations

import argparse
import math
import sys

from ..analysis import ResourceLimitError
from ..operators import mhz_from_omega
from ..propagator import NumericsError
from .config import ConfigError, load_config
from .experiments import run_experiment, run_sweep, write_output
from .presets import preset, preset_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Exact dynamics of driven chains of K-level bosonic sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("-c", "--config", required=True, help="config file path")
    p_run.add_argument("-o", "--output", help="output file (overrides config)")
    p_run.add_argument("--format", choices=("csv", "json"), help="output format override")

    p_pre = sub.add_parser("preset", help="print or run a figure preset")
    p_pre.add_argument("name", help="preset name (see 'preset list')")
    group = p_pre.add_mutually_exclusive_group()
    group.add_argument("--print", action="store_true", dest="do_print",
                       help="print the preset document (default)")
    group.add_argument("--run", action="store_true", dest="do_run", help="run the preset")
    p_pre.add_argument("-o", "--output", help="output file when running")
    p_pre.add_argument("--format", choices=("csv", "json"))

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("--axis", action="append", default=[],
                         metavar="key=v1,v2",
                         help="sweep axis, the config key axis_<key> (repeatable)")
    p_sweep.add_argument("-j", "--jobs", type=int, default=None,
                         help="parallel workers, the config key parallelism")
    p_sweep.add_argument("-o", "--outdir", help="output directory")

    p_spec = sub.add_parser("spectrum", help="number-sector spectrum of the chain")
    p_spec.add_argument("-L", "--sites", type=int, required=True)
    p_spec.add_argument("-N", "--particles", type=int, required=True)
    p_spec.add_argument("-K", "--levels", type=int, required=True)
    p_spec.add_argument("--J", type=float, required=True, help="coupling/2pi in MHz")
    p_spec.add_argument("--U", type=float, required=True, help="anharmonicity/2pi in MHz")
    p_spec.add_argument("-o", "--output", help="write the spectrum to this file")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _run_and_write(config, args, stem: str, sweep: bool = False) -> int:
    """Apply --format, run the config, write its result and print the path.

    The result goes to -o, else the config's path, else ``<stem>.<format>``.
    With ``sweep``, a config that has sweep axes runs as a sweep instead.
    """
    if args.format:
        config = config.with_overrides({"format": args.format})
    if sweep and config.sweep_axes:
        return _report_sweep(config)
    path = args.output or config.output_path or f"{stem}.{config.output_format}"
    print(f"wrote {write_output(config, run_experiment(config), path)}")
    return 0


def _cmd_run(args) -> int:
    return _run_and_write(load_config(args.config), args, "run")


def _cmd_preset(args) -> int:
    if args.do_run:
        return _run_and_write(preset(args.name), args, args.name, sweep=True)
    sys.stdout.write(preset_text(args.name))
    return 0


def _report_sweep(config, output_dir=None) -> int:
    """Run a sweep, print each point's output or error; 3 if any point failed."""
    results = run_sweep(config, output_dir)
    for r in results:
        print(f"{r.params} -> {r.path if r.path else f'FAILED: {r.error}'}")
    return 3 if any(r.error for r in results) else 0


def _cmd_sweep(args) -> int:
    """Apply --axis k=v1,v2 and -j N as the config keys axis_k and parallelism."""
    overrides = {}
    for pair in args.axis:
        key, _, values = pair.partition("=")
        overrides[f"axis_{key.strip()}"] = values
    if args.jobs is not None:
        overrides["parallelism"] = args.jobs
    config = load_config(args.config).with_overrides(overrides)
    print(f"sweep over {math.prod(len(v) for v in config.sweep_axes.values())} point(s)")
    return _report_sweep(config, args.outdir)


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
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_spectrum(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
