"""Command line interface.

Subcommands: ``run`` a config file or a named figure preset, ``preset`` to
print a preset, and ``spectrum`` for number-sector eigenvalues. A config
with sweep axes runs every point of its sweep. Exit codes: 0 success, 2
validation error or an output file that cannot be written, 3 numerics or
resource error.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..analysis import ResourceLimitError
from ..operators import mhz_from_omega
from ..propagator import NumericsError
from .config import ConfigError, load_config
from .experiments import _output_path, run_experiment, run_sweep, write_output
from .presets import preset, preset_names, preset_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Exact dynamics of driven chains of K-level bosonic sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file or preset, every point of its sweep")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("-c", "--config", help="config file path")
    source.add_argument("--preset", metavar="NAME",
                        help="figure preset: " + ", ".join(preset_names()))
    p_run.add_argument("-o", "--output", help="output file, the config key path")
    p_run.add_argument("--format", choices=("csv", "json"), help="output format override")
    p_run.add_argument("--axis", action="append", default=[], metavar="key=v1,v2",
                       help="sweep axis, the config key axis_<key> (repeatable)")
    p_run.add_argument("-j", "--jobs", type=int, default=None,
                       help="parallel workers, the config key parallelism")

    p_pre = sub.add_parser("preset", help="print a figure preset")
    p_pre.add_argument("name", help="preset name: " + ", ".join(preset_names()))

    p_spec = sub.add_parser("spectrum", help="number-sector spectrum of the chain")
    p_spec.add_argument("-L", "--sites", type=int, required=True)
    p_spec.add_argument("-N", "--particles", type=int, required=True)
    p_spec.add_argument("-K", "--levels", type=int, required=True)
    p_spec.add_argument("--J", type=float, required=True, help="coupling/2pi in MHz")
    p_spec.add_argument("--U", type=float, required=True, help="anharmonicity/2pi in MHz")
    p_spec.add_argument("-o", "--output", help="write the spectrum to this file")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _output_file(config, path=None) -> str:
    """The file ``write_output`` will write, refused before the run if it is a directory."""
    path = _output_path(config, path)
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    return path


def _run(config, args, stem: str) -> int:
    """Apply the flags as config overrides and run the config as it reads.

    ``-o`` is the key path, ``--format`` format, ``--axis k=v1,v2`` axis_k
    and ``-j N`` parallelism. Without ``-o`` the path is the config's, or
    ``<stem>.<format>``, and ``--format`` sets its extension. A config with
    sweep axes writes each point beside that path and exits 3 if any point
    failed; one without writes the path, refused before the run if it is a
    directory.
    """
    fmt = args.format or config.format
    path = config.path
    if path is None or args.format:
        path = f"{os.path.splitext(path or stem)[0]}.{fmt}"
    overrides = {"format": fmt, "path": args.output or path}
    for pair in args.axis:
        key, _, values = pair.partition("=")
        overrides[f"axis_{key.strip()}"] = values
    if args.jobs is not None:
        overrides["parallelism"] = args.jobs
    config = config.with_overrides(overrides)
    if not config.sweep_axes:
        path = _output_file(config)
        print(f"wrote {write_output(config, run_experiment(config), path)}")
        return 0
    results = run_sweep(config)
    for r in results:
        print(f"{r.params} -> {r.path if r.path else f'FAILED: {r.error}'}")
    return 3 if any(r.error for r in results) else 0


def _cmd_spectrum(args) -> int:
    """Run the flags as a spectrum-mode config, so they pass its validation."""
    config = load_config(
        f"[lattice]\nsites = {args.sites}\nlevels = {args.levels}\n"
        f"[profiles]\ncoupling_mhz = {args.J!r}\nanharmonicity_mhz = {args.U!r}\n"
        f"[protocol]\nmode = spectrum\n[spectrum]\nparticles = {args.particles}\n"
        f"[output]\nformat = {args.format}\n"
    )
    path = _output_file(config, args.output) if args.output else None
    report = run_experiment(config)
    lo = mhz_from_omega(report.eigenvalues[0])
    hi = mhz_from_omega(report.eigenvalues[-1])
    print(f"dimension {report.dim}, energies (value/2pi) {lo:.3f} .. {hi:.3f} MHz, "
          f"{len(set(report.bands.tolist()))} band(s)")
    if path:
        print(f"wrote {write_output(config, report, path)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            name = args.preset
            config = load_config(args.config) if name is None else preset(name)
            return _run(config, args, name or "run")
        if args.command == "preset":
            sys.stdout.write(preset_text(args.name))
            return 0
        return _cmd_spectrum(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
