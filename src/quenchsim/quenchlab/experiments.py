"""Experiment execution: single runs, the three protocol modes, and sweeps."""

from __future__ import annotations

import itertools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..analysis import (
    ObservableRecord,
    SpectrumReport,
    anharmonicity_expectation,
    fidelity,
    half_chain_entropy,
    pauli_expectation,
    sector_spectrum,
    site_populations,
)
from ..fockspace import build_basis, build_product_state
from ..operators import AnharmonicityProfile, CouplingProfile, DriveSpec, TransverseProfile
from ..propagator import Protocol, Segment, reverse_of, run_protocol
from .config import ExperimentConfig, _pick_sector
from .records import default_output_dir, write_records, write_spectrum

__all__ = ["run_experiment", "run_sweep", "write_output"]


def _profiles(config: ExperimentConfig):
    coupling = CouplingProfile.from_mhz(config.coupling_mhz)
    anh = AnharmonicityProfile.from_mhz(config.anharmonicity_mhz)
    trans = TransverseProfile.from_mhz(config.transverse_mhz)
    return coupling, anh, trans


def _drive_specs(config: ExperimentConfig):
    """(forward drive, backward drive) or (None, None) when undriven."""
    if config.drive_forward_mhz is None:
        return None, None
    nu = config.drive_frequency_mhz
    fwd = DriveSpec.staggered_odd(config.sites, config.drive_forward_mhz, nu)
    bwd = None
    if config.drive_backward_mhz is not None:
        bwd = DriveSpec.staggered_odd(config.sites, config.drive_backward_mhz, nu)
    return fwd, bwd


def _observer(config: ExperimentConfig, psi0=None):
    want = set(config.observables)
    cut = config.sites // 2

    def observe(t, psi, cross=None):
        rec = ObservableRecord(time_ns=t)
        if "fidelity" in want:
            if cross is not None:
                rec.fidelity = cross
            elif psi0 is not None:
                rec.fidelity = fidelity(psi0, psi)
        if "populations" in want or "pauli" in want:
            pops = site_populations(psi)
        if "populations" in want:
            rec.populations = pops
        if "pauli" in want:
            rec.pauli_x = np.array(
                [pauli_expectation(psi, j, "x") for j in range(config.sites)]
            )
            rec.pauli_z = pops[:, 0] - pops[:, 1]
        if "entropy" in want and config.sites > 1:
            rec.entropy = half_chain_entropy(psi, cut)
        if "anharmonicity" in want:
            rec.anharmonicity = anharmonicity_expectation(psi)
        return rec

    return observe


def run_experiment(config: ExperimentConfig):
    """Execute one config and return its records.

    Trajectory modes return a list of ObservableRecord; spectrum mode
    returns a SpectrumReport.
    """
    coupling, anh, trans = _profiles(config)
    if config.mode == "spectrum":
        return sector_spectrum(
            config.sites, config.particles, config.levels, coupling, anh
        )

    sector = _pick_sector(config)
    basis = build_basis(config.sites, config.levels, sector=sector)
    psi0 = build_product_state(config.initial, basis)
    drive_f, drive_b = _drive_specs(config)

    if config.mode == "time-reversal":
        seg_f = Segment(config.forward_ns, coupling, anh, trans, drive=drive_f)
        segments = (seg_f, reverse_of(seg_f, drive_override=drive_b))
    else:
        segments = (Segment(config.duration_ns, coupling, anh, trans, drive=drive_f),)
    # load_config gives every stroboscopic run a drive with nu > 0
    protocol = Protocol(
        segments, sample_dt_ns=drive_f.period_ns if config.stroboscopic else config.dt_ns
    )
    observe = _observer(config, psi0)
    if config.mode != "one-direction-compare":
        return [observe(t, psi) for t, psi in run_protocol(protocol, psi0)]

    # one-direction-compare: the same protocol on the two-level basis, where
    # the on-site term U/2 n(n-1) vanishes, gives the hopping-model reference
    # state at every sample; the K-level run records its cross fidelity.
    basis2 = build_basis(config.sites, 2, sector=sector)
    reference = run_protocol(protocol, build_product_state(config.initial, basis2))
    return [
        observe(t, psi, cross=fidelity(psi2, psi))
        for (t, psi), (_, psi2) in zip(run_protocol(protocol, psi0), reference, strict=True)
    ]


def write_output(config: ExperimentConfig, result, path=None) -> str:
    """Write records or a SpectrumReport to ``path`` (default: the config's).

    A bare file name lands in ``default_output_dir()``, and a missing parent
    directory is created. Returns the path written.
    """
    if path is None:
        path = config.path
    if path is None:
        raise ValueError("no output path configured")
    path = os.fspath(path)
    if not os.path.dirname(path):
        path = os.path.join(default_output_dir(), path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(result, SpectrumReport):
        write_spectrum(result, path, config.format)
    else:
        write_records(result, path, config.format, sites=config.sites)
    return path


@dataclass
class SweepResult:
    params: dict
    path: str | None
    error: str | None = None


_SAFE = re.compile(r"[^A-Za-z0-9._+-]")


def _point_name(stem: str, params: dict, fmt: str) -> str:
    if not params:
        return f"{stem}.{fmt}"
    tail = "__".join(f"{k}={_SAFE.sub('_', v)}" for k, v in params.items())
    return f"{stem}__{tail}.{fmt}"


def _run_point(base: ExperimentConfig, params: dict, out_path: str) -> str:
    config = base.with_overrides(params)
    return write_output(config, run_experiment(config), out_path)


def _result(params: dict, run) -> SweepResult:
    """Call run() and report the path it wrote, or its error."""
    try:
        return SweepResult(params, run())
    except Exception as exc:  # noqa: BLE001 - reported per point
        return SweepResult(params, None, error=str(exc))


def run_sweep(config: ExperimentConfig) -> list:
    """Run every point of the config's sweep, one output file per point.

    The points are the cartesian product of ``config.sweep_axes`` (a config
    without axes is one point) and run on ``min(parallelism, points, CPUs
    this process may use)`` worker processes, in this process when that is
    one. Each point is written beside the config's path (default
    ``sweep.<format>``), with the axis values in its name, so identical
    sweeps land on identical names. Returns a SweepResult per point in
    deterministic grid order; a failing point is reported in its
    SweepResult rather than aborting the sweep.
    """
    stem = os.path.splitext(config.path or "sweep")[0]
    axes = config.sweep_axes
    grid = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    jobs = [(params, _point_name(stem, params, config.format)) for params in grid]
    # each worker holds its own basis, so more workers than CPUs only add memory
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.parallelism, len(jobs), cpus or 1)
    if workers == 1:
        return [_result(params, lambda: _run_point(config, params, path))
                for params, path in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_point, config, params, path) for params, path in jobs]
        return [_result(params, fut.result) for params, fut in zip(grid, futures)]
