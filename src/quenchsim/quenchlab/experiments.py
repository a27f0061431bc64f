"""Experiment execution: single runs, the three protocol modes, and sweeps."""

from __future__ import annotations

import itertools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..analysis import (
    ObservableRecord,
    anharmonicity_expectation,
    fidelity,
    half_chain_entropy,
    pauli_expectation,
    sector_spectrum,
    site_populations,
)
from ..fockspace import build_basis, build_product_state, parse_product_state
from ..operators import AnharmonicityProfile, CouplingProfile, DriveSpec, TransverseProfile
from ..propagator import Protocol, Segment, reverse_of, run_protocol
from .config import ConfigError, ExperimentConfig
from .records import default_output_dir, write_result

__all__ = ["run_experiment", "SweepSpec", "run_sweep", "write_output"]


def _profiles(config: ExperimentConfig):
    if config.sites > 1:
        coupling = CouplingProfile.from_mhz(config.coupling_mhz)
    else:
        coupling = CouplingProfile(())
    anh = AnharmonicityProfile.from_mhz(config.anharmonicity_mhz)
    trans = TransverseProfile.from_mhz(config.transverse_mhz)
    return coupling, anh, trans


def _drive_specs(config: ExperimentConfig):
    """(forward drive, backward drive) or (None, None) when undriven."""
    if config.drive_kind == "none":
        return None, None
    nu = config.drive_frequency_mhz
    fwd = DriveSpec.staggered_odd(config.sites, config.drive_forward_mhz, nu)
    bwd = None
    if config.drive_backward_mhz is not None:
        bwd = DriveSpec.staggered_odd(config.sites, config.drive_backward_mhz, nu)
    return fwd, bwd


def _number_range(config: ExperimentConfig) -> tuple[int, int]:
    """Smallest and largest total occupation the initial product state spans.

    A digit fixes its site's level; ``+`` and a two-level amplitude pair
    add 0 or 1, or only the level whose amplitude is nonzero.
    """
    if config.initial_tokens is not None:
        lo = sum(int(c) for c in config.initial_tokens if c.isdigit())
        return lo, lo + config.initial_tokens.count("+")
    lo = hi = 0
    for pair in config.initial_amplitudes:
        live = [lvl for lvl, a in enumerate(pair) if a != 0]
        lo += min(live, default=0)
        hi += max(live, default=0)
    return lo, hi


def _pick_sector(config: ExperimentConfig) -> int | range | None:
    """The basis sector of a trajectory run: None (full), N or a range of N.

    On ``auto`` a number-conserving run evolves on the totals its initial
    state spans; a transverse field needs the full basis.
    """
    if config.sector == "full" or any(v != 0 for v in config.transverse_mhz):
        return None
    lo, hi = _number_range(config)
    return lo if lo == hi else range(lo, hi + 1)


def _initial_state(config: ExperimentConfig, basis):
    if config.initial_tokens is not None:
        return parse_product_state(config.initial_tokens, basis)
    sites = [{0: a0, 1: a1} for a0, a1 in config.initial_amplitudes]
    return build_product_state(sites, basis)


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


def _segment(duration, coupling, anh, trans, drive):
    return Segment(
        duration_ns=duration,
        coupling=coupling,
        anharmonicity=anh,
        transverse=None if trans.is_zero() else trans,
        drive=drive,
    )


def run_experiment(config: ExperimentConfig):
    """Execute one config and return its records.

    Trajectory modes return a list of ObservableRecord; spectrum mode
    returns a SpectrumReport.
    """
    coupling, anh, trans = _profiles(config)
    if config.mode == "spectrum":
        return sector_spectrum(
            config.sites, config.spectrum_particles, config.levels, coupling, anh
        )

    sector = _pick_sector(config)
    basis = build_basis(config.sites, config.levels, sector=sector)
    psi0 = _initial_state(config, basis)
    drive_f, drive_b = _drive_specs(config)

    if config.mode == "time-reversal":
        seg_f = _segment(config.forward_ns, coupling, anh, trans, drive_f)
        segments = (seg_f, reverse_of(seg_f, drive_override=drive_b))
    else:
        segments = (_segment(config.duration_ns, coupling, anh, trans, drive_f),)
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
    reference = run_protocol(protocol, _initial_state(config, basis2))
    return [
        observe(t, psi, cross=fidelity(psi2, psi))
        for (t, psi), (_, psi2) in zip(run_protocol(protocol, psi0), reference, strict=True)
    ]


def write_output(config: ExperimentConfig, result, path=None) -> str:
    """Write a run's result to its configured (or given) destination."""
    if path is None:
        path = config.output_path
    if path is None:
        raise ValueError("no output path configured")
    return write_result(result, path, config.output_format, sites=config.sites)


@dataclass
class SweepSpec:
    """Cartesian parameter sweep over config keys.

    ``axes`` maps config keys to value lists (strings, parsed per key by
    the config schema). Points run on a bounded worker pool of
    ``parallelism`` processes (at least 1); a failing point is reported in
    its SweepResult rather than aborting the sweep.
    """

    base: ExperimentConfig
    axes: dict = field(default_factory=dict)
    parallelism: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        if self.parallelism < 1:
            raise ConfigError(
                f"parallelism must be at least 1, got {self.parallelism}", key="parallelism"
            )

    @classmethod
    def from_config(cls, config: ExperimentConfig, extra_axes=None, parallelism=None,
                    output_dir=None) -> "SweepSpec":
        axes = dict(config.sweep_axes)
        if extra_axes:
            axes.update(extra_axes)
        return cls(
            base=config,
            axes=axes,
            parallelism=config.parallelism if parallelism is None else parallelism,
            output_dir=output_dir,
        )

    @property
    def size(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


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


def _result(params: dict, path: str, run) -> SweepResult:
    """Call run() and report the point as written, or with its error."""
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - reported per point
        return SweepResult(params, None, error=str(exc))
    return SweepResult(params, path)


def run_sweep(spec: SweepSpec) -> list:
    """Run every grid point, writing one output file per point.

    File names embed the axis values, so identical sweeps land on identical
    names. Returns a SweepResult per point in deterministic grid order.
    """
    base = spec.base
    stem = "sweep"
    if base.output_path:
        stem = os.path.splitext(os.path.basename(base.output_path))[0]
    out_dir = spec.output_dir or (
        os.path.dirname(base.output_path) if base.output_path else None
    ) or default_output_dir()

    keys = list(spec.axes)
    grid = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(spec.axes[k] for k in keys))
    ]
    jobs = [
        (params, os.path.join(out_dir, _point_name(stem, params, base.output_format)))
        for params in grid
    ]
    if spec.parallelism == 1 or len(jobs) <= 1:
        return [_result(params, path, lambda: _run_point(base, params, path))
                for params, path in jobs]
    with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
        futures = [pool.submit(_run_point, base, params, path) for params, path in jobs]
        return [_result(params, path, fut.result) for (params, path), fut in zip(jobs, futures)]
