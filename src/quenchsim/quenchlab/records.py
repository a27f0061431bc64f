"""Persistent outputs: observable records and spectra as CSV or JSON.

Both encodings share one column schema and serialize every number with 12
significant digits, so a CSV row and the matching JSON object are
value-identical and JSON round-trips bit-identically at that precision.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..analysis import ObservableRecord, SpectrumReport
from ..operators import mhz_from_omega

__all__ = ["record_columns", "write_records", "read_records", "write_spectrum", "write_result"]


def _fmt(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if value == 0.0:
        return "0"  # avoid the '-0' artifact
    return f"{value:.12g}"


def record_columns(sites: int) -> list:
    cols = ["time_ns", "fidelity", "P1_total", "P2_total"]
    cols += [f"P1_q{j}" for j in range(1, sites + 1)]
    cols += [f"P2_q{j}" for j in range(1, sites + 1)]
    cols += ["entropy", "A"]
    cols += [f"sx_q{j}" for j in range(1, sites + 1)]
    cols += [f"sz_q{j}" for j in range(1, sites + 1)]
    return cols


def _row_values(rec: ObservableRecord, sites: int) -> list:
    def level_col(level):
        if rec.populations is None:
            return [None] * sites
        if level >= rec.populations.shape[1]:
            return [0.0] * sites
        return list(rec.populations[:, level])

    p1 = level_col(1)
    p2 = level_col(2)
    vals = [rec.time_ns, rec.fidelity]
    vals += [None if rec.populations is None else float(np.sum(p1)),
             None if rec.populations is None else float(np.sum(p2))]
    vals += p1 + p2
    vals += [rec.entropy, rec.anharmonicity]
    vals += list(rec.pauli_x) if rec.pauli_x is not None else [None] * sites
    vals += list(rec.pauli_z) if rec.pauli_z is not None else [None] * sites
    return vals


def _infer_sites(records) -> int:
    for rec in records:
        for attr in (rec.populations, rec.pauli_x, rec.pauli_z):
            if attr is not None:
                return len(attr)
    raise ValueError("cannot infer the site count; pass sites= explicitly")


def write_records(records, path, format: str = "csv", sites: int | None = None) -> None:
    """Write observable records with the documented column schema.

    Absent observables appear as empty CSV fields / JSON nulls. ``sites``
    may be omitted when any record carries per-site data.
    """
    records = list(records)
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    if sites is None:
        sites = _infer_sites(records)
    cols = record_columns(sites)
    rows = [_row_values(rec, sites) for rec in records]
    for row in rows:
        if len(row) != len(cols):
            raise ValueError("record does not fit the column schema")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            fh.write("[\n")
            for i, row in enumerate(rows):
                fields = ", ".join(
                    f'"{c}": ' + ("null" if v is None else _fmt(v))
                    for c, v in zip(cols, row)
                )
                fh.write("  {" + fields + ("},\n" if i < len(rows) - 1 else "}\n"))
            fh.write("]\n")


def read_records(path) -> list:
    """Read back a JSON record file as a list of plain dicts."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_spectrum(report: SpectrumReport, path, format: str = "csv") -> None:
    """Write a sector spectrum: one row per eigenstate.

    Columns: index, energy as value/2pi in MHz, anharmonicity expectation,
    band label, ambiguity flag.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    cols = ["index", "energy_mhz", "A", "band", "ambiguous"]
    rows = [
        (i, mhz_from_omega(report.eigenvalues[i]), report.anharmonicity[i],
         int(report.bands[i]), bool(report.ambiguous[i]))
        for i in range(report.dim)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            fh.write(",".join(cols) + "\n")
            for i, e, a, b, amb in rows:
                fh.write(f"{i},{_fmt(e)},{_fmt(a)},{b},{int(amb)}\n")
        else:
            fh.write("[\n")
            for n, (i, e, a, b, amb) in enumerate(rows):
                fh.write(
                    f'  {{"index": {i}, "energy_mhz": {_fmt(e)}, "A": {_fmt(a)}, '
                    f'"band": {b}, "ambiguous": {str(amb).lower()}}}'
                    + (",\n" if n < len(rows) - 1 else "\n")
                )
            fh.write("]\n")


def write_result(result, path, format: str = "csv", sites: int | None = None) -> str:
    """Write records or a SpectrumReport to path; return the path written.

    A bare file name lands in ``default_output_dir()``, and a missing
    parent directory is created.
    """
    path = os.fspath(path)
    if not os.path.dirname(path):
        path = os.path.join(default_output_dir(), path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(result, SpectrumReport):
        write_spectrum(result, path, format)
    else:
        write_records(result, path, format, sites=sites)
    return path


def default_output_dir() -> str:
    """Output directory: $QUENCHSIM_OUTDIR or the working directory."""
    return os.environ.get("QUENCHSIM_OUTDIR", ".")
