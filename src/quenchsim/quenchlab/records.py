"""Persistent outputs: observable records and spectra as CSV or JSON.

Both encodings share one column schema and serialize every number with 12
significant digits, so a CSV row and the matching JSON object are
value-identical and JSON round-trips bit-identically at that precision.
"""

from __future__ import annotations

import json
import os

from ..analysis import ObservableRecord, SpectrumReport
from ..operators import mhz_from_omega

__all__ = ["record_columns", "write_records", "read_records", "write_spectrum"]


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
    vals = [rec.time_ns, rec.fidelity, rec.level_total(1), rec.level_total(2)]
    vals += p1 + p2
    vals += [rec.entropy, rec.anharmonicity]
    vals += list(rec.pauli_x) if rec.pauli_x is not None else [None] * sites
    vals += list(rec.pauli_z) if rec.pauli_z is not None else [None] * sites
    return vals


def _cell(value, format: str) -> str:
    """One table cell in the given format.

    None is an empty field (CSV) or null, a bool 1/0 or true/false, an int
    is written as it is, and any other number with 12 significant digits.
    """
    if value is None:
        return "" if format == "csv" else "null"
    if isinstance(value, bool):
        return str(int(value)) if format == "csv" else str(value).lower()
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == 0.0:
        return "0"  # avoid the '-0' artifact
    return f"{value:.12g}"


def _write_table(path, format: str, cols: list, rows: list) -> None:
    """Write rows as a CSV table or as a JSON list of one object per row."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    if any(len(row) != len(cols) for row in rows):
        raise ValueError("row does not fit the column schema")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v, format) for v in row) + "\n")
        else:
            fh.write("[\n")
            for i, row in enumerate(rows):
                fields = ", ".join(f'"{c}": {_cell(v, format)}' for c, v in zip(cols, row))
                fh.write("  {" + fields + ("},\n" if i < len(rows) - 1 else "}\n"))
            fh.write("]\n")


def write_records(records, path, format: str = "csv", *, sites: int) -> None:
    """Write observable records with the documented column schema.

    ``sites`` sets the per-site columns. Absent observables appear as empty
    CSV fields / JSON nulls.
    """
    rows = [_row_values(rec, sites) for rec in records]
    _write_table(path, format, record_columns(sites), rows)


def read_records(path) -> list:
    """Read back a JSON record file as a list of plain dicts."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_spectrum(report: SpectrumReport, path, format: str = "csv") -> None:
    """Write a sector spectrum: one row per eigenstate.

    Columns: index, energy as value/2pi in MHz, anharmonicity expectation,
    band label, ambiguity flag.
    """
    cols = ["index", "energy_mhz", "A", "band", "ambiguous"]
    rows = [
        (i, mhz_from_omega(report.eigenvalues[i]), report.anharmonicity[i],
         int(report.bands[i]), bool(report.ambiguous[i]))
        for i in range(report.dim)
    ]
    _write_table(path, format, cols, rows)


def default_output_dir() -> str:
    """Output directory: $QUENCHSIM_OUTDIR or the working directory."""
    return os.environ.get("QUENCHSIM_OUTDIR", ".")
