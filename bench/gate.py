"""Correctness gate applied to every benchmark operation.

At every seed the invariants must hold:

* trajectories: fidelity 1 at t=0 and within [0, 1] throughout, per-site
  level populations summing to 1;
* spectra: the eigenvalues sum to trace(H), computed here from the config
  by enumerating the sector independently of quenchsim.

At seed 0 the written output must also match the reference output of the
seed code in bench/reference/: fidelity and populations within 1e-7
absolute, eigenvalues within 1e-9 rad/ns, band labels identical.
"""

from __future__ import annotations

import csv
import math
import re

FIDELITY_T0_TOL = 1e-9
POPULATION_SUM_TOL = 1e-9
TRACE_REL_TOL = 1e-9
TRAJECTORY_TOL = 1e-7
EIGENVALUE_TOL = 1e-9  # rad/ns
TIME_TOL = 1e-9


def _rad_per_ns(mhz: float) -> float:
    return 2.0 * math.pi * mhz * 1e-3


def read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _key(text: str, key: str) -> str:
    return re.search(rf"^\s*{key}\s*=\s*([^#\n]*?)\s*(#.*)?$", text, re.M).group(1)


def sector_trace(config_text: str) -> float:
    """trace(H) in rad/ns of the spectrum config's number sector.

    Hopping has no diagonal, so the trace is the anharmonicity sum
    ``sum_states sum_j -U_j/2 n_j (n_j - 1)`` over the sector.
    """
    sites = int(_key(config_text, "sites"))
    levels = int(_key(config_text, "levels"))
    particles = int(_key(config_text, "particles"))
    u = [float(v) for v in _key(config_text, "anharmonicity_mhz").split(",")]
    u = u * sites if len(u) == 1 else u
    pair_weight = [0.0] * sites  # sum over sector states of n_j (n_j - 1)

    def descend(site, remaining, occ):
        if site == sites - 1:
            if remaining < levels:
                for j, n in enumerate(occ + [remaining]):
                    pair_weight[j] += n * (n - 1)
            return
        for n in range(min(levels - 1, remaining) + 1):
            descend(site + 1, remaining - n, occ + [n])

    descend(0, particles, [])
    return sum(-0.5 * _rad_per_ns(uj) * w for uj, w in zip(u, pair_weight))


def check_trajectory(summary: dict, rows: list) -> list:
    problems = []
    fid = [float(r["fidelity"]) for r in rows]
    if abs(fid[0] - 1.0) > FIDELITY_T0_TOL:
        problems.append(f"fidelity at t=0 is {fid[0]!r}, not 1")
    if any(not 0.0 <= f <= 1.0 for f in fid + summary["fidelity"]):
        problems.append("fidelity outside [0, 1]")
    worst = max(summary["population_error"])
    if worst > POPULATION_SUM_TOL:
        problems.append(f"site populations sum to 1 only within {worst:.3e}")
    if summary["samples"] != len(rows):
        problems.append(f"{summary['samples']} records but {len(rows)} rows written")
    return problems


def check_spectrum(summary: dict, config_text: str, rows: list) -> list:
    if summary["dim"] != len(rows):
        return [f"sector dimension {summary['dim']} but {len(rows)} rows written"]
    evals = [_rad_per_ns(float(r["energy_mhz"])) for r in rows]
    expected = sector_trace(config_text)
    scale = max(1.0, sum(abs(e) for e in evals))
    if abs(sum(evals) - expected) > TRACE_REL_TOL * scale:
        return [f"eigenvalue sum {sum(evals)!r} differs from trace(H) {expected!r}"]
    return []


def compare_reference(rows: list, reference: list, spectrum: bool) -> list:
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    if spectrum:
        worst = max(abs(_rad_per_ns(float(a["energy_mhz"]) - float(b["energy_mhz"])))
                    for a, b in zip(rows, reference))
        problems = []
        if worst > EIGENVALUE_TOL:
            problems.append(f"eigenvalues differ from the reference by {worst:.3e} rad/ns")
        if any(a["band"] != b["band"] for a, b in zip(rows, reference)):
            problems.append("band labels differ from the reference")
        return problems
    if list(rows[0]) != list(reference[0]):
        return ["columns differ from the reference"]
    columns = [c for c in reference[0] if c == "fidelity" or re.fullmatch(r"P\d_\w+", c)]
    problems = []
    for a, b in zip(rows, reference):
        if abs(float(a["time_ns"]) - float(b["time_ns"])) > TIME_TOL:
            return [f"sample time {a['time_ns']} where the reference has {b['time_ns']}"]
        for c in columns:
            if abs(float(a[c]) - float(b[c])) > TRAJECTORY_TOL:
                problems.append(f"{c} at t={a['time_ns']} ns: {a[c]} vs reference {b[c]}")
    return problems[:5]


def check(summary: dict, output_path: str, config_text: str,
          reference_path: str | None) -> list:
    """Problems found in one operation's output; empty when it passes."""
    rows = read_csv(output_path)
    spectrum = "dim" in summary
    if spectrum:
        problems = check_spectrum(summary, config_text, rows)
    else:
        problems = check_trajectory(summary, rows)
    if reference_path is not None:
        problems += compare_reference(rows, read_csv(reference_path), spectrum)
    return problems
