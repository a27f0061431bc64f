"""Declarative experiment configs: a flat, commented key-value format.

A document is a sequence of ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment. Keys are unique across the whole document and every
key must belong to its section's schema, so typos fail loudly with a line
number. Frequencies are quoted the way device papers quote them, as
``value/2pi`` in MHz.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

from ..fockspace import MAX_LEVELS, check_codes_fit, product_sites

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "TABLE_S1_U_MHZ"]

# Alternating odd/even anharmonicity magnitudes of a typical ten-transmon
# device, used as the default profile (cycled when the chain is not ten
# sites long).
TABLE_S1_U_MHZ = (212.0, 264.0, 210.0, 268.0, 212.0, 268.0, 214.0, 264.0, 214.0, 264.0)

MODES = ("time-reversal", "one-direction-compare", "single-run", "spectrum")
DRIVE_KINDS = ("none", "staggered-odd")
FORMATS = ("csv", "json")
OBSERVABLES = ("fidelity", "populations", "pauli", "entropy", "anharmonicity")

# section -> keys allowed there
SCHEMA = {
    "lattice": {"sites", "levels"},
    "profiles": {
        "coupling_mhz",
        "anharmonicity_mhz",
        "transverse_mhz",
        "coupling_and_field_mhz",
    },
    "state": {"initial"},  # plus amplitudes_q<j>, validated dynamically
    "protocol": {
        "mode",
        "forward_ns",
        "assumed_forward_ns",
        "duration_ns",
        "assumed_duration_ns",
        "drive",
        "drive_frequency_mhz",
        "drive_forward_mhz",
        "drive_backward_mhz",
        "sector",
    },
    "sampling": {"dt_ns", "stroboscopic"},
    "observables": {"observables"},
    "spectrum": {"particles"},
    "output": {"path", "format"},
    "sweep": {"parallelism"},  # plus axis_<key>, validated dynamically
}

_KEY_SECTION = {k: s for s, keys in SCHEMA.items() for k in keys}


class ConfigError(ValueError):
    """Config parsing or validation failure, with line/key context."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if key is not None:
            ctx.append(f"key {key!r}")
        super().__init__(f"{message}" + (f" ({', '.join(ctx)})" if ctx else ""))
        self.line = line
        self.key = key


def _parse_document(text: str) -> dict:
    """Text -> ordered {key: (value, line)} map, section-checked."""
    entries: dict[str, tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        ok = (
            key in SCHEMA[section]
            or (section == "state" and key.startswith("amplitudes_q"))
            or (section == "sweep" and key.startswith("axis_"))
        )
        if not ok:
            raise ConfigError(f"unknown key in [{section}]", line=lineno, key=key)
        if key in entries:
            raise ConfigError("duplicate key", line=lineno, key=key)
        entries[key] = (value, lineno)
    return entries


def _want_float(entries, key, default=None):
    if key not in entries:
        return default
    value, line = entries[key]
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", line=line, key=key) from None
    if not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}", line=line, key=key)
    return out


def _want_time(entries, key):
    """A non-negative time from key, else from assumed_<key>; None if neither."""
    for name in (key, f"assumed_{key}"):
        value = _want_float(entries, name)
        if value is not None:
            if value < 0:
                raise ConfigError(f"expected a non-negative time, got {value:g}", key=name)
            return value
    return None


def _want_int(entries, key, default=None):
    if key not in entries:
        return default
    value, line = entries[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", line=line, key=key) from None


def _want_bool(entries, key, default=False):
    if key not in entries:
        return default
    value, line = entries[key]
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected true/false, got {value!r}", line=line, key=key)


def _want_choice(entries, key, choices, default):
    if key not in entries:
        return default
    value, line = entries[key]
    if value not in choices:
        raise ConfigError(
            f"expected one of {', '.join(choices)}; got {value!r}", line=line, key=key
        )
    return value


def _float_list(entries, key, n, default_scalar=None, keywords=()):
    """Parse a scalar (broadcast to n) or a comma list of exactly n floats."""
    if key not in entries:
        if default_scalar is None:
            return None
        return (float(default_scalar),) * n
    value, line = entries[key]
    if value.lower() in keywords:
        return value.lower()
    parts = [p.strip() for p in value.split(",") if p.strip()]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"expected numbers, got {value!r}", line=line, key=key) from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"expected finite numbers, got {value!r}", line=line, key=key)
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise ConfigError(f"expected 1 or {n} values, got {len(vals)}", line=line, key=key)
    return vals


@dataclass
class ExperimentConfig:
    """Validated parameters for one experiment run.

    Produced by load_config; fields mirror the document keys with profile
    lists broadcast to full length and frequencies kept in the quoted
    value/2pi MHz convention (conversion to angular units happens when
    operators are built). ``initial`` holds one ``{level: amplitude}`` map
    per site, as build_product_state takes it; ``sweep_axes`` and
    ``parallelism`` describe the sweep that run_sweep runs.
    """

    sites: int
    levels: int
    coupling_mhz: tuple
    anharmonicity_mhz: tuple
    transverse_mhz: tuple
    initial: tuple | None
    mode: str
    forward_ns: float | None
    duration_ns: float | None
    drive_kind: str
    drive_frequency_mhz: float | None
    drive_forward_mhz: float | None
    drive_backward_mhz: float | None
    sector: str
    dt_ns: float
    stroboscopic: bool
    observables: tuple
    spectrum_particles: int | None
    output_path: str | None
    output_format: str
    sweep_axes: dict = field(default_factory=dict)
    parallelism: int = 1
    raw: dict = field(default_factory=dict)
    source_text: str = ""

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """Revalidate with key -> value-string overrides applied.

        Keys are those of a document, ``amplitudes_q<j>`` and
        ``axis_<key>`` (comma-separated values) included.
        """
        raw = {k: v for k, (v, _) in self.raw.items()}
        for key, value in overrides.items():
            key = key.lower()
            if key not in _KEY_SECTION and not key.startswith(("amplitudes_q", "axis_")):
                raise ConfigError("unknown override key", key=key)
            raw[key] = str(value)
        entries = {k: (v, 0) for k, v in raw.items()}
        return _validate(entries, source_text=self.source_text)


def _validate(entries: dict, source_text: str = "") -> ExperimentConfig:
    sites = _want_int(entries, "sites")
    if sites is None:
        raise ConfigError("missing required key", key="sites")
    if sites < 1:
        raise ConfigError(f"need at least one site, got {sites}", key="sites")
    levels = _want_int(entries, "levels", 3)
    if not 2 <= levels <= MAX_LEVELS:
        raise ConfigError(f"need 2 to {MAX_LEVELS} levels, got {levels}", key="levels")
    check_codes_fit(sites, levels)  # before any list of `sites` entries

    both = _float_list(entries, "coupling_and_field_mhz", 1)
    coupling = _float_list(entries, "coupling_mhz", max(sites - 1, 1), default_scalar=10.8)
    transverse = _float_list(entries, "transverse_mhz", sites, default_scalar=0.0)
    if both is not None:
        coupling = (both[0],) * max(sites - 1, 1)
        transverse = (both[0],) * sites
    if sites == 1:
        coupling = ()
    elif len(coupling) != sites - 1:
        raise ConfigError(
            f"coupling needs {sites - 1} bond values, got {len(coupling)}",
            key="coupling_mhz",
        )
    anh = _float_list(
        entries, "anharmonicity_mhz", sites, default_scalar=None, keywords=("table-s1",)
    )
    if anh is None or anh == "table-s1":
        anh = tuple(TABLE_S1_U_MHZ[j % len(TABLE_S1_U_MHZ)] for j in range(sites))
    if any(u < 0 for u in anh):
        raise ConfigError("anharmonicity magnitudes must be non-negative", key="anharmonicity_mhz")

    # Initial state: per-site {level: amplitude} maps, from a token string
    # or from amplitude pairs of levels 0 and 1.
    amp_keys = sorted(k for k in entries if k.startswith("amplitudes_q"))
    initial = None
    if "initial" in entries:
        if amp_keys:
            raise ConfigError("give either initial tokens or amplitude pairs, not both",
                              key="initial")
        value, line = entries["initial"]
        try:
            initial = product_sites(value, sites, levels)
        except ValueError as exc:
            raise ConfigError(str(exc), line=line, key="initial") from None
    elif amp_keys:
        pairs: list[dict[int, complex]] = []
        for j in range(1, sites + 1):
            key = f"amplitudes_q{j}"
            if key not in entries:
                raise ConfigError(f"missing {key} (sites are 1..{sites})", key=key)
            value, line = entries[key]
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ConfigError("expected 'amp0, amp1'", line=line, key=key)
            try:
                pair = {0: complex(parts[0]), 1: complex(parts[1])}
            except ValueError:
                raise ConfigError(f"bad complex amplitude {value!r}", line=line, key=key) from None
            if not all(cmath.isfinite(amp) for amp in pair.values()):
                raise ConfigError(f"expected finite amplitudes, got {value!r}", line=line, key=key)
            pairs.append(pair)
        for k in amp_keys:
            suffix = k.removeprefix("amplitudes_q")
            if not suffix.isdigit() or not 1 <= int(suffix) <= sites:
                raise ConfigError("amplitude pair for a site beyond the chain", key=k)
        initial = tuple(pairs)

    mode = _want_choice(entries, "mode", MODES, "single-run")
    forward = _want_time(entries, "forward_ns")
    duration = _want_time(entries, "duration_ns")

    drive_kind = _want_choice(entries, "drive", DRIVE_KINDS, "none")
    drive_freq = _want_float(entries, "drive_frequency_mhz")
    drive_fwd = _want_float(entries, "drive_forward_mhz")
    drive_bwd = _want_float(entries, "drive_backward_mhz")
    driven = drive_kind != "none"
    if driven:
        if drive_freq is None or not drive_freq > 0:
            raise ConfigError("driven protocols need drive_frequency_mhz > 0",
                              key="drive_frequency_mhz")
        if drive_fwd is None:
            raise ConfigError("staggered-odd drive needs drive_forward_mhz",
                              key="drive_forward_mhz")

    sector = _want_choice(entries, "sector", ("auto", "full"), "auto")

    dt_ns = _want_float(entries, "dt_ns", 1.0)
    if not dt_ns > 0:
        raise ConfigError("dt_ns must be positive", key="dt_ns")
    strobo = _want_bool(entries, "stroboscopic")
    if strobo and not driven:
        raise ConfigError("stroboscopic sampling requires a drive", key="stroboscopic")

    if "observables" in entries:
        value, line = entries["observables"]
        obs = tuple(p.strip().lower() for p in value.split(",") if p.strip())
        for o in obs:
            if o not in OBSERVABLES:
                raise ConfigError(
                    f"unknown observable {o!r} (choices: {', '.join(OBSERVABLES)})",
                    line=line, key="observables",
                )
    else:
        obs = ("fidelity", "populations")

    particles = _want_int(entries, "particles")

    # Mode-specific requirements.
    if mode == "time-reversal" and forward is None:
        raise ConfigError("time-reversal mode needs forward_ns (or assumed_forward_ns)",
                          key="forward_ns")
    if mode in ("single-run", "one-direction-compare") and duration is None:
        raise ConfigError(f"{mode} mode needs duration_ns (or assumed_duration_ns)",
                          key="duration_ns")
    if mode == "time-reversal" and driven and drive_bwd is None:
        raise ConfigError(
            "driven time reversal needs drive_backward_mhz", key="drive_backward_mhz"
        )
    if mode == "one-direction-compare" and driven:
        raise ConfigError("one-direction-compare does not support a drive", key="drive")
    if mode == "spectrum":
        if particles is None:
            raise ConfigError("spectrum mode needs [spectrum] particles", key="particles")
        if not 0 <= particles <= sites * (levels - 1):
            raise ConfigError(f"particles {particles} outside the chain's range",
                              key="particles")
    if mode != "spectrum" and initial is None:
        raise ConfigError("missing initial state", key="initial")

    axes = {}
    for key in entries:
        if key.startswith("axis_"):
            target = key.removeprefix("axis_")
            if target not in _KEY_SECTION or _KEY_SECTION[target] == "sweep":
                raise ConfigError("axis does not refer to a config key", key=key)
            value, line = entries[key]
            values = [p.strip() for p in value.split(",") if p.strip()]
            if not values:
                raise ConfigError("empty axis", line=line, key=key)
            axes[target] = values
    parallelism = _want_int(entries, "parallelism", 1)
    if parallelism < 1:
        raise ConfigError("parallelism must be at least 1", key="parallelism")

    return ExperimentConfig(
        sites=sites,
        levels=levels,
        coupling_mhz=tuple(coupling),
        anharmonicity_mhz=tuple(anh),
        transverse_mhz=tuple(transverse),
        initial=initial,
        mode=mode,
        forward_ns=forward,
        duration_ns=duration,
        drive_kind=drive_kind,
        drive_frequency_mhz=drive_freq,
        drive_forward_mhz=drive_fwd,
        drive_backward_mhz=drive_bwd,
        sector=sector,
        dt_ns=dt_ns,
        stroboscopic=strobo,
        observables=obs,
        spectrum_particles=particles,
        output_path=entries.get("path", (None, None))[0],
        output_format=_want_choice(entries, "format", FORMATS, "csv"),
        sweep_axes=axes,
        parallelism=parallelism,
        raw=dict(entries),
        source_text=source_text,
    )


def load_config(source) -> ExperimentConfig:
    """Load a config from a path or directly from document text.

    A string containing a newline or an ``=`` is treated as document text;
    anything else is a filesystem path.
    """
    if isinstance(source, os.PathLike):
        text = open(os.fspath(source), encoding="utf-8").read()
    elif isinstance(source, str) and ("\n" in source or "=" in source):
        text = source
    else:
        try:
            text = open(source, encoding="utf-8").read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    return _validate(_parse_document(text), source_text=text)
