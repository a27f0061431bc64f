"""Declarative experiment configs: a flat, commented key-value format.

A document is a sequence of ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment. Keys are unique across the whole document, every key
must belong to its section in ``KEYS``, and a key the config's mode never
reads (``UNREAD``) is an error, so typos fail loudly with a line number.
Frequencies are quoted the way device papers quote them, as ``value/2pi`` in
MHz.
"""

from __future__ import annotations

import cmath
import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field

from ..analysis import ResourceLimitError, _check_dense, _schmidt_shape
from ..fockspace import MAX_LEVELS, _checked_dim, check_codes_fit, product_sites
from ..operators import AnharmonicityProfile, CouplingProfile, DriveSpec, TransverseProfile
from ..propagator import Protocol, Segment, _plan, reverse_of

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "TABLE_S1_U_MHZ"]

# Alternating odd/even anharmonicity magnitudes of a typical ten-transmon
# device, used as the default profile (cycled when the chain is not ten
# sites long).
TABLE_S1_U_MHZ = (212.0, 264.0, 210.0, 268.0, 212.0, 268.0, 214.0, 264.0, 214.0, 264.0)

MODES = ("time-reversal", "one-direction-compare", "single-run", "spectrum")
FORMATS = ("csv", "json")
OBSERVABLES = ("fidelity", "populations", "pauli", "entropy", "anharmonicity")
# run_sweep holds its whole grid as a list and writes a file per point; a
# ten-site point takes seconds, so 10^4 points are already hours of runs,
# and every figure preset sweeps at most 5
MAX_SWEEP_POINTS = 10_000


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


# Value parsers: each takes a value's text and returns its value or raises
# ValueError; _validate adds the key and its line.


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _numbers(text: str) -> tuple:
    """A comma list of numbers; per-site keys broadcast a single one."""
    return tuple(_number(part.strip()) for part in text.split(",") if part.strip())


def _time(text: str) -> float:
    value = _number(text)
    if value < 0:
        raise ValueError(f"expected a non-negative time, got {value:g}")
    return value


def _positive(text: str) -> float:
    value = _number(text)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value:g}")
    return value


def _integer(lo: int, hi: float = math.inf):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}") from None
        if not lo <= value <= hi:
            bounds = f"at least {lo}" if hi == math.inf else f"{lo} to {hi}"
            raise ValueError(f"expected an integer {bounds}, got {value}")
        return value

    return parse


def _flag(text: str) -> bool:
    """The spellings configparser reads as booleans: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {text!r}") from None


def _choice(choices: tuple):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}; got {text!r}")
        return text

    return parse


def _observables(text: str) -> tuple:
    names = tuple(part.strip().lower() for part in text.split(",") if part.strip())
    for name in names:
        if name not in OBSERVABLES:
            raise ValueError(f"unknown observable {name!r} (choices: {', '.join(OBSERVABLES)})")
    return names


def _anharmonicity(text: str) -> tuple | None:
    """Non-negative magnitudes, or None for the ``table-s1`` device profile."""
    if text.lower() == "table-s1":
        return None
    values = _numbers(text)
    if any(u < 0 for u in values):
        raise ValueError("anharmonicity magnitudes must be non-negative")
    return values


def _tokens(text: str) -> str:
    """A digit or ``+`` per site; _validate fits them to the lattice."""
    unknown = set(text) - set("+0123456789")
    if unknown:
        raise ValueError(f"unknown tokens {''.join(sorted(unknown))!r} in {text!r}")
    return text


def _amplitude_pair(text: str) -> dict:
    """``amp0, amp1``: finite complex amplitudes of levels 0 and 1 of one site, not both 0."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected 'amp0, amp1'")
    try:
        pair = {0: complex(parts[0]), 1: complex(parts[1])}
    except ValueError:
        raise ValueError(f"bad complex amplitude {text!r}") from None
    if not all(cmath.isfinite(amp) for amp in pair.values()):
        raise ValueError(f"expected finite amplitudes, got {text!r}")
    if not any(pair.values()):
        raise ValueError(f"expected a nonzero amplitude, got {text!r}")
    return pair


# Every document key: key -> (section, parser, default). Two families add
# keys by prefix: amplitudes_q<j> in [state], the level-0/1 amplitudes of
# site j, and axis_<key> in [sweep], comma-separated values of <key> to
# sweep over.
KEYS = {
    "sites": ("lattice", _integer(1), None),
    "levels": ("lattice", _integer(2, MAX_LEVELS), 3),
    "coupling_mhz": ("profiles", _numbers, (10.8,)),
    "anharmonicity_mhz": ("profiles", _anharmonicity, None),
    "transverse_mhz": ("profiles", _numbers, (0.0,)),
    "coupling_and_field_mhz": ("profiles", _numbers, None),
    "initial": ("state", _tokens, None),
    "mode": ("protocol", _choice(MODES), "single-run"),
    "forward_ns": ("protocol", _time, None),
    "assumed_forward_ns": ("protocol", _time, None),
    "duration_ns": ("protocol", _time, None),
    "assumed_duration_ns": ("protocol", _time, None),
    "drive_frequency_mhz": ("protocol", _positive, None),
    "drive_forward_mhz": ("protocol", _number, None),
    "drive_backward_mhz": ("protocol", _number, None),
    "dt_ns": ("sampling", _positive, 1.0),
    "stroboscopic": ("sampling", _flag, False),
    "observables": ("observables", _observables, ("fidelity", "populations")),
    "particles": ("spectrum", _integer(0), None),
    "path": ("output", str, None),
    "format": ("output", _choice(FORMATS), "csv"),
    "parallelism": ("sweep", _integer(1), 1),
}


# The keys each mode never reads: naming one, or its axis_<key>, is an error
# rather than a silent no-op. amplitudes_q<j> counts as initial, and dt_ns is
# unread in every mode once stroboscopic = true.
UNREAD = {
    "spectrum": ("transverse_mhz", "coupling_and_field_mhz", "initial", "forward_ns",
                 "assumed_forward_ns", "duration_ns", "assumed_duration_ns",
                 "drive_frequency_mhz", "drive_forward_mhz", "drive_backward_mhz",
                 "dt_ns", "stroboscopic", "observables"),
    "time-reversal": ("duration_ns", "assumed_duration_ns", "particles"),
    "one-direction-compare": ("forward_ns", "assumed_forward_ns", "particles"),
    "single-run": ("forward_ns", "assumed_forward_ns", "particles", "drive_backward_mhz"),
}


def _axis(parse):
    def parse_axis(text: str) -> list:
        values = [part.strip() for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError("empty axis")
        for value in values:
            parse(value)
        return values

    return parse_axis


def _entry(key: str) -> tuple | None:
    """The (section, parser, default) of a key, family members included."""
    if key in KEYS:
        return KEYS[key]
    if key.startswith("amplitudes_q"):
        return "state", _amplitude_pair, None
    target = KEYS.get(key.removeprefix("axis_")) if key.startswith("axis_") else None
    # a sweep runs every point with one parallelism and one output naming
    if target is not None and target[0] not in ("sweep", "output"):
        return "sweep", _axis(target[1]), None
    return None


def _parse_document(text: str) -> dict:
    """Text -> ordered {key: (value, line)} map, section-checked."""
    sections = {section for section, _, _ in KEYS.values()}
    entries: dict[str, tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        entry = _entry(key)
        if entry is None or entry[0] != section:
            raise ConfigError(f"unknown key in [{section}]", line=lineno, key=key)
        if key in entries:
            raise ConfigError("duplicate key", line=lineno, key=key)
        entries[key] = (value, lineno)
    return entries


@dataclass
class ExperimentConfig:
    """Validated parameters for one experiment run.

    Produced by load_config; fields carry their key's name, with profile
    lists broadcast to full length and frequencies kept in the quoted
    value/2pi MHz convention (conversion to angular units happens when
    operators are built). ``initial`` holds one ``{level: amplitude}`` map
    per site, as build_product_state takes it. A drive exists exactly when
    ``drive_forward_mhz`` is set. ``sweep_axes`` and ``parallelism``
    describe the sweep that run_sweep runs.
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
    drive_frequency_mhz: float | None
    drive_forward_mhz: float | None
    drive_backward_mhz: float | None
    dt_ns: float
    stroboscopic: bool
    observables: tuple
    particles: int | None
    path: str | None
    format: str
    parallelism: int
    sweep_axes: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    source_text: str = ""

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """Revalidate with key -> value-string overrides applied.

        Keys are those of a document, ``amplitudes_q<j>`` and
        ``axis_<key>`` (comma-separated values) included. An error in an
        overridden value carries no line number.
        """
        entries = dict(self.raw)
        for key, value in overrides.items():
            key = key.lower()
            if _entry(key) is None:
                raise ConfigError("unknown override key", key=key)
            entries[key] = (str(value), None)
        return _validate(entries, source_text=self.source_text)


# ExperimentConfig fields named after a key take that key's parsed value.
_KEY_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name in KEYS]


def _number_range(config: ExperimentConfig) -> tuple[int, int]:
    """Smallest and largest total occupation a trajectory run reaches.

    A transverse field changes the total, so the run needs all of them.
    Every other term conserves it, and the run stays on the totals its
    initial product state spans: each site adds its lowest and its highest
    level of nonzero amplitude.
    """
    if any(v != 0 for v in config.transverse_mhz):
        return 0, config.sites * (config.levels - 1)
    lo = hi = 0
    for site in config.initial:
        live = [lvl for lvl, a in site.items() if a != 0]
        lo += min(live, default=0)
        hi += max(live, default=0)
    return lo, hi


def _pick_sector(config: ExperimentConfig) -> int | range | None:
    """The basis sector of a trajectory run: None (full), N or a range of N."""
    lo, hi = _number_range(config)
    if (lo, hi) == (0, config.sites * (config.levels - 1)):
        return None
    return lo if lo == hi else range(lo, hi + 1)


def _protocol(config: ExperimentConfig) -> Protocol:
    """The protocol of a trajectory config, built from the config alone, without a basis."""
    coupling = CouplingProfile.from_mhz(config.coupling_mhz)
    anh = AnharmonicityProfile.from_mhz(config.anharmonicity_mhz)
    trans = TransverseProfile.from_mhz(config.transverse_mhz)
    nu = config.drive_frequency_mhz
    drive_f, drive_b = (None if mhz is None else DriveSpec.staggered_odd(config.sites, mhz, nu)
                        for mhz in (config.drive_forward_mhz, config.drive_backward_mhz))
    if config.mode == "time-reversal":
        seg_f = Segment(config.forward_ns, coupling, anh, trans, drive=drive_f)
        segments = (seg_f, reverse_of(seg_f, drive_override=drive_b))
    else:
        segments = (Segment(config.duration_ns, coupling, anh, trans, drive=drive_f),)
    # _validate gives every stroboscopic run a drive with nu > 0
    step = drive_f.period_ns if config.stroboscopic else config.dt_ns
    return Protocol(segments, sample_dt_ns=step)


def _validate(entries: dict, source_text: str = "") -> ExperimentConfig:
    """{key: (value text, line or None)} -> ExperimentConfig, or ConfigError."""
    values = {key: default for key, (_, _, default) in KEYS.items()}
    for key, (text, line) in entries.items():
        try:
            values[key] = _entry(key)[1](text)
        except ValueError as exc:
            raise ConfigError(str(exc), line=line, key=key) from None

    def error(key: str, message: str) -> ConfigError:
        return ConfigError(message, line=entries.get(key, (None, None))[1], key=key)

    def per_site(key: str, n: int) -> tuple:
        """The key's values, one broadcast to n or exactly n of them."""
        vals = values[key]
        if len(vals) == 1:
            return vals * n
        if len(vals) != n:
            expected = "one value" if n <= 1 else f"1 or {n} values"
            raise error(key, f"expected {expected}, got {len(vals)}")
        return vals

    sites, levels = values["sites"], values["levels"]
    if sites is None:
        raise error("sites", "missing required key")
    check_codes_fit(sites, levels)  # before any list of `sites` entries

    if values["coupling_and_field_mhz"] is not None:
        for key in ("coupling_mhz", "transverse_mhz"):
            if key in entries:
                raise error(key, "give either coupling_and_field_mhz or this key, not both")
        values["coupling_mhz"] = values["transverse_mhz"] = per_site("coupling_and_field_mhz", 1)
    values["coupling_mhz"] = per_site("coupling_mhz", sites - 1)
    values["transverse_mhz"] = per_site("transverse_mhz", sites)
    if values["anharmonicity_mhz"] is None:
        values["anharmonicity_mhz"] = tuple(
            TABLE_S1_U_MHZ[j % len(TABLE_S1_U_MHZ)] for j in range(sites)
        )
    else:
        values["anharmonicity_mhz"] = per_site("anharmonicity_mhz", sites)

    # Initial state: per-site {level: amplitude} maps, from a token string
    # or from amplitude pairs of levels 0 and 1.
    amp_keys = [k for k in entries if k.startswith("amplitudes_q")]
    if values["initial"] is not None:
        if amp_keys:
            raise error("initial", "give either initial tokens or amplitude pairs, not both")
        try:
            values["initial"] = product_sites(values["initial"], sites, levels)
        except ValueError as exc:
            raise error("initial", str(exc)) from None
    elif amp_keys:
        for key in amp_keys:
            suffix = key.removeprefix("amplitudes_q")
            if not suffix.isdigit() or not 1 <= int(suffix) <= sites:
                raise error(key, "amplitude pair for a site beyond the chain")
        pairs = [f"amplitudes_q{j}" for j in range(1, sites + 1)]
        for key in pairs:
            if key not in values:
                raise error(key, f"missing {key} (sites are 1..{sites})")
        values["initial"] = tuple(values[key] for key in pairs)

    mode = values["mode"]
    for key in ("forward_ns", "duration_ns"):
        if values[key] is None:
            values[key] = values[f"assumed_{key}"]

    driven = values["drive_forward_mhz"] is not None
    if not driven:
        for key in ("drive_frequency_mhz", "drive_backward_mhz"):
            if key in entries:
                raise error(key, "a drive needs drive_forward_mhz")
    elif values["drive_frequency_mhz"] is None:
        raise error("drive_frequency_mhz", "a drive needs drive_frequency_mhz")
    if values["stroboscopic"] and not driven:
        raise error("stroboscopic", "stroboscopic sampling requires a drive")
    # a key is read when any mode the config's sweep runs reads it
    unread = set.intersection(*(set(UNREAD[m]) for m in {mode, *values.get("axis_mode", ())}))
    if values["stroboscopic"]:
        unread.add("dt_ns")
    for key in entries:
        name = "initial" if key.startswith("amplitudes_q") else key.removeprefix("axis_")
        if name in unread:
            reader = f"{mode} mode" if name in UNREAD[mode] else "stroboscopic sampling"
            raise error(key, f"{reader} does not read this key")

    # Mode-specific requirements.
    if mode == "time-reversal" and values["forward_ns"] is None:
        raise error("forward_ns", "time-reversal mode needs forward_ns (or assumed_forward_ns)")
    if mode in ("single-run", "one-direction-compare") and values["duration_ns"] is None:
        raise error("duration_ns", f"{mode} mode needs duration_ns (or assumed_duration_ns)")
    if mode == "time-reversal" and driven and values["drive_backward_mhz"] is None:
        raise error("drive_backward_mhz", "driven time reversal needs drive_backward_mhz")
    if mode == "one-direction-compare" and driven:
        raise error("drive_forward_mhz", "one-direction-compare does not support a drive")
    if mode == "spectrum":
        particles = values["particles"]
        if particles is None:
            raise error("particles", "spectrum mode needs [spectrum] particles")
        if particles > sites * (levels - 1):
            raise error("particles", f"particles {particles} outside the chain's range")
    elif values["initial"] is None:
        raise error("initial", "missing initial state")

    config = ExperimentConfig(
        **{key: values[key] for key in _KEY_FIELDS},
        sweep_axes={k.removeprefix("axis_"): v for k, v in values.items()
                    if k.startswith("axis_")},
        raw=dict(entries),
        source_text=source_text,
    )
    # every cap of the run, met before any basis, state or operator exists
    points = math.prod(map(len, config.sweep_axes.values()))
    if points > MAX_SWEEP_POINTS:
        raise ResourceLimitError(f"the sweep has {points} points, above the cap of "
                                 f"{MAX_SWEEP_POINTS}")
    if mode == "spectrum":
        _check_dense(sites, levels, config.particles)
        return config
    _checked_dim(sites, levels, *_number_range(config))
    _plan(_protocol(config), levels)
    if "entropy" in config.observables and sites > 1:
        _schmidt_shape(sites, levels, sites // 2)
    return config


def load_config(source) -> ExperimentConfig:
    """Load a config from a path or directly from document text.

    A string containing a newline is treated as document text (a valid
    document has a section header and a key line); anything else is a
    filesystem path, which may hold ``=`` as sweep points' names do; a path
    that cannot be read raises ConfigError.
    """
    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        try:
            with open(os.fspath(source), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    return _validate(_parse_document(text), source_text=text)
