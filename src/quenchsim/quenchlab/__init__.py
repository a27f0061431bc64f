"""Experiment layer: configs, figure presets, sweeps, outputs and the CLI."""

from .config import ConfigError, ExperimentConfig, TABLE_S1_U_MHZ, load_config
from .experiments import run_experiment, run_sweep, write_output
from .presets import preset, preset_names, preset_text
from .records import read_records, record_columns, write_records, write_spectrum

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TABLE_S1_U_MHZ",
    "load_config",
    "run_experiment",
    "run_sweep",
    "write_output",
    "preset",
    "preset_names",
    "preset_text",
    "read_records",
    "record_columns",
    "write_records",
    "write_spectrum",
]
