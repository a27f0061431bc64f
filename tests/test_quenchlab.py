import concurrent.futures
import contextlib
import itertools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import sysconfig
import time

import numpy as np
import pytest

from quenchsim import ResourceLimitError, analysis, fidelity, parse_product_state, build_basis
from quenchsim import fockspace, propagator
from quenchsim.analysis import SpectrumReport
from quenchsim.quenchlab import (
    ConfigError,
    load_config,
    preset,
    preset_names,
    preset_text,
    read_records,
    record_columns,
    run_experiment,
    run_sweep,
    write_output,
    write_records,
    write_spectrum,
)
from quenchsim.quenchlab import cli, experiments
from quenchsim.quenchlab import config as config_module
from quenchsim.quenchlab.cli import main
from quenchsim.quenchlab.experiments import _pick_sector


@contextlib.contextmanager
def address_space_headroom(nbytes):
    """Cap this process's address space at its current size plus nbytes.

    A size guard that lets a huge input through then fails with MemoryError
    instead of filling the machine's memory.
    """
    with open("/proc/self/statm") as fh:
        current = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = current + nbytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


MINIMAL = """
[lattice]
sites = 2
levels = 2

[state]
initial = 01

[protocol]
mode = single-run
duration_ns = 20
"""

REVERSAL = MINIMAL.replace("mode = single-run\nduration_ns = 20", "mode = time-reversal\nforward_ns = 20")
COMPARE = MINIMAL.replace("mode = single-run", "mode = one-direction-compare")
SPECTRUM = """
[lattice]
sites = 4
levels = 3

[protocol]
mode = spectrum

[spectrum]
particles = 2
"""
DRIVE = "[protocol]\ndrive_frequency_mhz = 120\ndrive_forward_mhz = 213.6\n"

# Each document names one key its mode never reads; all of them used to load
# and run with that key silently dropped.
UNREAD_CASES = [
    (SPECTRUM + "[profiles]\ntransverse_mhz = 50\n", "transverse_mhz"),
    (SPECTRUM + "[profiles]\ncoupling_and_field_mhz = 4\n", "coupling_and_field_mhz"),
    (SPECTRUM + "[state]\ninitial = 0101\n", "initial"),
    (SPECTRUM + "[state]\n" + "".join(f"amplitudes_q{j} = 1, 0\n" for j in range(1, 5)),
     "amplitudes_q1"),
    (SPECTRUM + "[protocol]\nforward_ns = 10\n", "forward_ns"),
    (SPECTRUM + "[protocol]\nassumed_duration_ns = 10\n", "assumed_duration_ns"),
    (SPECTRUM + DRIVE, "drive_frequency_mhz"),
    (SPECTRUM + "[sampling]\ndt_ns = 0.5\n", "dt_ns"),
    (SPECTRUM + "[observables]\nobservables = fidelity\n", "observables"),
    (SPECTRUM + "[sweep]\naxis_transverse_mhz = 0, 50\n", "axis_transverse_mhz"),
    (REVERSAL + "[protocol]\nduration_ns = 20\n", "duration_ns"),
    (REVERSAL + "[protocol]\nassumed_duration_ns = 20\n", "assumed_duration_ns"),
    (REVERSAL + "[spectrum]\nparticles = 1\n", "particles"),
    (MINIMAL + "[protocol]\nforward_ns = 99\n", "forward_ns"),
    (MINIMAL + "[protocol]\nassumed_forward_ns = 99\n", "assumed_forward_ns"),
    (MINIMAL + "[spectrum]\nparticles = 2\n", "particles"),
    (MINIMAL + DRIVE + "drive_backward_mhz = 400\n", "drive_backward_mhz"),
    (COMPARE + "[protocol]\nforward_ns = 10\n", "forward_ns"),
    (COMPARE + "[sweep]\naxis_particles = 1, 2\n", "axis_particles"),
    (REVERSAL + DRIVE + "drive_backward_mhz = 400\n[sampling]\nstroboscopic = true\ndt_ns = 1\n",
     "dt_ns"),
    (MINIMAL + DRIVE + "[sampling]\nstroboscopic = true\n[sweep]\naxis_dt_ns = 1, 2\n", "axis_dt_ns"),
]

# Rejections with the key each ConfigError names (None: the line itself).
REJECTED_CASES = [
    ("non_integer_sites", MINIMAL.replace("sites = 2", "sites = 2.5"), "sites", "integer"),
    ("stroboscopic_maybe", MINIMAL + "[sampling]\nstroboscopic = maybe\n",
     "stroboscopic", "true/false"),
    ("unknown_mode", MINIMAL.replace("single-run", "sideways"), "mode", "expected one of"),
    ("unknown_observable", MINIMAL + "[observables]\nobservables = fidelity, spin\n",
     "observables", "unknown observable"),
    ("negative_anharmonicity", MINIMAL + "[profiles]\nanharmonicity_mhz = -5\n",
     "anharmonicity_mhz", "non-negative"),
    ("one_amplitude", MINIMAL.replace("initial = 01", "amplitudes_q1 = 1\namplitudes_q2 = 1, 0"),
     "amplitudes_q1", "amp0, amp1"),
    ("bad_amplitude", MINIMAL.replace("initial = 01", "amplitudes_q1 = a, b\namplitudes_q2 = 1, 0"),
     "amplitudes_q1", "bad complex"),
    ("empty_axis", MINIMAL + "[sweep]\naxis_dt_ns = ,\n", "axis_dt_ns", "empty axis"),
    ("line_without_equals", MINIMAL + "[lattice]\nsites\n", None, "key = value"),
    ("key_before_section", "sites = 2\n" + MINIMAL, None, "outside any"),
    ("missing_sites", MINIMAL.replace("sites = 2\n", ""), "sites", "missing required"),
    ("pair_beyond_chain",
     MINIMAL.replace("initial = 01", "amplitudes_q1 = 1, 0\namplitudes_q2 = 1, 0\n"
                     "amplitudes_q3 = 1, 0"), "amplitudes_q3", "beyond the chain"),
    ("missing_pair", MINIMAL.replace("initial = 01", "amplitudes_q1 = 1, 0"),
     "amplitudes_q2", "missing"),
    ("single_run_without_duration", MINIMAL.replace("duration_ns = 20\n", ""),
     "duration_ns", "needs duration_ns"),
    ("compare_with_drive", COMPARE + DRIVE, "drive_forward_mhz", "does not support a drive"),
    ("spectrum_without_particles", SPECTRUM.replace("particles = 2\n", ""),
     "particles", "needs"),
    ("particles_beyond_chain", SPECTRUM.replace("particles = 2", "particles = 9"),
     "particles", "outside"),
    ("no_initial_state", MINIMAL.replace("initial = 01\n", ""), "initial", "missing initial"),
    ("unreadable_path", os.path.dirname(os.path.abspath(__file__)), None, "cannot read"),
    ("unreadable_pathlike", pathlib.Path(__file__).resolve().parent, None, "cannot read"),
]


class TestLoadConfig:
    def test_minimal_with_defaults(self):
        cfg = load_config(MINIMAL)
        assert cfg.sites == 2 and cfg.levels == 2
        assert cfg.mode == "single-run" and cfg.duration_ns == 20
        assert cfg.coupling_mhz == (10.8,)
        assert cfg.anharmonicity_mhz == (212.0, 264.0)  # device table, first two
        assert cfg.dt_ns == 1.0 and cfg.format == "csv"
        assert cfg.observables == ("fidelity", "populations")

    def test_from_path(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL)
        assert load_config(p).sites == 2
        assert load_config(str(p)).sites == 2

    def test_path_with_equals_sign(self, tmp_path, capsys):
        # sweep points are named stem__key=value.ext, so a config saved
        # beside them has an '=' in its path
        p = tmp_path / "fig8c__J=8.cfg"
        p.write_text(MINIMAL)
        assert load_config(str(p)).sites == 2
        out = tmp_path / "o.csv"
        assert main(["run", "-c", str(p), "-o", str(out)]) == 0
        assert out.exists()

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "\n[lattice]\nbogus = 1\n"
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config("[nope]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(MINIMAL + "\n[lattice]\nsites = 3\n")

    def test_initial_length_mismatch(self):
        with pytest.raises(ConfigError, match="tokens"):
            load_config(MINIMAL.replace("initial = 01", "initial = 011"))

    def test_token_above_levels(self):
        with pytest.raises(ConfigError, match="levels"):
            load_config(MINIMAL.replace("initial = 01", "initial = 02"))

    def test_levels_below_two(self):
        with pytest.raises(ConfigError):
            load_config(MINIMAL.replace("levels = 2", "levels = 1"))

    def test_coupling_list_length(self):
        text = MINIMAL + "\n[profiles]\ncoupling_mhz = 1, 2, 3\n"
        with pytest.raises(ConfigError, match="coupling"):
            load_config(text)

    def test_mode_requirements(self):
        with pytest.raises(ConfigError, match="forward_ns"):
            load_config(MINIMAL.replace("mode = single-run\nduration_ns = 20",
                                        "mode = time-reversal"))

    @pytest.mark.parametrize("mode,key", [("time-reversal", "forward_ns"),
                                          ("single-run", "duration_ns"),
                                          ("single-run", "assumed_duration_ns")])
    def test_negative_time_rejected(self, mode, key):
        text = MINIMAL.replace("mode = single-run\nduration_ns = 20",
                               f"mode = {mode}\n{key} = -5")
        with pytest.raises(ConfigError, match="non-negative") as err:
            load_config(text)
        assert err.value.key == key

    def test_stroboscopic_needs_drive(self):
        with pytest.raises(ConfigError, match="drive"):
            load_config(MINIMAL + "\n[sampling]\nstroboscopic = true\n")

    @pytest.mark.parametrize("text, value", [("1", True), ("Yes", True), ("true", True),
                                             ("ON", True), ("0", False), ("no", False),
                                             ("False", False), ("off", False)])
    def test_flag_spellings(self, text, value):
        config = load_config(MINIMAL + DRIVE + f"[sampling]\nstroboscopic = {text}\n")
        assert config.stroboscopic is value

    def test_amplitude_pairs(self):
        text = """
[lattice]
sites = 2
levels = 2
[state]
amplitudes_q1 = 0.6, 0.8
amplitudes_q2 = 1, 0
[protocol]
mode = single-run
duration_ns = 5
"""
        cfg = load_config(text)
        assert cfg.initial == ({0: 0.6 + 0j, 1: 0.8 + 0j}, {0: 1 + 0j, 1: 0j})

    # nan/inf loaded and failed only in the first Krylov step
    @pytest.mark.parametrize("value", ["nan, 1", "inf, 1", "1, nanj"])
    def test_non_finite_amplitude_rejected(self, value):
        text = MINIMAL.replace("initial = 01", f"amplitudes_q1 = {value}\namplitudes_q2 = 1, 0")
        with pytest.raises(ConfigError, match="finite") as err:
            load_config(text)
        assert err.value.key == "amplitudes_q1"
        assert err.value.line == text.splitlines().index(f"amplitudes_q1 = {value}") + 1

    def test_amplitudes_and_tokens_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            load_config(MINIMAL + "\n[state]\namplitudes_q1 = 1, 0\n")

    def test_coupling_and_field_sets_both(self):
        cfg = load_config(MINIMAL + "\n[profiles]\ncoupling_and_field_mhz = 7\n")
        assert cfg.coupling_mhz == (7.0,)
        assert cfg.transverse_mhz == (7.0, 7.0)

    # coupling_and_field_mhz used to override both keys silently
    @pytest.mark.parametrize("key", ["coupling_mhz", "transverse_mhz"])
    def test_coupling_and_field_conflicts(self, key):
        text = MINIMAL + f"\n[profiles]\ncoupling_and_field_mhz = 7\n{key} = 3\n"
        with pytest.raises(ConfigError, match="not both") as err:
            load_config(text)
        assert err.value.key == key
        assert err.value.line == text.splitlines().index(f"{key} = 3") + 1

    def test_coupling_and_field_takes_one_value(self):
        with pytest.raises(ConfigError, match="expected one value, got 2"):
            load_config(MINIMAL + "\n[profiles]\ncoupling_and_field_mhz = 4, 16\n")

    # drive keys without drive_forward_mhz used to load and run undriven
    @pytest.mark.parametrize("key", ["drive_frequency_mhz", "drive_backward_mhz"])
    def test_drive_keys_need_forward_amplitude(self, key):
        text = MINIMAL.replace("duration_ns = 20", f"duration_ns = 20\n{key} = 120")
        with pytest.raises(ConfigError, match="drive_forward_mhz") as err:
            load_config(text)
        assert err.value.key == key
        assert err.value.line == text.splitlines().index(f"{key} = 120") + 1

    def test_drive_forward_amplitude_turns_drive_on(self):
        text = MINIMAL.replace("duration_ns = 20", "duration_ns = 20\ndrive_forward_mhz = 200")
        with pytest.raises(ConfigError, match="drive_frequency_mhz"):
            load_config(text)
        cfg = load_config(text + "drive_frequency_mhz = 120\n")
        assert cfg.drive_forward_mhz == 200.0 and cfg.drive_frequency_mhz == 120.0

    # axis values used to load and fail one point at a time when run
    def test_bad_axis_value_fails_at_load(self):
        text = MINIMAL + "\n[sweep]\naxis_dt_ns = 2, abc, -1\n"
        with pytest.raises(ConfigError, match="expected a number") as err:
            load_config(text)
        assert err.value.key == "axis_dt_ns"
        assert err.value.line == len(text.splitlines())
        with pytest.raises(ConfigError, match="positive") as err:
            load_config(MINIMAL).with_overrides({"axis_dt_ns": "2, -1"})
        assert err.value.key == "axis_dt_ns"
        with pytest.raises(ConfigError, match="unknown tokens 'x'") as err:
            load_config(MINIMAL).with_overrides({"axis_initial": "01, 0x"})
        assert err.value.key == "axis_initial"

    def test_range_error_reports_line(self):
        text = MINIMAL + "\n[sampling]\ndt_ns = -1\n"
        with pytest.raises(ConfigError, match="positive") as err:
            load_config(text)
        assert err.value.key == "dt_ns"
        assert err.value.line == len(text.splitlines())

    def test_sweep_axis_must_reference_key(self):
        with pytest.raises(ConfigError, match="axis"):
            load_config(MINIMAL + "\n[sweep]\naxis_bogus = 1, 2\n")

    # time key (forward_ns = inf once made the sample schedule endless),
    # scalar keys, a scalar broadcast to a list key, and one list entry
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("section,key,template", [
        ("protocol", "forward_ns", "{}"),
        ("protocol", "drive_frequency_mhz", "{}"),
        ("profiles", "coupling_mhz", "{}"),
        ("profiles", "anharmonicity_mhz", "212, {}"),
    ])
    def test_non_finite_rejected(self, section, key, template, value):
        text = MINIMAL.replace("mode = single-run\nduration_ns = 20",
                               "mode = time-reversal")
        text += f"\n[{section}]\n{key} = {template.format(value)}\n"
        if key != "forward_ns":
            text += "\n[protocol]\nforward_ns = 20\n"
        with pytest.raises(ConfigError, match="finite") as err:
            load_config(text)
        assert err.value.key == key

    def test_driven_reversal_needs_backward_amplitude(self):
        text = MINIMAL.replace("mode = single-run\nduration_ns = 20",
                               "mode = time-reversal\nforward_ns = 20\n"
                               "drive_frequency_mhz = 120\ndrive_forward_mhz = 213.6")
        with pytest.raises(ConfigError, match="drive_backward_mhz") as err:
            load_config(text)
        assert err.value.key == "drive_backward_mhz"
        load_config(text + "drive_backward_mhz = 400\n")

    @pytest.mark.parametrize("extra,match", [
        ("[protocol]\ndrive_pattern_mhz = 100, 0\ndrive_frequency_mhz = 120", "unknown key"),
        ("[meta]\ncomment = note", "unknown section"),
        ("[protocol]\nsector = 1", "unknown key"),
        ("[protocol]\nsector = full", "unknown key"),
        ("[protocol]\ndrive = staggered-odd", "unknown key"),
    ], ids=["drive_pattern_mhz", "meta_comment", "integer_sector", "sector_key", "drive_key"])
    def test_removed_values_rejected(self, extra, match):
        with pytest.raises(ConfigError, match=match):
            load_config(MINIMAL + "\n" + extra + "\n")

    @pytest.mark.parametrize("text,key", UNREAD_CASES, ids=[
        f"{text.split('mode = ')[1].split()[0]}:{key}" for text, key in UNREAD_CASES])
    def test_key_the_mode_does_not_read(self, text, key):
        with pytest.raises(ConfigError, match="does not read this key") as err:
            load_config(text)
        assert err.value.key == key
        assert err.value.line == [line.split(" =")[0] for line in text.splitlines()].index(key) + 1

    def test_mode_axis_reads_the_keys_of_every_mode(self):
        text = MINIMAL + "[protocol]\nforward_ns = 10\n[sweep]\naxis_mode = single-run, time-reversal\n"
        cfg = load_config(text)
        assert cfg.with_overrides({"mode": "time-reversal"}).forward_ns == 10.0
        with pytest.raises(ConfigError, match="does not read") as err:
            load_config(text + "[spectrum]\nparticles = 1\n")
        assert err.value.key == "particles"

    def test_override_the_mode_does_not_read(self):
        with pytest.raises(ConfigError, match="single-run mode does not read") as err:
            load_config(MINIMAL).with_overrides({"forward_ns": "5"})
        assert err.value.key == "forward_ns" and err.value.line is None

    @pytest.mark.parametrize("source,key,match", [case[1:] for case in REJECTED_CASES],
                             ids=[case[0] for case in REJECTED_CASES])
    def test_rejected(self, source, key, match):
        with pytest.raises(ConfigError, match=match) as err:
            load_config(source)
        assert err.value.key == key

    def test_exact_length_lists_kept(self):
        text = MINIMAL.replace("sites = 2\nlevels = 2", "sites = 4\nlevels = 2").replace(
            "initial = 01", "initial = 0101")
        cfg = load_config(text + "[profiles]\ncoupling_mhz = 4, 8, 16\n"
                          "anharmonicity_mhz = 200, 210, 220, 230\n")
        assert cfg.coupling_mhz == (4.0, 8.0, 16.0)
        assert cfg.anharmonicity_mhz == (200.0, 210.0, 220.0, 230.0)

    def test_overrides_revalidate(self):
        cfg = load_config(MINIMAL)
        with pytest.raises(ConfigError):
            cfg.with_overrides({"initial": "0"})
        cfg2 = cfg.with_overrides({"duration_ns": "7"})
        assert cfg2.duration_ns == 7.0

    # override errors used to say "line 0"
    def test_override_error_has_no_line(self):
        with pytest.raises(ConfigError, match="expected a number") as err:
            load_config(MINIMAL).with_overrides({"dt_ns": "abc"})
        assert err.value.line is None and err.value.key == "dt_ns"
        assert "line" not in str(err.value)


class TestPresets:
    def test_all_presets_validate(self):
        for name in preset_names():
            cfg = preset(name)
            assert cfg.sites == 10

    def test_fig3_main_parameters(self):
        cfg = preset("fig3-main")
        assert cfg.levels == 3
        assert cfg.coupling_mhz == (16.0,) * 9
        assert cfg.mode == "time-reversal"
        states = cfg.sweep_axes["initial"]
        assert states == ["0001001000", "0000110000", "0001111000", "++++++++++"]

    def test_fig2_parameters(self):
        cfg = preset("fig2")
        assert cfg.drive_frequency_mhz == 120.0
        assert cfg.drive_forward_mhz == 213.6
        assert cfg.drive_backward_mhz == 400.0
        assert cfg.coupling_mhz == (10.8,) * 9
        assert cfg.stroboscopic

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="fig2"):
            preset("nope")

    @pytest.mark.parametrize("name", [n for n in preset_names() if n != "fig8a"])
    def test_presets_run_briefly(self, name):
        # shrink durations so every preset executes end to end
        overrides = {}
        cfg = preset(name)
        if cfg.mode == "time-reversal":
            over = {"forward_ns": "2", "dt_ns": "1"}
            if cfg.stroboscopic:
                over = {"forward_ns": str(2 * 1e3 / cfg.drive_frequency_mhz)}
            cfg = cfg.with_overrides(over)
        else:
            cfg = cfg.with_overrides({"duration_ns": "2", "dt_ns": "1"})
        records = run_experiment(cfg)
        assert len(records) >= 2
        assert records[0].time_ns == 0.0

    def test_fig8a_runs(self):
        rep = run_experiment(preset("fig8a"))
        assert isinstance(rep, SpectrumReport)
        assert rep.dim == 2002

    def test_fig2_samples_at_drive_period(self):
        period = 1e3 / 120.0  # about 8.33 ns
        cfg = preset("fig2").with_overrides({"forward_ns": str(3 * period)})
        records = run_experiment(cfg)
        times = np.array([r.time_ns for r in records])
        np.testing.assert_allclose(np.diff(times), period, atol=1e-9)
        assert len(times) == 7  # three periods forward, three backward


class TestRunExperiment:
    def test_zero_forward_reversal_is_one_record(self):
        # both segments are empty: run_protocol skips them
        records = run_experiment(load_config(REVERSAL.replace("forward_ns = 20", "forward_ns = 0")))
        assert len(records) == 1
        assert records[0].time_ns == 0.0 and records[0].fidelity == pytest.approx(1.0)

    def test_two_level_reversal_returns_unity(self):
        text = """
[lattice]
sites = 4
levels = 2
[state]
initial = 0110
[protocol]
mode = time-reversal
forward_ns = 50
[sampling]
dt_ns = 10
"""
        records = run_experiment(load_config(text))
        assert records[-1].fidelity == pytest.approx(1.0, abs=1e-8)
        assert records[-1].time_ns == pytest.approx(100.0)

    @pytest.mark.parametrize("forward_mhz", [213.6, 0.0])
    def test_stroboscopic_samples_every_period(self, forward_mhz):
        text = f"""
[lattice]
sites = 4
levels = 3
[state]
initial = 0110
[protocol]
mode = time-reversal
forward_ns = 50
drive_frequency_mhz = 120
drive_forward_mhz = {forward_mhz}
drive_backward_mhz = 400
[sampling]
stroboscopic = true
"""
        times = np.array([r.time_ns for r in run_experiment(load_config(text))])
        period = 1e3 / 120.0  # 50 ns is six periods
        np.testing.assert_allclose(times, period * np.arange(13), atol=1e-9)
        assert times[-1] == 2 * 50.0

    def test_single_run_records(self):
        cfg = load_config(MINIMAL + "\n[observables]\nobservables = populations, pauli\n")
        records = run_experiment(cfg)
        assert len(records) == 21
        rec = records[0]
        assert rec.fidelity is None
        assert rec.populations.shape == (2, 2)
        assert rec.pauli_z.shape == (2,)

    def test_pauli_z_matches_projected_pauli(self):
        text = MINIMAL.replace("levels = 2", "levels = 3") + (
            "\n[profiles]\ntransverse_mhz = 5\n[observables]\nobservables = pauli\n")
        records = run_experiment(load_config(text))
        assert records[-1].populations is None
        from quenchsim import (
            AnharmonicityProfile,
            CouplingProfile,
            TransverseProfile,
            build_hopping,
            build_onsite_anharmonicity,
            build_transverse,
            evolve_static,
            pauli_expectation,
        )

        b = build_basis(2, 3)
        H = (build_hopping(b, CouplingProfile.from_mhz([10.8]))
             + build_onsite_anharmonicity(b, AnharmonicityProfile.from_mhz([212.0, 264.0]))
             + build_transverse(b, TransverseProfile.from_mhz([5.0, 5.0])))
        psi = evolve_static(H, parse_product_state("01", b), 20.0)
        expected = [pauli_expectation(psi, j, "z") for j in range(2)]
        np.testing.assert_allclose(records[-1].pauli_z, expected, atol=1e-10)

    def test_one_direction_compare_matches_manual(self):
        text = """
[lattice]
sites = 3
levels = 3
[state]
initial = 110
[protocol]
mode = one-direction-compare
duration_ns = 40
[sampling]
dt_ns = 20
"""
        records = run_experiment(load_config(text))
        from quenchsim import (
            AnharmonicityProfile,
            CouplingProfile,
            build_hopping,
            build_onsite_anharmonicity,
            embed_state,
            evolve_static,
        )

        b2 = build_basis(3, 2, sector=2)
        bK = build_basis(3, 3, sector=2)
        cp = CouplingProfile.from_mhz([10.8, 10.8])
        up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0])
        psi2 = evolve_static(build_hopping(b2, cp), parse_product_state("110", b2), 40.0)
        psiK = evolve_static(
            build_hopping(bK, cp) + build_onsite_anharmonicity(bK, up),
            parse_product_state("110", bK), 40.0,
        )
        expected = fidelity(embed_state(psi2, bK), psiK)
        assert records[-1].fidelity == pytest.approx(expected, abs=1e-10)

    def test_one_direction_compare_transverse_matches_manual(self):
        text = """
[lattice]
sites = 3
levels = 3
[profiles]
transverse_mhz = 5
[state]
initial = 110
[protocol]
mode = one-direction-compare
duration_ns = 40
[sampling]
dt_ns = 20
"""
        records = run_experiment(load_config(text))
        from quenchsim import (
            AnharmonicityProfile,
            CouplingProfile,
            TransverseProfile,
            build_hopping,
            build_onsite_anharmonicity,
            build_transverse,
            embed_state,
            evolve_static,
        )

        b2 = build_basis(3, 2)
        bK = build_basis(3, 3)
        cp = CouplingProfile.from_mhz([10.8, 10.8])
        up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0])
        tp = TransverseProfile.from_mhz([5.0] * 3)
        H2 = build_hopping(b2, cp) + build_transverse(b2, tp)
        HK = build_hopping(bK, cp) + build_onsite_anharmonicity(bK, up) + build_transverse(bK, tp)
        psi2 = evolve_static(H2, parse_product_state("110", b2), 40.0)
        psiK = evolve_static(HK, parse_product_state("110", bK), 40.0)
        assert [r.time_ns for r in records] == [0.0, 20.0, 40.0]
        assert records[0].fidelity == pytest.approx(1.0, abs=1e-12)
        expected = fidelity(embed_state(psi2, bK), psiK)
        assert records[-1].fidelity == pytest.approx(expected, abs=1e-10)
        assert 0.0 < expected < 0.999  # the field and the third level both act

    def test_sector_auto_and_full_agree(self, monkeypatch):
        base = """
[lattice]
sites = 4
levels = 3
[state]
initial = 0110
[protocol]
mode = single-run
duration_ns = 30
[observables]
observables = populations, anharmonicity
"""
        rec_auto = run_experiment(load_config(base))
        monkeypatch.setattr(experiments, "_pick_sector", lambda config: None)
        rec_full = run_experiment(load_config(base))
        np.testing.assert_allclose(
            rec_auto[-1].populations, rec_full[-1].populations, atol=1e-9
        )

    def test_transverse_forces_full_basis(self):
        text = MINIMAL + "\n[profiles]\ntransverse_mhz = 5\n"
        cfg = load_config(text)
        assert _pick_sector(cfg) is None
        records = run_experiment(cfg)
        assert records


class TestRecords:
    def _records(self):
        cfg = load_config(
            MINIMAL.replace("mode = single-run\nduration_ns = 20",
                            "mode = time-reversal\nforward_ns = 10")
            + "\n[sampling]\ndt_ns = 5\n"
            + "\n[observables]\nobservables = populations, fidelity, entropy, anharmonicity, pauli\n"
        )
        return cfg, run_experiment(cfg)

    def test_csv_schema_and_totals(self, tmp_path):
        basis = build_basis(10, 3)
        from quenchsim.analysis import ObservableRecord
        from quenchsim import site_populations

        psi = parse_product_state("0101010101", basis)
        rec = ObservableRecord(time_ns=0.0, populations=site_populations(psi))
        path = tmp_path / "one.csv"
        write_records([rec], path, "csv", sites=10)
        lines = path.read_text().splitlines()
        cols = lines[0].split(",")
        assert cols == record_columns(10)
        row = dict(zip(cols, lines[1].split(",")))
        assert float(row["P1_total"]) == 5.0
        assert float(row["P2_total"]) == 0.0
        assert row["fidelity"] == ""  # absent observable stays empty
        assert row["entropy"] == ""

    def test_json_round_trip_bit_identical(self, tmp_path):
        cfg, records = self._records()
        p1 = tmp_path / "a.json"
        write_records(records, p1, "json", sites=cfg.sites)
        data = read_records(p1)
        rewritten = tmp_path / "b.json"
        from quenchsim.analysis import ObservableRecord

        def rebuild(d):
            L = cfg.sites
            return ObservableRecord(
                time_ns=d["time_ns"],
                fidelity=d["fidelity"],
                populations=np.column_stack(
                    [[1 - d[f"P1_q{j}"] - d[f"P2_q{j}"] for j in range(1, L + 1)],
                     [d[f"P1_q{j}"] for j in range(1, L + 1)],
                     [d[f"P2_q{j}"] for j in range(1, L + 1)]]
                ),
                pauli_x=np.array([d[f"sx_q{j}"] for j in range(1, L + 1)]),
                pauli_z=np.array([d[f"sz_q{j}"] for j in range(1, L + 1)]),
                entropy=d["entropy"],
                anharmonicity=d["A"],
            )

        write_records([rebuild(d) for d in data], rewritten, "json", sites=cfg.sites)
        a = p1.read_text()
        b = rewritten.read_text()
        # P totals are recomputed from 12-digit values; compare per-field
        for da, db in zip(json.loads(a), json.loads(b)):
            for key in da:
                if key.startswith(("P1_q", "P2_q", "sx", "sz")) or key in (
                    "time_ns", "fidelity", "entropy", "A",
                ):
                    assert da[key] == db[key], key

    def test_csv_json_value_equivalence(self, tmp_path):
        cfg, records = self._records()
        pc = tmp_path / "r.csv"
        pj = tmp_path / "r.json"
        write_records(records, pc, "csv", sites=cfg.sites)
        write_records(records, pj, "json", sites=cfg.sites)
        rows = pc.read_text().splitlines()
        cols = rows[0].split(",")
        data = read_records(pj)
        for row_text, obj in zip(rows[1:], data):
            for col, val in zip(cols, row_text.split(",")):
                if val == "":
                    assert obj[col] is None
                else:
                    assert float(val) == obj[col]

    def test_write_output_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUENCHSIM_OUTDIR", str(tmp_path))
        cfg, records = self._records()
        path = write_output(cfg, records, "env_test.csv")
        assert os.path.dirname(path) == str(tmp_path)
        assert os.path.exists(path)

    def test_spectrum_writer_exact_bytes(self, tmp_path):
        from quenchsim import omega_from_mhz

        report = SpectrumReport(
            eigenvalues=np.array([omega_from_mhz(-12.5), omega_from_mhz(240.125)]),
            anharmonicity=np.array([0.0, -1.5]),
            bands=np.array([0, -1]),
            attainable=np.array([-1.0, 0.0]),
            ambiguous=np.array([True, False]),
        )
        write_spectrum(report, tmp_path / "s.csv", "csv")
        write_spectrum(report, tmp_path / "s.json", "json")
        assert (tmp_path / "s.csv").read_text() == (
            "index,energy_mhz,A,band,ambiguous\n"
            "0,-12.5,0,0,1\n"
            "1,240.125,-1.5,-1,0\n"
        )
        assert (tmp_path / "s.json").read_text() == (
            "[\n"
            '  {"index": 0, "energy_mhz": -12.5, "A": 0, "band": 0, "ambiguous": true},\n'
            '  {"index": 1, "energy_mhz": 240.125, "A": -1.5, "band": -1, "ambiguous": false}\n'
            "]\n"
        )


class TestSweep:
    BASE = """
[lattice]
sites = 3
levels = 3
[state]
initial = 010
[protocol]
mode = single-run
duration_ns = 4
[sampling]
dt_ns = 2
[output]
path = point.csv
"""

    def test_grid_outputs(self, tmp_path):
        cfg = load_config(self.BASE).with_overrides(
            {"axis_coupling_mhz": "4, 16", "path": str(tmp_path / "point.csv")})
        assert cfg.sweep_axes == {"coupling_mhz": ["4", "16"]}
        results = run_sweep(cfg)
        names = [os.path.basename(r.path) for r in results]
        assert names == ["point__coupling_mhz=4.csv", "point__coupling_mhz=16.csv"]
        for r in results:
            assert r.error is None and os.path.exists(r.path)

    def test_empty_axes_single_point_matches_run(self, tmp_path):
        cfg = load_config(self.BASE).with_overrides({"path": str(tmp_path / "point.csv")})
        results = run_sweep(cfg)
        assert len(results) == 1
        direct = tmp_path / "direct.csv"
        write_output(cfg, run_experiment(cfg), direct)
        assert open(results[0].path).read() == direct.read_text()

    def test_failures_reported_not_fatal(self, tmp_path):
        # the second point fails validation: four tokens for three sites
        cfg = load_config(self.BASE).with_overrides(
            {"axis_initial": "010, 0110", "path": str(tmp_path / "point.csv")})
        results = run_sweep(cfg)
        errors = [r for r in results if r.error]
        ok = [r for r in results if not r.error]
        assert len(errors) == 1 and len(ok) == 1

    def test_determinism(self, tmp_path):
        cfg = load_config(self.BASE)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_output(cfg, run_experiment(cfg), a)
        write_output(cfg, run_experiment(cfg), b)
        assert a.read_text() == b.read_text()

    def test_pool_bounded_by_points(self, tmp_path, monkeypatch):
        # the pool forks all its workers at the first submit, so a worker
        # count above the number of points, or of the CPUs this process may
        # use, would only fork processes that wait and hold memory
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for axis, points in (("4, 16", 2), ("4, 8, 16", 3)):
            cfg = load_config(self.BASE).with_overrides(
                {"axis_coupling_mhz": axis, "parallelism": "64",
                 "path": str(tmp_path / "point.csv")})
            results = run_sweep(cfg)
            assert all(r.error is None for r in results) and len(results) == points
        assert sizes == [2, 2]

    def test_parallel_pool(self, tmp_path):
        cfg = load_config(self.BASE).with_overrides(
            {"axis_coupling_mhz": "4, 8, 16", "parallelism": "2",
             "path": str(tmp_path / "point.csv")}
        )
        results = run_sweep(cfg)
        assert all(r.error is None for r in results)
        assert len(results) == 3


class TestProcessModules:
    """What one run loads into a fresh process.

    Importing ``scipy.sparse`` or running ``scipy.linalg`` pulls in scipy's
    array-API layer (``scipy._lib._util``), which imports ``numpy.f2py``:
    about half of a run's start-up and a third of a trajectory run's peak
    memory, for code no run calls.
    """

    SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    SCIPY = {"scipy.sparse", "scipy._lib._util", "scipy.linalg._decomp", "numpy.f2py"}
    FULL = MINIMAL + ("[profiles]\ntransverse_mhz = 5\n[observables]\n"
                      "observables = fidelity, populations, entropy, pauli\n")

    def _run(self, code: str, tmp_path) -> dict:
        """Run code after the package import in a fresh process; its last line is JSON."""
        code = ("import json, sys\n"
                "from quenchsim.quenchlab import load_config, run_experiment, run_sweep, "
                "write_output\n" + code)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=self.SRC))
        return json.loads(out.stdout.splitlines()[-1])

    def _modules_after_run(self, text: str, tmp_path) -> set:
        return set(self._run(
            f"config = load_config({text!r})\n"
            "write_output(config, run_experiment(config), 'out.csv')\n"
            "print(json.dumps(sorted(sys.modules)))\n", tmp_path))

    @pytest.mark.parametrize("text", [REVERSAL, COMPARE, FULL],
                             ids=["reversal", "compare", "full-basis"])
    def test_trajectory_run_loads_no_scipy_package(self, text, tmp_path):
        assert sorted(self._modules_after_run(text, tmp_path) & self.SCIPY) == []

    def test_spectrum_run_loads_flapack_alone(self, tmp_path):
        # the solve calls dsyevd from scipy's _flapack file; scipy.linalg
        # stays registered and unexecuted, so none of its other files load
        modules, linalg_files = self._run(
            f"config = load_config({SPECTRUM!r})\n"
            "write_output(config, run_experiment(config), 'out.csv')\n"
            "import os, scipy\n"
            "linalg = os.path.join(os.path.dirname(scipy.__file__), 'linalg')\n"
            "files = {line.split()[-1] for line in open('/proc/self/maps')}\n"
            "print(json.dumps([sorted(sys.modules), "
            "sorted(os.path.basename(f) for f in files if os.path.dirname(f) == linalg)]))\n",
            tmp_path)
        assert sorted(set(modules) & self.SCIPY) == []
        assert [m for m in modules if m.startswith("scipy.linalg")] == ["scipy.linalg"]
        assert linalg_files == ["_flapack" + sysconfig.get_config_var("EXT_SUFFIX")]

    def test_spectrum_peak_over_the_import_floor(self, tmp_path):
        # The solve holds 3n^2 doubles (the matrix and dsyevd's workspace).
        # Over the 31 MB import floor a spectrum run at n = 1452 grew VmHWM
        # by 3n^2 * 8 B + 9.1 MB (one BLAS thread; 9.7 MB unset), and by
        # + 32 MB when it ran scipy.linalg for the solve.
        text = SPECTRUM.replace("sites = 4", "sites = 10").replace("particles = 2",
                                                                  "particles = 5")
        n, growth = self._run(
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) * 1024 for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "floor = peak()\n"
            f"config = load_config({text!r})\n"
            "report = run_experiment(config)\n"
            "write_output(config, report, 'out.csv')\n"
            "print(json.dumps([report.dim, peak() - floor]))\n", tmp_path)
        assert n == 1452
        assert growth <= 3 * n * n * 8 + 16 * 2**20

    def test_pool_imported_only_by_a_parallel_sweep(self, tmp_path):
        # concurrent.futures.process imports multiprocessing, about 11 ms
        overrides = {"axis_coupling_mhz": "4, 16", "parallelism": "2",
                     "path": str(tmp_path / "point.csv")}
        single, errors, pool = self._run(
            f"config = load_config({TestSweep.BASE!r})\n"
            "write_output(config, run_experiment(config), 'out.csv')\n"
            "single = 'concurrent.futures.process' in sys.modules\n"
            f"errors = [r.error for r in run_sweep(config.with_overrides({overrides!r}))]\n"
            "print(json.dumps([single, errors, 'concurrent.futures.process' in sys.modules]))\n",
            tmp_path)
        assert not single
        assert errors == [None, None]
        assert pool == (len(os.sched_getaffinity(0)) > 1)

class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
        assert out.exists()

    def test_run_into_missing_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "new" / "out.csv"
        assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
        assert out.read_text().startswith("time_ns,fidelity,")

    def test_spectrum_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "s.csv"
        rc = main(["spectrum", "-L", "3", "-N", "1", "-K", "2",
                   "--J", "8", "--U", "240", "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("command", [
        ["run", "--preset", "fig8c"],
        ["spectrum", "-L", "3", "-N", "1", "-K", "2", "--J", "8", "--U", "240"],
    ], ids=["run", "spectrum"])
    def test_directory_output_refused_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                     command):
        def run_experiment(config):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert main(command + ["-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_unwritable_output_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(MINIMAL)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "-c", str(cfg_path), "-o", str(blocker / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
        assert len(err.splitlines()) == 1

    def test_too_many_levels_exit_2(self, tmp_path, capsys):
        text = MINIMAL.replace("levels = 2", "levels = 200")
        with pytest.raises(ConfigError, match="levels"):
            load_config(text)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 2
        assert "levels" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text,key", [
        (SPECTRUM + "[profiles]\ntransverse_mhz = 50\n[protocol]\ndrive_frequency_mhz = 120\n"
         "drive_forward_mhz = 300\n", "transverse_mhz"),
        (MINIMAL + "[protocol]\nforward_ns = 99\n[spectrum]\nparticles = 2\n", "forward_ns"),
    ], ids=["spectrum", "single-run"])
    def test_unread_key_exit_2(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[lattice]\nsites = 0\n")
        assert main(["run", "-c", str(bad)]) == 2

    def test_preset_print(self, capsys):
        assert main(["preset", "fig8c"]) == 0
        text = capsys.readouterr().out
        assert "mode = single-run" in text
        assert load_config(text).coupling_mhz == (8.0,) * 9
        assert load_config(text) == preset("fig8c")

    def test_preset_default_is_print(self, tmp_path, monkeypatch, capsys):
        # preset NAME only prints the preset: no output is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        assert main(["preset", "fig8c"]) == 0
        assert "single-run" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_preset_exit_2(self, capsys):
        assert main(["preset", "nope"]) == 2
        assert "choices" in capsys.readouterr().err

    def test_sweep_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE)
        rc = main(["run", "-c", str(cfg_path), "--axis", "coupling_mhz=4,16",
                   "-o", str(tmp_path / "point.csv")])
        assert rc == 0
        assert (tmp_path / "point__coupling_mhz=4.csv").exists()

    # run -c used to run only the base point of a config with axes
    def test_run_config_with_axes_runs_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE + "[sweep]\naxis_coupling_mhz = 4, 16\n")
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "out.csv")]) == 0
        assert sorted(p.name for p in tmp_path.glob("out*")) == [
            "out__coupling_mhz=16.csv", "out__coupling_mhz=4.csv"]

    @pytest.mark.parametrize("extra", [
        "[protocol]\ndrive_frequency_mhz = 120",
        "[profiles]\ncoupling_and_field_mhz = 7\ncoupling_mhz = 3",
    ], ids=["drive_without_forward", "coupling_and_field_conflict"])
    def test_input_conflicts_exit_2(self, tmp_path, capsys, extra):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE + extra + "\n")
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "out.csv")]) == 2
        assert "line" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_bad_axis_flag_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE)
        rc = main(["run", "-c", str(cfg_path), "--axis", "dt_ns=abc,-1",
                   "-o", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "axis_dt_ns" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_preset_sweep_honours_output(self, tmp_path, monkeypatch, capsys):
        # -o used to be ignored for a preset with sweep axes: the points
        # landed in the working directory, named after the preset's path
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        monkeypatch.setattr("quenchsim.quenchlab.cli.preset", lambda name: load_config(
            TestSweep.BASE + "[sweep]\naxis_coupling_mhz = 4, 16\n"))
        out = tmp_path / "dir" / "out.csv"
        assert main(["run", "--preset", "small", "-o", str(out)]) == 0
        assert sorted(os.listdir(tmp_path / "dir")) == [
            "out__coupling_mhz=16.csv", "out__coupling_mhz=4.csv"]
        assert sorted(os.listdir(tmp_path)) == ["dir"]

    @staticmethod
    def _small_preset(monkeypatch, text):
        monkeypatch.setattr("quenchsim.quenchlab.cli.preset", lambda name: load_config(text))

    def test_run_preset_writes_its_path(self, tmp_path, monkeypatch, capsys):
        # the file preset NAME --run used to write: the preset's path, as given
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        self._small_preset(monkeypatch, TestSweep.BASE)
        assert main(["run", "--preset", "small"]) == 0
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "ref.csv")]) == 0
        assert (tmp_path / "point.csv").read_text() == (tmp_path / "ref.csv").read_text()

    def test_run_preset_without_path_is_named_after_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        self._small_preset(monkeypatch, TestSweep.BASE.replace("path = point.csv", ""))
        assert main(["run", "--preset", "small"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["small.csv"]

    def test_format_flag_sets_the_extension(self, tmp_path, monkeypatch, capsys):
        # --format json used to write JSON into the preset's point.csv
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        self._small_preset(monkeypatch, TestSweep.BASE)
        assert main(["run", "--preset", "small", "--format", "json"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["point.json"]
        assert json.loads((tmp_path / "point.json").read_text())[0]["time_ns"] == 0
        # an explicit -o is written as given
        assert main(["run", "--preset", "small", "--format", "json", "-o", "o.csv"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["o.csv", "point.json"]

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "-c", "c.cfg", "--preset", "fig8c"],
        ["preset", "fig8c", "--run"],
        ["preset", "fig8c", "-o", "out.csv"],
    ], ids=["neither", "both", "preset_run", "preset_output"])
    def test_run_source_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_run_unknown_preset_exit_2(self, capsys):
        assert main(["run", "--preset", "nope"]) == 2
        assert "choices" in capsys.readouterr().err

    def test_run_preset_takes_axis_and_jobs(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr("quenchsim.quenchlab.cli.run_sweep",
                            lambda config: seen.append(config) or [])
        self._small_preset(monkeypatch, TestSweep.BASE)
        assert main(["run", "--preset", "small", "--axis", "coupling_mhz=4,16", "-j", "2"]) == 0
        assert seen[0].parallelism == 2
        assert seen[0].sweep_axes == {"coupling_mhz": ["4", "16"]}

    def test_spectrum_cli(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "-L", "4", "-N", "2", "-K", "3",
                   "--J", "8", "--U", "240", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,energy_mhz,A,band,ambiguous"
        assert len(lines) == 1 + 10  # C(5,2) = 10 states

    def test_spectrum_cli_single_site(self, capsys):
        rc = main(["spectrum", "-L", "1", "-N", "1", "-K", "3", "--J", "8", "--U", "240"])
        assert rc == 0
        assert "dimension 1" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_sweep_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        with pytest.raises(ConfigError, match="parallelism"):
            load_config(TestSweep.BASE).with_overrides({"parallelism": jobs})
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE)
        rc = main(["run", "-c", str(cfg_path), "-j", str(jobs), "-o", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "parallelism" in capsys.readouterr().err
        assert not list(tmp_path.glob("p*.csv"))

    def test_preset_help_names_presets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "--help"])
        assert exc.value.code == 0
        assert "fig4" in capsys.readouterr().out

    # every point's file is named from the base config's path and format,
    # so axes over [output] keys are refused like axes over [sweep] keys
    @pytest.mark.parametrize("axis", ["bogus=1,2", "parallelism=1,2",
                                      "format=csv,json", "path=a.csv,b.csv"])
    def test_sweep_axis_flag_validated_as_config_key(self, tmp_path, capsys, axis):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TestSweep.BASE)
        rc = main(["run", "-c", str(cfg_path), "--axis", axis, "-o", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "axis" in capsys.readouterr().err
        assert not list(tmp_path.glob("p*.csv"))

    def test_drive_substep_key_exit_2(self, tmp_path, capsys):
        text = MINIMAL.replace("duration_ns = 20", "duration_ns = 20\ndrive_substep_ns = 1e-9")
        with pytest.raises(ConfigError, match="drive_substep_ns"):
            load_config(text)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 2
        assert "drive_substep_ns" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestRangeSector:
    REVERSAL = """
[lattice]
sites = 4
levels = 3
[state]
initial = ++++
[protocol]
mode = time-reversal
forward_ns = 20
[sampling]
dt_ns = 2.5
"""

    def test_pick_sector_range_for_superpositions(self):
        assert _pick_sector(load_config(self.REVERSAL)) == range(0, 5)
        cfg = load_config(self.REVERSAL.replace("++++", "1+0+"))
        assert _pick_sector(cfg) == range(1, 4)
        pairs = "\n".join(f"amplitudes_q{j} = {a}" for j, a in
                          enumerate(["1, 0", "0, 1", "0.6, 0.8", "1, 0"], start=1))
        cfg = load_config(self.REVERSAL.replace("initial = ++++", pairs))
        assert _pick_sector(cfg) == range(1, 3)

    def test_pick_sector_int_for_digits(self):
        sector = _pick_sector(load_config(self.REVERSAL.replace("++++", "0120")))
        assert sector == 3 and isinstance(sector, int)
        cfg = load_config(self.REVERSAL).with_overrides({"transverse_mhz": "5"})
        assert _pick_sector(cfg) is None

    def test_auto_range_run_matches_full_basis(self, monkeypatch):
        cfg = load_config(self.REVERSAL)
        rec_auto = run_experiment(cfg)
        monkeypatch.setattr(experiments, "_pick_sector", lambda config: None)
        rec_full = run_experiment(cfg)
        assert len(rec_auto) == len(rec_full)
        for a, b in zip(rec_auto, rec_full):
            assert a.time_ns == b.time_ns
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-10)
            np.testing.assert_allclose(a.populations, b.populations, atol=1e-10)


class TestInputGuards:
    HUGE = """
[lattice]
sites = 40
levels = 3
[state]
initial = 0101010101010101010101010101010101010101
[protocol]
mode = single-run
duration_ns = 10
"""

    LONG = """
[lattice]
sites = 4
levels = 3
[state]
initial = 0101
[protocol]
mode = single-run
duration_ns = 1e12
[sampling]
dt_ns = 1e12
"""

    def test_long_evolution_cli_exit_3(self, tmp_path, capsys):
        # two samples pass every schedule cap, but 1e12 ns of propagation would not finish
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(self.LONG)
        out = tmp_path / "o.csv"
        started = time.perf_counter()
        assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 3
        assert time.perf_counter() - started < 1.0
        assert "rad" in capsys.readouterr().err
        assert not out.exists()

    def test_every_preset_point_passes_the_run_caps(self, monkeypatch):
        # the caps of run_protocol, met at its first pair, admit every figure
        class FirstPairTaken(Exception):
            pass

        def first_pair(protocol, psi0):
            yield next(propagator.run_protocol(protocol, psi0))
            raise FirstPairTaken

        monkeypatch.setattr(experiments, "run_protocol", first_pair)
        points = 0
        for name in preset_names():
            base = preset(name)
            for combo in itertools.product(*base.sweep_axes.values()):
                config = base.with_overrides(dict(zip(base.sweep_axes, combo)))
                if config.mode == "spectrum":
                    continue
                with pytest.raises(FirstPairTaken):
                    run_experiment(config)
                points += 1
        assert points > 30

    def test_huge_basis_fails_fast(self):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            run_experiment(load_config(self.HUGE))
        assert time.perf_counter() - started < 1.0

    def test_huge_basis_cli_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(self.HUGE)
        started = time.perf_counter()
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 3
        assert time.perf_counter() - started < 1.0
        assert "overflow" in capsys.readouterr().err

    # a basis above MAX_BASIS_DIM whose codes fit int64 used to load and
    # fail only when the run built it
    LARGE = MINIMAL.replace("sites = 2\nlevels = 2", "sites = 20\nlevels = 3").replace(
        "initial = 01", "initial = " + "01" * 10) + "\n[profiles]\ntransverse_mhz = 5\n"

    def test_large_basis_fails_in_load_config(self):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="3486784401 states"):
            load_config(self.LARGE)
        assert time.perf_counter() - started < 1.0
        # without the field the run stays on N = 10, 8533660 states
        assert load_config(self.LARGE.replace("transverse_mhz = 5", "transverse_mhz = 0"))

    def test_large_basis_cli_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "large.cfg"
        cfg_path.write_text(self.LARGE)
        started = time.perf_counter()
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 3
        assert time.perf_counter() - started < 1.0
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_huge_site_count_fails_in_load_config(self):
        text = MINIMAL.replace("sites = 2", "sites = 1000000000")
        started = time.perf_counter()
        with address_space_headroom(1 << 29), pytest.raises(ResourceLimitError, match="overflow"):
            load_config(text)
        assert time.perf_counter() - started < 1.0

    def test_spectrum_cli_rejects_nan(self, capsys):
        started = time.perf_counter()
        rc = main(["spectrum", "-L", "10", "-N", "5", "-K", "6", "--J", "nan", "--U", "240"])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_spectrum_cli_huge_site_count_exit_3(self, capsys):
        started = time.perf_counter()
        with address_space_headroom(1 << 29):
            rc = main(["spectrum", "-L", "1000000000", "-N", "5", "-K", "2",
                       "--J", "8", "--U", "240"])
        assert time.perf_counter() - started < 1.0
        assert rc == 3
        assert "overflow" in capsys.readouterr().err

    def test_refused_spectrum_builds_no_basis(self, monkeypatch, capsys):
        def build_basis(*args, **kwargs):
            raise AssertionError("a refused spectrum enumerated its basis")

        monkeypatch.setattr(analysis, "build_basis", build_basis)
        rc = main(["spectrum", "-L", "18", "-N", "9", "-K", "3", "--J", "8", "--U", "240"])
        assert rc == 3
        assert "dense cap" in capsys.readouterr().err

    def test_unbounded_drive_substeps_cli_exit_3(self, tmp_path, capsys):
        text = MINIMAL.replace("duration_ns = 20", "duration_ns = 100\n"
                               "drive_frequency_mhz = 1e9\ndrive_forward_mhz = 200")
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(text)
        started = time.perf_counter()
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 3
        assert time.perf_counter() - started < 1.0
        assert "substeps" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_non_finite_amplitude_cli_exit_2(self, tmp_path, capsys):
        text = MINIMAL.replace("initial = 01", "amplitudes_q1 = nan, 1\namplitudes_q2 = 1, 0")
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(text)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "amplitudes_q1" in err
        assert not (tmp_path / "o.csv").exists()

    def test_linalg_error_cli_exit_3(self, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, so a failed solve exited 2
        def failed_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("the eigensolver did not converge")

        monkeypatch.setattr(experiments, "sector_spectrum", failed_solve)
        rc = main(["spectrum", "-L", "4", "-N", "2", "-K", "3", "--J", "8", "--U", "240"])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err

    # an all-zero pair loaded and failed only in run_experiment, with a
    # 0-based site index and no key or line
    @pytest.mark.parametrize("pair", ["0, 0", "0j, -0.0"])
    def test_all_zero_amplitude_pair_fails_in_load_config(self, no_basis, tmp_path, capsys,
                                                         pair):
        text = MINIMAL.replace("initial = 01", f"amplitudes_q1 = 1, 0\namplitudes_q2 = {pair}")
        with pytest.raises(ConfigError, match="nonzero amplitude") as err:
            load_config(text)
        assert err.value.key == "amplitudes_q2"
        assert err.value.line == text.splitlines().index(f"amplitudes_q2 = {pair}") + 1
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(text)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 2
        assert "'amplitudes_q2'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("mode,key", [("time-reversal", "forward_ns"),
                                          ("one-direction-compare", "duration_ns")])
    def test_unbounded_schedule_fails_fast(self, mode, key):
        text = MINIMAL.replace("mode = single-run", f"mode = {mode}").replace(
            "duration_ns = 20", f"{key} = 25"
        ) + "\n[sampling]\ndt_ns = 1e-9\n"
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            run_experiment(load_config(text))
        assert time.perf_counter() - started < 1.0

    @pytest.fixture
    def no_basis(self, monkeypatch):
        """Any basis enumeration fails, so a test sees what loading alone does."""
        def states(*args):
            raise AssertionError("a basis was enumerated")

        monkeypatch.setattr(fockspace, "_states", states)

    # each used to load and meet its cap only in run_experiment, after the
    # basis and the initial state were built (a spectrum's, inside it)
    WIDE = MINIMAL.replace("sites = 2\nlevels = 2", "sites = 14\nlevels = 3").replace(
        "initial = 01", "initial = " + "0" * 14) + "\n[profiles]\ntransverse_mhz = 5\n"

    @pytest.mark.parametrize("text,match", [
        (LONG, "rad"),
        (WIDE.replace("duration_ns = 20", "duration_ns = 1e12"), "samples"),
        (WIDE + "[observables]\nobservables = entropy\n", "2187x2187 dense elements"),
        (SPECTRUM.replace("sites = 4", "sites = 18").replace("particles = 2", "particles = 9"),
         "dense cap"),
        (MINIMAL.replace("duration_ns = 20", "duration_ns = 100\ndrive_frequency_mhz = 1e9\n"
                         "drive_forward_mhz = 200"), "substeps"),
        (REVERSAL.replace("forward_ns = 20", "forward_ns = 25") + "\n[sampling]\ndt_ns = 1e-9\n",
         "samples"),
        (COMPARE.replace("duration_ns = 20", "duration_ns = 25") + "\n[sampling]\ndt_ns = 1e-9\n",
         "samples"),
    ], ids=["long-evolution", "wide-long-evolution", "wide-entropy", "dense-spectrum",
            "drive-substeps", "reversal-schedule", "compare-schedule"])
    def test_run_caps_fail_in_load_config(self, no_basis, text, match):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=match):
            load_config(text)
        assert time.perf_counter() - started < 1.0

    def test_sweep_grid_cap(self, tmp_path, capsys):
        axes = [f"axis_{key} = {', '.join(str(v) for v in range(1, 11))}\n" for key in
                ("coupling_mhz", "anharmonicity_mhz", "transverse_mhz", "duration_ns", "dt_ns")]
        text = MINIMAL + "[sweep]\n" + "".join(axes)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(text)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="100000 points"):
            load_config(text)
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o.csv")]) == 3
        assert time.perf_counter() - started < 1.0
        assert "sweep" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]
        # 10^4 points are at the cap
        assert len(load_config(MINIMAL + "[sweep]\n" + "".join(axes[:4])).sweep_axes) == 4

    def test_loading_plans_every_preset_point_without_a_basis(self, no_basis, monkeypatch):
        planned = []
        plan = config_module._plan

        def counted(protocol, K):
            planned.append(K)
            return plan(protocol, K)

        monkeypatch.setattr(config_module, "_plan", counted)
        loads = 0
        for name in preset_names():
            base = preset(name)
            loads += base.mode != "spectrum"
            for combo in itertools.product(*base.sweep_axes.values()):
                config = base.with_overrides(dict(zip(base.sweep_axes, combo)))
                loads += config.mode != "spectrum"
        assert len(planned) == loads > 30
