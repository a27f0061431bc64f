"""Named experiment presets for the reference figures.

Each preset is a complete config document. Values that had to be read off a
figure axis rather than quoted in text use the ``assumed_*`` keys and are
called out in comments; override them with the explicit key to probe other
readings. Multi-curve figures carry their curve families as sweep axes.
"""

from __future__ import annotations

from .config import ExperimentConfig, load_config

__all__ = ["preset", "preset_names", "preset_text"]

_PRESETS: dict[str, str] = {}


def _define(name: str, text: str) -> None:
    _PRESETS[name] = text.strip() + "\n"


_define("fig2", """
# Floquet-driven time reversal of the ten-site chain, five initial states.
# Forward drive amplitude 213.6 MHz and backward 400 MHz at 120 MHz give
# period-averaged couplings of +-3.8 MHz on top of the bare 10.8 MHz.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 10.8            # uniform average of the device bonds
anharmonicity_mhz = table-s1

[state]
initial = 0001001000           # psi1; sweep axis covers psi1..psi5

[protocol]
mode = time-reversal
assumed_forward_ns = 400       # axis read: 48 drive periods forward
drive_frequency_mhz = 120
drive_forward_mhz = 213.6
drive_backward_mhz = 400

[sampling]
stroboscopic = true            # samples every 2pi/nu ~ 8.33 ns

[observables]
observables = fidelity, populations

[sweep]
axis_initial = 0001001000, 0000110000, 0001111000, ++++++++++, 0101010101

[output]
path = fig2.csv
""")

_define("fig3-main", """
# Undriven sign-flip time reversal at coupling 16 MHz, states psi1..psi4.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 16
anharmonicity_mhz = table-s1

[state]
initial = 0001001000

[protocol]
mode = time-reversal
assumed_forward_ns = 250       # axis read; the quoted returns are stable around it

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_initial = 0001001000, 0000110000, 0001111000, ++++++++++

[output]
path = fig3-main.csv
""")

_define("fig3-inset", """
# Undriven reversal at the reduced coupling 4 MHz, states psi1..psi3.
# The forward duration is an axis read; 250 ns reproduces the quoted
# end-of-protocol first-excited-state returns of about 0.994/0.992/0.974.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 4
anharmonicity_mhz = table-s1

[state]
initial = 0001001000

[protocol]
mode = time-reversal
assumed_forward_ns = 250

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_initial = 0001001000, 0000110000, 0001111000

[output]
path = fig3-inset.csv
""")

_define("fig4", """
# Coupling-strength dependence of the reversal decay for the all-plus state.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 4
anharmonicity_mhz = table-s1

[state]
initial = ++++++++++

[protocol]
mode = time-reversal
assumed_forward_ns = 250

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_coupling_mhz = 4, 6, 8, 16

[output]
path = fig4.csv
""")

_define("fig5", """
# Reversal with a transverse field (signs of both coupling and field flip).
# Strength pairs J = Omega of 4 and 16 MHz, states psi4 and psi5.
[lattice]
sites = 10
levels = 3

[profiles]
anharmonicity_mhz = table-s1
coupling_and_field_mhz = 4

[state]
initial = ++++++++++

[protocol]
mode = time-reversal
assumed_forward_ns = 250

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations, entropy, pauli

[sweep]
axis_coupling_and_field_mhz = 4, 16
axis_initial = ++++++++++, 0101010101

[output]
path = fig5.csv
""")

_define("fig6a", """
# One-direction comparison (two-level hopping vs K-level with interaction)
# at coupling 4 MHz, states psi1..psi5.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 4
anharmonicity_mhz = table-s1

[state]
initial = 0001001000

[protocol]
mode = one-direction-compare
assumed_duration_ns = 500      # about twice the reversal forward time

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_initial = 0001001000, 0000110000, 0001111000, ++++++++++, 0101010101

[output]
path = fig6a.csv
""")

_define("fig6b", """
# One-direction comparison at coupling 16 MHz, states psi1..psi5.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 16
anharmonicity_mhz = table-s1

[state]
initial = 0001001000

[protocol]
mode = one-direction-compare
assumed_duration_ns = 500

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_initial = 0001001000, 0000110000, 0001111000, ++++++++++, 0101010101

[output]
path = fig6b.csv
""")

_define("fig7", """
# One-direction comparison with a transverse field, J = Omega pairs.
[lattice]
sites = 10
levels = 3

[profiles]
anharmonicity_mhz = table-s1
coupling_and_field_mhz = 4

[state]
initial = ++++++++++

[protocol]
mode = one-direction-compare
assumed_duration_ns = 500

[sampling]
dt_ns = 1

[observables]
observables = fidelity, populations

[sweep]
axis_coupling_and_field_mhz = 4, 16
axis_initial = ++++++++++, 0101010101

[output]
path = fig7.csv
""")

_define("fig8a", """
# Band structure of the five-particle sector with six levels per site,
# interaction-to-coupling ratio 30.
[lattice]
sites = 10
levels = 6

[profiles]
coupling_mhz = 8
anharmonicity_mhz = 240

[protocol]
mode = spectrum

[spectrum]
particles = 5

[output]
path = fig8a.csv
""")

_define("fig8c", """
# Transitional-stage second-excited-state population of the alternating
# state: oscillates at the anharmonicity frequency (240 MHz here) and its
# post-transient mean drops fourfold when the anharmonicity doubles.
[lattice]
sites = 10
levels = 3

[profiles]
coupling_mhz = 8
anharmonicity_mhz = 240

[state]
initial = 0101010101

[protocol]
mode = single-run
assumed_duration_ns = 100      # axis read: the transitional window

[sampling]
dt_ns = 0.5

[observables]
observables = populations

[output]
path = fig8c.csv
""")


def preset_names() -> list:
    return sorted(_PRESETS)


def preset_text(name: str) -> str:
    """The raw config document of a preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choices: {', '.join(preset_names())}"
        ) from None


def preset(name: str) -> ExperimentConfig:
    """Load a named figure preset as a validated config."""
    return load_config(preset_text(name))
