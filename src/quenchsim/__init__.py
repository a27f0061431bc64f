"""quenchsim: exact dynamics of driven chains of K-level bosonic sites.

The package is organized bottom-up: ``fockspace`` enumerates truncated
occupation bases and builds states, ``operators`` assembles the sparse
Hamiltonian terms, ``propagator`` evolves states through quench protocols
(including sign-flip and drive-swap time reversal), ``analysis`` computes
the diagnostics, and ``quenchlab`` wraps everything behind configs, figure
presets, sweeps and a CLI.
"""

from .fockspace import (
    FockBasis,
    ResourceLimitError,
    StateVector,
    basis_dim,
    build_basis,
    build_product_state,
    embed_state,
    parse_product_state,
)
from .operators import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    SparseOperator,
    TransverseProfile,
    bessel_j0,
    build_hopping,
    build_number_weighted,
    build_onsite_anharmonicity,
    build_transverse,
    effective_coupling,
    mhz_from_omega,
    omega_from_mhz,
    total_number,
)
from .propagator import (
    NumericsError,
    Protocol,
    Segment,
    default_substep_ns,
    evolve_driven,
    evolve_static,
    reverse_of,
    run_protocol,
)
from .analysis import (
    DominantFrequency,
    ObservableRecord,
    SpectrumReport,
    anharmonicity_expectation,
    dominant_frequency,
    fidelity,
    half_chain_entropy,
    level_population,
    pauli_expectation,
    sector_spectrum,
    site_populations,
)

__version__ = "0.1.0"
