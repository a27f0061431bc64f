"""Diagnostics on evolved states: overlaps, populations, Pauli expectations,
anharmonicity weight, bipartite entanglement entropy, number-sector spectra,
and the dominant oscillation frequency of a sampled signal.

All functions are pure with respect to their inputs and safe to call
concurrently on shared immutable states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fockspace import (
    FockBasis,
    ResourceLimitError,
    StateVector,
    basis_dim,
    build_basis,
    check_codes_fit,
    embed_state,
)
from .operators import (
    AnharmonicityProfile,
    CouplingProfile,
    build_hopping,
    build_onsite_anharmonicity,
)

__all__ = [
    "ResourceLimitError",
    "ObservableRecord",
    "SpectrumReport",
    "DominantFrequency",
    "fidelity",
    "level_population",
    "site_populations",
    "pauli_expectation",
    "anharmonicity_expectation",
    "half_chain_entropy",
    "sector_spectrum",
    "dominant_frequency",
]

MAX_DENSE_DIM = 10_000
MAX_ENTROPY_ELEMENTS = 1 << 22


@dataclass
class ObservableRecord:
    """Per-sample observable bundle.

    ``populations`` is an (L, K) array of per-site level probabilities;
    ``pauli_x`` and ``pauli_z`` are per-site expectations of the projected
    two-level operators. Fields left at None were not requested.
    """

    time_ns: float
    fidelity: float | None = None
    populations: np.ndarray | None = None
    pauli_x: np.ndarray | None = None
    pauli_z: np.ndarray | None = None
    entropy: float | None = None
    anharmonicity: float | None = None

    def level_total(self, level: int) -> float | None:
        """Total population of one level summed over sites, if available."""
        if self.populations is None:
            return None
        if level >= self.populations.shape[1]:
            return 0.0
        return float(self.populations[:, level].sum())


def _embed_to_common(a: StateVector, b: StateVector):
    if a.basis == b.basis:
        return a, b
    if a.basis.L != b.basis.L:
        raise ValueError("states have different site counts")

    def rank(basis):
        return (basis.K, basis.sector is None)

    if rank(a.basis) <= rank(b.basis):
        return embed_state(a, b.basis), b
    return a, embed_state(b, a.basis)


def fidelity(psi_a: StateVector, psi_b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 in [0, 1].

    States over different bases are embedded automatically when one basis
    extends the other (more levels per site, or full space versus sector).
    """
    a, b = _embed_to_common(psi_a, psi_b)
    val = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return float(min(1.0, val))


def site_populations(psi: StateVector) -> np.ndarray:
    """(L, K) array of per-site level probabilities."""
    basis = psi.basis
    weights = np.abs(psi.amplitudes) ** 2
    out = np.empty((basis.L, basis.K))
    for j in range(basis.L):
        out[j] = np.bincount(basis.states[:, j], weights=weights, minlength=basis.K)
    return out


def level_population(psi: StateVector, site: int, level: int) -> float:
    """Probability of finding the given site in the given level."""
    basis = psi.basis
    if not 0 <= site < basis.L:
        raise ValueError(f"site {site} outside [0, {basis.L})")
    if not 0 <= level < basis.K:
        raise ValueError(f"level {level} outside [0, {basis.K})")
    mask = basis.states[:, site] == level
    return float(np.sum(np.abs(psi.amplitudes[mask]) ** 2))


@lru_cache(maxsize=256)
def _pauli_pairs(basis: FockBasis, site: int):
    """Indices (i0, i1) of basis-state pairs differing only by n_site 0 -> 1."""
    src = np.nonzero(basis.states[:, site] == 0)[0]
    partner_codes = basis.codes[src] + int(basis.site_radix[site])
    partner = basis.find_codes(partner_codes)
    keep = partner >= 0
    return src[keep], partner[keep]


def pauli_expectation(psi: StateVector, site: int, axis: str) -> float:
    """Expectation of the projected two-level Pauli operator on one site.

    The operator acts as the usual 2x2 Pauli matrix on levels {0, 1} and as
    zero on leakage levels (projected, not renormalized), so a site fully in
    level 2 reports zero along every axis. The z convention is P0 - P1.
    """
    basis = psi.basis
    if not 0 <= site < basis.L:
        raise ValueError(f"site {site} outside [0, {basis.L})")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    if axis == "z":
        return level_population(psi, site, 0) - level_population(psi, site, 1)
    i0, i1 = _pauli_pairs(basis, site)
    cross = np.sum(np.conj(psi.amplitudes[i1]) * psi.amplitudes[i0])
    if axis == "x":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)


def anharmonicity_expectation(psi: StateVector) -> float:
    """Expectation of ``sum_j n_j (n_j - 1)``, the doubly-occupied weight."""
    n = psi.basis.states.astype(np.float64)
    w = (n * (n - 1.0)).sum(axis=1)
    return float(np.sum(w * np.abs(psi.amplitudes) ** 2))


def half_chain_entropy(psi: StateVector, cut: int) -> float:
    """Von Neumann entropy (nats) of the first ``cut`` sites.

    The amplitudes are scattered into a (K^cut) x (K^(L-cut)) matrix whose
    singular values give the Schmidt spectrum. Raises ResourceLimitError
    when the rectangle would exceed the dense-size cap.
    """
    basis = psi.basis
    if not 1 <= cut < basis.L:
        raise ValueError(f"cut must lie strictly inside the chain, got {cut}")
    rows = basis.K**cut
    cols = basis.K ** (basis.L - cut)
    if rows * cols > MAX_ENTROPY_ELEMENTS:
        raise ResourceLimitError(
            f"bipartition needs {rows}x{cols} dense elements, above the cap"
        )
    # Radix codes put site 0 first, so code = row * cols + col on every basis.
    m = np.zeros(rows * cols, dtype=np.complex128)
    m[basis.codes] = psi.amplitudes
    s = np.linalg.svd(m.reshape(rows, cols), compute_uv=False)
    lam = s**2
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


@dataclass
class SpectrumReport:
    """Eigenvalues of a number-sector Hamiltonian with band labels.

    Eigenvalues are angular frequencies (rad/ns), ascending. ``bands`` holds
    the attainable anharmonicity value nearest to each eigenstate's
    expectation; ``ambiguous`` flags states whose expectation sits close to
    the midpoint between two attainable values.
    """

    eigenvalues: np.ndarray
    anharmonicity: np.ndarray
    bands: np.ndarray
    attainable: np.ndarray
    ambiguous: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def band_centers(self) -> dict:
        """Mean eigenvalue per band label."""
        return {
            int(b): float(self.eigenvalues[self.bands == b].mean())
            for b in np.unique(self.bands)
        }


def sector_spectrum(
    L: int,
    N: int,
    K: int,
    coupling: CouplingProfile,
    anharmonicity: AnharmonicityProfile,
) -> SpectrumReport:
    """Full spectrum of hopping plus anharmonicity in one number sector.

    Diagonalizes densely, so the sector dimension must stay at desk scale:
    above ``MAX_DENSE_DIM`` (10^4) a ResourceLimitError is raised.
    """
    check_codes_fit(L, K)
    dim = basis_dim(L, K, N, N)  # counted before anything is enumerated
    if dim > MAX_DENSE_DIM:
        raise ResourceLimitError(f"sector dimension {dim} exceeds dense cap {MAX_DENSE_DIM}")
    basis = build_basis(L, K, sector=N)
    H = build_hopping(basis, coupling) + build_onsite_anharmonicity(basis, anharmonicity)
    dense = H.dense()
    if dense.imag.any():
        raise ValueError("sector Hamiltonian has complex entries")
    # real symmetric eigh: several times faster than the complex one, and the
    # complex matrix is released before it runs
    dense = dense.real.copy()
    evals, evecs = np.linalg.eigh(dense)
    n = basis.states.astype(np.float64)
    w = (n * (n - 1.0)).sum(axis=1)
    a_vals = w @ (np.abs(evecs) ** 2)
    attainable = np.unique(w)
    nearest = np.argmin(np.abs(a_vals[:, None] - attainable[None, :]), axis=1)
    bands = attainable[nearest].astype(np.int64)
    # Residual larger than half the minimum attainable spacing means the
    # label is not trustworthy; with well separated bands it never fires.
    spacing = np.min(np.diff(attainable)) if attainable.size > 1 else np.inf
    residual = np.abs(a_vals - bands)
    ambiguous = residual > 0.45 * spacing
    return SpectrumReport(
        eigenvalues=evals,
        anharmonicity=a_vals,
        bands=bands,
        attainable=attainable,
        ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class DominantFrequency:
    """Location of the largest nonzero-frequency Fourier peak, in MHz."""

    frequency_mhz: float
    resolution_mhz: float


def dominant_frequency(
    series: Sequence[float], dt_ns: float, segment_ns: float | None = None
) -> DominantFrequency | None:
    """Dominant oscillation frequency of a uniformly sampled real signal.

    The series is first-differenced, which leaves pure tones in place while
    suppressing the slow aperiodic drift that would otherwise own the lowest
    bins. The largest nonzero-frequency magnitude of the rFFT is then
    refined with a quadratic fit through its neighbours. Returns None for a
    flat signal. The reported resolution is one FFT bin.

    With ``segment_ns`` the magnitude spectra of half-overlapping segments
    of that length are averaged (Welch style) before the peak search. This
    trades resolution for robustness and is the right tool when the
    oscillation carries sidebands narrower than the full-length bin width;
    the coarser segment bin width is then the honest resolution.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or y.size < 16:
        raise ValueError("need at least 16 uniformly spaced samples")
    if not dt_ns > 0:
        raise ValueError("sample spacing must be positive")
    d = np.diff(y)
    scale = np.max(np.abs(d))
    if scale < 1e-14 * max(1.0, np.max(np.abs(y))):
        return None
    if segment_ns is None:
        seg = d.size
    else:
        seg = int(round(segment_ns / dt_ns))
        if not 8 <= seg <= d.size:
            raise ValueError("segment length must cover 8 samples and fit the series")
    hop = max(1, seg // 2)
    spectra = [
        np.abs(np.fft.rfft(d[s : s + seg])) for s in range(0, d.size - seg + 1, hop)
    ]
    spec = np.mean(spectra, axis=0)
    df_mhz = 1e3 / (seg * dt_ns)
    k = int(np.argmax(spec[1:])) + 1
    if 1 <= k < spec.size - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2 * b + c
        delta = 0.0 if denom == 0 else 0.5 * (a - c) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return DominantFrequency(frequency_mhz=(k + delta) * df_mhz, resolution_mhz=df_mhz)
