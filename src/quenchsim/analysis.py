"""Diagnostics on evolved states: overlaps, populations, Pauli expectations,
anharmonicity weight, bipartite entanglement entropy, number-sector spectra,
and the dominant oscillation frequency of a sampled signal.

On a full basis a state's index is its radix code, site 0 most
significant, so populations, Pauli expectations and the half-chain entropy
read the amplitudes as a ``(K,)*L`` tensor (``FockBasis._tensor``, a
reshape) and build no table. Sector and range bases skip codes; there they
go through cached per-site index tables, and the entropy scatters the
amplitudes into a zero-filled matrix.

All functions are pure with respect to their inputs and safe to call
concurrently on shared immutable states.

``sector_spectrum`` calls LAPACK's ``dsyevd`` from scipy's ``_flapack``
extension file, loaded alone at the first solve
(``operators._lone_extension``): running ``scipy.linalg`` would import
scipy's array-API layer, ``numpy.f2py`` and ``numpy.testing``, about
0.13 s and 26 MB per process. ``scipy.linalg`` is still registered in
``sys.modules`` as a lazily loaded module, whose code runs at its first
attribute access, for its one reader: the benchmark tracer, which reads
``sys.modules["scipy.linalg"]`` after the package import.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fockspace import (
    FockBasis,
    ResourceLimitError,
    StateVector,
    _checked_dim,
    _embedded_amplitudes,
    build_basis,
)
from .operators import (
    _LEVEL_PAIRS,
    AnharmonicityProfile,
    CouplingProfile,
    _hamiltonian,
    _lone_extension,
    _site_sum,
    _sparsetools,
)


def _lazy_module(name: str):
    """``sys.modules[name]``, registered to load at its first attribute access."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_lazy_module("scipy.linalg")

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
"""Largest sector ``sector_spectrum`` solves: its 3n^2 doubles are then 2.4 GB."""
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


def fidelity(psi_a: StateVector, psi_b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 in [0, 1].

    States over different bases are compared when one basis extends the
    other (more levels per site, or full space versus sector): the larger
    state's amplitudes are gathered at the smaller one's states, and weight
    of the smaller state outside the larger basis raises ValueError.
    """
    a, b = psi_a, psi_b
    if a.basis == b.basis:
        val = np.vdot(a.amplitudes, b.amplitudes)
    else:
        if (a.basis.K, a.basis.sector is None) > (b.basis.K, b.basis.sector is None):
            a, b = b, a
        amps, idx = _embedded_amplitudes(a, b.basis)
        val = np.vdot(amps, b.amplitudes[idx])
    return float(min(1.0, abs(val) ** 2))


@lru_cache(maxsize=16)
def _prefix_tables(basis: FockBasis):
    """Per site j: the level of j in each distinct prefix of sites 0..j, and
    the ``reduceat`` starts that merge those prefixes into the prefixes of
    sites 0..j-1.

    Codes ascend with site 0 most significant, so the states sharing a
    prefix, and the prefixes sharing a shorter one, are contiguous runs.
    Held as intp so that ``bincount`` and ``reduceat`` take them uncast.
    """
    levels, starts = [None] * basis.L, [None] * basis.L
    prefix = basis.codes
    for j in range(basis.L - 1, -1, -1):
        levels[j] = (prefix % basis.K).astype(np.intp)
        shorter = prefix // basis.K
        starts[j] = np.flatnonzero(np.r_[True, shorter[1:] != shorter[:-1]])
        prefix = shorter[starts[j]]
    return levels, starts


def site_populations(psi: StateVector) -> np.ndarray:
    """(L, K) array of per-site level probabilities.

    On the full basis the probability mass, re^2 + im^2 of the amplitudes'
    float view, is a (K,)*L tensor, and each site's row sums its axis
    against the others. On a restricted basis the mass is summed over ever
    shorter prefixes (cached ``_prefix_tables``), from the last site to the
    first, so each site costs one ``bincount`` over the distinct prefixes
    ending at it rather than over the whole basis.
    """
    basis = psi.basis
    out = np.empty((basis.L, basis.K))
    tensor = basis._tensor(psi.amplitudes)
    if tensor is not None:
        parts = tensor.view(np.float64)  # re, im interleaved along the last axis
        mass = np.square(parts[..., 0::2])
        mass += np.square(parts[..., 1::2])
        for j in range(basis.L):
            out[j] = np.einsum(mass, range(basis.L), [j])
        return out
    levels, starts = _prefix_tables(basis)
    mass = np.abs(psi.amplitudes) ** 2
    for j in range(basis.L - 1, -1, -1):
        out[j] = np.bincount(levels[j], weights=mass, minlength=basis.K)
        if j:
            mass = np.add.reduceat(mass, starts[j])
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

    On the full basis the state is read as a K**site x K x K**(L-site-1)
    tensor: x and y come from ``np.vdot`` of its level-1 and level-0
    slices, z from the two slices' squared norms. On a restricted basis x
    and y pair the states through cached ``_pauli_pairs`` index tables, and
    z is a difference of level populations.
    """
    basis = psi.basis
    if not 0 <= site < basis.L:
        raise ValueError(f"site {site} outside [0, {basis.L})")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    tensor = basis._tensor(psi.amplitudes, (site, 1, basis.L - site - 1))
    if tensor is not None:
        zero, one = tensor[:, 0], tensor[:, 1]
        if axis == "z":
            return float(np.vdot(zero, zero).real - np.vdot(one, one).real)
        cross = np.vdot(one, zero)
    elif axis == "z":
        return level_population(psi, site, 0) - level_population(psi, site, 1)
    else:
        i0, i1 = _pauli_pairs(basis, site)
        cross = np.sum(np.conj(psi.amplitudes[i1]) * psi.amplitudes[i0])
    if axis == "x":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)


@lru_cache(maxsize=16)
def _anharmonicity_weights(basis: FockBasis) -> np.ndarray:
    """Read-only ``sum_j n_j (n_j - 1)`` of every basis state.

    The terms are integers, so the sum is exact in any order.
    """
    w = _site_sum(basis, [1.0] * basis.L, _LEVEL_PAIRS)
    w.setflags(write=False)
    return w


def anharmonicity_expectation(psi: StateVector) -> float:
    """Expectation of ``sum_j n_j (n_j - 1)``, the doubly-occupied weight."""
    w = _anharmonicity_weights(psi.basis)
    return float(np.sum(w * np.abs(psi.amplitudes) ** 2))


def _schmidt_shape(L: int, K: int, cut: int) -> tuple[int, int]:
    """``(K^cut, K^(L-cut))``, or ResourceLimitError above ``MAX_ENTROPY_ELEMENTS``."""
    rows, cols = K**cut, K ** (L - cut)
    if rows * cols > MAX_ENTROPY_ELEMENTS:
        raise ResourceLimitError(f"bipartition needs {rows}x{cols} dense elements, above the cap")
    return rows, cols


def half_chain_entropy(psi: StateVector, cut: int) -> float:
    """Von Neumann entropy (nats) of the first ``cut`` sites.

    The singular values of the (K^cut) x (K^(L-cut)) amplitude matrix give
    the Schmidt spectrum. On the full basis that matrix is the amplitude
    vector reshaped; a restricted basis scatters its amplitudes into a
    zero-filled one. Raises ResourceLimitError when the rectangle would
    exceed the dense-size cap (``_schmidt_shape``, which config loading runs
    too, so a loaded config never meets it).
    """
    basis = psi.basis
    if not 1 <= cut < basis.L:
        raise ValueError(f"cut must lie strictly inside the chain, got {cut}")
    rows, cols = _schmidt_shape(basis.L, basis.K, cut)
    m = basis._tensor(psi.amplitudes, (cut, basis.L - cut))
    if m is None:
        # Radix codes put site 0 first, so code = row * cols + col.
        m = np.zeros(rows * cols, dtype=np.complex128)
        m[basis.codes] = psi.amplitudes
        m = m.reshape(rows, cols)
    s = np.linalg.svd(m, compute_uv=False)
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


def _check_dense(L: int, K: int, N: int) -> None:
    """ResourceLimitError if sector N is above ``_checked_dim``'s cap or
    ``MAX_DENSE_DIM``, counted before anything is enumerated."""
    dim = _checked_dim(L, K, N, N)
    if dim > MAX_DENSE_DIM:
        raise ResourceLimitError(f"sector dimension {dim} exceeds dense cap {MAX_DENSE_DIM}")


def _dsyevd_workspace(n: int) -> dict:
    """``lwork`` and ``liwork`` of ``dsyevd`` for the eigenvectors of an n x n
    matrix, from the query ``scipy.linalg.eigh`` makes; ValueError if the
    query fails or a size is beyond 32-bit LAPACK.

    LAPACK forms the sizes in 32-bit integers, which wrap above n = 32,766,
    so ``MAX_DENSE_DIM`` is what keeps them true.
    """
    *sizes, info = _lone_extension("linalg", "_flapack").dsyevd_lwork(
        n=n, compute_v=1, lower=1)
    if info != 0:
        raise ValueError(f"dsyevd workspace query failed: info {info}")
    sizes = [int(size) for size in sizes]
    if not all(0 <= size <= np.iinfo(np.int32).max for size in sizes):
        raise ValueError(f"dsyevd workspace {sizes} is beyond 32-bit LAPACK")
    return dict(zip(("lwork", "liwork"), sizes))


def sector_spectrum(
    L: int,
    N: int,
    K: int,
    coupling: CouplingProfile,
    anharmonicity: AnharmonicityProfile,
) -> SpectrumReport:
    """Full spectrum of hopping plus anharmonicity in one number sector.

    Diagonalizes densely, so the sector dimension must stay at desk scale:
    above ``MAX_DENSE_DIM`` (10^4) ``_check_dense`` raises
    ResourceLimitError, as config loading does. A solve holds 3n^2 doubles:
    the real matrix, which the eigenvectors overwrite, and ``dsyevd``'s
    workspace, ``lwork`` = 1 + 6n + 2n^2 doubles plus ``liwork`` = 3 + 5n
    integers. That is 96 MB at n = 2002 and 2.4 GB at the cap.

    The solve is ``scipy.linalg.eigh(dense, overwrite_a=True,
    driver="evd")`` without ``scipy.linalg``: the same ``dsyevd`` call with
    the same workspace sizes, so the same bits, and the same checks. A
    non-finite matrix entry raises ValueError (checked on the sparse
    entries), as does a workspace beyond 32-bit LAPACK or an illegal
    argument; a failed solve raises ``numpy.linalg.LinAlgError``.
    """
    _check_dense(L, K, N)
    basis = build_basis(L, K, sector=N)
    M = _hamiltonian(basis, coupling, anharmonicity, None, 1)._matrix
    if not np.isfinite(M.data).all():
        raise ValueError("the sector Hamiltonian has a non-finite entry")
    # Fortran order lets dsyevd write the eigenvectors over it, uncopied;
    # M is exactly symmetric, so its rows fill the transposed view
    dense = np.zeros(M.shape, order="F")
    _sparsetools.csr_todense(*M.shape, M.indptr, M.indices, M.data, dense.T)
    n = M.shape[0]
    evals, evecs, info = _lone_extension("linalg", "_flapack").dsyevd(
        a=dense, compute_v=1, lower=1, overwrite_a=1, **_dsyevd_workspace(n))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dsyevd")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"dsyevd failed on the submatrix at rows {info // (n + 1)} to {info % (n + 1)}")
    w = _anharmonicity_weights(basis)
    a_vals = w @ np.square(evecs, out=evecs)
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
