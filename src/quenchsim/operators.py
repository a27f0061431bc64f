"""Sparse Hamiltonian terms for a driven chain of K-level bosonic sites.

The model is assembled from four pieces: the nearest-neighbour hopping
``sum_j J_j (a+_j a_{j+1} + h.c.)``, the on-site anharmonicity
``sum_j (-U_j/2) n_j (n_j - 1)``, a diagonal number-weighted term used for
sinusoidal frequency modulation, and the transverse field
``(1/2) sum_j Omega_j (a+_j + a_j)``.

Every operator is assembled by ``_assemble``: each term hands it either a
diagonal or the (source, target, amplitude) index pairs of its hops, and it
counts each row's entries and scatters every term straight into the CSR
arrays. ``Segment.static_hamiltonian`` passes all of its terms in one call,
so a Hamiltonian is built without per-term matrices or summed copies.

Unit convention: every user-facing frequency is quoted as ``f = value/2pi``
in MHz, exactly as device parameters are usually reported. Internally all
profiles store angular frequencies in rad/ns (``omega = 2*pi*f*1e-3``) and
time is measured in ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .fockspace import FockBasis

__all__ = [
    "omega_from_mhz",
    "mhz_from_omega",
    "CouplingProfile",
    "AnharmonicityProfile",
    "TransverseProfile",
    "DriveSpec",
    "SparseOperator",
    "build_hopping",
    "build_onsite_anharmonicity",
    "build_number_weighted",
    "build_transverse",
    "total_number",
    "bessel_j0",
    "effective_coupling",
]

_TWO_PI = 2.0 * math.pi


def omega_from_mhz(f_mhz: float) -> float:
    """Angular frequency in rad/ns for a quoted value/2pi in MHz."""
    return _TWO_PI * f_mhz * 1e-3


def mhz_from_omega(omega: float) -> float:
    """Inverse of omega_from_mhz."""
    return omega * 1e3 / _TWO_PI


def _omegas(values_mhz) -> tuple:
    """Angular frequencies in rad/ns of a value/2pi in MHz or a list of them."""
    return tuple(omega_from_mhz(float(v)) for v in np.atleast_1d(values_mhz))


@dataclass(frozen=True)
class CouplingProfile:
    """Nearest-neighbour hopping strengths, one per bond, in rad/ns."""

    values: tuple

    @classmethod
    def from_mhz(cls, values_mhz) -> "CouplingProfile":
        return cls(_omegas(values_mhz))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AnharmonicityProfile:
    """On-site interaction magnitudes U_j >= 0, in rad/ns.

    The defining sign lives in the operator: the diagonal term is
    ``-U_j/2 * n_j (n_j - 1)``, so profiles carry the positive magnitude.
    """

    values: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("anharmonicity magnitudes must be non-negative")

    @classmethod
    def from_mhz(cls, values_mhz) -> "AnharmonicityProfile":
        return cls(_omegas(values_mhz))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TransverseProfile:
    """Local transverse field strengths Omega_j, in rad/ns."""

    values: tuple

    @classmethod
    def from_mhz(cls, values_mhz) -> "TransverseProfile":
        return cls(_omegas(values_mhz))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DriveSpec:
    """Sinusoidal site-frequency modulation ``eps_j cos(nu t)``.

    ``eps`` holds the signed per-site amplitudes and ``nu`` the drive
    frequency, both in rad/ns. The phase vanishes at t = 0 of whatever time
    axis the integrator is given; ``run_protocol`` measures t from the start
    of the segment that carries the drive.
    """

    eps: tuple
    nu: float

    def __post_init__(self):
        if any(e != 0 for e in self.eps) and not self.nu > 0:
            raise ValueError("drive frequency must be positive when any amplitude is nonzero")

    @classmethod
    def from_mhz(cls, eps_mhz, nu_mhz: float) -> "DriveSpec":
        return cls(_omegas(eps_mhz), omega_from_mhz(nu_mhz))

    @classmethod
    def staggered_odd(cls, L: int, eps_mhz: float, nu_mhz: float) -> "DriveSpec":
        """Drive sites 1, 3, 5, ... (1-based) with alternating signs.

        The driven sites get amplitudes +eps, -eps, +eps, ... and the others
        zero, so every bond sees a frequency-difference amplitude of eps.
        """
        eps = [0.0] * L
        sign = 1.0
        for j in range(0, L, 2):
            eps[j] = sign * eps_mhz
            sign = -sign
        return cls.from_mhz(eps, nu_mhz)

    @property
    def period_ns(self) -> float:
        if not self.nu > 0:
            raise ValueError("drive has no period (nu = 0)")
        return _TWO_PI / self.nu

    def is_active(self) -> bool:
        return any(e != 0 for e in self.eps)

    def __len__(self) -> int:
        return len(self.eps)


class SparseOperator:
    """Sparse complex matrix over a FockBasis with a hermiticity tag.

    The tag is set by the builders, which emit conjugate entry pairs, so
    ``hermitian=True`` implies the matrix equals its adjoint exactly (not
    just to rounding).
    """

    def __init__(self, basis: FockBasis, matrix, hermitian: bool):
        matrix = sp.csr_matrix(matrix, dtype=np.complex128)
        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}"
            )
        self.basis = basis
        self.matrix = matrix
        self.hermitian = bool(hermitian)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def expectation(self, state) -> complex:
        v = state.amplitudes if hasattr(state, "amplitudes") else np.asarray(state)
        val = complex(np.vdot(v, self.matrix @ v))
        return val.real if self.hermitian else val

    def _check_compatible(self, other: "SparseOperator") -> None:
        if self.basis != other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_compatible(other)
        return SparseOperator(
            self.basis, self.matrix + other.matrix, self.hermitian and other.hermitian
        )

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_compatible(other)
        return SparseOperator(
            self.basis, self.matrix - other.matrix, self.hermitian and other.hermitian
        )

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.basis, -self.matrix, self.hermitian)

    def __mul__(self, scalar) -> "SparseOperator":
        scalar = complex(scalar)
        hermitian = self.hermitian and scalar.imag == 0
        return SparseOperator(self.basis, self.matrix * scalar, hermitian)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        tag = "hermitian" if self.hermitian else "general"
        return f"SparseOperator({self.basis!r}, nnz={self.nnz}, {tag})"


def _assemble(basis: FockBasis, diag, pairs) -> SparseOperator:
    """Hermitian operator ``diag`` plus ``amp`` at (tgt, src) and (src, tgt).

    ``diag`` is a real vector or None; ``pairs`` is a list of (src, tgt,
    amp) index and real-amplitude arrays, and each contributes both
    mirrored entries, so the result is exactly Hermitian. The entries of
    each row are counted, every term is scattered straight into the CSR
    arrays, and each row's columns are sorted in place; zero entries are
    dropped. No row may repeat within one index array and no two terms may
    share an entry: a bond or site term maps each state to at most one
    other, and distinct terms map it to distinct states.
    """
    dim = basis.dim
    parts = []
    if diag is not None:
        on = np.flatnonzero(diag)
        parts.append((on, on, diag[on]))
    for src, tgt, amp in pairs:
        if not amp.all():
            keep = amp != 0
            src, tgt, amp = src[keep], tgt[keep], amp[keep]
        parts += [(tgt, src, amp), (src, tgt, amp)]
    ends = np.zeros(dim, dtype=np.int64)
    for rows, _, _ in parts:
        ends += np.bincount(rows, minlength=dim)
    np.cumsum(ends, out=ends)
    nnz = int(ends[-1])
    index = np.int32 if max(nnz, dim) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    indptr[1:] = ends
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=np.complex128)
    fill = ends  # each row fills from its end back to its start
    for rows, cols, vals in parts:
        fill[rows] -= 1
        at = fill[rows]
        indices[at] = cols
        data[at] = vals
    if not np.array_equal(fill, indptr[:-1]):
        raise ValueError("a row repeats within one term")
    matrix = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    matrix.sort_indices()
    return SparseOperator(basis, matrix, True)


def _hopping_pairs(basis: FockBasis, profile: CouplingProfile) -> list:
    """(src, tgt, amp) of ``J_j a+_j a_{j+1}`` for each bond with J_j != 0."""
    if len(profile) != basis.L - 1:
        raise ValueError(f"coupling profile needs {basis.L - 1} bonds, got {len(profile)}")
    n = basis.states
    pairs = []
    for j, Jj in enumerate(profile.values):
        if Jj == 0:
            continue
        # a+_j a_{j+1}: needs headroom on j and a particle on j+1.
        src = np.nonzero((n[:, j] < basis.K - 1) & (n[:, j + 1] > 0))[0]
        amp = Jj * np.sqrt(
            (n[src, j].astype(np.float64) + 1.0) * n[src, j + 1].astype(np.float64)
        )
        shift = int(basis.site_radix[j]) - int(basis.site_radix[j + 1])
        pairs.append((src, basis.indices_from_codes(basis.codes[src] + shift), amp))
    return pairs


def build_hopping(basis: FockBasis, profile: CouplingProfile) -> SparseOperator:
    """Hopping term ``sum_j J_j (a+_j a_{j+1} + h.c.)`` over the basis.

    Bosonic matrix elements ``a+|n> = sqrt(n+1)|n+1>`` truncated at K-1.
    The result conserves total occupation, so it is block diagonal over
    number sectors and valid on sector bases.
    """
    return _assemble(basis, None, _hopping_pairs(basis, profile))


def _anharmonicity_diagonal(basis: FockBasis, profile: AnharmonicityProfile) -> np.ndarray:
    """Diagonal of ``sum_j (-U_j/2) n_j (n_j - 1)``."""
    if len(profile) != basis.L:
        raise ValueError(f"anharmonicity profile needs {basis.L} sites, got {len(profile)}")
    n = basis.states.astype(np.float64)
    return (n * (n - 1.0)) @ (-0.5 * np.asarray(profile.values))


def build_onsite_anharmonicity(
    basis: FockBasis, profile: AnharmonicityProfile
) -> SparseOperator:
    """Diagonal term ``sum_j (-U_j/2) n_j (n_j - 1)``."""
    return _assemble(basis, _anharmonicity_diagonal(basis, profile), [])


def build_number_weighted(basis: FockBasis, weights: Sequence[float]) -> SparseOperator:
    """Diagonal term ``sum_j w_j n_j`` for arbitrary per-site weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != basis.L:
        raise ValueError(f"need {basis.L} weights, got {weights.size}")
    return _assemble(basis, basis.states.astype(np.float64) @ weights, [])


def total_number(basis: FockBasis) -> SparseOperator:
    """Total occupation operator ``sum_j n_j``."""
    return build_number_weighted(basis, np.ones(basis.L))


def _transverse_pairs(basis: FockBasis, profile: TransverseProfile) -> list:
    """(src, tgt, amp) of ``(Omega_j/2) a+_j`` for each site with Omega_j != 0."""
    if len(profile) != basis.L:
        raise ValueError(f"transverse profile needs {basis.L} sites, got {len(profile)}")
    if basis.sector is not None:
        raise ValueError(
            "transverse field breaks number conservation; build it on the full basis"
        )
    n = basis.states
    pairs = []
    for j, Oj in enumerate(profile.values):
        if Oj == 0:
            continue
        src = np.nonzero(n[:, j] < basis.K - 1)[0]
        amp = 0.5 * Oj * np.sqrt(n[src, j].astype(np.float64) + 1.0)
        tgt = basis.indices_from_codes(basis.codes[src] + int(basis.site_radix[j]))
        pairs.append((src, tgt, amp))
    return pairs


def build_transverse(basis: FockBasis, profile: TransverseProfile) -> SparseOperator:
    """Transverse term ``(1/2) sum_j Omega_j (a+_j + a_j)``.

    Breaks particle-number conservation, so it is only defined over the
    full (unrestricted) space; a sector basis raises ValueError.
    """
    return _assemble(basis, None, _transverse_pairs(basis, profile))


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero: ``scipy.special.j0``.

    Imported on first call, because importing scipy.special adds about
    0.1 s to the start-up of every run.
    """
    from scipy.special import j0

    return float(j0(x))


def effective_coupling(J: float, eps: float, nu: float) -> float:
    """Period-averaged hopping under sinusoidal modulation of amplitude eps.

    With every bond seeing a frequency-difference amplitude eps at drive
    frequency nu, the stroboscopic dynamics is that of a static chain with
    coupling ``J * J0(eps/nu)``. Units cancel, so J, eps and nu may be given
    in any one consistent frequency convention; the result carries J's.
    """
    if not nu > 0:
        raise ValueError("drive frequency must be positive")
    return J * bessel_j0(eps / nu)
