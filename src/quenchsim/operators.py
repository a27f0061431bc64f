"""Sparse Hamiltonian terms for a driven chain of K-level bosonic sites.

The model is assembled from four pieces: the nearest-neighbour hopping
``sum_j J_j (a+_j a_{j+1} + h.c.)``, the on-site anharmonicity
``sum_j (-U_j/2) n_j (n_j - 1)``, a diagonal number-weighted term used for
sinusoidal frequency modulation, and the transverse field
``(1/2) sum_j Omega_j (a+_j + a_j)``. ``_site_sum`` forms both diagonals,
and the drive weights of ``propagator.evolve_driven``, as per-site sums.

Every operator is assembled by ``_assemble``: each term hands it either a
diagonal or the (source, target, amplitude) index pairs of its hops, and it
counts each row's entries and scatters every term straight into the CSR
arrays. ``Segment.static_hamiltonian`` passes all of its terms in one call,
so a Hamiltonian is built without per-term matrices or summed copies.

Every term has real matrix elements in the Fock basis, so every operator
built here is real symmetric and stored as float64 CSR. ``SparseOperator``
has one product, which applies a real matrix to a complex state as two real
products, one on its real and one on its imaginary plane: bit for bit the
complex product, at half the stored bytes.

``_hamiltonian`` decides how a segment's Hamiltonian is stored. The full
basis of L >= 2 sites is a tensor product, so at the half-chain cut
``c = L // 2`` the Hamiltonian splits exactly into ``H_A (x) 1 + 1 (x) H_B``
plus a CSR with the anharmonicity diagonal and the one bond across the
cut. The two half-chain blocks are K**c and K**(L-c) square; at L = 10,
K = 3 with a transverse field the three parts hold 115,481 entries against
1,317,737 in one CSR. Restricted bases keep one CSR.

Unit convention: every user-facing frequency is quoted as ``f = value/2pi``
in MHz, exactly as device parameters are usually reported. Internally all
profiles store angular frequencies in rad/ns (``omega = 2*pi*f*1e-3``) and
time is measured in ns.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fockspace import MAX_LEVELS, FockBasis

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


def _load_sparsetools():
    """scipy's CSR kernels, from the extension file beside ``scipy.sparse``.

    The file is loaded alone: importing the ``scipy.sparse`` package would
    add about 0.13 s and 20 MB to every run. ImportError names the path
    when the file is not there.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(root, "sparse", "_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's CSR kernels are not at {path}", path=path)
    loader = importlib.machinery.ExtensionFileLoader("scipy.sparse._sparsetools", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    if "scipy.sparse" not in sys.modules:
        # the extension entered itself in sys.modules, where a later
        # scipy.sparse import would find it and never bind its attribute
        sys.modules.pop(loader.name, None)
    return module


_sparsetools = _load_sparsetools()


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
class _SiteProfile:
    """Angular frequencies in rad/ns, one per bond or site; subclasses are dataclasses too."""

    values: tuple

    @classmethod
    def from_mhz(cls, values_mhz):
        """The profile of a value/2pi in MHz or a list of them."""
        return cls(_omegas(values_mhz))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CouplingProfile(_SiteProfile):
    """Nearest-neighbour hopping strengths, one per bond, in rad/ns."""


@dataclass(frozen=True)
class AnharmonicityProfile(_SiteProfile):
    """On-site interaction magnitudes U_j >= 0, in rad/ns.

    The defining sign lives in the operator: the diagonal term is
    ``-U_j/2 * n_j (n_j - 1)``, so profiles carry the positive magnitude.
    """

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("anharmonicity magnitudes must be non-negative")


@dataclass(frozen=True)
class TransverseProfile(_SiteProfile):
    """Local transverse field strengths Omega_j, in rad/ns."""

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


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


class _CSR:
    """CSR arrays under scipy's attribute names, which the kernels read."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @classmethod
    def of(cls, matrix) -> "_CSR":
        """Any dense or sparse matrix, as float64 or, if complex, complex128 CSR."""
        if isinstance(matrix, cls):
            return matrix
        import scipy.sparse as sp

        m = sp.csr_matrix(matrix)
        m = m.astype(np.complex128 if m.dtype.kind == "c" else np.float64, copy=False)
        return cls(m.data, m.indices, m.indptr, m.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def scipy(self):
        """A scipy CSR matrix over these arrays, uncopied."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape, copy=False)


class SparseOperator:
    """Sparse matrix over a FockBasis with a hermiticity tag.

    The matrix is stored as raw float64 CSR arrays when its entries are
    real and as complex128 ones otherwise; a matrix of any other form is
    converted. ``matrix`` hands it out as a scipy CSR matrix over the same
    arrays. The tag is set by the builders, which emit mirrored entry
    pairs, so ``hermitian=True`` implies the matrix equals its adjoint
    exactly (not just to rounding).

    On a full basis the operator may also hold ``blocks = (H_A, H_B)``, two
    float64 CSR matrices of K**c and K**(L-c) rows, c = L // 2, with no
    diagonal entries; it then stands for ``matrix + H_A (x) 1 + 1 (x) H_B``.
    ``nnz`` counts the entries of all three. Sums carry the blocks, and
    scaling carries them by a real factor and raises on a complex one.

    A real product needs only scipy's CSR kernels. ``matrix``, ``blocks``
    and all that reads them (``dense``, ``diagonal``, the algebra and a
    complex product) import ``scipy.sparse`` when called.
    """

    def __init__(self, basis: FockBasis, matrix, hermitian: bool, blocks=None):
        matrix = _CSR.of(matrix)
        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}"
            )
        if blocks is not None:
            rows = tuple(basis.K ** n for n in (basis.L // 2, basis.L - basis.L // 2))
            if basis.sector is not None or tuple(b.shape[0] for b in blocks) != rows:
                raise ValueError(f"half-chain blocks need the full basis and {rows} rows")
            blocks = tuple(map(_CSR.of, blocks))
        self.basis = basis
        self._matrix = matrix
        self._blocks = blocks
        self.hermitian = bool(hermitian)
        self._scratch = None  # the blocks' transposed plane, made at the first product

    @property
    def matrix(self):
        """The CSR part as a scipy matrix over the stored arrays."""
        return self._matrix.scipy()

    @property
    def blocks(self):
        """``(H_A, H_B)`` as scipy matrices over the stored arrays, or None."""
        return None if self._blocks is None else tuple(b.scipy() for b in self._blocks)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def nnz(self) -> int:
        return self._matrix.nnz + sum(b.nnz for b in self._blocks or ())

    def matvec(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``out += H @ vec`` on planes, or ``H @ vec`` as a new complex vector.

        With ``out`` given, ``vec`` and ``out`` are ``(2, dim)`` float64
        planes, the real and imaginary parts of a complex vector, each
        contiguous; the product is added into ``out`` in place and ``out``
        returned, with nothing of the vector's size allocated. Without
        ``out``, ``vec`` is copied into planes, the product is added into
        zeroed ones, and a new complex128 vector is returned.

        A real matrix goes through scipy's ``csr_matvec`` kernels, which add
        into their output, one plane at a time; a complex one, which only
        tests build, takes a plain complex product. ``H_A`` adds ``H_A @ X``
        with ``X`` the plane as a ``(K**c, K**(L-c))`` array. ``H_B`` adds
        ``(H_B @ X.T).T`` in the transposed frame: the plane's partial sum
        moves into a ``(K**(L-c), K**c)`` scratch, the plane holds ``X.T``
        as the kernel's input, and the sum moves back. The operator keeps
        that one scratch for both planes and every call, so one operator
        must not run two products at once.
        """
        planes = out
        if out is None:
            vec = np.array([vec.real, vec.imag], dtype=np.float64)
            planes = np.zeros_like(vec)
        M = self._matrix
        if M.data.dtype.kind == "c":
            y = self.matrix @ (vec[0] + 1j * vec[1])
            planes[0] += y.real
            planes[1] += y.imag
        else:
            n = self.dim
            for xp, yp in zip(vec, planes):
                _sparsetools.csr_matvec(n, n, M.indptr, M.indices, M.data, xp, yp)
        if self._blocks is not None:
            A, B = self._blocks
            a, b = A.shape[0], B.shape[0]
            if self._scratch is None:
                self._scratch = np.empty((b, a))
            S = self._scratch
            for xp, yp in zip(vec, planes):
                _sparsetools.csr_matvecs(a, a, b, A.indptr, A.indices, A.data, xp, yp)
                np.copyto(S, yp.reshape(a, b).T)
                np.copyto(yp.reshape(b, a), xp.reshape(a, b).T)
                _sparsetools.csr_matvecs(b, b, a, B.indptr, B.indices, B.data, yp, S.ravel())
                np.copyto(yp.reshape(a, b), S.T)
        if out is not None:
            return out
        y = np.empty(self.dim, dtype=np.complex128)
        y.real, y.imag = planes
        return y

    def dense(self) -> np.ndarray:
        if self._blocks is None:
            return self.matrix.toarray()
        import scipy.sparse as sp

        A, B = self.blocks
        return (self.matrix + sp.kron(A, sp.identity(B.shape[0]))
                + sp.kron(sp.identity(A.shape[0]), B)).toarray()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()  # blocks hold no diagonal entries

    def expectation(self, state) -> complex:
        v = state.amplitudes if hasattr(state, "amplitudes") else np.asarray(state)
        val = complex(np.vdot(v, self.matvec(v)))
        return val.real if self.hermitian else val

    def _check_compatible(self, other: "SparseOperator") -> None:
        if self.basis != other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_compatible(other)
        blocks = self.blocks or other.blocks
        if self.blocks is not None and other.blocks is not None:
            blocks = tuple(a + b for a, b in zip(self.blocks, other.blocks))
        return SparseOperator(self.basis, self.matrix + other.matrix,
                              self.hermitian and other.hermitian, blocks)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + (-other)

    def __neg__(self) -> "SparseOperator":
        return -1.0 * self

    def __mul__(self, scalar) -> "SparseOperator":
        scalar = complex(scalar)
        real = scalar.imag == 0
        if not real and self.blocks is not None:
            raise ValueError("half-chain blocks are real; scale them by a real factor")
        factor = scalar.real if real else scalar
        blocks = None if self.blocks is None else tuple(b * factor for b in self.blocks)
        return SparseOperator(self.basis, self.matrix * factor, self.hermitian and real, blocks)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        tag = "hermitian" if self.hermitian else "general"
        return f"SparseOperator({self.basis!r}, nnz={self.nnz}, {tag})"


def _assemble(basis: FockBasis, diag, pairs) -> SparseOperator:
    """Hermitian operator ``diag`` plus ``amp`` at (tgt, src) and (src, tgt).

    ``diag`` is a real vector or None; ``pairs`` is a list of (src, tgt,
    amp) index and real-amplitude arrays, and each contributes both
    mirrored entries, so the result is exactly symmetric and float64. The
    pair builders hold their indices as int32, which ``MAX_BASIS_DIM``
    (2**24) allows: a full-basis Hamiltonian's pairs are most of the
    memory its assembly holds besides the CSR arrays. The entries of
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
    data = np.empty(nnz, dtype=np.float64)
    fill = ends  # each row fills from its end back to its start
    for rows, cols, vals in parts:
        fill[rows] -= 1
        at = fill[rows]
        indices[at] = cols
        data[at] = vals
    if not np.array_equal(fill, indptr[:-1]):
        raise ValueError("a row repeats within one term")
    _sparsetools.csr_sort_indices(dim, indptr, indices, data)
    return SparseOperator(basis, _CSR(data, indices, indptr, (dim, dim)), True)


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
        src = np.flatnonzero((n[:, j] < basis.K - 1) & (n[:, j + 1] > 0)).astype(np.int32)
        amp = Jj * np.sqrt(
            (n[src, j].astype(np.float64) + 1.0) * n[src, j + 1].astype(np.float64)
        )
        shift = int(basis.site_radix[j]) - int(basis.site_radix[j + 1])
        tgt = basis.indices_from_codes(basis.codes[src] + shift).astype(np.int32)
        pairs.append((src, tgt, amp))
    return pairs


def build_hopping(basis: FockBasis, profile: CouplingProfile) -> SparseOperator:
    """Hopping term ``sum_j J_j (a+_j a_{j+1} + h.c.)`` over the basis.

    Bosonic matrix elements ``a+|n> = sqrt(n+1)|n+1>`` truncated at K-1.
    The result conserves total occupation, so it is block diagonal over
    number sectors and valid on sector bases.
    """
    return _assemble(basis, None, _hopping_pairs(basis, profile))


# f(n) tables of ``_site_sum`` for every level n < MAX_LEVELS: n and n (n - 1)
_LEVELS = np.arange(MAX_LEVELS, dtype=np.float64)
_LEVEL_PAIRS = _LEVELS * (_LEVELS - 1.0)


def _site_sum(basis: FockBasis, weights, table: np.ndarray) -> np.ndarray:
    """``sum_j w_j f(n_j)`` of every basis state, with ``table[n] = f(n)``.

    Summed one site at a time in site order, so no (dim, L) float copy of
    the states is made.
    """
    out = np.zeros(basis.dim)
    for j, w in enumerate(weights):
        out += w * table[basis.states[:, j]]
    return out


def _anharmonicity_diagonal(basis: FockBasis, profile: AnharmonicityProfile) -> np.ndarray:
    """Diagonal of ``sum_j (-U_j/2) n_j (n_j - 1)``."""
    if len(profile) != basis.L:
        raise ValueError(f"anharmonicity profile needs {basis.L} sites, got {len(profile)}")
    return _site_sum(basis, [-0.5 * U for U in profile.values], _LEVEL_PAIRS)


def build_onsite_anharmonicity(
    basis: FockBasis, profile: AnharmonicityProfile
) -> SparseOperator:
    """Diagonal term ``sum_j (-U_j/2) n_j (n_j - 1)``."""
    return _assemble(basis, _anharmonicity_diagonal(basis, profile), [])


def build_number_weighted(basis: FockBasis, weights: Sequence[float]) -> SparseOperator:
    """Diagonal term ``sum_j w_j n_j`` for arbitrary per-site weights, by ``_site_sum``."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != basis.L:
        raise ValueError(f"need {basis.L} weights, got {weights.size}")
    return _assemble(basis, _site_sum(basis, weights, _LEVELS), [])


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
        src = np.flatnonzero(n[:, j] < basis.K - 1).astype(np.int32)
        amp = 0.5 * Oj * np.sqrt(n[src, j].astype(np.float64) + 1.0)
        tgt = basis.indices_from_codes(basis.codes[src] + int(basis.site_radix[j]))
        tgt = tgt.astype(np.int32)
        pairs.append((src, tgt, amp))
    return pairs


def build_transverse(basis: FockBasis, profile: TransverseProfile) -> SparseOperator:
    """Transverse term ``(1/2) sum_j Omega_j (a+_j + a_j)``.

    Breaks particle-number conservation, so it is only defined over the
    full (unrestricted) space; a sector basis raises ValueError.
    """
    return _assemble(basis, None, _transverse_pairs(basis, profile))


def _hamiltonian(basis: FockBasis, coupling: CouplingProfile,
                 anharmonicity: AnharmonicityProfile, transverse: TransverseProfile | None,
                 sign: int) -> SparseOperator:
    """``sign * (hopping + transverse) + anharmonicity``, stored for its basis.

    A restricted basis, or a single site, gets one CSR of every term. A full
    basis of L >= 2 sites gets a CSR of the anharmonicity diagonal and the
    bond c-1, c across the cut c = L // 2, plus the blocks H_A and H_B: the
    hopping and transverse terms of sites 0..c-1 and c..L-1, each assembled
    on its half chain's own full basis.
    """
    def terms(b, bonds, sites):
        pairs = _hopping_pairs(b, CouplingProfile(tuple(bonds)))
        if sites is not None:
            pairs += _transverse_pairs(b, TransverseProfile(tuple(sites)))
        for _, _, amp in pairs:
            amp *= sign
        return pairs

    diag = _anharmonicity_diagonal(basis, anharmonicity)
    L, J = basis.L, coupling.values
    omega = None if transverse is None else transverse.values
    if L < 2 or basis._tensor(diag) is None:  # a restricted basis is no tensor product
        return _assemble(basis, diag, terms(basis, J, omega))
    if omega is not None and len(omega) != L:
        raise ValueError(f"transverse profile needs {L} sites, got {len(omega)}")
    c = L // 2
    cut = [Jj if j == c - 1 else 0.0 for j, Jj in enumerate(J)]
    matrix = _assemble(basis, diag, terms(basis, cut, None))._matrix
    blocks = []
    for lo, hi in ((0, c), (c, L)):
        half = FockBasis(hi - lo, basis.K)
        sites = None if omega is None else omega[lo:hi]
        blocks.append(_assemble(half, None, terms(half, J[lo:hi - 1], sites))._matrix)
    return SparseOperator(basis, matrix, True, tuple(blocks))


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero: ``scipy.special.j0``.

    Imported on first call: in a process that has loaded no other scipy
    package, importing scipy.special takes about 0.15 s and 23 MB.
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
