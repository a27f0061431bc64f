"""Truncated bosonic Fock spaces for a 1D chain of K-level sites.

Basis states are occupation vectors ``(n_0, ..., n_{L-1})`` with
``0 <= n_j <= K-1``, ordered lexicographically with site 0 as the most
significant digit (so for L=2, K=2 the order is 00, 01, 10, 11). A basis may
be restricted to the sector of fixed total occupation N, the natural arena
for number-conserving Hamiltonians, or to a range of totals ``lo..hi``. A
number-conserving Hamiltonian is block diagonal over N, so a state that
superposes several particle numbers evolves exactly on the range basis of
the totals it spans, with no amplitudes outside it.

Every basis comes from one vectorized enumeration whose size is counted in
closed form first, so a basis too large to hold raises ResourceLimitError
before anything is allocated.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MAX_BASIS_DIM",
    "MAX_LEVELS",
    "ResourceLimitError",
    "Occupation",
    "FockBasis",
    "StateVector",
    "basis_dim",
    "check_codes_fit",
    "build_basis",
    "product_sites",
    "parse_product_state",
    "build_product_state",
    "embed_state",
]

# An occupation is just a tuple of per-site level indices.
Occupation = tuple


MAX_BASIS_DIM = 1 << 24
"""Largest basis enumerated: one state vector is then 256 MB."""

MAX_LEVELS = 128
"""Most levels per site: occupations are stored as int8."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured size limits."""


def basis_dim(L: int, K: int, lo: int, hi: int) -> int:
    """Number of occupation vectors of L sites, K levels and total in [lo, hi].

    Closed form, enumerating nothing: inclusion-exclusion over the sites
    pushed past K-1 (truncated stars and bars), summed over the totals with
    the hockey-stick identity.
    """

    def below(n: int) -> int:  # vectors with total < n
        if n <= 0:
            return 0
        return sum(
            (-1) ** k * math.comb(L, k) * math.comb(n - 1 - k * K + L, L)
            for k in range(min(L, (n - 1) // K) + 1)
        )

    return below(hi + 1) - below(lo)


def check_codes_fit(L: int, K: int) -> None:
    """Raise ResourceLimitError when radix-K codes of L sites overflow int64.

    Constant cost for any L, so callers can run it before anything sized
    by L exists.
    """
    if L >= 64 or K**L > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"codes of {L} sites with {K} levels overflow int64")


def _states(L: int, K: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation vectors with total in [lo, hi] and their codes, ascending.

    Prefixes grow one site at a time: each prefix is repeated K times with
    the levels of the next site tiled under it, which keeps lexicographic
    order, and a prefix is dropped once its total can no longer land in
    [lo, hi].
    """
    levels = np.arange(K, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    totals = np.zeros(1, dtype=np.int64)
    for j in range(L):
        codes = np.repeat(codes * K, K) + np.tile(levels, codes.size)
        totals = np.repeat(totals, K) + np.tile(levels, totals.size)
        keep = (totals <= hi) & (totals + (L - 1 - j) * (K - 1) >= lo)
        codes, totals = codes[keep], totals[keep]
    states = np.empty((codes.size, L), dtype=np.int8)
    rest = codes.copy()
    for j in range(L - 1, -1, -1):
        states[:, j] = rest % K
        rest //= K
    return states, codes


class FockBasis:
    """Ordered enumeration of occupation vectors with fast index lookup.

    Parameters
    ----------
    L : int
        Number of sites, at least 1.
    K : int
        Levels per site, 2 to ``MAX_LEVELS``. Occupations run from 0 to K-1.
    sector : None, int or range
        None for the full space. An int N restricts to states with total
        occupation N. A ``range`` of totals (step 1) restricts to states
        whose total lies in it: the basis of a number-conserving evolution
        of a state that superposes several particle numbers. A range that
        covers every total ``0..L*(K-1)`` is stored as None, a one-element
        range as its int, so equal spaces compare equal.

    Notes
    -----
    The unrestricted space has dimension ``K**L``. A sector basis with
    ``K >= N+1`` has the stars-and-bars dimension ``C(N+L-1, N)``; a range
    basis is the union of its sectors, still in lexicographic order.
    A basis whose codes overflow int64, or whose dimension (counted before
    anything is enumerated) exceeds ``MAX_BASIS_DIM``, raises
    ResourceLimitError. Instances are immutable and safe to share
    between threads.
    """

    def __init__(self, L: int, K: int, sector: int | range | None = None):
        L, K = int(L), int(K)
        if L < 1:
            raise ValueError(f"need at least one site, got L={L}")
        if not 2 <= K <= MAX_LEVELS:
            raise ValueError(f"need 2 to {MAX_LEVELS} levels per site, got K={K}")
        n_max = L * (K - 1)
        if sector is None:
            lo, hi = 0, n_max
        elif isinstance(sector, range):
            if sector.step != 1 or not sector:
                raise ValueError(f"sector range must be non-empty with step 1, got {sector!r}")
            lo, hi = sector[0], min(sector[-1], n_max)
        else:
            lo = hi = int(sector)
        if not 0 <= lo <= hi <= n_max:
            raise ValueError(f"sector {sector!r} outside [0, {n_max}] for L={L}, K={K}")
        check_codes_fit(L, K)
        dim = basis_dim(L, K, lo, hi)
        if dim > MAX_BASIS_DIM:
            raise ResourceLimitError(
                f"basis of L={L}, K={K}, N={lo}..{hi} has {dim} states, "
                f"above the cap of {MAX_BASIS_DIM}"
            )
        self.L = L
        self.K = K
        if (lo, hi) == (0, n_max):
            self.sector = None
        elif lo == hi:
            self.sector = lo
        else:
            self.sector = range(lo, hi + 1)
        # Radix weights: site 0 is the most significant digit.
        self.site_radix = (K ** np.arange(L - 1, -1, -1)).astype(np.int64)
        self._states, self._codes = _states(L, K, lo, hi)
        self._states.setflags(write=False)
        self._codes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._states.shape[0]

    @property
    def states(self) -> np.ndarray:
        """Read-only (dim, L) array of occupation numbers."""
        return self._states

    @property
    def codes(self) -> np.ndarray:
        """Read-only radix-K integer code of every state, ascending."""
        return self._codes

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockBasis)
            and self.L == other.L
            and self.K == other.K
            and self.sector == other.sector
        )

    def __hash__(self) -> int:
        return hash((self.L, self.K, self.sector))

    def _label(self) -> str:
        if self.sector is None:
            return "full"
        if isinstance(self.sector, range):
            return f"N={self.sector[0]}..{self.sector[-1]}"
        return f"N={self.sector}"

    def __repr__(self) -> str:
        return f"FockBasis(L={self.L}, K={self.K}, {self._label()}, dim={self.dim})"

    def _code_of(self, occ: Sequence[int]) -> int:
        if len(occ) != self.L:
            raise ValueError(f"occupation has {len(occ)} sites, basis has {self.L}")
        code = 0
        for n, w in zip(occ, self.site_radix):
            n = int(n)
            if not 0 <= n < self.K:
                raise KeyError(f"occupation level {n} outside [0, {self.K - 1}]")
            code += n * int(w)
        return code

    def index_of(self, occ: Sequence[int]) -> int:
        """Position of an occupation vector in the basis.

        Raises KeyError for levels outside [0, K-1] or, on a restricted
        basis, for occupations whose total lies outside it.
        """
        i = int(self.find_codes(self._code_of(occ)))
        if i < 0:
            raise KeyError(
                f"occupation {tuple(int(n) for n in occ)} not in sector {self._label()}"
            )
        return i

    def occupation_at(self, i: int) -> Occupation:
        """The i-th occupation vector in canonical order."""
        i = int(i)
        if not 0 <= i < self.dim:
            raise IndexError(f"index {i} outside [0, {self.dim})")
        return tuple(int(n) for n in self._states[i])

    def find_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized code -> index map, -1 where a code is absent."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.sector is None:
            return np.where((codes >= 0) & (codes < self.dim), codes, -1)
        pos = np.minimum(np.searchsorted(self._codes, codes), self.dim - 1)
        return np.where(self._codes[pos] == codes, pos, -1)

    def indices_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Like find_codes, but every code must be present."""
        idx = self.find_codes(codes)
        if np.any(idx < 0):
            raise KeyError(f"state codes missing from sector {self._label()}")
        return idx


def build_basis(L: int, K: int, sector: int | range | None = None) -> FockBasis:
    """Construct a Fock basis; see FockBasis for the ordering contract."""
    return FockBasis(L, K, sector)


class StateVector:
    """Unit-norm complex amplitude vector over a FockBasis."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: FockBasis, amplitudes, *, normalize: bool = True):
        self._bind(basis, np.array(amplitudes, dtype=np.complex128, copy=True).ravel())
        if normalize:
            nrm = float(np.linalg.norm(self.amplitudes))
            if nrm < 1e-12:
                raise ValueError("cannot normalize a (near-)zero state vector")
            self.amplitudes /= nrm

    @classmethod
    def _adopt(cls, basis: FockBasis, amps: np.ndarray) -> "StateVector":
        """The state of amps, a fresh complex128 vector, which it keeps uncopied."""
        psi = cls.__new__(cls)
        psi._bind(basis, amps)
        return psi

    def _bind(self, basis: FockBasis, amps: np.ndarray) -> None:
        if amps.size != basis.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, basis dimension is {basis.dim}"
            )
        self.basis = basis
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes, normalize=False)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>; bases must match exactly."""
        if self.basis != other.basis:
            raise ValueError("overlap requires states over the same basis")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector({self.basis!r})"


def build_product_state(
    site_amplitudes: Sequence[Mapping[int, complex]], basis: FockBasis
) -> StateVector:
    """Tensor product of per-site superpositions, expressed over ``basis``.

    Each entry of ``site_amplitudes`` maps level -> amplitude for one site;
    levels absent from the map carry amplitude zero. The result is
    normalized. Raises ValueError if the product state has support outside
    the basis (wrong level or, for a sector basis, mixed totals).
    """
    if len(site_amplitudes) != basis.L:
        raise ValueError(
            f"got amplitudes for {len(site_amplitudes)} sites, basis has {basis.L}"
        )
    terms: list[tuple[int, complex]] = [(0, 1.0 + 0.0j)]
    for j, site in enumerate(site_amplitudes):
        options = [(int(lvl), complex(a)) for lvl, a in site.items() if a != 0]
        if not options:
            raise ValueError(f"site {j} has no nonzero amplitude")
        for lvl, _ in options:
            if not 0 <= lvl < basis.K:
                raise ValueError(f"site {j} level {lvl} outside [0, {basis.K - 1}]")
        radix = int(basis.site_radix[j])
        terms = [(code + lvl * radix, amp * a) for code, amp in terms for lvl, a in options]
    amps = np.zeros(basis.dim, dtype=np.complex128)
    codes = np.array([c for c, _ in terms], dtype=np.int64)
    idx = basis.find_codes(codes)
    if np.any(idx < 0):
        raise ValueError(
            f"product state has support outside the basis (sector {basis._label()})"
        )
    for i, (_, amp) in zip(idx, terms):
        amps[i] += amp
    return StateVector(basis, amps)


def product_sites(spec: str, L: int, K: int) -> tuple[dict[int, complex], ...]:
    """Per-site ``{level: amplitude}`` maps of a token string of L sites.

    One token per site: a digit d puts the site in level d (at most K-1), and
    ``+`` puts it in the equal superposition of levels 0 and 1. The result
    is what build_product_state takes.
    """
    if len(spec) != L:
        raise ValueError(f"state string has {len(spec)} tokens for {L} sites")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sites: list[dict[int, complex]] = []
    for j, token in enumerate(spec):
        if token == "+":
            sites.append({0: inv_sqrt2, 1: inv_sqrt2})
        elif token.isdigit():
            level = int(token)
            if level >= K:
                raise ValueError(f"site {j}: level {level} outside levels 0..{K - 1}")
            sites.append({level: 1.0})
        else:
            raise ValueError(f"site {j}: unknown token {token!r}")
    return tuple(sites)


def parse_product_state(spec: str, basis: FockBasis) -> StateVector:
    """Build a product state from a per-site token string (see product_sites).

    Example: ``"0101010101"`` is the ten-site alternating pattern with five
    particles.
    """
    return build_product_state(product_sites(spec, basis.L, basis.K), basis)


def embed_state(state: StateVector, target: FockBasis) -> StateVector:
    """Re-express a state over a larger basis with more levels per site.

    Amplitudes are copied onto the matching occupation vectors and all other
    amplitudes are zero, so norms and inner products are preserved exactly.
    The site count must match and the target must have at least as many
    levels; if the target is sector-restricted the state must lie in that
    sector.
    """
    src = state.basis
    if target.L != src.L:
        raise ValueError(f"site count mismatch: {src.L} vs {target.L}")
    if target.K < src.K:
        raise ValueError(f"target has fewer levels ({target.K}) than source ({src.K})")
    codes = src.states.astype(np.int64) @ target.site_radix
    idx = target.find_codes(codes)
    missing = (idx < 0) & (state.amplitudes != 0)
    if np.any(missing):
        raise ValueError(
            f"state has weight outside target sector {target._label()}"
        )
    amps = np.zeros(target.dim, dtype=np.complex128)
    keep = idx >= 0
    amps[idx[keep]] = state.amplitudes[keep]
    return StateVector._adopt(target, amps)
