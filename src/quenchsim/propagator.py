"""Time evolution of state vectors under static and driven Hamiltonians.

Every exponential ``exp(-i H dt) psi`` goes through ``_Krylov``, one Lanczos
core with a local BLAS re-pass, a gated a-posteriori residual estimate and
Expokit-style step control, at ``DEFAULT_TOL``, ``DEFAULT_KRYLOV_DIM`` and
``MAX_HALVINGS``. Sinusoidally driven Hamiltonians are integrated with
fourth-order commutator-free substeps (two Gauss nodes per substep) of
``default_substep_ns`` (T/64); one basis object serves every exponential of
an ``evolve_driven`` call, which weighs each basis state by the
``DriveSpec`` amplitudes itself. Multi-segment protocols (forward plus
sign-flipped backward evolution, with or without drive) are executed by
``run_protocol``, a generator of ``(t, state)`` pairs, one per sample time.
The samples of an undriven segment share one growing basis, and every
driven segment restarts its drive phase at its own start. A segment's one
``sign`` multiplies its hopping and transverse terms, so time reversal is a
single sign flip; stroboscopic sampling is a sample step of one drive period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
import scipy.linalg as sla
# Every BLAS call of the Lanczos loop goes through scipy's OpenBLAS. With
# numpy's copy in the same loop, the two libraries' thread pools contend:
# at two BLAS threads on two cores a 30-vector basis took 2.7 times longer.
from scipy.linalg.blas import dznrm2, zaxpy, zdotc

from .fockspace import FockBasis, ResourceLimitError, StateVector
from .operators import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    SparseOperator,
    TransverseProfile,
    _anharmonicity_diagonal,
    _assemble,
    _hopping_pairs,
    _transverse_pairs,
    build_number_weighted,
)

__all__ = [
    "NumericsError",
    "evolve_static",
    "evolve_driven",
    "Segment",
    "Protocol",
    "reverse_of",
    "run_protocol",
    "default_substep_ns",
]

DEFAULT_TOL = 1e-10
DEFAULT_KRYLOV_DIM = 30
MAX_HALVINGS = 48  # sub-steps below |dt| / 2**MAX_HALVINGS raise NumericsError
SUBSTEPS_PER_PERIOD = 64
MAX_SAMPLES = 1_000_000
MAX_SUBSTEPS = 1_000_000


class NumericsError(RuntimeError):
    """Propagation failed to converge within the configured limits."""


class _Ritz:
    """Eigenpairs of the Lanczos tridiagonal T, evaluated at any step.

    One ``eigh_tridiagonal`` call serves every trial step: the first column
    of exp(-i tau T) is ``vecs @ (exp(-i tau vals) * vecs[0])``.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray):
        self.vals, self.vecs = sla.eigh_tridiagonal(alpha, beta)
        self.size = alpha.size
        self.spread = float(self.vals[-1] - self.vals[0])

    def last(self, tau: float) -> complex:
        """Last component of exp(-i tau T) e_1."""
        return (self.vecs[-1] * np.exp(-1j * tau * self.vals)) @ self.vecs[0]

    def e1(self, tau: float) -> np.ndarray:
        """exp(-i tau T) e_1."""
        return self.vecs @ (np.exp(-1j * tau * self.vals) * self.vecs[0])

    def certifies(self, tau: float, b: float, tol: float) -> bool:
        """Hochbruck-Lubich gate plus residual estimate, both at step tau.

        The residual estimate (next off-diagonal coupling times the weight
        the small exponential puts on the last Lanczos vector) only means
        something once the subspace size reaches |tau| (wmax - wmin) / 2,
        where superlinear convergence sets in; below it the last component
        can dip near zero accidentally, so both must hold.
        """
        return (self.size >= 0.5 * abs(tau) * self.spread
                and abs(b * tau * self.last(tau)) < tol)


class _Krylov:
    """A Lanczos basis of one operator that grows on demand.

    ``advance(v, dt)`` returns exp(-i dt H) v. If v is ``emitted`` (the
    state made from its last result), the basis resumes and grows only
    until it certifies the new offset from its start vector; otherwise it
    starts at v. The steps one basis serves must share a sign. A full basis
    that cannot certify the target is rebuilt from the farthest offset it
    certifies at or after the emitted state, found by Expokit's step search
    (Sidje, ACM TOMS 24:130, 1998). ``eigh_tridiagonal`` runs only where the
    residual's leading Taylor term, prod(beta_1..beta_k) |tau|**k / (k-1)!,
    is below ``DEFAULT_TOL`` (or the basis is full): about one probe per
    result, trusted where ``_Ritz.certifies`` holds. The basis holds at most
    ``DEFAULT_KRYLOV_DIM`` rows, separate 1-D arrays allocated as it first
    grows and reused by every rebuild, so a basis that certifies at k rows
    holds k of them; on the full basis these rows, not operator assembly,
    set a run's peak memory. matvec must return a new array: the recurrence
    updates it in place.
    """

    def __init__(self, matvec):
        self.matvec = matvec
        self.rows = []
        self.alpha = np.empty(DEFAULT_KRYLOV_DIM)
        self.beta = np.empty(DEFAULT_KRYLOV_DIM)
        self.emitted = None

    def start(self, v):
        """Begin a new basis at v, whose offset is 0."""
        self.scale = dznrm2(v)
        if not self.rows:
            self.rows.append(np.empty(v.size, dtype=np.complex128))
        np.divide(v, self.scale, out=self.rows[0])
        self.k = 0
        self.at = 0.0  # offset of the emitted state
        self.ritz = None
        self.log_pred = 0.0  # log of prod(beta_1..beta_k) / (k-1)!

    def _extend(self):
        k = self.k
        rows = self.rows
        if k:
            self.beta[k - 1] = self.b
            if len(rows) == k:
                rows.append(np.empty_like(rows[0]))
            # scaling the float view costs a tenth of a complex division
            np.multiply(self.w.view(np.float64), 1.0 / self.b, out=rows[k].view(np.float64))
        x = rows[k]
        w = self.matvec(x)
        if k:
            w = zaxpy(rows[k - 1], w, a=-self.beta[k - 1])
        a = zdotc(x, w).real
        self.alpha[k] = a
        w = zaxpy(x, w, a=-a)
        # One re-pass against the two vectors the recurrence used, not the
        # whole basis: for exp(-i h H) psi the three-term recurrence stays
        # accurate (Druskin, Greenbaum & Knizhnerman 1998). Full 30-vector
        # bases on dimensions 50 and 55 at 50-500 ns, where Ritz values
        # converge and |V^H V - I| reaches 0.4, stay within 1.3e-11 of dense
        # propagation with norm drift below 3e-15 (tests/test_propagator.py).
        for r in rows[max(k - 1, 0):k + 1]:
            w = zaxpy(r, w, a=-zdotc(r, w))
        self.w = w
        self.b = dznrm2(w)
        self.k = k + 1
        if self.b >= 1e-14:
            self.log_pred += math.log(self.b) - math.log(max(k, 1))

    def _probe(self) -> _Ritz:
        k = self.k
        if self.ritz is None or self.ritz.size != k:
            self.ritz = _Ritz(self.alpha[:k], self.beta[:k - 1])
        return self.ritz

    def grow(self, tau) -> bool:
        """Extend until the basis certifies offset tau; False if it fills up first."""
        log_tau = math.log(abs(tau))
        log_tol = math.log(DEFAULT_TOL)
        while True:
            k = self.k
            if k and self.b < 1e-14:
                self._probe()
                return True  # invariant subspace: exact at every offset
            if k == DEFAULT_KRYLOV_DIM or (k >= 3 and self.log_pred + k * log_tau < log_tol):
                if self._probe().certifies(tau, self.b, DEFAULT_TOL):
                    return True
                if k == DEFAULT_KRYLOV_DIM:
                    return False
            self._extend()

    def emit(self, tau) -> np.ndarray:
        """scale * V[:k]^T exp(-i tau T) e_1 at the last probed size k."""
        c = self.scale * self.ritz.e1(tau)
        out = self.rows[0] * c[0]
        for r, ci in zip(self.rows[1:c.size], c[1:]):
            out = zaxpy(r, out, a=ci)
        return out

    def advance(self, v, dt) -> np.ndarray:
        """exp(-i dt H) v for dt != 0; NumericsError past MAX_HALVINGS."""
        if v is not self.emitted:
            self.start(v)
        floor = abs(dt) * 2.0 ** -MAX_HALVINGS
        target = self.at + dt
        while not self.grow(target):
            sign = math.copysign(1.0, target)
            h = self._substep(abs(target), max(0.0, sign * self.at), floor)
            if h is None:
                # nothing certified past the emitted state: rebuild there
                self.start(v)
                target = dt
            else:
                at = self.at - sign * h
                self.start(self.emit(sign * h))
                self.at = at
                target -= sign * h
        self.at = target
        return self.emit(target)

    def _substep(self, remaining, done, floor):
        """Largest step past ``done`` that the full basis certifies (Expokit).

        None if the search falls to ``done``; NumericsError below ``floor``.
        """
        ritz, b, k, tol = self.ritz, self.b, self.k, DEFAULT_TOL
        h = remaining
        if ritz.spread > 0.0:
            h = min(h, 2.0 * k / ritz.spread)
        while h > done:
            if h < floor or h == 0.0:
                raise NumericsError(f"Krylov propagation did not converge at subspace size {k}")
            res = abs(b * h * ritz.last(h))
            if res < tol:
                return h
            h *= min(0.9, 0.9 * (tol / res) ** (1.0 / k))
        return None


def _finish(basis: FockBasis, raw: np.ndarray) -> StateVector:
    """The normalized state of raw, a fresh result of ``_Krylov.advance``."""
    nrm = float(np.linalg.norm(raw))
    if not abs(nrm - 1.0) <= 1e-8:  # a NaN norm fails too
        raise NumericsError(f"propagated state norm drifted to {nrm:.3e}")
    return StateVector._adopt(basis, np.divide(raw, nrm, out=raw))


def evolve_static(H: SparseOperator, psi: StateVector, dt_ns: float, _krylov=None) -> StateVector:
    """Apply ``exp(-i H dt)`` to a state via adaptive Lanczos.

    H must carry the hermitian tag and live on the state's basis. Bases hold
    at most ``DEFAULT_KRYLOV_DIM`` vectors. The returned state has unit norm;
    a pre-normalization drift above 1e-8 raises NumericsError rather than
    being silently absorbed, and so does a step that would need sub-steps
    shorter than dt / 2**MAX_HALVINGS; a non-finite dt raises ValueError.
    ``_krylov`` is ``run_protocol``'s basis of H for the current segment:
    given the state it returned last, the call resumes that basis.
    """
    if not math.isfinite(dt_ns):
        raise ValueError(f"time step must be finite, got {dt_ns}")
    if not H.hermitian:
        raise ValueError("evolve_static requires a Hermitian operator")
    if H.basis != psi.basis:
        raise ValueError("operator and state live on different bases")
    if dt_ns == 0.0:
        return psi.copy()
    krylov = _krylov or _Krylov(H.matvec)
    out = _finish(psi.basis, krylov.advance(psi.amplitudes, float(dt_ns)))
    krylov.emitted = out.amplitudes
    return out


# Fourth-order commutator-free coefficients (two Gauss nodes per substep).
_SQRT3 = math.sqrt(3.0)
_CF4_LO = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_HI = (3.0 + 2.0 * _SQRT3) / 12.0


def evolve_driven(
    H_static: SparseOperator,
    drive: DriveSpec,
    psi: StateVector,
    t0_ns: float,
    t1_ns: float,
    dt_sub_ns: float,
) -> StateVector:
    """Evolve under ``H_static + cos(nu t) sum_j eps_j n_j`` from t0 to t1.

    t is the caller's time axis: the drive phase vanishes at t = 0, so a
    caller that wants the phase to restart passes times relative to that
    restart. The interval is split into substeps no longer than dt_sub_ns.
    The integrator is fourth-order commutator-free: each substep applies two
    exponentials of ``H_static + gamma d`` for time h/2, with gamma mixing
    the cosine sampled at the two Gauss nodes of the substep and d the
    drive's weight ``sum_j eps_j n_j`` of each basis state. One basis object
    serves every exponential of the call: its matvec reads the current
    ``gamma d``. Non-finite times raise ValueError, and more than
    ``MAX_SUBSTEPS`` substeps raise ResourceLimitError, before any step.
    """
    if not H_static.hermitian:
        raise ValueError("static part must be Hermitian")
    if H_static.basis != psi.basis:
        raise ValueError("operator and state live on different bases")
    if len(drive) != psi.basis.L:
        raise ValueError(f"drive needs {psi.basis.L} sites, got {len(drive)}")
    if not (math.isfinite(t0_ns) and math.isfinite(t1_ns)):
        raise ValueError(f"drive interval must be finite, got [{t0_ns}, {t1_ns}]")
    if t1_ns < t0_ns:
        raise ValueError("t1 must not precede t0")
    if not 0 < dt_sub_ns < math.inf:
        raise ValueError(f"substep size must be positive and finite, got {dt_sub_ns}")
    span = float(t1_ns - t0_ns)
    if span == 0.0:
        return psi.copy()
    nsub = max(1, math.ceil(span / dt_sub_ns - 1e-12))
    if nsub > MAX_SUBSTEPS:
        raise ResourceLimitError(f"{span:g} ns takes {nsub} substeps of {dt_sub_ns:g} ns, "
                                 f"above the cap of {MAX_SUBSTEPS}")
    d = psi.basis.states @ np.asarray(drive.eps)
    nu = drive.nu
    h = span / nsub
    gd = np.empty_like(d)
    krylov = _Krylov(lambda v: H_static.matvec(v) + gd * v)
    raw = psi.amplitudes
    for k in range(nsub):
        t_k = t0_ns + k * h
        c1 = math.cos(nu * (t_k + (0.5 - _SQRT3 / 6.0) * h))
        c2 = math.cos(nu * (t_k + (0.5 + _SQRT3 / 6.0) * h))
        for g in (2.0 * (_CF4_HI * c1 + _CF4_LO * c2),
                  2.0 * (_CF4_LO * c1 + _CF4_HI * c2)):
            np.multiply(g, d, out=gd)
            raw = krylov.advance(raw, 0.5 * h)
    return _finish(psi.basis, raw)


@dataclass(frozen=True)
class Segment:
    """One leg of a protocol: a duration plus the Hamiltonian that rules it.

    ``sign`` (+1 or -1) multiplies the hopping and the transverse term
    together; the anharmonicity never flips sign. On a two-level basis the
    on-site term U/2 n(n-1) vanishes, so the same segment gives the hopping
    model there. A drive, if any, adds ``cos(nu t) sum_j eps_j n_j`` with t
    measured from the segment's start. A zero drive or field is stored as
    None, so ``drive is not None`` tells whether the segment is driven.
    """

    duration_ns: float
    coupling: CouplingProfile
    anharmonicity: AnharmonicityProfile
    transverse: TransverseProfile | None = None
    sign: int = 1
    drive: DriveSpec | None = None

    def __post_init__(self):
        if not 0 <= self.duration_ns < math.inf:  # NaN fails too
            raise ValueError(f"segment duration must be finite and non-negative: {self.duration_ns}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.drive is not None and not self.drive.is_active():
            object.__setattr__(self, "drive", None)
        if self.transverse is not None and self.transverse.is_zero():
            object.__setattr__(self, "transverse", None)

    def static_hamiltonian(self, basis: FockBasis) -> SparseOperator:
        """Hopping, anharmonicity and transverse terms assembled in one pass."""
        diag = _anharmonicity_diagonal(basis, self.anharmonicity)
        pairs = _hopping_pairs(basis, self.coupling)
        if self.transverse is not None:
            pairs += _transverse_pairs(basis, self.transverse)
        for _, _, amp in pairs:
            amp *= self.sign
        return _assemble(basis, diag, pairs)

    def drive_operator(self, basis: FockBasis) -> SparseOperator | None:
        """``sum_j eps_j n_j`` or None; kept only as a span target of bench/tracer.py."""
        if self.drive is None:
            return None
        return build_number_weighted(basis, self.drive.eps)


def reverse_of(segment: Segment, drive_override: DriveSpec | None = None) -> Segment:
    """Segment that undoes the given one in a time-reversal protocol.

    Without an override the sign is negated, flipping the hopping and the
    transverse term, and the anharmonicity is left untouched. With a drive
    override (the driven reversal recipe) the sign stays put and only the
    drive is replaced, since the amplitude change is what flips the
    period-averaged coupling.
    """
    if drive_override is not None:
        return replace(segment, drive=drive_override)
    return replace(segment, sign=-segment.sign)


@dataclass(frozen=True)
class Protocol:
    """Ordered evolution segments plus a sample step.

    Samples fall at every multiple of ``sample_dt_ns`` (None: none) and at
    every segment boundary; stroboscopic sampling is a step of one drive
    period. ``run_protocol`` yields one state per entry of
    ``sample_times()``. A schedule of more than ``MAX_SAMPLES`` samples
    raises ResourceLimitError before any sample time is made.
    """

    segments: tuple
    sample_dt_ns: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.sample_dt_ns is not None and not self.sample_dt_ns > 0:
            raise ValueError("sampling step must be positive")

    @property
    def total_ns(self) -> float:
        return float(sum(seg.duration_ns for seg in self.segments))

    def boundaries_ns(self) -> list:
        out = [0.0]
        for seg in self.segments:
            out.append(out[-1] + seg.duration_ns)
        return out

    def sample_times(self) -> np.ndarray:
        total = self.total_ns
        marks = list(self.boundaries_ns())
        step = self.sample_dt_ns
        if step is not None and total > 0:
            count = (total + 1e-9) // step + 1
            if count > MAX_SAMPLES:
                raise ResourceLimitError(
                    f"sampling every {step:g} ns over {total:g} ns takes {count:.0f} "
                    f"samples, above the cap of {MAX_SAMPLES}"
                )
            k = 0
            t = 0.0
            while t <= total + 1e-9:
                marks.append(min(t, total))
                k += 1
                t = k * step
        marks.sort()
        out = [marks[0]]
        for t in marks[1:]:
            if t - out[-1] > 1e-9:
                out.append(t)
        return np.asarray(out)


def default_substep_ns(drive: DriveSpec) -> float:
    """Integration substep of every driven segment in run_protocol: T/64."""
    return drive.period_ns / SUBSTEPS_PER_PERIOD


def run_protocol(protocol: Protocol, psi0: StateVector) -> Iterator[tuple[float, StateVector]]:
    """Evolve through all segments, yielding ``(t, state)`` at every sample.

    The pairs follow ``protocol.sample_times()``; the first is ``(0.0, copy
    of psi0)``. Every yielded state is a new object that later steps leave
    unchanged, so callers may keep any of them; they must not edit one in
    place, since an undriven segment's basis continues from the state it
    emitted, not from the yielded object. A schedule above
    ``MAX_SAMPLES`` samples, or driven segments that need more than
    ``MAX_SUBSTEPS`` CF4 substeps, raise ResourceLimitError when the first
    pair is requested, before any propagation.
    """
    basis = psi0.basis
    times = protocol.sample_times()
    substeps = sum(math.ceil(seg.duration_ns / default_substep_ns(seg.drive))
                   for seg in protocol.segments if seg.drive is not None)
    if substeps > MAX_SUBSTEPS:
        raise ResourceLimitError(
            f"the driven segments take {substeps} substeps of T/{SUBSTEPS_PER_PERIOD}, "
            f"above the cap of {MAX_SUBSTEPS}"
        )
    psi = psi0.copy()
    yield float(times[0]), psi
    cursor = 0.0
    next_sample = 1
    for seg in protocol.segments:
        seg_start = cursor
        seg_end = cursor + seg.duration_ns
        cursor = seg_end
        if seg.duration_ns == 0:
            continue  # its boundary coincides with a sample already taken
        H = seg.static_hamiltonian(basis)
        # an undriven segment's samples share one growing basis
        krylov = _Krylov(H.matvec) if seg.drive is None else None
        t_prev = seg_start
        while next_sample < times.size and times[next_sample] <= seg_end + 1e-9:
            t_next = min(float(times[next_sample]), seg_end)
            if seg.drive is None:
                psi = evolve_static(H, psi, t_next - t_prev, _krylov=krylov)
            else:
                # segment-relative times: each segment restarts its drive phase
                psi = evolve_driven(H, seg.drive, psi, t_prev - seg_start,
                                    t_next - seg_start, default_substep_ns(seg.drive))
            yield t_next, psi
            t_prev = t_next
            next_sample += 1
        # free the basis and H before the next segment is assembled, so a
        # reversal never holds both directions' Hamiltonians
        krylov = H = None
