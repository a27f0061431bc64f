"""Time evolution of state vectors under static and driven Hamiltonians.

Every exponential ``exp(-i H dt) psi`` goes through ``_Krylov``, one Lanczos
core on numpy, whose basis is one array of float64 real and imaginary
planes that the operator adds its products into, with the bare three-term
recurrence (no reorthogonalization), a gated a-posteriori residual estimate
and Expokit-style step control, at ``DEFAULT_TOL``, ``DEFAULT_KRYLOV_DIM``
and ``MAX_HALVINGS``. The module calls no BLAS but numpy's, the library of
``_finish`` and the observables.
Sinusoidally driven Hamiltonians are integrated with fourth-order
commutator-free substeps (two Gauss nodes per substep) of
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

from .fockspace import FockBasis, ResourceLimitError, StateVector
from .operators import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    SparseOperator,
    TransverseProfile,
    _LEVELS,
    _hamiltonian,
    _site_sum,
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
MAX_PHASE_RAD = 1e8  # duration times 2 ||H||: every preset point is below 6e4


class NumericsError(RuntimeError):
    """Propagation failed to converge within the configured limits."""


class _Ritz:
    """Eigenpairs of the Lanczos tridiagonal T, evaluated at any step.

    One ``eigh`` call on T's lower triangle serves every trial step: the
    first column of exp(-i tau T) is ``vecs @ (exp(-i tau vals) * vecs[0])``.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray):
        self.vals, self.vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1), UPLO="L")
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
    (Sidje, ACM TOMS 24:130, 1998). T is diagonalized only where the
    residual's leading Taylor term, prod(beta_1..beta_k) |tau|**k / (k-1)!,
    is below ``DEFAULT_TOL`` (or the basis is full): about one probe per
    result, trusted where ``_Ritz.certifies`` holds.

    The rows live in one ``(DEFAULT_KRYLOV_DIM, 2, n)`` float64 array from
    ``np.empty``, each the real and the imaginary plane of one Lanczos
    vector, made at the first start and reused by every rebuild. For a
    Hermitian H, real symmetric as every ``SparseOperator`` is or complex
    and applied plane by plane, complex Lanczos is real Lanczos on the
    planes, with the same alpha and beta. ``matvec(x, out)`` adds H x into
    ``out``, both ``(2, n)`` planes (``SparseOperator.matvec``'s out form),
    so the next row is seeded with ``-beta V[k-1]`` and the product lands
    in it; taking off ``alpha V[k]`` leaves the residual there, with no
    other pass over the rows, and only the last row's residual is a transient.
    Pages are touched only as rows are written, so a basis that certifies
    at k rows holds k of them; on the full basis these rows, not operator
    assembly, set a run's peak memory. Every BLAS call goes through numpy,
    the library that ``_finish`` and the observables use too: with scipy's
    OpenBLAS in the recurrence and both thread pools unpinned on two cores,
    the two pools contended and seed-0 reversal-full took 3.6-4.0 s
    against 1.2-2.1 s on numpy alone.
    """

    def __init__(self, matvec):
        self.matvec = matvec
        self.V = None
        self.alpha = np.empty(DEFAULT_KRYLOV_DIM)
        self.beta = np.empty(DEFAULT_KRYLOV_DIM)
        self.emitted = None

    def start(self, v):
        """Begin a new basis at v, whose offset is 0."""
        self.scale = math.sqrt(np.vdot(v, v).real)
        if self.V is None:
            self.V = np.empty((DEFAULT_KRYLOV_DIM, 2, v.size))
        np.divide(v.real, self.scale, out=self.V[0, 0])
        np.divide(v.imag, self.scale, out=self.V[0, 1])
        self.k = 0
        self.at = 0.0  # offset of the emitted state
        self.ritz = None
        self.log_pred = 0.0  # log of prod(beta_1..beta_k) / (k-1)!

    def _extend(self):
        k = self.k
        V = self.V
        x = V[k]
        # the residual goes into the next row; past the last one it is a transient
        w = V[k + 1] if k + 1 < DEFAULT_KRYLOV_DIM else np.empty_like(x)
        if k:
            self.beta[k - 1] = self.b
            x *= 1.0 / self.b  # the last step's residual, in its row
            np.multiply(V[k - 1], -self.b, out=w)
        else:
            w.fill(0.0)
        self.matvec(x, w)
        # w = H x - b V[k-1]; taking off a x completes the three-term step,
        # which runs alone, with no reorthogonalization: for exp(-i h H) psi
        # the three-term recurrence stays accurate (Druskin, Greenbaum &
        # Knizhnerman 1998). Full 30-vector bases on dimensions 50 and 55 at
        # 50-500 ns, where Ritz values converge and |V^H V - I| reaches 0.4,
        # stay within 1.3e-11 of dense propagation with norm drift below
        # 3e-15 (tests/test_propagator.py). Each plane is updated on its
        # own, so no temporary is larger than one plane.
        wf = w.reshape(-1)
        a = x.reshape(-1) @ wf
        self.alpha[k] = a
        for xp, wp in zip(x, w):
            wp -= a * xp
        self.b = math.sqrt(wf @ wf)
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
        """scale * V[:k]^T exp(-i tau T) e_1 at the last probed size k.

        The real and imaginary parts are one real product of the planes
        with a (2k, 2) matrix, written straight into the complex result's
        (n, 2) float view, 4096 states at a time: at n = 34,001 and k = 30
        that took 0.76 ms, where one product over all n spills the cache
        (2.2 ms) and a complex ``zgemv`` over complex rows takes 0.83 ms.
        """
        c = self.scale * self.ritz.e1(tau)
        k = c.size
        # row (j, plane): c_j on the real plane, i c_j on the imaginary one,
        # as (real, imaginary) columns
        coef = (c[:, None] * np.array([1.0, 1j])).view(np.float64).reshape(2 * k, 2)
        rows = self.V[:k].reshape(2 * k, -1)
        out = np.empty(rows.shape[1], dtype=np.complex128)
        pairs = out.view(np.float64).reshape(-1, 2)
        for lo in range(0, out.size, 4096):
            np.matmul(rows[:, lo:lo + 4096].T, coef, out=pairs[lo:lo + 4096])
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
    nrm = math.sqrt(np.vdot(raw, raw).real)
    if not abs(nrm - 1.0) <= 1e-8:  # a NaN norm fails too
        raise NumericsError(f"propagated state norm drifted to {nrm:.3e}")
    flat = raw.view(np.float64)  # a real divisor: bit for bit the complex division
    np.divide(flat, nrm, out=flat)
    return StateVector._adopt(basis, raw)


def evolve_static(H: SparseOperator, psi: StateVector, dt_ns: float, _krylov=None) -> StateVector:
    """Apply ``exp(-i H dt)`` to a state via adaptive Lanczos.

    H must be Hermitian, as ``SparseOperator`` measures, and live on the
    state's basis, or ValueError is raised before any step. Bases hold at
    most ``DEFAULT_KRYLOV_DIM`` vectors. The returned state has unit norm;
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


def _substeps(span, dt_sub_ns):
    """CF4 substeps of at most dt_sub_ns over a span > 0, or over each of an array, as floats."""
    return np.maximum(1.0, np.ceil(np.divide(span, dt_sub_ns) - 1e-12))


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
    drive's weight ``sum_j eps_j n_j`` of each basis state, summed one site
    at a time by ``operators._site_sum``. One basis object
    serves every exponential of the call: its matvec reads the current
    ``gamma d`` and adds ``gamma d x`` into the row plane by plane, through
    one plane-sized buffer. A non-Hermitian H_static or non-finite times
    raise ValueError, and more than ``MAX_SUBSTEPS`` substeps raise
    ResourceLimitError, before any step.
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
    nsub = _substeps(span, dt_sub_ns)
    if nsub > MAX_SUBSTEPS:
        raise ResourceLimitError(f"{span:g} ns takes {nsub:.3g} substeps of {dt_sub_ns:g} ns, "
                                 f"above the cap of {MAX_SUBSTEPS}")
    d = _site_sum(psi.basis, drive.eps, _LEVELS)
    nu = drive.nu
    h = span / nsub
    gd = np.empty_like(d)
    scratch = np.empty_like(d)

    def matvec(x, out):
        H_static.matvec(x, out)
        for xp, yp in zip(x, out):
            yp += np.multiply(gd, xp, out=scratch)

    krylov = _Krylov(matvec)
    raw = psi.amplitudes
    for k in range(int(nsub)):
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
        """Hopping, anharmonicity and transverse terms, stored for the basis.

        A restricted basis gets one CSR; a full basis of two or more sites
        gets two half-chain blocks plus a CSR of the diagonal and the bond
        across the cut (``operators._hamiltonian``).
        """
        return _hamiltonian(basis, self.coupling, self.anharmonicity, self.transverse, self.sign)

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

    Samples fall at every multiple of ``sample_dt_ns`` (None: none) up to
    the total duration, and at every segment boundary; a sample within 1e-9
    ns of the one before it is dropped. Stroboscopic sampling is a step of
    one drive period. ``run_protocol`` yields one state per entry of
    ``sample_times()``. A schedule of more than ``MAX_SAMPLES`` samples
    raises ResourceLimitError before any sample time is made.
    """

    segments: tuple
    sample_dt_ns: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.sample_dt_ns is not None and not self.sample_dt_ns > 0:
            raise ValueError("sampling step must be positive")

    def sample_times(self) -> np.ndarray:
        marks = np.cumsum([0.0] + [seg.duration_ns for seg in self.segments])
        total = float(marks[-1])
        step = self.sample_dt_ns
        if step is not None and total > 0:
            count = (total + 1e-9) // step + 1
            if count > MAX_SAMPLES:
                raise ResourceLimitError(
                    f"sampling every {step:g} ns over {total:g} ns takes {count:.3g} "
                    f"samples, above the cap of {MAX_SAMPLES}"
                )
            grid = np.arange(count + 1)
            grid *= step
            grid = grid[grid <= total + 1e-9]
            marks = np.concatenate((marks, np.minimum(grid, total, out=grid)))
            del grid  # so that it and the gaps below are not held at once
        marks.sort()
        # a mark over 1e-9 ns past the one before it is kept, since the last
        # kept mark is no later; only within a run of closer marks can a
        # dropped one decide the next, so only there are marks walked
        keep = np.empty(marks.size, dtype=bool)
        keep[0] = True
        np.greater(np.diff(marks), 1e-9, out=keep[1:])
        last = marks[0]
        for i in np.flatnonzero(~keep).tolist():
            if keep[i - 1]:
                last = marks[i - 1]
            keep[i] = marks[i] - last > 1e-9
        return marks[keep]


def default_substep_ns(drive: DriveSpec) -> float:
    """Integration substep of every driven segment in run_protocol: T/64."""
    return drive.period_ns / SUBSTEPS_PER_PERIOD


def _norm_bound(seg: Segment, K: int) -> float:
    """An upper bound on ||H(t)|| of a segment on K levels per site, in rad/ns.

    ||a_j|| = sqrt(K-1) bounds each term: a bond's hopping by 2|J|(K-1),
    a site's anharmonicity by U/2 (K-1)(K-2), its transverse field by
    |Omega| sqrt(K-1) and its drive by |eps|(K-1).
    """
    n = K - 1
    bound = (sum(2.0 * abs(J) * n for J in seg.coupling.values)
             + sum(0.5 * U * n * (n - 1) for U in seg.anharmonicity.values))
    if seg.transverse is not None:
        bound += sum(abs(O) for O in seg.transverse.values) * math.sqrt(n)
    if seg.drive is not None:
        bound += sum(abs(e) for e in seg.drive.eps) * n
    return bound


def _plan(protocol: Protocol, K: int):
    """``(times, plan)`` of a protocol on K levels per site, made without a basis.

    ``times`` is ``protocol.sample_times()``. The plan holds ``(segment,
    start, times, sampled)`` per segment of nonzero duration: its samples up
    to 1e-9 ns past its end, clipped to it, or else its end alone, unsampled.
    Raises ResourceLimitError above ``MAX_SAMPLES`` samples, ``MAX_SUBSTEPS``
    CF4 substeps in all (per sample interval, as ``evolve_driven`` splits
    it) or ``MAX_PHASE_RAD``: duration times 2 ``_norm_bound``, summed.
    """
    times = protocol.sample_times()
    bounds = np.cumsum([0.0] + [seg.duration_ns for seg in protocol.segments])
    stops = np.searchsorted(times, bounds + 1e-9, side="right")
    plan = []
    for i, seg in enumerate(protocol.segments):
        ts = np.minimum(times[stops[i]:stops[i + 1]], bounds[i + 1])
        if seg.duration_ns > 0:
            plan.append((seg, bounds[i], ts if ts.size else bounds[i + 1:i + 2], ts.size > 0))
    substeps = sum(_substeps(np.diff(ts - start, prepend=0.0), default_substep_ns(seg.drive))
                   .sum() for seg, start, ts, _ in plan if seg.drive is not None)
    if substeps > MAX_SUBSTEPS:
        raise ResourceLimitError(
            f"the driven segments take {substeps:.3g} substeps of T/{SUBSTEPS_PER_PERIOD}, "
            f"above the cap of {MAX_SUBSTEPS}"
        )
    phase = sum(seg.duration_ns * 2.0 * _norm_bound(seg, K) for seg in protocol.segments)
    if phase > MAX_PHASE_RAD:
        raise ResourceLimitError(
            f"the segments evolve through up to {phase:.3g} rad (duration times 2||H||), "
            f"above the cap of {MAX_PHASE_RAD:g}"
        )
    return times, plan


def run_protocol(protocol: Protocol, psi0: StateVector) -> Iterator[tuple[float, StateVector]]:
    """Evolve through all segments, yielding ``(t, state)`` at every sample.

    The pairs follow ``protocol.sample_times()``, the first ``(0.0, copy of
    psi0)``; one ``evolve_*`` call reaches each time of ``_plan``, whose caps
    raise ResourceLimitError at the first pair, before any propagation.
    Callers may keep any yielded state but must not edit one in place: an
    undriven segment's basis resumes from the state it emitted.
    """
    basis = psi0.basis
    times, plan = _plan(protocol, basis.K)
    psi = psi0.copy()
    yield float(times[0]), psi
    for seg, start, ts, sampled in plan:
        H = seg.static_hamiltonian(basis)
        # an undriven segment's samples share one growing basis
        krylov = _Krylov(H.matvec) if seg.drive is None else None
        t_prev = start
        for t in ts.tolist():
            if seg.drive is None:
                psi = evolve_static(H, psi, t - t_prev, _krylov=krylov)
            else:
                # segment-relative times: each segment restarts its drive phase
                psi = evolve_driven(H, seg.drive, psi, t_prev - start, t - start,
                                    default_substep_ns(seg.drive))
            if sampled:
                yield t, psi
            t_prev = t
        # free the basis and H before the next segment is assembled, so a
        # reversal never holds both directions' Hamiltonians
        krylov = H = None
