import ast
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from quenchsim import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    NumericsError,
    Protocol,
    ResourceLimitError,
    Segment,
    SparseOperator,
    StateVector,
    TransverseProfile,
    build_basis,
    build_hopping,
    build_number_weighted,
    build_onsite_anharmonicity,
    default_substep_ns,
    effective_coupling,
    evolve_driven,
    evolve_static,
    fidelity,
    level_population,
    omega_from_mhz,
    parse_product_state,
    reverse_of,
    run_protocol,
    total_number,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def random_hermitian(basis, seed, scale=1.0):
    """A dense complex Hermitian matrix over the basis."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    return (A + A.conj().T) * (scale / 2)


def planar(H):
    """``out += H x`` on ``(2, dim)`` planes for a dense complex H, as _Krylov applies it."""
    def matvec(x, out):
        y = H @ (x[0] + 1j * x[1])
        out[0] += y.real
        out[1] += y.imag

    return matvec


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    return StateVector(basis, rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))


def dense_propagate(H_dense, psi, t):
    w, P = np.linalg.eigh(H_dense)
    return dense_propagate_eig(w, P, psi, t)


def dense_propagate_eig(w, P, psi, t):
    return (P * np.exp(-1j * t * w)) @ (P.conj().T @ psi)


class TestEvolveStatic:
    def test_zero_time_is_identity(self):
        basis = build_basis(2, 2)
        H = build_hopping(basis, CouplingProfile.from_mhz([10.0]))
        psi = parse_product_state("01", basis)
        out = evolve_static(H, psi, 0.0)
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_raises(self, dt):
        basis = build_basis(2, 2)
        H = build_hopping(basis, CouplingProfile.from_mhz([10.0]))
        with pytest.raises(ValueError, match="finite"):
            evolve_static(H, parse_product_state("01", basis), dt)

    def test_nan_norm_is_drift(self):
        from quenchsim.propagator import _finish

        with pytest.raises(NumericsError, match="drifted"):
            _finish(build_basis(2, 2), np.full(4, np.nan, dtype=np.complex128))

    def test_two_site_rabi_oscillation(self):
        basis = build_basis(2, 2, sector=1)
        J = omega_from_mhz(10.0)
        H = build_hopping(basis, CouplingProfile((J,)))
        psi0 = parse_product_state("10", basis)
        for t in (1.0, 7.3, 25.0, 62.5):
            psi = evolve_static(H, psi0, t)
            assert level_population(psi, 0, 1) == pytest.approx(math.cos(J * t) ** 2, abs=1e-10)
            assert level_population(psi, 1, 1) == pytest.approx(math.sin(J * t) ** 2, abs=1e-10)

    def test_matches_dense_oracle_random(self):
        # a complex Hermitian H is no SparseOperator; the core takes its planar product
        from quenchsim.propagator import _Krylov, _finish

        basis = build_basis(3, 3)
        H = random_hermitian(basis, seed=11, scale=0.5)
        psi = random_state(basis, 12)
        for t in (0.7, 13.0, 111.0):
            mine = _finish(basis, _Krylov(planar(H)).advance(psi.amplitudes, t))
            ref = dense_propagate(H, psi.amplitudes, t)
            assert np.linalg.norm(mine.amplitudes - ref) < 1e-8

    def test_matches_dense_oracle_model(self):
        basis = build_basis(4, 3, sector=3)
        H = build_hopping(basis, CouplingProfile.from_mhz([16.0] * 3)) + \
            build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0] * 4))
        psi = parse_product_state("1110", basis)
        mine = evolve_static(H, psi, 200.0)
        ref = dense_propagate(H.dense(), psi.amplitudes, 200.0)
        assert np.linalg.norm(mine.amplitudes - ref) < 1e-8

    def test_long_single_jump_matches_dense_oracle(self):
        # a single call spanning many spectral periods must split internally;
        # the residual estimate alone once accepted a diverged result here
        basis = build_basis(10, 3, sector=2)
        H = build_hopping(basis, CouplingProfile.from_mhz([4.0] * 9)) + \
            build_onsite_anharmonicity(
                basis, AnharmonicityProfile.from_mhz([240.0] * 10))
        psi = parse_product_state("0001001000", basis)
        for t in (250.0, 1000.0):
            mine = evolve_static(H, psi, t)
            ref = dense_propagate(H.dense(), psi.amplitudes, t)
            assert np.linalg.norm(mine.amplitudes - ref) < 1e-8

    def test_negative_time_inverts(self):
        basis = build_basis(3, 2)
        H = build_hopping(basis, CouplingProfile.from_mhz([10.0, 12.0]))
        psi = parse_product_state("+10", basis)
        back = evolve_static(H, evolve_static(H, psi, 17.0), -17.0)
        assert fidelity(psi, back) == pytest.approx(1.0, abs=1e-10)

    def test_non_hermitian_rejected(self):
        basis = build_basis(2, 2)
        op = SparseOperator(basis, np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError):
            evolve_static(op, parse_product_state("01", basis), 1.0)

    def test_near_symmetric_matrix_refused_before_any_step(self, monkeypatch):
        # a 27-state matrix 1e-6 from symmetric, declared Hermitian by its
        # caller, was once evolved with no error; the flag is now measured
        def no_matvec(self, *args):
            raise AssertionError("propagation started")

        basis = build_basis(3, 3)
        m = (build_hopping(basis, CouplingProfile.from_mhz([10.0, 12.0])) +
             build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0] * 3))).dense()
        m[0, 1] += 1e-6
        op = SparseOperator(basis, m)
        assert not op.hermitian
        monkeypatch.setattr(SparseOperator, "matvec", no_matvec)
        psi = parse_product_state("+10", basis)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_static(op, psi, 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_driven(op, DriveSpec.staggered_odd(3, 213.6, 120.0), psi, 0.0, 10.0, 1.0)

    def test_basis_mismatch_rejected(self):
        H = build_hopping(build_basis(2, 2), CouplingProfile.from_mhz([10.0]))
        psi = parse_product_state("011", build_basis(3, 2))
        with pytest.raises(ValueError):
            evolve_static(H, psi, 1.0)

    def test_nonconvergence_raises(self, monkeypatch):
        from quenchsim import propagator

        basis = build_basis(3, 3)
        H = random_hermitian(basis, seed=5, scale=50.0)
        psi = random_state(basis, 6)
        monkeypatch.setattr(propagator, "DEFAULT_KRYLOV_DIM", 3)
        monkeypatch.setattr(propagator, "MAX_HALVINGS", 0)
        with pytest.raises(NumericsError):
            propagator._Krylov(planar(H)).advance(psi.amplitudes, 100.0)

    @staticmethod
    def _substep_case():
        # full basis, dim 81: with 10-vector bases a 20 ns step needs many sub-steps
        basis = build_basis(4, 3)
        H = build_hopping(basis, CouplingProfile.from_mhz([16.0] * 3)) + \
            build_onsite_anharmonicity(
                basis, AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0, 268.0]))
        return H, parse_product_state("+1+0", basis)

    def test_substeps_match_dense_oracle(self, monkeypatch):
        from quenchsim import propagator

        H, psi = self._substep_case()
        monkeypatch.setattr(propagator, "DEFAULT_KRYLOV_DIM", 10)
        for t in (20.0, -20.0):
            mine = propagator._Krylov(H.matvec).advance(psi.amplitudes, t)
            ref = dense_propagate(H.dense(), psi.amplitudes, t)
            assert np.linalg.norm(mine - ref) < 1e-9

    def test_substeps_reuse_each_basis(self, monkeypatch):
        from quenchsim import propagator

        H, psi = self._substep_case()
        count = 0

        def matvec(x, out):
            nonlocal count
            count += 1
            return H.matvec(x, out)

        monkeypatch.setattr(propagator, "DEFAULT_KRYLOV_DIM", 10)
        propagator._Krylov(matvec).advance(psi.amplitudes, 20.0)
        # The recursive-halving core discarded every basis that could not
        # certify its whole step and spent 630 matvecs on this call.
        assert count < 630

    def test_unitarity_raw_engine(self):
        # chain raw Krylov steps without renormalizing between them
        from quenchsim.propagator import _Krylov

        basis = build_basis(3, 3, sector=2)
        H = build_hopping(basis, CouplingProfile.from_mhz([16.0, 16.0])) + \
            build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0] * 3))
        v = parse_product_state("110", basis).amplitudes
        for _ in range(100):
            v = _Krylov(H.matvec).advance(v, 10.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-8

    @staticmethod
    def _k3_chain(L, N):
        # K=3 chain at J=16, U=240 MHz on the particle-number sector N
        basis = build_basis(L, 3, sector=N)
        H = build_hopping(basis, CouplingProfile.from_mhz([16.0] * (L - 1))) + \
            build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0] * L))
        return basis, H

    # Long single steps on small bases: the 30-vector basis outgrows the
    # dimension the start vector reaches, Ritz values converge and the bare
    # three-term recurrence lets orthogonality go, yet f(A)b stays accurate.
    @pytest.mark.parametrize("L,N,state,t", [
        (10, 2, "0001001000", 50.0),
        (10, 2, "0001001000", 500.0),
        (6, 3, "010101", 300.0),
    ])
    def test_long_step_after_ritz_convergence(self, L, N, state, t):
        from quenchsim.propagator import _Krylov

        basis, H = self._k3_chain(L, N)
        psi = parse_product_state(state, basis).amplitudes
        raw = _Krylov(H.matvec).advance(psi, t)
        assert np.linalg.norm(raw - dense_propagate(H.dense(), psi, t)) < 1e-10
        assert abs(np.linalg.norm(raw) - 1.0) < 1e-13

    def test_orthogonality_lost_on_long_step(self):
        # the regime the test above covers: a full basis far from orthonormal
        from quenchsim.propagator import _Krylov

        basis, H = self._k3_chain(10, 2)
        krylov = _Krylov(H.matvec)
        krylov.start(parse_product_state("0001001000", basis).amplitudes)
        krylov.grow(500.0)
        k = krylov.k
        V = krylov.V[:k, 0] + 1j * krylov.V[:k, 1]
        assert k == 30
        assert np.abs(V.conj() @ V.T - np.eye(30)).max() > 0.1

    def test_short_step_probes_once(self, monkeypatch):
        from quenchsim import propagator

        basis, H = self._k3_chain(10, 5)
        psi = parse_product_state("0101010101", basis)
        counts = {"matvec": 0, "ritz": 0}

        class CountedRitz(propagator._Ritz):
            def __init__(self, *args):
                counts["ritz"] += 1
                super().__init__(*args)

        def matvec(x, out):
            counts["matvec"] += 1
            return H.matvec(x, out)

        monkeypatch.setattr(propagator, "_Ritz", CountedRitz)
        propagator._Krylov(matvec).advance(psi.amplitudes, 0.5)
        # probing at every size from 3 on took 9 diagonalizations of T
        # for the same 11 matvecs
        assert counts["ritz"] <= 2
        assert counts["matvec"] <= 11

    def test_previous_residual_dropped_before_matvec(self):
        # each step's residual is the next row, into which the matvec adds:
        # no earlier residual is held beside the basis across a matvec
        from quenchsim.propagator import _Krylov

        basis, H = self._k3_chain(10, 2)
        held = []

        def matvec(x, out):
            held.append([name for name, value in vars(krylov).items()
                         if isinstance(value, np.ndarray) and value.size >= basis.dim
                         and value is not krylov.V])
            assert np.shares_memory(out, krylov.V)
            return H.matvec(x, out)

        krylov = _Krylov(matvec)
        krylov.start(parse_product_state("0001001000", basis).amplitudes)
        for _ in range(4):
            krylov._extend()
        assert len(held) == 4
        assert all(not names for names in held)

    def test_rebuild_drops_previous_residual(self):
        # a full basis that is rebuilt does not hold its last residual, the
        # one transient past the last row, through the new basis's first
        # matvec (nor through any later one)
        from quenchsim.propagator import _Krylov

        basis, H = self._k3_chain(10, 2)
        held, transients = [], []

        def matvec(x, out):
            if krylov.k == 0:
                held.append([ref for ref in transients if ref() is not None])
            assert all(ref() is None for ref in transients)
            if not np.shares_memory(out, krylov.V):
                transients.append(weakref.ref(out))
            return H.matvec(x, out)

        krylov = _Krylov(matvec)
        krylov.advance(parse_product_state("0001001000", basis).amplitudes, 500.0)
        assert len(held) > 1  # rebuilt at least once
        assert transients  # each full basis made its last residual apart from the rows
        assert all(not alive for alive in held)


class TestLanczosCore:
    def test_ritz_matches_eigh_tridiagonal(self):
        from quenchsim.propagator import _Ritz

        rng = np.random.default_rng(11)
        for k in range(1, 31):
            alpha = rng.normal(scale=2.0, size=k)
            beta = rng.uniform(0.1, 2.0, size=k - 1)
            vals, vecs = scipy.linalg.eigh_tridiagonal(alpha, beta)
            ritz = _Ritz(alpha, beta)
            assert ritz.size == k
            for tau in (0.01, 0.5, 3.0, -2.0):
                ref = vecs @ (np.exp(-1j * tau * vals) * vecs[0])
                assert np.abs(ritz.e1(tau) - ref).max() < 1e-13, (k, tau)
                assert abs(ritz.last(tau) - ref[-1]) < 1e-13, (k, tau)

    def test_short_step_touches_few_rows(self):
        # The basis is one (DEFAULT_KRYLOV_DIM, n) array whose pages are
        # touched only as rows are written: a 0.05 ns step on the full
        # L=10, K=3 basis with a field (dim 59049, six rows) grew peak memory
        # by 5.3 MB, where all 30 rows would be 28 MB. The peak is the
        # process's own VmHWM, read as test_assembly_memory does.
        code = textwrap.dedent("""
            from quenchsim import (AnharmonicityProfile, CouplingProfile, Segment,
                                   TransverseProfile, build_basis, evolve_static,
                                   parse_product_state)
            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            L = 10
            seg = Segment(1.0, CouplingProfile.from_mhz([16.0] * (L - 1)),
                          AnharmonicityProfile.from_mhz([240.0] * L),
                          TransverseProfile.from_mhz([16.0] * L))
            basis = build_basis(L, 3)
            H = seg.static_hamiltonian(basis)
            psi = parse_product_state("0101010101", basis)
            before = peak_kb()
            evolve_static(H, psi, 0.05)
            after = peak_kb()
            print(basis.dim, (after - before) * 1024 / (16 * basis.dim))
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        dim, growth_vectors = out.stdout.split()
        assert int(dim) == 3**10
        assert float(growth_vectors) <= 12.0

    @pytest.mark.parametrize("sector", [None, range(0, 11)], ids=["full-field", "range"])
    def test_extend_allocates_no_state_vector(self, sector):
        # A Krylov row is the product added into the next row: one _extend
        # holds at most one plane (n float64) of temporaries at a time and
        # never a complex n-vector. The allocating matvec made about five
        # n-vectors per call, and the residual was a sixth.
        from quenchsim.propagator import _Krylov

        L = 10
        field = TransverseProfile.from_mhz([16.0] * L) if sector is None else None
        seg = Segment(1.0, CouplingProfile.from_mhz([16.0] * (L - 1)),
                      AnharmonicityProfile.from_mhz([240.0] * L), field)
        basis = build_basis(L, 3, sector=sector)
        H = seg.static_hamiltonian(basis)
        krylov = _Krylov(H.matvec)
        krylov.start(parse_product_state("0101010101", basis).amplitudes)
        krylov._extend()  # the first out-form call makes the operator's block scratch
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            krylov._extend()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert basis.dim in (3**10, 34001)
        assert peak <= 8 * basis.dim + 65536

    def test_imports_nothing_from_scipy_linalg(self):
        # The recurrence, emit and probes run on numpy's BLAS, the library
        # that _finish and every observable use. With scipy's OpenBLAS in
        # the Lanczos loop and both thread pools at their default size on
        # two cores, seed-0 reversal-full took 3.6-4.0 s and
        # compare-transverse 8.9-9.7 s, against 1.2-2.1 s and 3.2-3.5 s on
        # numpy alone (three alternating pairs each).
        with open(os.path.join(SRC, "quenchsim", "propagator.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        assert not [name for name in imported if name.startswith("scipy.linalg")]


class TestEvolveDriven:
    def _setup(self, L=3, K=3):
        basis = build_basis(L, K)
        Hs = build_hopping(basis, CouplingProfile.from_mhz([10.8] * (L - 1))) + \
            build_onsite_anharmonicity(
                basis, AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0][:L]))
        drive = DriveSpec.staggered_odd(L, 213.6, 120.0)
        psi = parse_product_state("110"[:L], basis)
        return basis, Hs, drive, psi

    def test_zero_amplitude_matches_static(self):
        basis, Hs, _, psi = self._setup()
        drive = DriveSpec.from_mhz([0.0, 0.0, 0.0], 120.0)
        out = evolve_driven(Hs, drive, psi, 0.0, 40.0, 0.2)
        ref = evolve_static(Hs, psi, 40.0)
        assert np.linalg.norm(out.amplitudes - ref.amplitudes) < 1e-9

    def test_matches_dense_scheme_oracle(self):
        # same substep grid, every exponential via dense eigendecomposition
        basis, Hs, drive, psi = self._setup()
        T = drive.period_ns
        h = T / 64
        out = evolve_driven(Hs, drive, psi, 0.0, 5 * T, h)
        sq3 = math.sqrt(3.0)
        x1, x2 = (3 - 2 * sq3) / 12, (3 + 2 * sq3) / 12
        Hd = Hs.dense()
        d = np.real(build_number_weighted(basis, drive.eps).dense().diagonal())
        v = psi.amplitudes.copy()
        nsub = 5 * 64
        for k in range(nsub):
            ta = k * h
            c1 = math.cos(drive.nu * (ta + (0.5 - sq3 / 6) * h))
            c2 = math.cos(drive.nu * (ta + (0.5 + sq3 / 6) * h))
            for g in (2 * (x2 * c1 + x1 * c2), 2 * (x1 * c1 + x2 * c2)):
                v = dense_propagate(Hd + np.diag(g * d), v, h / 2)
        assert np.linalg.norm(out.amplitudes - v) < 1e-8

    def test_self_convergence_at_default_substep(self):
        _, Hs, drive, psi = self._setup()
        T = drive.period_ns
        h = default_substep_ns(drive)
        assert h == pytest.approx(T / 64)
        a = evolve_driven(Hs, drive, psi, 0.0, 10 * T, h)
        b = evolve_driven(Hs, drive, psi, 0.0, 10 * T, h / 2)
        assert np.linalg.norm(a.amplitudes - b.amplitudes) <= 1e-6

    def test_effective_coupling_high_frequency_limit(self):
        # at nu >> J the stroboscopic dynamics is the J0-renormalized chain
        L = 4
        basis = build_basis(L, 2, sector=2)
        cp = CouplingProfile.from_mhz([10.8] * (L - 1))
        drive = DriveSpec.staggered_odd(L, 1.78 * 480.0, 480.0)
        Hs = build_hopping(basis, cp)
        psi0 = parse_product_state("0101", basis)
        T = drive.period_ns
        jeff = effective_coupling(10.8, 1.78 * 480.0, 480.0)
        Heff = build_hopping(basis, CouplingProfile.from_mhz([jeff] * (L - 1)))
        psi = psi0
        for m in range(1, 11):
            psi = evolve_driven(Hs, drive, psi, (m - 1) * T, m * T, T / 64)
            ref = evolve_static(Heff, psi0, m * T)
            assert fidelity(ref, psi) >= 0.99

    def test_argument_errors(self):
        basis, Hs, drive, psi = self._setup()
        with pytest.raises(ValueError):
            evolve_driven(Hs, drive, psi, 0.0, 10.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            evolve_driven(Hs, drive, psi, 0.0, 10.0, math.inf)  # one substep for any span
        with pytest.raises(ValueError):
            evolve_driven(Hs, drive, psi, 10.0, 0.0, 1.0)
        skew = SparseOperator(basis, np.triu(np.ones((basis.dim, basis.dim))))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_driven(skew, drive, psi, 0.0, 10.0, 1.0)
        other = parse_product_state("110", build_basis(3, 2))
        with pytest.raises(ValueError, match="different bases"):
            evolve_driven(Hs, drive, other, 0.0, 10.0, 1.0)

    def test_drive_site_count_must_match_basis(self):
        _, Hs, _, psi = self._setup()
        with pytest.raises(ValueError, match="needs 3 sites, got 4"):
            evolve_driven(Hs, DriveSpec.staggered_odd(4, 213.6, 120.0), psi, 0.0, 10.0, 1.0)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)])
    def test_non_finite_times_raise(self, t0, t1):
        _, Hs, drive, psi = self._setup()
        with pytest.raises(ValueError, match="finite"):
            evolve_driven(Hs, drive, psi, t0, t1, 1.0)

    def test_substep_cap_raises_before_any_step(self, monkeypatch):
        # 1e9 ns at 1e-3 ns is 1e12 substeps: refused before the first matvec
        def no_matvec(self, v):
            raise AssertionError("propagation started")

        monkeypatch.setattr(SparseOperator, "matvec", no_matvec)
        _, Hs, drive, psi = self._setup()
        with pytest.raises(ResourceLimitError, match="substeps"):
            evolve_driven(Hs, drive, psi, 0.0, 1e9, 1e-3)

    def test_empty_interval_returns_copy(self):
        _, Hs, drive, psi = self._setup()
        out = evolve_driven(Hs, drive, psi, 3.0, 3.0, 1.0)
        assert out is not psi
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_one_basis_object_per_call(self, monkeypatch):
        # its 2 * nsub exponentials share one _Krylov and so one set of rows
        from quenchsim import propagator

        built = []
        init = propagator._Krylov.__init__

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(propagator._Krylov, "__init__", counted_init)
        _, Hs, drive, psi = self._setup()
        evolve_driven(Hs, drive, psi, 0.0, drive.period_ns, drive.period_ns / 8)
        assert len(built) == 1


class TestFloquetEffectiveModel:
    """Why test_13 of the acceptance suite fails: the effective model's error.

    That test compares the driven ten-site two-level chain (N=5, dim 252,
    J=10.8, eps=213.6, nu=120 MHz) with the static ``J*J0(eps/nu)`` chain
    and finds a worst stroboscopic fidelity of 0.679. Built densely from
    the same CF4 stages, the one-period propagator ``U_F`` gives the exact
    Floquet Hamiltonian ``H_F = i log(U_F) / T``: it reproduces the driven
    run, the J0 chain is its first Magnus term, and the second-order term
    (Eckardt & Anisimovas, NJP 17, 093039, 2015) accounts for most of the
    gap between them. So the integrator is right and the effective model is
    what misses the 0.99 budget.
    """

    L = 10

    @pytest.fixture(scope="class")
    def floquet(self):
        L = self.L
        basis = build_basis(L, 2, sector=5)
        cp = CouplingProfile.from_mhz([10.8] * (L - 1))
        drive = DriveSpec.staggered_odd(L, 213.6, 120.0)
        H0 = build_hopping(basis, cp).dense().real
        d = build_number_weighted(basis, drive.eps).diagonal().real
        T, nu = drive.period_ns, drive.nu
        h = T / 64
        sq3 = math.sqrt(3.0)
        x1, x2 = (3 - 2 * sq3) / 12, (3 + 2 * sq3) / 12
        U = np.eye(basis.dim, dtype=np.complex128)
        for k in range(64):
            c1 = math.cos(nu * (k + 0.5 - sq3 / 6) * h)
            c2 = math.cos(nu * (k + 0.5 + sq3 / 6) * h)
            for g in (2 * (x2 * c1 + x1 * c2), 2 * (x1 * c1 + x2 * c2)):
                w, P = np.linalg.eigh(H0 + np.diag(g * d))
                U = (P * np.exp(-0.5j * h * w)) @ (P.T @ U)
        # U_F is normal, so its complex Schur form is diagonal
        S, Z = scipy.linalg.schur(U, output="complex")
        phases = np.angle(np.diag(S))
        H_F = (Z * (-phases / T)) @ Z.conj().T
        jeff = effective_coupling(10.8, 213.6, 120.0)
        H_J0 = build_hopping(basis, CouplingProfile.from_mhz([jeff] * (L - 1))).dense().real
        # rotating frame of the drive: entry (a, b) of H0 picks up the phase
        # sin(nu t) / nu * (d_a - d_b); midpoints of M equal intervals
        M = 64
        gap = d[:, None] - d[None, :]
        H_rot = [H0 * np.exp(1j * math.sin(nu * t) / nu * gap)
                 for t in (np.arange(M) + 0.5) * T / M]
        return dict(basis=basis, cp=cp, drive=drive, T=T, phases=phases, H_F=H_F,
                    H_J0=H_J0, H_rot=H_rot)

    def test_quasienergy_phases_have_no_branch_ambiguity(self, floquet):
        assert np.abs(floquet["phases"]).max() < 1.16

    def test_floquet_hamiltonian_reproduces_driven_run(self, floquet):
        L, T = self.L, floquet["T"]
        basis = floquet["basis"]
        psi0 = parse_product_state("0101010101", basis)
        seg = Segment(10 * T, floquet["cp"], AnharmonicityProfile.from_mhz([0.0] * L),
                      drive=floquet["drive"])
        traj = list(run_protocol(Protocol((seg,), sample_dt_ns=T), psi0))
        assert len(traj) == 11
        w, P = np.linalg.eigh(floquet["H_F"])
        for t, psi in traj[1:]:
            ref = dense_propagate_eig(w, P, psi0.amplitudes, t)
            assert abs(np.vdot(ref, psi.amplitudes)) ** 2 >= 1 - 1e-10

    def test_period_average_is_j0_chain(self, floquet):
        avg = sum(floquet["H_rot"]) / len(floquet["H_rot"])
        assert np.linalg.norm(avg - floquet["H_J0"], 2) < 1e-14

    def test_second_order_magnus_term_closes_most_of_the_gap(self, floquet):
        H_F, H_J0, H_rot, T = floquet["H_F"], floquet["H_J0"], floquet["H_rot"], floquet["T"]
        gap = np.linalg.norm(H_F - H_J0, 2)
        assert 0.035 < gap < 0.045  # rad/ns, against ||H_J0|| = 0.144
        assert np.linalg.norm(H_J0, 2) == pytest.approx(0.1438, abs=1e-4)
        # -(i / 2T) int_0^T dt1 int_0^t1 dt2 [H(t1), H(t2)], as a sum over
        # the pairs of midpoints with t2 < t1
        acc = np.zeros_like(H_rot[0])
        earlier = np.zeros_like(acc)
        for Hq in H_rot:
            acc += Hq @ earlier - earlier @ Hq
            earlier += Hq
        H2 = -0.5j / T * (T / len(H_rot)) ** 2 * acc
        assert np.linalg.norm(H_F - H_J0 - H2, 2) < 0.012


def make_segment(duration, J_mhz, U_mhz, L, Omega_mhz=None, drive=None, **kw):
    return Segment(
        duration_ns=duration,
        coupling=CouplingProfile.from_mhz([J_mhz] * (L - 1)),
        anharmonicity=AnharmonicityProfile.from_mhz([U_mhz] * L),
        transverse=None if Omega_mhz is None else TransverseProfile.from_mhz([Omega_mhz] * L),
        drive=drive,
        **kw,
    )


class TestReverseOf:
    def test_sign_flip(self):
        seg = make_segment(100.0, 16.0, 240.0, 4, Omega_mhz=16.0)
        rev = reverse_of(seg)
        assert rev.sign == -1
        assert rev.duration_ns == seg.duration_ns

    def test_involution(self):
        seg = make_segment(50.0, 16.0, 240.0, 4)
        assert reverse_of(reverse_of(seg)) == seg

    def test_drive_override_keeps_signs(self):
        fwd = DriveSpec.staggered_odd(4, 213.6, 120.0)
        bwd = DriveSpec.staggered_odd(4, 400.0, 120.0)
        seg = make_segment(50.0, 10.8, 240.0, 4, drive=fwd)
        rev = reverse_of(seg, drive_override=bwd)
        assert rev.sign == 1 and rev.drive == bwd


class TestSegment:
    def test_zero_drive_and_field_stored_as_none(self):
        L = 4
        zero = DriveSpec.from_mhz([0.0] * L, 120.0)
        seg = make_segment(10.0, 16.0, 240.0, L, Omega_mhz=0.0, drive=zero)
        assert seg.drive is None and seg.transverse is None
        assert seg == make_segment(10.0, 16.0, 240.0, L)
        fwd = make_segment(10.0, 16.0, 240.0, L, drive=DriveSpec.staggered_odd(L, 213.6, 120.0))
        assert reverse_of(fwd, drive_override=zero).drive is None

    def test_zero_field_assembles_on_sector_basis(self):
        L = 4
        basis = build_basis(L, 3, sector=2)
        seg = make_segment(10.0, 16.0, 240.0, L, Omega_mhz=0.0)
        assert seg.transverse is None
        ref = make_segment(10.0, 16.0, 240.0, L).static_hamiltonian(basis)
        np.testing.assert_array_equal(seg.static_hamiltonian(basis).dense(), ref.dense())

    def test_zero_amplitude_drive_runs_undriven(self, monkeypatch):
        from quenchsim import propagator

        L = 4
        psi0 = parse_product_state("0101", build_basis(L, 3, sector=2))
        zero = DriveSpec.from_mhz([0.0] * L, 120.0)
        seg = make_segment(3 * zero.period_ns, 16.0, 240.0, L)
        driven = make_segment(seg.duration_ns, 16.0, 240.0, L, drive=zero)

        def run(s):
            proto = Protocol((s, reverse_of(s)), sample_dt_ns=zero.period_ns)
            return list(run_protocol(proto, psi0))

        undriven = run(seg)

        def no_driven(*args):
            raise AssertionError("evolve_driven called")

        monkeypatch.setattr(propagator, "evolve_driven", no_driven)
        assert driven.drive is None
        for (t, a), (u, b) in zip(run(driven), undriven, strict=True):
            assert t == u
            np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestProtocol:
    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_raises(self, duration):
        with pytest.raises(ValueError, match="finite"):
            make_segment(duration, 10.0, 0.0, 2)

    def test_argument_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_segment(-1.0, 10.0, 0.0, 2)
        with pytest.raises(ValueError, match="sign"):
            make_segment(1.0, 10.0, 0.0, 2, sign=0)
        with pytest.raises(ValueError, match="positive"):
            Protocol((), sample_dt_ns=0)

    def test_empty_protocol_single_sample(self):
        basis = build_basis(2, 2)
        psi0 = parse_product_state("01", basis)
        pairs = list(run_protocol(Protocol(()), psi0))
        assert len(pairs) == 1
        t, p = pairs[0]
        assert t == 0.0
        assert p is not psi0
        np.testing.assert_array_equal(p.amplitudes, psi0.amplitudes)

    def test_two_level_reversal_is_exact(self):
        L = 4
        basis = build_basis(L, 2)
        psi0 = parse_product_state("+01+", basis)
        seg = make_segment(80.0, 16.0, 240.0, L, Omega_mhz=9.0)
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=20.0)
        fids = [fidelity(psi0, p) for _, p in run_protocol(proto, psi0)]
        assert fids[-1] == pytest.approx(1.0, abs=1e-8)

    def test_single_particle_reversal_is_exact_with_interaction(self):
        L = 5
        basis = build_basis(L, 3, sector=1)
        psi0 = parse_product_state("00100", basis)
        seg = make_segment(120.0, 16.0, 240.0, L)
        proto = Protocol((seg, reverse_of(seg)))
        fids = [fidelity(psi0, p) for _, p in run_protocol(proto, psi0)]
        assert fids[-1] == pytest.approx(1.0, abs=1e-8)

    def test_loschmidt_equals_two_forward_overlap(self):
        L, K = 3, 3
        basis = build_basis(L, K, sector=2)
        cp = CouplingProfile.from_mhz([16.0] * (L - 1))
        up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0])
        psi0 = parse_product_state("110", basis)
        t = 93.0
        seg = Segment(t, cp, up)
        *_, (_, p) = run_protocol(Protocol((seg, reverse_of(seg))), psi0)
        echo = fidelity(psi0, p)
        H0 = build_hopping(basis, cp)
        HU = build_onsite_anharmonicity(basis, up)
        f = fidelity(evolve_static(H0 + HU, psi0, t), evolve_static(H0 + (-1.0) * HU, psi0, t))
        assert echo == pytest.approx(f, abs=1e-8)

    def test_boundaries_always_sampled(self):
        seg1 = make_segment(7.7, 10.0, 0.0, 2)
        seg2 = make_segment(5.0, 10.0, 0.0, 2)
        proto = Protocol((seg1, seg2), sample_dt_ns=3.0)
        times = proto.sample_times()
        for mark in (0.0, 7.7, 12.7):
            assert min(abs(times - mark)) < 1e-9

    def test_stroboscopic_schedule(self):
        drive = DriveSpec.staggered_odd(2, 213.6, 120.0)
        seg = make_segment(5 * drive.period_ns, 10.8, 0.0, 2, drive=drive)
        proto = Protocol((seg,), sample_dt_ns=drive.period_ns)
        times = proto.sample_times()
        np.testing.assert_allclose(times, drive.period_ns * np.arange(6), atol=1e-9)

    def test_one_unit_state_per_sample_time(self):
        basis = build_basis(2, 2)
        psi0 = parse_product_state("01", basis)
        seg = make_segment(10.0, 10.0, 0.0, 2)
        proto = Protocol((seg,), sample_dt_ns=5.0)
        pairs = list(run_protocol(proto, psi0))
        np.testing.assert_array_equal([t for t, _ in pairs], proto.sample_times())
        for _, st in pairs:
            assert abs(st.norm() - 1.0) < 1e-8

    def test_kept_states_stay_as_yielded(self):
        # every yielded state must stay as it was yielded while the run goes on
        L = 3
        basis = build_basis(L, 3)
        psi0 = parse_product_state("+10", basis)
        seg = make_segment(12.0, 16.0, 240.0, L, Omega_mhz=9.0)
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=1.5)
        kept, snapshots = [], []
        for t, state in run_protocol(proto, psi0):
            kept.append((t, state))
            snapshots.append(state.amplitudes.copy())
        assert len(kept) == proto.sample_times().size
        H_fwd = seg.static_hamiltonian(basis).dense()
        H_bwd = reverse_of(seg).static_hamiltonian(basis).dense()
        T = seg.duration_ns
        for (t, state), snap in zip(kept, snapshots):
            np.testing.assert_array_equal(state.amplitudes, snap)
            ref = dense_propagate(H_fwd, psi0.amplitudes, min(t, T))
            if t > T + 1e-9:
                ref = dense_propagate(H_bwd, ref, t - T)
            assert np.linalg.norm(state.amplitudes - ref) < 1e-10

    @pytest.mark.parametrize("driven", [False, True], ids=["undriven", "driven"])
    def test_segment_operators_freed_before_next_assembly(self, monkeypatch, driven):
        # a reversal must not hold the forward operators while it assembles
        # the backward ones
        L = 3
        drive = DriveSpec.staggered_odd(L, 213.6, 120.0) if driven else None
        seg = make_segment(2.0 if drive is None else 2 * drive.period_ns, 16.0, 240.0, L,
                           drive=drive)
        psi0 = parse_product_state("+10", build_basis(L, 3))
        refs, alive_at_assembly = [], []
        static, drive_operator = Segment.static_hamiltonian, Segment.drive_operator

        def tracked(build):
            def wrapper(self, basis):
                op = build(self, basis)
                if op is not None:
                    refs.append(weakref.ref(op))
                return op
            return wrapper

        def static_hamiltonian(self, basis):
            alive_at_assembly.append(sum(r() is not None for r in refs))
            return tracked(static)(self, basis)

        monkeypatch.setattr(Segment, "static_hamiltonian", static_hamiltonian)
        monkeypatch.setattr(Segment, "drive_operator", tracked(drive_operator))
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=seg.duration_ns / 2)
        assert len(list(run_protocol(proto, psi0))) == 5
        assert len(refs) == 2
        assert alive_at_assembly == [0, 0]

    def test_number_conservation_without_field(self):
        L = 4
        basis = build_basis(L, 3)
        psi0 = parse_product_state("0110", basis)
        seg = make_segment(300.0, 16.0, 240.0, L)
        N = total_number(basis)
        proto = Protocol((seg,), sample_dt_ns=50.0)
        vals = [N.expectation(p) for _, p in run_protocol(proto, psi0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-8

    def test_energy_conservation_static_segment(self):
        L = 4
        basis = build_basis(L, 3)
        seg = make_segment(300.0, 16.0, 240.0, L, Omega_mhz=12.0)
        H = seg.static_hamiltonian(basis)
        psi0 = parse_product_state("+11+", basis)
        proto = Protocol((seg,), sample_dt_ns=50.0)
        vals = [H.expectation(p) for _, p in run_protocol(proto, psi0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-8


def reference_sample_times(proto):
    """The schedule as a scalar loop: cumulative boundaries, then k * step
    for k = 0, 1, ... while within total + 1e-9, clipped to the total,
    sorted, and the first of every cluster within 1e-9 ns kept."""
    marks = [0.0]
    for seg in proto.segments:
        marks.append(marks[-1] + seg.duration_ns)
    total = marks[-1]
    step = proto.sample_dt_ns
    if step is not None and total > 0:
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


class TestSchedule:
    """``Protocol.sample_times`` and the per-sample caps of ``run_protocol``."""

    def test_matches_reference_loop(self):
        # zero-length and sub-nanosecond segments, no step, and steps of
        # drive periods and of T/64 multiples, as the presets use them
        rng = np.random.default_rng(7)
        periods = [DriveSpec.staggered_odd(2, 200.0, nu).period_ns for nu in (120.0, 1000.0, 37.0)]
        kinds = ("zero", "tiny", "periods", "substeps", "any")
        checked = 0
        for _ in range(3000):
            T = periods[rng.integers(len(periods))]
            durations = []
            for kind in rng.choice(kinds, size=rng.integers(0, 5)):
                durations.append({"zero": 0.0,
                                  "tiny": float(rng.choice([1e-10, 1e-9, 2e-9, 3e-9])
                                                * rng.uniform(0.5, 1.5)),
                                  "periods": T * int(rng.integers(1, 8)),
                                  "substeps": T / 64 * int(rng.integers(1, 200)),
                                  "any": float(rng.uniform(0.0, 40.0))}[kind])
            if rng.random() < 0.3 and durations:
                durations.append(durations[-1])  # a reversal leg of equal length
            step = rng.choice(["none", "period", "substep", "any"])
            step = {"none": None, "period": T * int(rng.integers(1, 3)),
                    "substep": T / 64 * int(rng.integers(1, 65)),
                    "any": float(rng.uniform(0.05, 10.0))}[step]
            proto = Protocol(tuple(make_segment(d, 10.0, 0.0, 2) for d in durations),
                             sample_dt_ns=step)
            ref = reference_sample_times(proto)
            got = proto.sample_times()
            assert got.dtype == ref.dtype and got.shape == ref.shape, (durations, step)
            assert got.tobytes() == ref.tobytes(), (durations, step)
            checked += ref.size
        assert checked > 20_000

    def test_cap_messages_print_readable_counts(self):
        # a count formatted with :.0f once printed all 301 digits of 2e300
        seg = make_segment(2.0, 10.0, 0.0, 2)
        with pytest.raises(ResourceLimitError, match=r"takes 2e\+300 samples") as err:
            Protocol((seg,), sample_dt_ns=1e-300).sample_times()
        assert len(str(err.value)) < 100

    def test_substep_cap_counts_each_sample_interval(self, monkeypatch):
        # a sample step of 1.01 substeps splits 14,000 ns into 887,129
        # intervals, each but the last of 2 substeps: 1,774,257 substeps in
        # all, where 14,000 ns at whole substeps alone would be 896,000
        from quenchsim import propagator

        drive = DriveSpec.staggered_odd(2, 200.0, 1000.0)
        h = default_substep_ns(drive)
        assert h == 1.0 / 64
        seg = make_segment(14_000.0, 10.0, 0.0, 2, drive=drive)
        proto = Protocol((seg,), sample_dt_ns=1.01 * h)
        pairs = run_protocol(proto, parse_product_state("01", build_basis(2, 2)))
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"1\.77e\+06 substeps"):
            next(pairs)
        assert time.perf_counter() - started < 1.0
        # the count is exact: a cap of 1,774,257 admits it, one fewer refuses it
        monkeypatch.setattr(propagator, "MAX_SUBSTEPS", 1_774_257)
        propagator._plan(proto, 2)
        monkeypatch.setattr(propagator, "MAX_SUBSTEPS", 1_774_256)
        with pytest.raises(ResourceLimitError, match="substeps"):
            propagator._plan(proto, 2)

    def test_substep_count_follows_evolve_driven(self, monkeypatch):
        # the cap admits exactly the substeps that evolve_driven runs
        from quenchsim import propagator

        drive = DriveSpec.staggered_odd(2, 200.0, 1000.0)
        seg = make_segment(0.3, 10.0, 0.0, 2, drive=drive)
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=1.01 * default_substep_ns(drive))
        psi0 = parse_product_state("01", build_basis(2, 2))
        ran = []
        substeps = propagator._substeps

        def counted(span, dt_sub_ns):
            n = substeps(span, dt_sub_ns)
            if np.ndim(n) == 0:  # an evolve_driven call, not the precheck
                ran.append(int(n))
            return n

        monkeypatch.setattr(propagator, "_substeps", counted)
        pairs = list(run_protocol(proto, psi0))
        intervals = len(pairs) - 1
        assert len(ran) == intervals and intervals < sum(ran) < 2 * intervals
        monkeypatch.setattr(propagator, "MAX_SUBSTEPS", sum(ran))
        next(run_protocol(proto, psi0))
        monkeypatch.setattr(propagator, "MAX_SUBSTEPS", sum(ran) - 1)
        with pytest.raises(ResourceLimitError, match=f"{sum(ran)} substeps"):
            next(run_protocol(proto, psi0))

    def test_evolution_cap_refuses_before_any_step(self, monkeypatch):
        # 1e12 ns takes two samples, but at ||H|| of order 1 rad/ns it would
        # run through about 1e12 rad of phase
        def no_matvec(self, *args):
            raise AssertionError("propagation started")

        monkeypatch.setattr(SparseOperator, "matvec", no_matvec)
        seg = make_segment(1e12, 8.0, 240.0, 4)
        pairs = run_protocol(Protocol((seg,), sample_dt_ns=1e12),
                             parse_product_state("0101", build_basis(4, 3, sector=2)))
        with pytest.raises(ResourceLimitError, match="rad"):
            next(pairs)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_norm_bound_holds(self, K):
        from quenchsim import propagator

        L = 3
        drive = DriveSpec.from_mhz([30.0, -50.0, 20.0], 500.0)
        seg = Segment(1.0, CouplingProfile.from_mhz([16.0, -9.0]),
                      AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0]),
                      TransverseProfile.from_mhz([7.0, -5.0, 3.0]), drive=drive)
        basis = build_basis(L, K)
        H = seg.static_hamiltonian(basis).dense()
        d = np.diag(basis.states @ np.asarray(drive.eps))
        worst = max(np.abs(np.linalg.eigvalsh(H + c * d)).max() for c in (-1.0, 0.0, 1.0))
        assert worst <= propagator._norm_bound(seg, K)


def dense_samples(proto, psi0):
    """The exact state at every sample time of an undriven protocol."""
    basis = psi0.basis
    times = proto.sample_times()
    out = [psi0.amplitudes]
    start = 0.0
    for seg in proto.segments:
        w, P = np.linalg.eigh(seg.static_hamiltonian(basis).dense())
        end = start + seg.duration_ns
        c = P.conj().T @ out[-1]
        out += [P @ (np.exp(-1j * (t - start) * w) * c)
                for t in times if start + 1e-9 < t <= end + 1e-9]
        start = end
    return out


class TestSignFlipReversalIdentity:
    """Full-size oracle for the undriven sign-flip reversal.

    With S = (-1)^(n_1 + n_3 + ...), the sign of one sublattice, every hop
    changes one odd site by one, so S H(J, U) S = H(-J, U) on any basis.
    Every stored H is real, so for a real psi0 the reversal's fidelity at
    t_f + s is |g(s)^T S psi(t_f)|^2, with g(s) = exp(-iHs) S psi0 and no
    complex conjugate. For a Fock state g = +-psi, so the forward leg alone
    gives every backward sample. This pins ``reverse_of``'s sign, the
    backward segment's assembly, the shared-basis resumption and the
    schedule at the dimensions the presets run.
    """

    @pytest.mark.parametrize("state,sector", [
        ("++++++++++", range(0, 11)),  # dim 34,001
        ("0001111000", None),  # full basis, dim 59,049: split half-chain storage
        ("++++++++++", None),
    ])
    def test_backward_samples_match_forward_identity(self, state, sector):
        from quenchsim.quenchlab import TABLE_S1_U_MHZ

        L, t_f, dt = 10, 10.0, 0.5
        basis = build_basis(L, 3, sector=sector)
        seg = Segment(t_f, CouplingProfile.from_mhz([16.0] * (L - 1)),
                      AnharmonicityProfile.from_mhz(TABLE_S1_U_MHZ))
        psi0 = parse_product_state(state, basis)
        S = (-1.0) ** basis.states[:, 1::2].sum(axis=1)
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=dt)
        pairs = list(run_protocol(proto, psi0))
        n = int(round(t_f / dt))
        assert len(pairs) == 2 * n + 1
        forward = [p.amplitudes for _, p in pairs[:n + 1]]
        if "+" in state:
            g = [p.amplitudes for _, p in run_protocol(
                Protocol((seg,), sample_dt_ns=dt), StateVector(basis, S * psi0.amplitudes))]
        else:
            g = forward  # S psi0 = +-psi0, and the sign drops out of |.|^2
        s_psi_tf = S * forward[n]
        worst = max(abs(fidelity(psi0, p) - abs(g[i] @ s_psi_tf) ** 2)
                    for i, (_, p) in enumerate(pairs[n + 1:], start=1))
        assert worst < 1e-12


class TestSampledSegment:
    """Undriven segments: one growing basis serves every sample."""

    def test_finish_keeps_the_fresh_array(self):
        from quenchsim.propagator import _finish

        basis = build_basis(2, 2)
        raw = np.array([1.0, 0, 0, 0], dtype=np.complex128)
        assert _finish(basis, raw).amplitudes is raw

    @staticmethod
    def _run(monkeypatch, proto, psi0):
        """Check every sample against dense propagation.

        Returns, per basis started, the samples emitted before it, and the
        number of matvecs.
        """
        from quenchsim import propagator

        drift, starts, matvecs = [], [], [0]
        finish, start = propagator._finish, propagator._Krylov.start
        matvec = SparseOperator.matvec

        def recording_finish(basis, raw):
            drift.append(abs(np.linalg.norm(raw) - 1.0))
            return finish(basis, raw)

        def recording_start(self, v):
            starts.append(len(drift))
            start(self, v)

        def counted_matvec(self, vec, out=None):
            matvecs[0] += 1
            return matvec(self, vec, out)

        monkeypatch.setattr(propagator, "_finish", recording_finish)
        monkeypatch.setattr(propagator._Krylov, "start", recording_start)
        monkeypatch.setattr(SparseOperator, "matvec", counted_matvec)
        pairs = list(run_protocol(proto, psi0))
        ref = dense_samples(proto, psi0)
        assert len(pairs) == len(ref) == proto.sample_times().size
        for (_, state), exact in zip(pairs, ref):
            assert np.linalg.norm(state.amplitudes - exact) < 1e-10
        assert max(drift) < 1e-13
        return starts, matvecs[0]

    def test_transverse_segment_refills_basis(self, monkeypatch):
        basis = build_basis(4, 3)  # the field breaks number conservation: 81 states
        seg = make_segment(60.0, 16.0, 240.0, 4, Omega_mhz=12.0)
        proto = Protocol((seg,), sample_dt_ns=0.5)
        starts, _ = self._run(monkeypatch, proto, parse_product_state("+1+0", basis))
        assert len(starts) >= 4  # full bases were rebuilt along the segment

    def test_range_basis_reversal_shares_basis(self, monkeypatch):
        L = 6
        basis = build_basis(L, 3, sector=range(0, L + 1))
        seg = make_segment(25.0, 16.0, 240.0, L)
        proto = Protocol((seg, reverse_of(seg)), sample_dt_ns=0.5)
        _, matvecs = self._run(monkeypatch, proto, parse_product_state("+1+0+1", basis))
        # a fresh basis per 0.5 ns interval took 1100 matvecs; one growing
        # basis per segment takes 276
        assert matvecs <= 400

    @pytest.mark.parametrize("driven", [False, True])
    def test_unsampled_short_leg_is_evolved(self, monkeypatch, driven):
        # the 9e-10 ns leg ends within 1e-9 ns of the sample at 0, so no
        # sample falls in it; skipping it, as a plan of sampled segments
        # did, put every later sample 5.7e-6 from the exact state
        from quenchsim import propagator

        basis = build_basis(2, 2)
        psi0 = parse_product_state("10", basis)
        drive = DriveSpec.staggered_odd(2, 213.6, 120.0) if driven else None
        short = make_segment(9e-10, 1e6, 0.0, 2, drive=drive)
        proto = Protocol((short, make_segment(10.0, 8.0, 0.0, 2)), sample_dt_ns=5.0)
        pairs = list(run_protocol(proto, psi0))
        assert [t for t, _ in pairs] == proto.sample_times().tolist() == [0.0, 5.0, 10.0]
        H = short.static_hamiltonian(basis).dense()
        if driven:  # cos(nu t) = 1 - 3e-19 over the leg
            H = H + np.diag(basis.states @ np.asarray(drive.eps))
        psi = scipy.linalg.expm(-1j * 9e-10 * H) @ psi0.amplitudes
        w, P = np.linalg.eigh(proto.segments[1].static_hamiltonian(basis).dense())
        for t, state in pairs[1:]:
            exact = dense_propagate_eig(w, P, psi, t - 9e-10)
            assert np.linalg.norm(state.amplitudes - exact) < 1e-12
        # the driven leg's one substep counts toward the cap
        monkeypatch.setattr(propagator, "MAX_SUBSTEPS", 0)
        if driven:
            with pytest.raises(ResourceLimitError, match="1 substeps"):
                next(run_protocol(proto, psi0))
        else:
            next(run_protocol(proto, psi0))

    # A full basis of this state certifies 28.5 ns from its start: at 20 ns
    # it is rebuilt from an Expokit sub-step between samples, and at 40 ns
    # the first interval takes two bases.
    @pytest.mark.parametrize("dt, first_interval_bases", [(20.0, 1), (40.0, 2)])
    def test_sample_interval_longer_than_basis(self, monkeypatch, dt, first_interval_bases):
        _, psi0 = TestEvolveStatic._substep_case()
        seg = Segment(100.0, CouplingProfile.from_mhz([16.0] * 3),
                      AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0, 268.0]))
        starts, _ = self._run(monkeypatch, Protocol((seg,), sample_dt_ns=dt), psi0)
        assert len(starts) >= 3
        assert starts.count(0) == first_interval_bases
