import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.special

from quenchsim import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    Segment,
    SparseOperator,
    StateVector,
    TransverseProfile,
    bessel_j0,
    build_basis,
    build_hopping,
    build_number_weighted,
    build_onsite_anharmonicity,
    build_transverse,
    effective_coupling,
    mhz_from_omega,
    omega_from_mhz,
    total_number,
)

TWO_PI = 2 * math.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def ladder_dense(K):
    a = np.zeros((K, K))
    for n in range(K - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def kron_site_operator(L, K, site, op):
    """Independent dense construction via Kronecker products."""
    out = np.array([[1.0]])
    for j in range(L):
        out = np.kron(out, op if j == site else np.eye(K))
    return out


def dense_hamiltonian(L, K, J, U, Omega=None):
    """Dense reference Hamiltonian built only from kron ladders."""
    a = ladder_dense(K)
    H = np.zeros((K**L, K**L))
    for j in range(L - 1):
        adag_j = kron_site_operator(L, K, j, a.T)
        a_next = kron_site_operator(L, K, j + 1, a)
        hop = adag_j @ a_next
        H += J[j] * (hop + hop.T)
    for j in range(L):
        n_j = kron_site_operator(L, K, j, a.T @ a)
        H += -0.5 * U[j] * (n_j @ n_j - n_j)
        if Omega is not None:
            H += 0.5 * Omega[j] * kron_site_operator(L, K, j, a.T + a)
    return H


def random_state(basis, seed=0):
    rng = np.random.default_rng(seed)
    return StateVector(basis, rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))


class TestHopping:
    def test_single_particle_element(self):
        basis = build_basis(2, 2)
        J = omega_from_mhz(11.0)
        H = build_hopping(basis, CouplingProfile((J,))).dense()
        assert H[basis.index_of((1, 0)), basis.index_of((0, 1))] == pytest.approx(J)

    def test_bosonic_enhancement_sqrt2(self):
        basis = build_basis(2, 3)
        J = omega_from_mhz(7.0)
        H = build_hopping(basis, CouplingProfile((J,))).dense()
        got = H[basis.index_of((2, 0)), basis.index_of((1, 1))]
        assert got == pytest.approx(math.sqrt(2) * J, rel=1e-14)

    @pytest.mark.parametrize("L,K", [(2, 2), (2, 4), (3, 3)])
    def test_matches_kron_oracle(self, L, K):
        J = [omega_from_mhz(5.0 + j) for j in range(L - 1)]
        basis = build_basis(L, K)
        H = build_hopping(basis, CouplingProfile(tuple(J))).dense().real
        ref = dense_hamiltonian(L, K, J, [0.0] * L)
        np.testing.assert_allclose(H, ref, atol=1e-13)

    def test_exact_hermiticity(self):
        basis = build_basis(3, 3)
        op = build_hopping(basis, CouplingProfile.from_mhz([10.0, 12.0]))
        assert op.hermitian
        delta = op.matrix - op.matrix.getH()
        assert abs(delta).max() == 0.0

    def test_commutes_with_total_number(self):
        basis = build_basis(3, 3)
        H = build_hopping(basis, CouplingProfile.from_mhz([10.0, 12.0]))
        N = total_number(basis)
        v = random_state(basis, 3).amplitudes
        comm = H.matvec(N.matvec(v)) - N.matvec(H.matvec(v))
        assert np.linalg.norm(comm) < 1e-12

    def test_sector_block_equals_full_restriction(self):
        L, K, N = 4, 3, 3
        full = build_basis(L, K)
        sec = build_basis(L, K, sector=N)
        prof = CouplingProfile.from_mhz([9.0, 10.0, 11.0])
        H_full = build_hopping(full, prof).dense()
        H_sec = build_hopping(sec, prof).dense()
        rows = [full.index_of(sec.occupation_at(i)) for i in range(sec.dim)]
        np.testing.assert_allclose(H_sec, H_full[np.ix_(rows, rows)], atol=0)

    def test_no_wraparound_at_truncation(self):
        # top level must not hop up: column of (K-1, 1) has no (K, 0) image
        basis = build_basis(2, 2)
        H = build_hopping(basis, CouplingProfile.from_mhz([10.0])).dense()
        col = H[:, basis.index_of((1, 1))]
        assert np.all(col == 0)

    def test_profile_length_checked(self):
        with pytest.raises(ValueError):
            build_hopping(build_basis(3, 2), CouplingProfile((1.0,)))


class TestDiagonalTerms:
    def test_two_level_anharmonicity_vanishes(self):
        basis = build_basis(4, 2)
        op = build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0] * 4))
        assert op.nnz == 0 or abs(op.matrix).max() == 0

    def test_double_occupation_entry(self):
        basis = build_basis(3, 3)
        U = omega_from_mhz(240.0)
        op = build_onsite_anharmonicity(basis, AnharmonicityProfile((U,) * 3))
        idx = basis.index_of((2, 0, 0))
        assert op.diagonal()[idx] == pytest.approx(-U)

    def test_five_particles_on_one_site(self):
        basis = build_basis(2, 6)
        U = omega_from_mhz(240.0)
        op = build_onsite_anharmonicity(basis, AnharmonicityProfile((U, U)))
        idx = basis.index_of((5, 0))
        assert op.diagonal()[idx] == pytest.approx(-10.0 * U)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            AnharmonicityProfile((-1.0,))

    def test_number_weighted_zero(self):
        basis = build_basis(3, 2)
        op = build_number_weighted(basis, [0.0, 0.0, 0.0])
        assert abs(op.matrix).max() == 0

    def test_number_weighted_entry(self):
        basis = build_basis(2, 3)
        op = build_number_weighted(basis, [1.0, 0.0])
        assert op.diagonal()[basis.index_of((2, 1))] == pytest.approx(2.0)

    @pytest.mark.parametrize("L,K", [(2, 2), (2, 3), (3, 3)])
    def test_number_weighted_trace_counting(self, L, K):
        basis = build_basis(L, K)
        w = [1.5 + 0.25 * j for j in range(L)]
        op = build_number_weighted(basis, w)
        # every site averages over all K levels while the others multiply
        expected = sum(w) * K ** (L - 1) * sum(range(K))
        assert np.sum(op.diagonal()).real == pytest.approx(expected)
        brute = sum(
            float(np.dot(basis.occupation_at(i), w)) for i in range(basis.dim)
        )
        assert brute == pytest.approx(expected)

    def test_number_weighted_makes_no_state_sized_float_copy(self):
        # the weights of the full L=10, K=3 basis are summed one site at a
        # time: `states @ eps` copied the (dim, L) occupations to float64
        # and peaked at 4.96 MB, above that copy's dim * L * 8 bytes
        basis = build_basis(10, 3)
        eps = DriveSpec.staggered_odd(10, 213.6, 120.0).eps
        tracemalloc.start()
        try:
            op = build_number_weighted(basis, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.dim * basis.L * 8
        np.testing.assert_allclose(op.diagonal(), basis.states @ np.asarray(eps),
                                   rtol=0, atol=1e-15)


class TestTransverse:
    def test_single_site_two_levels(self):
        basis = build_basis(1, 2)
        Om = omega_from_mhz(16.0)
        T = build_transverse(basis, TransverseProfile((Om,))).dense().real
        np.testing.assert_allclose(T, [[0, Om / 2], [Om / 2, 0]], atol=1e-15)

    def test_ladder_element_three_levels(self):
        basis = build_basis(1, 3)
        Om = omega_from_mhz(16.0)
        T = build_transverse(basis, TransverseProfile((Om,))).dense()
        got = T[basis.index_of((2,)), basis.index_of((1,))]
        assert got == pytest.approx(Om * math.sqrt(2) / 2)

    def test_matches_kron_oracle(self):
        L, K = 3, 3
        basis = build_basis(L, K)
        Om = [omega_from_mhz(4.0 + j) for j in range(L)]
        T = build_transverse(basis, TransverseProfile(tuple(Om))).dense().real
        ref = dense_hamiltonian(L, K, [0.0] * (L - 1), [0.0] * L, Omega=Om)
        np.testing.assert_allclose(T, ref, atol=1e-13)

    def test_breaks_number_conservation(self):
        basis = build_basis(2, 2)
        T = build_transverse(basis, TransverseProfile.from_mhz([16.0, 16.0]))
        N = total_number(basis)
        comm = T.dense() @ N.dense() - N.dense() @ T.dense()
        assert np.abs(comm).max() > 0.01

    def test_sector_basis_rejected(self):
        basis = build_basis(3, 2, sector=1)
        with pytest.raises(ValueError):
            build_transverse(basis, TransverseProfile.from_mhz([16.0] * 3))


class TestBesselAndEffectiveCoupling:
    def test_against_reference_grid(self):
        xs = np.linspace(0.0, 40.0, 173)
        for x in xs:
            assert abs(bessel_j0(x) - scipy.special.j0(x)) < 1e-11

    def test_even_function(self):
        for x in (0.3, 2.7, 11.4):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_zero_amplitude(self):
        assert effective_coupling(10.8, 0.0, 120.0) == 10.8

    def test_forward_amplitude_anchor(self):
        assert effective_coupling(10.8, 213.6, 120.0) == pytest.approx(3.8, abs=0.05)

    def test_backward_amplitude_anchor(self):
        assert effective_coupling(10.8, 400.0, 120.0) == pytest.approx(-3.8, abs=0.05)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            effective_coupling(10.8, 213.6, 0.0)


class TestUnitsAndDrive:
    def test_round_trip(self):
        assert mhz_from_omega(omega_from_mhz(16.0)) == pytest.approx(16.0, rel=1e-15)

    def test_convention(self):
        # a quoted value/2pi of 1 MHz means one cycle per microsecond
        assert omega_from_mhz(1.0) * 1000.0 == pytest.approx(TWO_PI)

    def test_staggered_odd_pattern(self):
        drive = DriveSpec.staggered_odd(10, 213.6, 120.0)
        eps = [mhz_from_omega(e) for e in drive.eps]
        assert eps[1::2] == [0.0] * 5
        np.testing.assert_allclose(eps[0::2], [213.6, -213.6, 213.6, -213.6, 213.6])
        # every bond sees the same magnitude of modulation difference
        diffs = [abs(eps[j] - eps[j + 1]) for j in range(9)]
        np.testing.assert_allclose(diffs, [213.6] * 9)

    def test_period(self):
        drive = DriveSpec.staggered_odd(4, 213.6, 120.0)
        assert drive.period_ns == pytest.approx(1e3 / 120.0)

    def test_active_drive_needs_frequency(self):
        with pytest.raises(ValueError):
            DriveSpec((omega_from_mhz(100.0),), 0.0)

    @pytest.mark.parametrize("cls", [CouplingProfile, AnharmonicityProfile, TransverseProfile])
    def test_profiles_are_distinct_frozen_types(self, cls):
        p = cls.from_mhz([16.0, 8.0])
        assert type(p) is cls and len(p) == 2
        assert p.values == (omega_from_mhz(16.0), omega_from_mhz(8.0))
        assert repr(p) == f"{cls.__name__}(values={p.values!r})"
        assert p == cls(p.values) and hash(p) == hash(cls(p.values))
        others = {CouplingProfile, AnharmonicityProfile, TransverseProfile} - {cls}
        assert all(p != other(p.values) for other in others)
        with pytest.raises(AttributeError):
            p.values = ()


class TestSparseOperatorAlgebra:
    def test_add_preserves_hermitian(self):
        basis = build_basis(2, 3)
        A = build_hopping(basis, CouplingProfile.from_mhz([10.0]))
        B = build_onsite_anharmonicity(basis, AnharmonicityProfile.from_mhz([240.0, 240.0]))
        C = A + B
        assert C.hermitian
        np.testing.assert_allclose(C.dense(), A.dense() + B.dense())

    def test_real_scaling_preserves_hermitian(self):
        basis = build_basis(2, 2)
        A = build_hopping(basis, CouplingProfile.from_mhz([10.0]))
        assert (-1.0 * A).hermitian
        assert (-1.0 * A).matrix.dtype == np.float64
        assert not (1j * A).hermitian
        assert (1j * A).matrix.dtype == np.complex128

    def test_mismatched_bases_rejected(self):
        A = build_hopping(build_basis(2, 2), CouplingProfile.from_mhz([10.0]))
        B = build_hopping(build_basis(2, 3), CouplingProfile.from_mhz([10.0]))
        with pytest.raises(ValueError):
            A + B

    def test_expectation_real_for_hermitian(self):
        basis = build_basis(2, 3)
        A = build_hopping(basis, CouplingProfile.from_mhz([10.0]))
        val = A.expectation(random_state(basis, 7))
        assert isinstance(val, float)


def loop_terms(basis, J, U, Omega):
    """Dense hopping, anharmonicity and transverse terms, one state at a time."""
    hop, anh, trans = (np.zeros((basis.dim, basis.dim)) for _ in range(3))
    for i in range(basis.dim):
        n = list(basis.occupation_at(i))
        anh[i, i] = sum(-0.5 * U[j] * n[j] * (n[j] - 1) for j in range(basis.L))
        for j in range(basis.L - 1):
            if n[j] < basis.K - 1 and n[j + 1] > 0:
                m = n.copy()
                m[j] += 1
                m[j + 1] -= 1
                k = basis.index_of(m)
                hop[k, i] = hop[i, k] = J[j] * math.sqrt((n[j] + 1) * n[j + 1])
        if basis.sector is None:
            for j in range(basis.L):
                if n[j] < basis.K - 1:
                    m = n.copy()
                    m[j] += 1
                    k = basis.index_of(m)
                    trans[k, i] = trans[i, k] = 0.5 * Omega[j] * math.sqrt(n[j] + 1)
    return hop, anh, trans


class TestOnePassAssembly:
    """Every term and a segment's whole Hamiltonian go through one assembler."""

    # one zero bond coupling and one zero transverse site
    cp = CouplingProfile.from_mhz([10.8, 0.0, 12.0])
    up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0, 268.0])
    tp = TransverseProfile.from_mhz([5.0, 0.0, 6.0, 7.0])
    SECTORS = {"full": None, "sector": 3, "range": range(2, 5)}

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(SECTORS))
    def test_segment_matches_operator_sum(self, kind, K, sign):
        basis = build_basis(4, K, sector=self.SECTORS[kind])
        tp = self.tp if kind == "full" else None
        H = Segment(1.0, self.cp, self.up, tp, sign=sign).static_hamiltonian(basis)
        ref = sign * build_hopping(basis, self.cp) + build_onsite_anharmonicity(basis, self.up)
        if tp is not None:
            ref = ref + sign * build_transverse(basis, tp)
        assert H.hermitian
        if kind == "full":  # stored as half-chain blocks plus the bond across the cut
            np.testing.assert_array_equal(H.dense(), ref.dense())
            assert all(np.all(m.data != 0) for m in (H.matrix, *H.blocks))
            return
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(H.matrix, name), getattr(ref.matrix, name))
        assert np.all(H.matrix.data != 0)

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(SECTORS))
    def test_each_term_matches_loop_oracle(self, kind, K):
        basis = build_basis(4, K, sector=self.SECTORS[kind])
        hop, anh, trans = loop_terms(basis, self.cp.values, self.up.values, self.tp.values)
        pairs = [(build_hopping(basis, self.cp), hop),
                 (build_onsite_anharmonicity(basis, self.up), anh)]
        if kind == "full":
            pairs.append((build_transverse(basis, self.tp), trans))
        for op, ref in pairs:
            assert op.hermitian
            assert np.all(op.matrix.data != 0)
            np.testing.assert_allclose(op.dense(), ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", sorted(SECTORS))
    def test_storage_is_float64(self, kind):
        basis = build_basis(4, 3, sector=self.SECTORS[kind])
        ops = [build_hopping(basis, self.cp), build_onsite_anharmonicity(basis, self.up),
               build_number_weighted(basis, [1.0, -2.0, 0.5, 3.0]), total_number(basis),
               Segment(1.0, self.cp, self.up).static_hamiltonian(basis)]
        if kind == "full":
            ops += [build_transverse(basis, self.tp),
                    Segment(1.0, self.cp, self.up, self.tp).static_hamiltonian(basis)]
        for op in ops:
            parts = (op.matrix, *(op.blocks or ()))
            assert all(m.dtype == np.float64 for m in parts)
            assert sum(m.data.nbytes for m in parts) == 8 * op.nnz

    @pytest.mark.parametrize("kind", sorted(SECTORS))
    def test_real_matvec_equals_complex_product(self, kind):
        basis = build_basis(4, 3, sector=self.SECTORS[kind])
        tp = self.tp if kind == "full" else None
        H = Segment(1.0, self.cp, self.up, tp, sign=-1).static_hamiltonian(basis)
        assert (H.blocks is not None) == (kind == "full")
        R = SparseOperator(basis, H.matrix, hermitian=True)  # the CSR part alone
        C = SparseOperator(basis, H.matrix.astype(np.complex128), hermitian=True)
        assert C.matrix.dtype == np.complex128  # complex entries keep complex storage
        v = random_state(basis, 5).amplitudes
        assert np.array_equal(R.matvec(v), C.matvec(v))
        assert np.array_equal(R.matvec(v), C.matrix @ v)
        assert R.expectation(v) == C.expectation(v)
        assert np.array_equal(H.matvec(v), H.matvec(v.real) + 1j * H.matvec(v.imag))

    def test_assembly_memory(self):
        # building the Hamiltonian of the full L=10, K=3 basis (dim 59049)
        # with a transverse field may grow peak memory by at most 12 MB;
        # one CSR of its 1,317,737 entries grew it by about 26.5 MB. The
        # peak is the process's own VmHWM: ru_maxrss of a child starts at its
        # parent's resident size, so under a large test process it would not
        # move.
        code = textwrap.dedent("""
            from quenchsim import (AnharmonicityProfile, CouplingProfile, Segment,
                                   TransverseProfile, build_basis)
            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            def segment(L):
                return Segment(1.0, CouplingProfile.from_mhz([16.0] * (L - 1)),
                               AnharmonicityProfile.from_mhz([240.0] * L),
                               TransverseProfile.from_mhz([16.0] * L))
            segment(4).static_hamiltonian(build_basis(4, 3))
            basis = build_basis(10, 3)
            before = peak_kb()
            H = segment(10).static_hamiltonian(basis)
            after = peak_kb()
            print(H.dim, (after - before) / 1024)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        dim, growth_mb = out.stdout.split()
        assert int(dim) == 3**10
        assert float(growth_mb) <= 12.0

    def test_anharmonicity_diagonal_memory(self):
        # summed one site at a time, the diagonal of the built L=10, K=3
        # basis grows peak memory by at most 1 MB: two (dim, L) float
        # copies of the states grew it by about 8.4 MB
        code = textwrap.dedent("""
            from quenchsim import AnharmonicityProfile, build_basis
            from quenchsim.operators import _anharmonicity_diagonal
            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            basis = build_basis(10, 3)
            before = peak_kb()
            diag = _anharmonicity_diagonal(basis, AnharmonicityProfile.from_mhz([240.0] * 10))
            after = peak_kb()
            print(diag.size, (after - before) / 1024)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        dim, growth_mb = out.stdout.split()
        assert int(dim) == 3**10
        assert float(growth_mb) <= 1.0


class TestPlanarMatvec:
    """``matvec(x, out)`` adds H x into (2, dim) float64 planes in place."""

    KINDS = ["full", "range", "sector"]

    @staticmethod
    def _case(L, kind, K=3):
        sector = {"full": None, "sector": L // 2, "range": range(1, L)}[kind]
        basis = build_basis(L, K, sector=sector)
        tp = TransverseProfile.from_mhz([5.0 + 0.5 * j for j in range(L)]) if kind == "full" \
            else None
        seg = Segment(1.0, CouplingProfile.from_mhz([10.8 + 0.3 * j for j in range(L - 1)]),
                      AnharmonicityProfile.from_mhz([212.0 + 4.0 * j for j in range(L)]),
                      tp, sign=-1)
        return basis, seg.static_hamiltonian(basis)

    @staticmethod
    def _planes(v):
        return np.stack([v.real, v.imag])

    @staticmethod
    def _reference(H, x):
        """``H @ x`` on each plane from scipy's own products, not from matvec:
        ``M @ x`` plus, on the full basis, ``A @ X + (B @ X.T).T``."""
        ref = np.stack([H.matrix @ xp for xp in x])
        if H.blocks is not None:
            A, B = H.blocks
            for xp, rp in zip(x, ref):
                X = xp.reshape(A.shape[0], B.shape[0])
                rp += (A @ X + (B @ X.T).T).ravel()
        return ref

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("L", range(2, 7))
    def test_zero_out_equals_new_array_form(self, L, kind):
        basis, H = self._case(L, kind)
        assert (H.blocks is not None) == (kind == "full")
        v = random_state(basis, L).amplitudes
        ref = self._reference(H, self._planes(v))
        out = np.zeros((2, basis.dim))
        assert H.matvec(self._planes(v), out) is out
        if H.blocks is None:
            assert np.array_equal(out, ref)
        else:
            # the blocks add their products into the planes in another order
            assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()
        new = H.matvec(v)
        assert new.dtype == np.complex128
        assert np.array_equal(self._planes(new), out)

    @pytest.mark.parametrize("kind", KINDS)
    def test_adds_onto_nonzero_out(self, kind):
        basis, H = self._case(5, kind)
        v = random_state(basis, 7).amplitudes
        start = self._planes(random_state(basis, 8).amplitudes)
        out = start.copy()
        H.matvec(self._planes(v), out)
        ref = self._reference(H, self._planes(v))
        np.testing.assert_allclose(out, start + ref, rtol=0, atol=1e-14)
        assert not np.allclose(out, ref, rtol=0, atol=1e-3)

    def test_complex_matrix_fallback(self):
        # A complex matrix takes a plain complex product. The real kernels,
        # which add into their output, must match that fallback on the same
        # entries: this pins scipy's csr_matvec/csr_matvecs accumulate
        # contract against an upgrade.
        basis = build_basis(4, 3, sector=2)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
        m[rng.random(m.shape) < 0.7] = 0.0
        C = SparseOperator(basis, m + m.conj().T, hermitian=True)
        v = random_state(basis, 4).amplitudes
        out = self._planes(random_state(basis, 5).amplitudes)
        expected = out + self._planes(C.matrix @ v)
        C.matvec(self._planes(v), out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)
        for kind in self.KINDS:
            _, H = self._case(4, kind)
            v = random_state(H.basis, 6).amplitudes
            start = self._planes(random_state(H.basis, 9).amplitudes)
            C = SparseOperator(H.basis, H.dense().astype(np.complex128), hermitian=True)
            real, fallback = start.copy(), start.copy()
            H.matvec(self._planes(v), real)
            C.matvec(self._planes(v), fallback)
            np.testing.assert_allclose(real, fallback, rtol=0, atol=1e-14)

    def test_complex_matrix_keeps_blocks(self):
        # a complex operator added to a split Hamiltonian carries its blocks,
        # and both forms must apply them after the complex product
        basis, H = self._case(4, "full")
        rng = np.random.default_rng(1)
        m = 1j * rng.normal(size=(basis.dim,) * 2)
        C = SparseOperator(basis, m + m.conj().T, hermitian=True) + H
        assert C.matrix.dtype == np.complex128 and C.blocks is not None
        v = random_state(basis, 2).amplitudes
        ref = (m + m.conj().T + H.dense()) @ v
        out = np.zeros((2, basis.dim))
        C.matvec(self._planes(v), out)
        np.testing.assert_allclose(out, self._planes(ref), rtol=0, atol=1e-12)
        np.testing.assert_allclose(C.matvec(v), ref, rtol=0, atol=1e-12)


class TestHalfChainBlocks:
    """A full-basis Hamiltonian is stored as H_A (x) 1 + 1 (x) H_B plus a CSR."""

    GRID = [(L, K) for L in range(2, 8) for K in (2, 3, 4) if K**L <= 3**7]

    @staticmethod
    def _segment(L, sign, field, cut_coupling):
        J = [10.8 + 0.3 * j for j in range(L - 1)]
        if not cut_coupling:
            J[L // 2 - 1] = 0.0
        tp = TransverseProfile.from_mhz([5.0 + 0.5 * j for j in range(L)]) if field else None
        return Segment(1.0, CouplingProfile.from_mhz(J),
                       AnharmonicityProfile.from_mhz([212.0 + 4.0 * j for j in range(L)]),
                       tp, sign=sign)

    @pytest.mark.parametrize("L,K", GRID)
    def test_dense_equals_operator_sum(self, L, K):
        basis = build_basis(L, K)
        v = random_state(basis, L * K).amplitudes
        for sign in (1, -1):
            for field in (True, False):
                for cut_coupling in (True, False):
                    seg = self._segment(L, sign, field, cut_coupling)
                    H = seg.static_hamiltonian(basis)
                    ref = sign * build_hopping(basis, seg.coupling) + \
                        build_onsite_anharmonicity(basis, seg.anharmonicity)
                    if field:
                        ref = ref + sign * build_transverse(basis, seg.transverse)
                    assert [b.shape[0] for b in H.blocks] == [K ** (L // 2), K ** (L - L // 2)]
                    assert not any(b.diagonal().any() for b in H.blocks)
                    np.testing.assert_array_equal(H.dense(), ref.dense())
                    np.testing.assert_array_equal(H.diagonal(), ref.diagonal())
                    assert H.nnz == sum(m.nnz for m in (H.matrix, *H.blocks)) <= ref.nnz
                    np.testing.assert_allclose(H.matvec(v), ref.matvec(v), rtol=0, atol=1e-12)
                    assert np.array_equal(H.matvec(v),
                                          H.matvec(v.real) + 1j * H.matvec(v.imag))

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_single_site_keeps_plain_csr(self, K):
        basis = build_basis(1, K)
        seg = Segment(1.0, CouplingProfile(()), AnharmonicityProfile.from_mhz([240.0]),
                      TransverseProfile.from_mhz([16.0]), sign=-1)
        H = seg.static_hamiltonian(basis)
        assert H.blocks is None
        ref = build_onsite_anharmonicity(basis, seg.anharmonicity) + \
            -1 * build_transverse(basis, seg.transverse)
        np.testing.assert_array_equal(H.dense(), ref.dense())

    def test_algebra_carries_blocks_or_raises(self):
        basis = build_basis(5, 3)
        H = self._segment(5, -1, True, True).static_hamiltonian(basis)
        N = total_number(basis)
        dense, n = H.dense(), N.dense()
        v = random_state(basis, 3).amplitudes
        for op, ref in [(H + N, dense + n), (N + H, n + dense), (H + H, 2 * dense),
                        (H - N, dense - n), (N - H, n - dense), (-H, -dense),
                        (2.5 * H, 2.5 * dense), (H * -0.5, -0.5 * dense)]:
            assert op.blocks is not None and op.hermitian
            np.testing.assert_array_equal(op.dense(), ref)
            np.testing.assert_allclose(op.matvec(v), ref @ v, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="real factor"):
            1j * H
        with pytest.raises(ValueError, match="half-chain blocks"):
            sector = build_basis(5, 3, sector=2)
            SparseOperator(sector, np.zeros((sector.dim, sector.dim)), True, H.blocks)


class TestLoneExtension:
    """scipy's CSR kernels, loaded from their extension file alone.

    ``operators`` reaches into scipy's file layout, so an upgrade that moves
    or changes the file fails here rather than in a run.
    """

    def test_file_beside_scipy_sparse(self):
        import sysconfig

        import scipy.sparse

        from quenchsim import operators

        path = os.path.join(os.path.dirname(scipy.sparse.__file__),
                            "_sparsetools" + sysconfig.get_config_var("EXT_SUFFIX"))
        assert os.path.isfile(path)
        assert operators._sparsetools.__file__ == path

    def test_missing_file_names_its_path(self, monkeypatch):
        import importlib.machinery

        from quenchsim import operators

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"sparse.+_sparsetools\.missing\.so"):
            operators._load_sparsetools()

    def test_scipy_sparse_imported_later_binds_its_extension(self):
        code = ("import quenchsim, scipy.sparse\n"
                "print(scipy.sparse._sparsetools.csr_matvec is "
                "quenchsim.operators._sparsetools.csr_matvec)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert out.stdout.split() == ["True"]

    def test_kernels_match_scipy_sparse(self):
        import scipy.sparse

        from quenchsim.operators import _sparsetools

        rng = np.random.default_rng(11)
        n = 400
        m = scipy.sparse.random(n, n, density=0.03, format="csr", random_state=rng)
        # shuffle each row's entries, so that there is something to sort
        order = np.concatenate([lo + rng.permutation(hi - lo)
                                for lo, hi in zip(m.indptr[:-1], m.indptr[1:])])
        indptr, indices, data = m.indptr.copy(), m.indices[order], m.data[order]
        assert not np.array_equal(indices, m.indices)
        ref =scipy.sparse.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(n, n))
        ref.has_sorted_indices = False
        ref.sort_indices()
        _sparsetools.csr_sort_indices(n, indptr, indices, data)
        assert indices.tobytes() == ref.indices.tobytes()
        assert data.tobytes() == ref.data.tobytes()
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            y = np.zeros(n, dtype=x.dtype)
            _sparsetools.csr_matvec(n, n, indptr, indices, data, x, y)
            assert y.tobytes() == (ref @ x).tobytes()
