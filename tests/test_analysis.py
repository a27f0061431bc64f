import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from quenchsim import (
    AnharmonicityProfile,
    CouplingProfile,
    ResourceLimitError,
    StateVector,
    anharmonicity_expectation,
    build_basis,
    build_hopping,
    build_onsite_anharmonicity,
    dominant_frequency,
    embed_state,
    fidelity,
    half_chain_entropy,
    level_population,
    omega_from_mhz,
    parse_product_state,
    pauli_expectation,
    sector_spectrum,
    site_populations,
)
from quenchsim import analysis
from quenchsim.analysis import MAX_DENSE_DIM

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PAGE_10 = (10 * math.log(2) - 1) / 2


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    return StateVector(basis, rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))


class TestFidelity:
    def test_self_is_one(self):
        psi = random_state(build_basis(3, 3), 1)
        assert fidelity(psi, psi) == 1.0

    def test_orthogonal_is_zero(self):
        basis = build_basis(2, 2)
        a = parse_product_state("01", basis)
        b = parse_product_state("10", basis)
        assert fidelity(a, b) == 0.0

    def test_symmetric_and_bounded(self):
        basis = build_basis(3, 2)
        for seed in range(4):
            a, b = random_state(basis, seed), random_state(basis, seed + 50)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(b, a), abs=1e-15)

    def test_global_phase_invariant(self):
        basis = build_basis(3, 2)
        a = random_state(basis, 9)
        b = StateVector(basis, np.exp(1.23j) * a.amplitudes, normalize=False)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_auto_embedding_two_level_restriction(self):
        small = build_basis(4, 2)
        big = build_basis(4, 3)
        a = parse_product_state("0+10", small)
        b = embed_state(a, big)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(b, a) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("small,big", [
        ((4, 2, None), (4, 3, None)),
        ((4, 2, 2), (4, 3, range(1, 4))),
        ((4, 3, 2), (4, 3, None)),
        ((4, 2, None), (4, 4, None)),
    ])
    def test_cross_basis_matches_embedding(self, small, big):
        a = random_state(build_basis(*small), 11)
        b = random_state(build_basis(*big), 12)
        expected = fidelity(embed_state(a, b.basis), b)
        assert 0.0 < expected < 1.0
        assert fidelity(a, b) == pytest.approx(expected, rel=1e-13)
        assert fidelity(b, a) == pytest.approx(expected, rel=1e-13)

    def test_cross_basis_weight_outside_sector_rejected(self):
        a = random_state(build_basis(4, 2), 11)  # weight on every N = 0..4
        b = random_state(build_basis(4, 3, sector=2), 12)
        with pytest.raises(ValueError, match="outside target sector"):
            embed_state(a, b.basis)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="outside target sector"):
                fidelity(*pair)

    def test_incompatible_bases_rejected(self):
        a = parse_product_state("01", build_basis(2, 2))
        b = parse_product_state("010", build_basis(3, 2))
        with pytest.raises(ValueError):
            fidelity(a, b)


class TestPopulations:
    def test_product_state_assignments(self):
        basis = build_basis(2, 2)
        psi = parse_product_state("01", basis)
        assert level_population(psi, 1, 1) == 1.0
        assert level_population(psi, 0, 1) == 0.0

    def test_neel_has_no_second_level(self):
        basis = build_basis(10, 3)
        psi = parse_product_state("0101010101", basis)
        p2_total = sum(level_population(psi, j, 2) for j in range(10))
        assert p2_total == 0.0

    def test_completeness_per_site(self):
        basis = build_basis(3, 3)
        psi = random_state(basis, 17)
        pops = site_populations(psi)
        np.testing.assert_allclose(pops.sum(axis=1), np.ones(3), atol=1e-12)
        assert np.all(pops >= 0)

    @pytest.mark.parametrize(
        "L,K,sector",
        [(6, 3, None), (6, 4, 5), (6, 3, range(2, 7)), (1, 3, None), (7, 2, None)],
        ids=["full", "sector", "range", "one-site", "two-level"],
    )
    def test_matches_per_site_bincount(self, L, K, sector):
        basis = build_basis(L, K, sector=sector)
        psi = random_state(basis, 5)
        weights = np.abs(psi.amplitudes) ** 2
        expected = [np.bincount(basis.states[:, j], weights=weights, minlength=K)
                    for j in range(L)]
        np.testing.assert_allclose(site_populations(psi), expected, rtol=0, atol=1e-14)

    def test_embedding_keeps_low_level_populations(self):
        small = build_basis(4, 2)
        big = build_basis(4, 4)
        psi = parse_product_state("0+1+", small)
        psi_big = embed_state(psi, big)
        for j in range(4):
            for level in (0, 1):
                assert level_population(psi, j, level) == pytest.approx(
                    level_population(psi_big, j, level), abs=1e-14
                )

    def test_out_of_range_arguments(self):
        psi = parse_product_state("01", build_basis(2, 2))
        with pytest.raises(ValueError):
            level_population(psi, 2, 0)
        with pytest.raises(ValueError):
            level_population(psi, 0, 2)


class TestPauli:
    def test_plus_state(self):
        basis = build_basis(2, 2)
        psi = parse_product_state("+0", basis)
        assert pauli_expectation(psi, 0, "x") == pytest.approx(1.0)
        assert pauli_expectation(psi, 0, "z") == pytest.approx(0.0)
        assert pauli_expectation(psi, 0, "y") == pytest.approx(0.0)

    def test_balanced_mixture_without_coherence(self):
        basis = build_basis(2, 2)
        amps = np.zeros(4, complex)
        amps[basis.index_of((0, 1))] = 1 / math.sqrt(2)
        amps[basis.index_of((1, 0))] = 1 / math.sqrt(2)
        psi = StateVector(basis, amps)
        assert pauli_expectation(psi, 0, "z") == pytest.approx(0.0)
        assert pauli_expectation(psi, 0, "x") == pytest.approx(0.0)

    def test_leakage_level_gives_zero(self):
        basis = build_basis(2, 3)
        psi = parse_product_state("20", basis)
        for axis in "xyz":
            assert pauli_expectation(psi, 0, axis) == 0.0

    def test_z_is_population_difference(self):
        basis = build_basis(2, 3)
        psi = random_state(basis, 23)
        for j in range(2):
            expected = level_population(psi, j, 0) - level_population(psi, j, 1)
            assert pauli_expectation(psi, j, "z") == pytest.approx(expected, abs=1e-12)

    def test_y_convention(self):
        basis = build_basis(1, 2)
        psi = StateVector(basis, [1 / math.sqrt(2), 1j / math.sqrt(2)])
        assert pauli_expectation(psi, 0, "y") == pytest.approx(1.0)

    def test_sector_basis_transverse_expectations_vanish(self):
        basis = build_basis(4, 2, sector=2)
        psi = random_state(basis, 3)
        assert pauli_expectation(psi, 1, "x") == 0.0
        assert pauli_expectation(psi, 1, "y") == 0.0

    def test_bad_axis(self):
        psi = parse_product_state("01", build_basis(2, 2))
        with pytest.raises(ValueError):
            pauli_expectation(psi, 0, "w")


class TestAnharmonicityExpectation:
    def test_hardcore_states_give_zero(self):
        basis = build_basis(4, 3)
        psi = parse_product_state("0+1+", basis)
        assert anharmonicity_expectation(psi) == pytest.approx(0.0, abs=1e-14)

    def test_double_occupation(self):
        basis = build_basis(3, 3)
        psi = parse_product_state("200", basis)
        assert anharmonicity_expectation(psi) == pytest.approx(2.0)

    def test_five_on_one_site(self):
        basis = build_basis(2, 6)
        psi = parse_product_state("50", basis)
        assert anharmonicity_expectation(psi) == pytest.approx(20.0)

    @pytest.mark.parametrize("sector", [None, 4, range(2, 6)])
    def test_cached_weights_match_per_state_formula(self, sector):
        from quenchsim.analysis import _anharmonicity_weights

        basis = build_basis(6, 4, sector=sector)
        n = basis.states.astype(np.float64)
        w_ref = (n * (n - 1.0)).sum(axis=1)
        w = _anharmonicity_weights(basis)
        assert w is _anharmonicity_weights(build_basis(6, 4, sector=sector))
        assert not w.flags.writeable
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-14)
        psi = random_state(basis, 11)
        ref = float(np.sum(w_ref * np.abs(psi.amplitudes) ** 2))
        assert anharmonicity_expectation(psi) == pytest.approx(ref, rel=0, abs=1e-14)


class TestEntropy:
    def test_product_state_zero(self):
        basis = build_basis(4, 2)
        psi = parse_product_state("0101", basis)
        assert half_chain_entropy(psi, 2) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair_ln2(self):
        basis = build_basis(2, 2)
        amps = np.zeros(4, complex)
        amps[basis.index_of((0, 1))] = 1 / math.sqrt(2)
        amps[basis.index_of((1, 0))] = 1 / math.sqrt(2)
        psi = StateVector(basis, amps)
        assert half_chain_entropy(psi, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_page_reference_value(self):
        assert PAGE_10 == pytest.approx(2.9657, abs=1e-4)

    def test_global_phase_invariance_and_bound(self):
        basis = build_basis(4, 3)
        psi = random_state(basis, 31)
        S = half_chain_entropy(psi, 2)
        rotated = StateVector(basis, np.exp(0.7j) * psi.amplitudes, normalize=False)
        assert half_chain_entropy(rotated, 2) == pytest.approx(S, abs=1e-12)
        assert 0.0 <= S <= 2 * math.log(3) + 1e-12

    def test_sector_basis_matches_full_basis(self):
        sec = build_basis(4, 3, sector=3)
        full = build_basis(4, 3)
        psi = random_state(sec, 41)
        S_sec = half_chain_entropy(psi, 2)
        S_full = half_chain_entropy(embed_state(psi, full), 2)
        assert S_sec == pytest.approx(S_full, abs=1e-12)

    def test_invalid_cut(self):
        psi = parse_product_state("0101", build_basis(4, 2))
        for cut in (0, 4):
            with pytest.raises(ValueError):
                half_chain_entropy(psi, cut)

    def test_resource_cap(self):
        basis = build_basis(10, 6, sector=5)
        psi = parse_product_state("0101010101", basis)
        with pytest.raises(ResourceLimitError):
            half_chain_entropy(psi, 5)


class TestSectorSpectrum:
    def test_two_site_closed_form(self):
        J = omega_from_mhz(8.0)
        U = omega_from_mhz(240.0)
        rep = sector_spectrum(
            2, 2, 3, CouplingProfile((J,)), AnharmonicityProfile((U, U))
        )
        disc = math.sqrt(U * U + 16 * J * J)
        expected = sorted([-U, (-U - disc) / 2, (-U + disc) / 2])
        np.testing.assert_allclose(rep.eigenvalues, expected, rtol=1e-10)

    def test_matches_full_space_block_diagonalization(self):
        L, N, K = 3, 3, 3
        cp = CouplingProfile.from_mhz([16.0, 12.0])
        up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0])
        rep = sector_spectrum(L, N, K, cp, up)
        full = build_basis(L, K)
        H = (build_hopping(full, cp) + build_onsite_anharmonicity(full, up)).dense()
        mask = full.states.sum(axis=1) == N
        block = H[np.ix_(mask, mask)]
        np.testing.assert_allclose(rep.eigenvalues, np.linalg.eigh(block)[0], atol=1e-10)

    def test_matches_complex_dense_eigh(self):
        # four bands (anharmonicity 0, 2, 4, 6) with generic couplings
        L, N, K = 6, 4, 4
        cp = CouplingProfile.from_mhz([16.0, 12.0, 19.0, 14.0, 11.0])
        up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0, 251.0, 238.0, 226.0])
        rep = sector_spectrum(L, N, K, cp, up)
        basis = build_basis(L, K, sector=N)
        H = build_hopping(basis, cp) + build_onsite_anharmonicity(basis, up)
        evals, evecs = np.linalg.eigh(H.dense())
        n = basis.states.astype(np.float64)
        w = (n * (n - 1.0)).sum(axis=1)
        a_vals = w @ (np.abs(evecs) ** 2)
        bands = np.unique(w)[np.argmin(np.abs(a_vals[:, None] - np.unique(w)), axis=1)]
        assert set(bands.tolist()) == {0, 2, 4, 6}
        np.testing.assert_allclose(rep.eigenvalues, evals, rtol=0, atol=1e-10)
        np.testing.assert_allclose(rep.anharmonicity, a_vals, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(rep.bands, bands)

    @pytest.mark.parametrize("L,N,level", [(4, 0, 0), (1, 2, 2)], ids=["empty", "one-site"])
    def test_single_state_sector(self, L, N, level):
        U = omega_from_mhz(240.0)
        rep = sector_spectrum(L, N, 3, CouplingProfile.from_mhz([8.0] * (L - 1)),
                              AnharmonicityProfile((U,) * L))
        assert rep.dim == 1
        np.testing.assert_allclose(rep.eigenvalues, [-U / 2 * level * (level - 1)], rtol=1e-14)
        np.testing.assert_array_equal(rep.anharmonicity, [level * (level - 1)])
        np.testing.assert_array_equal(rep.bands, [level * (level - 1)])
        assert not rep.ambiguous.any()

    def test_solve_holds_three_matrices(self):
        # the spectrum of the dim-2002 sector may grow peak memory by at
        # most 3.5 n x n doubles: the real matrix the eigenvectors
        # overwrite, and dsyevd's workspace of two. The peak is the
        # process's own VmHWM: ru_maxrss of a child starts at its parent's
        # resident size, so inside the full suite it did not move.
        code = textwrap.dedent("""
            from quenchsim import AnharmonicityProfile, CouplingProfile, sector_spectrum
            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            def spectrum(L, N, K):
                return sector_spectrum(L, N, K, CouplingProfile.from_mhz([8.0] * (L - 1)),
                                       AnharmonicityProfile.from_mhz([240.0] * L))
            spectrum(4, 2, 3)
            before = peak_kb()
            n = spectrum(10, 5, 6).dim
            after = peak_kb()
            print(n, (after - before) * 1024 / (8 * n * n))
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        n, growth = out.stdout.split()
        assert int(n) == 2002
        assert float(growth) <= 3.5

    @pytest.mark.parametrize("L,N,K,j_mhz,u_mhz", [
        (6, 3, 4, [8.0] * 5, [0.0] * 6),
        (8, 4, 3, [8.0] * 7, [240.0] * 8),
        (6, 4, 4, [16.0, 12.0, 19.0, 14.0, 11.0], [212.0, 264.0, 210.0, 251.0, 238.0, 226.0]),
    ], ids=["degenerate-uniform", "uniform", "generic"])
    def test_matches_scipy_eigh_bit_for_bit(self, L, N, K, j_mhz, u_mhz):
        # the solve is scipy.linalg.eigh's evd path without scipy.linalg
        import scipy.linalg

        cp, up = CouplingProfile.from_mhz(j_mhz), AnharmonicityProfile.from_mhz(u_mhz)
        rep = sector_spectrum(L, N, K, cp, up)
        basis = build_basis(L, K, sector=N)
        dense = (build_hopping(basis, cp) + build_onsite_anharmonicity(basis, up)).dense()
        evals, evecs = scipy.linalg.eigh(dense, driver="evd")
        n = basis.states.astype(np.float64)
        assert rep.eigenvalues.tobytes() == evals.tobytes()
        assert rep.anharmonicity.tobytes() == ((n * (n - 1.0)).sum(axis=1) @ evecs**2).tobytes()
        if not any(u_mhz):
            # free bosons on a uniform chain: sums of single-particle levels coincide
            assert np.sum(np.diff(evals) < 1e-9) > 0

    @pytest.mark.parametrize("j_mhz,u_mhz", [([math.nan] * 3, [240.0] * 4),
                                             ([8.0] * 3, [math.inf] * 4)],
                             ids=["nan-coupling", "inf-anharmonicity"])
    def test_non_finite_profile_refused(self, j_mhz, u_mhz):
        # the profiles take any float; config loading refuses these earlier
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            sector_spectrum(4, 2, 3, CouplingProfile.from_mhz(j_mhz),
                            AnharmonicityProfile.from_mhz(u_mhz))

    def test_workspace_at_the_dense_cap_fits_32_bit_lapack(self):
        # dsyevd's sizes are exact at the cap, so _check_dense implies a
        # legal workspace (LAPACK's own 32-bit sums wrap above n = 32,766)
        n = MAX_DENSE_DIM
        sizes = analysis._dsyevd_workspace(n)
        assert sizes == {"lwork": 1 + 6 * n + 2 * n * n, "liwork": 3 + 5 * n}
        assert max(sizes.values()) <= np.iinfo(np.int32).max

    @pytest.mark.parametrize("n", [32_767, 40_000])
    def test_workspace_past_32_bit_lapack_refused(self, n):
        # LAPACK's query wraps here (1,114,078 and 1,360,000 doubles), a
        # size that would pass a bound checked on its answer
        with pytest.raises(ValueError, match="beyond 32-bit LAPACK"):
            analysis._dsyevd_workspace(n)

    def test_workspace_at_the_32_bit_edge_is_exact(self):
        n = 32_766  # a query only: nothing of this size is allocated
        assert analysis._dsyevd_workspace(n) == {"lwork": 1 + 6 * n + 2 * n * n,
                                                 "liwork": 3 + 5 * n}

    def test_anharmonicity_range_and_bands(self):
        rep = sector_spectrum(
            3, 2, 3, CouplingProfile.from_mhz([8.0, 8.0]),
            AnharmonicityProfile.from_mhz([240.0] * 3),
        )
        assert np.all(rep.anharmonicity >= -1e-12)
        assert np.all(rep.anharmonicity <= 2.0 + 1e-12)
        assert set(rep.bands.tolist()) <= {0, 2}

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            sector_spectrum(
                12, 6, 7,
                CouplingProfile.from_mhz([8.0] * 11),
                AnharmonicityProfile.from_mhz([240.0] * 12),
            )

    def test_band_structure_at_strong_interaction(self):
        # U/J = 30: the five-particle spectrum groups into bands separated
        # by about U, and the top band holds the hard-core states
        U = omega_from_mhz(240.0)
        rep = sector_spectrum(
            10, 5, 6,
            CouplingProfile.from_mhz([8.0] * 9),
            AnharmonicityProfile.from_mhz([240.0] * 10),
        )
        assert rep.dim == 2002
        centers = rep.band_centers()
        for a, b in ((0, 2), (2, 4), (4, 6), (6, 8)):
            sep = abs(centers[a] - centers[b])
            assert sep == pytest.approx(U, rel=0.05)
        top = rep.bands == 0
        assert top.sum() == 252  # C(10, 5) hard-core configurations
        assert rep.anharmonicity[top].max() < 0.2
        assert not rep.ambiguous.any()


class TestDominantFrequency:
    def test_pure_cosine(self):
        t = np.arange(0.0, 100.0, 0.1)
        y = np.cos(2 * math.pi * 0.240 * t)  # 240 MHz in 1/ns units
        res = dominant_frequency(y, 0.1)
        assert abs(res.frequency_mhz - 240.0) <= res.resolution_mhz

    def test_constant_series_has_no_peak(self):
        assert dominant_frequency(np.full(64, 3.7), 0.5) is None

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            dominant_frequency(np.ones(8), 0.5)

    def test_larger_tone_wins(self):
        t = np.arange(0.0, 200.0, 0.25)
        y = 1.0 * np.cos(2 * math.pi * 0.300 * t) + 0.2 * np.cos(2 * math.pi * 0.100 * t)
        res = dominant_frequency(y, 0.25)
        assert abs(res.frequency_mhz - 300.0) <= res.resolution_mhz

    def test_drift_is_suppressed(self):
        t = np.arange(0.0, 100.0, 0.5)
        y = 0.05 * np.cos(2 * math.pi * 0.240 * t) + 0.01 * t
        res = dominant_frequency(y, 0.5)
        assert abs(res.frequency_mhz - 240.0) <= res.resolution_mhz

    def test_segmented_resolution_reported(self):
        t = np.arange(0.0, 100.0, 0.5)
        y = np.cos(2 * math.pi * 0.240 * t)
        res = dominant_frequency(y, 0.5, segment_ns=24.0)
        assert res.resolution_mhz == pytest.approx(1e3 / 24.0, rel=1e-12)
        assert abs(res.frequency_mhz - 240.0) <= res.resolution_mhz


class TestRangeBasisObservables:
    def test_entropy_matches_full_basis(self):
        ranged = build_basis(4, 3, sector=range(2, 6))
        full = build_basis(4, 3)
        psi = random_state(ranged, 43)
        for cut in (1, 2, 3):
            S_range = half_chain_entropy(psi, cut)
            S_full = half_chain_entropy(embed_state(psi, full), cut)
            assert S_range == pytest.approx(S_full, abs=1e-12)

    def test_populations_and_pauli_match_full_basis(self):
        ranged = build_basis(4, 3, sector=range(0, 5))
        full = build_basis(4, 3)
        psi = random_state(ranged, 44)
        big = embed_state(psi, full)
        np.testing.assert_allclose(site_populations(psi), site_populations(big), atol=1e-15)
        for j in range(4):
            assert pauli_expectation(psi, j, "x") == pytest.approx(
                pauli_expectation(big, j, "x"), abs=1e-14
            )


def _table_observables(psi):
    """Populations and Pauli x/y/z through the index tables of any basis."""
    from quenchsim.analysis import _pauli_pairs, _prefix_tables

    basis = psi.basis
    levels, starts = _prefix_tables(basis)
    mass = np.abs(psi.amplitudes) ** 2
    pops = np.empty((basis.L, basis.K))
    for j in range(basis.L - 1, -1, -1):
        pops[j] = np.bincount(levels[j], weights=mass, minlength=basis.K)
        if j:
            mass = np.add.reduceat(mass, starts[j])
    pauli = []
    for j in range(basis.L):
        i0, i1 = _pauli_pairs(basis, j)
        cross = np.sum(np.conj(psi.amplitudes[i1]) * psi.amplitudes[i0])
        pauli.append((2.0 * cross.real, -2.0 * cross.imag, pops[j, 0] - pops[j, 1]))
    return pops, np.array(pauli)


def _scatter_entropy(psi, cut):
    """half_chain_entropy through a zero-filled matrix scattered at the codes."""
    basis = psi.basis
    m = np.zeros(basis.K**basis.L, dtype=np.complex128)
    m[basis.codes] = psi.amplitudes
    lam = np.linalg.svd(m.reshape(basis.K**cut, -1), compute_uv=False) ** 2
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


def _site_operator(L, K, site, op):
    """Dense ``1 (x) op (x) 1`` with op acting on one site."""
    return np.kron(np.kron(np.eye(K**site), op), np.eye(K ** (L - site - 1)))


class TestFullBasisTensorPath:
    """A full basis reads its state as a K^L tensor, not through index tables."""

    GRID = [(L, K) for L in range(1, 7) for K in (2, 3, 4)]

    @staticmethod
    def _observe(psi):
        L = psi.basis.L
        pauli = [[pauli_expectation(psi, j, axis) for axis in "xyz"] for j in range(L)]
        return site_populations(psi), np.array(pauli)

    @pytest.mark.parametrize("L,K", GRID, ids=[f"L{L}-K{K}" for L, K in GRID])
    def test_matches_table_paths(self, L, K):
        psi = random_state(build_basis(L, K), 100 * L + K)
        pops, pauli = self._observe(psi)
        ref_pops, ref_pauli = _table_observables(psi)
        np.testing.assert_allclose(pops, ref_pops, rtol=0, atol=1e-14)
        np.testing.assert_allclose(pauli, ref_pauli, rtol=0, atol=1e-14)
        for cut in range(1, L):
            assert half_chain_entropy(psi, cut) == _scatter_entropy(psi, cut)

    @pytest.mark.parametrize("L,K", [g for g in GRID if g[0] <= 4],
                             ids=[f"L{L}-K{K}" for L, K in GRID if L <= 4])
    def test_matches_dense_kronecker_operators(self, L, K):
        psi = random_state(build_basis(L, K), 7 * L + K)
        v = psi.amplitudes
        proj = [np.diag(np.eye(K)[level]) for level in range(K)]
        x, y = np.zeros((K, K), complex), np.zeros((K, K), complex)
        x[0, 1] = x[1, 0] = 1.0
        y[0, 1], y[1, 0] = -1j, 1j
        z = proj[0] - proj[1]
        pops, pauli = self._observe(psi)
        for j in range(L):
            dense_pops = [np.vdot(v, _site_operator(L, K, j, p) @ v).real for p in proj]
            dense_pauli = [np.vdot(v, _site_operator(L, K, j, op) @ v).real for op in (x, y, z)]
            np.testing.assert_allclose(pops[j], dense_pops, rtol=0, atol=1e-14)
            np.testing.assert_allclose(pauli[j], dense_pauli, rtol=0, atol=1e-14)

    def test_builds_no_index_tables(self):
        from quenchsim.analysis import _pauli_pairs, _prefix_tables

        _pauli_pairs.cache_clear()
        _prefix_tables.cache_clear()
        basis = build_basis(5, 3)
        psi = random_state(basis, 3)
        site_populations(psi)
        for j in range(basis.L):
            for axis in "xyz":
                pauli_expectation(psi, j, axis)
        for cut in range(1, basis.L):
            half_chain_entropy(psi, cut)
        anharmonicity_expectation(psi)
        fidelity(psi, psi)
        assert _pauli_pairs.cache_info().currsize == 0
        assert _prefix_tables.cache_info().currsize == 0

    def test_first_observation_memory(self):
        # observing a random state of the full L=10, K=3 basis (dim 59049)
        # once, with populations, ten Pauli x and the half-chain entropy,
        # may grow peak memory by at most 3 MB; through the index tables
        # and the scattered entropy matrix it grew by about 6.8 MB. The
        # peak is the process's own VmHWM, read as test_assembly_memory does.
        code = textwrap.dedent("""
            import numpy as np
            from quenchsim import (StateVector, build_basis, half_chain_entropy,
                                   pauli_expectation, site_populations)
            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            def observe(psi):
                site_populations(psi)
                for j in range(psi.basis.L):
                    pauli_expectation(psi, j, "x")
                half_chain_entropy(psi, psi.basis.L // 2)
            rng = np.random.default_rng(0)
            def state(L):
                basis = build_basis(L, 3)
                return StateVector(basis, rng.normal(size=basis.dim)
                                   + 1j * rng.normal(size=basis.dim))
            observe(state(4))
            psi = state(10)
            before = peak_kb()
            observe(psi)
            after = peak_kb()
            print(psi.basis.dim, (after - before) / 1024)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC))
        dim, growth_mb = out.stdout.split()
        assert int(dim) == 3**10
        assert float(growth_mb) <= 3.0
