import itertools
import math

import numpy as np
import pytest

from quenchsim import (
    ResourceLimitError,
    StateVector,
    TransverseProfile,
    basis_dim,
    build_basis,
    build_transverse,
    build_product_state,
    embed_state,
    parse_product_state,
)
from quenchsim.fockspace import MAX_LEVELS


def brute_force_sector(L, K, N):
    return [occ for occ in itertools.product(range(K), repeat=L) if sum(occ) == N]


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return StateVector(basis, amps)


class TestBuildBasis:
    def test_sector_dimension_2002(self):
        assert build_basis(10, 6, sector=5).dim == 2002

    def test_full_dimension(self):
        assert build_basis(10, 3).dim == 3**10

    def test_small_sector(self):
        assert build_basis(3, 3, sector=2).dim == 6

    def test_canonical_order_two_sites(self):
        basis = build_basis(2, 2)
        assert [basis.occupation_at(i) for i in range(4)] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_dimension_law_stars_and_bars(self, L):
        for N in range(0, 3 * L + 1):
            K = max(N + 1, 2)
            basis = build_basis(L, K, sector=N)
            assert basis.dim == math.comb(N + L - 1, N)
            if K**L <= 100_000:
                assert basis.dim == len(brute_force_sector(L, K, N))

    @pytest.mark.parametrize("L,K,N", [(3, 2, 2), (4, 3, 5), (5, 2, 3)])
    def test_restricted_sector_matches_enumeration(self, L, K, N):
        basis = build_basis(L, K, sector=N)
        expected = brute_force_sector(L, K, N)
        assert basis.dim == len(expected)
        assert [basis.occupation_at(i) for i in range(basis.dim)] == expected

    @pytest.mark.parametrize("L,K,N", [(0, 2, None), (2, 1, None), (2, 2, 3), (2, 2, -1)])
    def test_invalid_arguments(self, L, K, N):
        with pytest.raises(ValueError):
            build_basis(L, K, sector=N)

    def test_states_are_read_only(self):
        basis = build_basis(3, 2)
        with pytest.raises(ValueError):
            basis.states[0, 0] = 1


class TestIndexing:
    def test_first_state_index(self):
        assert build_basis(2, 2).index_of((0, 0)) == 0

    def test_round_trip_sector(self):
        basis = build_basis(3, 3, sector=2)
        for i in range(basis.dim):
            assert basis.index_of(basis.occupation_at(i)) == i

    def test_round_trip_full(self):
        basis = build_basis(3, 3)
        for i in range(basis.dim):
            assert basis.index_of(basis.occupation_at(i)) == i

    def test_level_out_of_range_is_lookup_error(self):
        with pytest.raises(KeyError):
            build_basis(2, 2).index_of((2, 0))

    def test_wrong_sector_is_lookup_error(self):
        with pytest.raises(KeyError):
            build_basis(3, 3, sector=2).index_of((1, 0, 0))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            build_basis(3, 3).index_of((1, 0))

    def test_occupation_at_bounds(self):
        basis = build_basis(10, 6, sector=5)
        assert basis.occupation_at(0) is not None
        assert basis.occupation_at(2001) is not None
        with pytest.raises(IndexError):
            basis.occupation_at(2002)
        with pytest.raises(IndexError):
            basis.occupation_at(-1)


class TestParseProductState:
    def test_single_occupation(self):
        basis = build_basis(10, 3)
        psi = parse_product_state("0001001000", basis)
        idx = basis.index_of((0, 0, 0, 1, 0, 0, 1, 0, 0, 0))
        expected = np.zeros(basis.dim)
        expected[idx] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_plus_plus(self):
        basis = build_basis(2, 2)
        psi = parse_product_state("++", basis)
        np.testing.assert_allclose(psi.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_neel_total_occupation(self):
        basis = build_basis(10, 2)
        psi = parse_product_state("0101010101", basis)
        occ = basis.states[np.abs(psi.amplitudes) > 0]
        assert occ.shape == (1, 10)
        assert occ.sum() == 5

    @pytest.mark.parametrize("bad", ["01", "01x0", "0120"])
    def test_parse_errors(self, bad):
        basis = build_basis(4, 2)
        with pytest.raises(ValueError):
            parse_product_state(bad, basis)

    def test_plus_on_sector_basis_rejected(self):
        basis = build_basis(3, 2, sector=1)
        with pytest.raises(ValueError):
            parse_product_state("+00", basis)

    @pytest.mark.parametrize("spec", ["++0", "1+2", "+++"])
    def test_norm_one(self, spec):
        basis = build_basis(3, 3)
        psi = parse_product_state(spec, basis)
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_amplitude_pairs(self):
        basis = build_basis(2, 2)
        psi = build_product_state([{0: 0.6, 1: 0.8}, {1: 1.0}], basis)
        assert abs(psi.amplitudes[basis.index_of((0, 1))] - 0.6) < 1e-15
        assert abs(psi.amplitudes[basis.index_of((1, 1))] - 0.8) < 1e-15


class TestEmbedState:
    def test_single_occupation_embeds_identically(self):
        src = build_basis(10, 2)
        dst = build_basis(10, 3)
        psi = parse_product_state("0101010101", src)
        out = embed_state(psi, dst)
        idx = dst.index_of((0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
        assert out.amplitudes[idx] == 1.0
        assert out.norm() == 1.0

    def test_plus_plus_embeds_with_four_entries(self):
        src = build_basis(2, 2)
        dst = build_basis(2, 3)
        out = embed_state(parse_product_state("++", src), dst)
        nonzero = np.nonzero(out.amplitudes)[0]
        assert len(nonzero) == 4
        for i in nonzero:
            assert abs(out.amplitudes[i] - 0.5) < 1e-15
            assert max(dst.occupation_at(i)) <= 1

    def test_inner_products_preserved(self):
        src = build_basis(3, 2)
        dst = build_basis(3, 4)
        for seed in range(5):
            u = random_state(src, seed)
            v = random_state(src, seed + 100)
            direct = np.vdot(u.amplitudes, v.amplitudes)
            embedded = np.vdot(
                embed_state(u, dst).amplitudes, embed_state(v, dst).amplitudes
            )
            assert abs(direct - embedded) < 1e-15

    def test_sector_target(self):
        src = build_basis(4, 2)
        dst = build_basis(4, 3, sector=2)
        psi = parse_product_state("0101", src)
        out = embed_state(psi, dst)
        assert abs(out.norm() - 1.0) < 1e-15

    def test_sector_violation(self):
        src = build_basis(4, 2)
        dst = build_basis(4, 3, sector=1)
        with pytest.raises(ValueError):
            embed_state(parse_product_state("0101", src), dst)

    def test_site_count_mismatch(self):
        src = build_basis(3, 2)
        dst = build_basis(4, 3)
        with pytest.raises(ValueError):
            embed_state(parse_product_state("010", src), dst)

    def test_fewer_levels_rejected(self):
        src = build_basis(3, 3)
        dst = build_basis(3, 2)
        with pytest.raises(ValueError):
            embed_state(parse_product_state("010", src), dst)


class TestStateVector:
    def test_normalizes_by_default(self):
        basis = build_basis(2, 2)
        psi = StateVector(basis, [2.0, 0, 0, 0])
        assert psi.amplitudes[0] == 1.0

    def test_zero_vector_rejected(self):
        basis = build_basis(2, 2)
        with pytest.raises(ValueError):
            StateVector(basis, np.zeros(4))

    def test_wrong_length_rejected(self):
        basis = build_basis(2, 2)
        with pytest.raises(ValueError):
            StateVector(basis, np.ones(3))

    def test_constructor_and_copy_own_their_amplitudes(self):
        basis = build_basis(2, 2)
        amps = np.array([1.0, 0, 0, 0], dtype=np.complex128)
        psi = StateVector(basis, amps, normalize=False)
        assert psi.amplitudes is not amps
        assert psi.copy().amplitudes is not psi.amplitudes

    def test_adopt_keeps_the_array_and_checks_its_length(self):
        basis = build_basis(2, 2)
        amps = np.array([1.0, 0, 0, 0], dtype=np.complex128)
        assert StateVector._adopt(basis, amps).amplitudes is amps
        with pytest.raises(ValueError, match="length 3"):
            StateVector._adopt(basis, np.ones(3, dtype=np.complex128))

    def test_overlap_requires_same_basis(self):
        a = parse_product_state("01", build_basis(2, 2))
        b = parse_product_state("01", build_basis(2, 3))
        with pytest.raises(ValueError):
            a.overlap(b)


class TestTensorView:
    @pytest.mark.parametrize("L,K", [(1, 3), (3, 2), (4, 3)])
    def test_full_basis_is_a_site_tensor(self, L, K):
        basis = build_basis(L, K)
        psi = random_state(basis, 5)
        t = basis._tensor(psi.amplitudes)
        assert t.shape == (K,) * L and np.shares_memory(t, psi.amplitudes)
        for i, occ in enumerate(basis.states):
            assert t[tuple(occ)] == psi.amplitudes[i]
        for c in range(L + 1):
            m = basis._tensor(psi.amplitudes, (c, L - c))
            assert m.shape == (K**c, K ** (L - c)) and np.shares_memory(m, psi.amplitudes)

    @pytest.mark.parametrize("sector", [2, range(1, 4)])
    def test_restricted_basis_has_no_tensor(self, sector):
        basis = build_basis(4, 3, sector=sector)
        psi = random_state(basis, 6)
        assert basis._tensor(psi.amplitudes) is None
        assert basis._tensor(psi.amplitudes, (2, 2)) is None


class TestRangeBasis:
    @pytest.mark.parametrize(
        "L,K,lo,hi", [(4, 3, 0, 4), (5, 2, 1, 3), (3, 4, 2, 7), (10, 3, 0, 10)]
    )
    def test_dim_is_sum_of_sectors_and_codes_ascend(self, L, K, lo, hi):
        basis = build_basis(L, K, sector=range(lo, hi + 1))
        assert basis.dim == sum(build_basis(L, K, sector=n).dim for n in range(lo, hi + 1))
        assert basis.dim == basis_dim(L, K, lo, hi)
        assert np.all(np.diff(basis.codes) > 0)
        totals = basis.states.sum(axis=1)
        assert totals.min() == lo and totals.max() == hi

    def test_matches_brute_force_enumeration(self):
        basis = build_basis(4, 3, sector=range(2, 5))
        expected = [
            occ for occ in itertools.product(range(3), repeat=4) if 2 <= sum(occ) <= 4
        ]
        assert [basis.occupation_at(i) for i in range(basis.dim)] == expected

    def test_round_trip_and_lookup_outside(self):
        basis = build_basis(4, 3, sector=range(1, 4))
        for i in range(basis.dim):
            assert basis.index_of(basis.occupation_at(i)) == i
        with pytest.raises(KeyError):
            basis.index_of((0, 0, 0, 0))
        with pytest.raises(KeyError):
            basis.index_of((2, 2, 0, 0))
        full = build_basis(4, 3)
        found = basis.find_codes(full.codes)
        inside = (full.states.sum(axis=1) >= 1) & (full.states.sum(axis=1) <= 3)
        assert np.all(found[~inside] == -1)
        assert np.array_equal(basis.codes[found[inside]], full.codes[inside])

    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_full_range_is_the_full_basis(self, L):
        assert build_basis(L, 2, sector=range(0, L + 1)) == build_basis(L, 2)
        assert build_basis(L, 2, sector=range(0, L + 1)).sector is None

    def test_one_element_range_is_the_sector(self):
        basis = build_basis(4, 3, sector=range(3, 4))
        assert basis.sector == 3 and basis == build_basis(4, 3, sector=3)

    @pytest.mark.parametrize(
        "sector", [range(0), range(0, 4, 2), range(-1, 2), range(9, 12)]
    )
    def test_invalid_ranges(self, sector):
        with pytest.raises(ValueError):
            build_basis(4, 3, sector=sector)

    def test_transverse_refused(self):
        basis = build_basis(3, 3, sector=range(0, 3))
        with pytest.raises(ValueError):
            build_transverse(basis, TransverseProfile.from_mhz([16.0] * 3))

    def test_embed_two_level_into_range_matches_full(self):
        src = build_basis(4, 2)
        psi = parse_product_state("+0+1", src)
        ranged = embed_state(psi, build_basis(4, 3, sector=range(1, 4)))
        full = embed_state(psi, build_basis(4, 3))
        assert ranged.basis.sector == range(1, 4)
        idx = full.basis.find_codes(ranged.basis.codes)
        assert np.array_equal(full.amplitudes[idx], ranged.amplitudes)
        assert ranged.norm() == pytest.approx(1.0, abs=1e-15)


class TestBasisGuard:
    @pytest.mark.parametrize("L,K", [(1, 2), (4, 3), (6, 5), (10, 3)])
    def test_basis_dim_counts_every_range(self, L, K):
        assert basis_dim(L, K, 0, L * (K - 1)) == K**L
        per_n = [basis_dim(L, K, n, n) for n in range(L * (K - 1) + 1)]
        assert per_n == [build_basis(L, K, sector=n).dim for n in range(L * (K - 1) + 1)]

    @pytest.mark.parametrize("L,K,N", [(40, 3, None), (16, 3, None), (100, 2, 1)])
    def test_too_large_fails_before_enumeration(self, L, K, N):
        with pytest.raises(ResourceLimitError):
            build_basis(L, K, sector=N)

    def test_levels_capped_at_int8_range(self):
        assert MAX_LEVELS == 128
        basis = build_basis(1, 128)
        assert basis.states.min() == 0 and basis.states.max() == 127
        with pytest.raises(ValueError, match="levels"):
            build_basis(1, 129)
