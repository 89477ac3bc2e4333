import math

import numpy as np
import pytest

from mcteleport import (
    CapacityError,
    Permutation,
    absorption_residual,
    character,
    dim_standard,
    f_projector,
    irrep_data,
    mult_semistandard,
    max_entangled_state,
    occupations,
    partial_transpose,
    partitions,
    permutation_operator,
    removable_boxes,
    sym_basis,
    sym_partition,
    sym_projector,
    symmetric_group,
    young_projector,
)
from mcteleport import symgroup
from mcteleport.symgroup import occupation_rank
from mcteleport.tensor import FACTOR_CAP

from oracles import (
    group_average_symmetriser,
    occupations_by_recursion,
    occupations_by_sorting,
    partitions_by_sieve,
    semistandard_tableaux_count,
    sign_of_permutation,
    standard_tableaux_count,
    sym_basis_by_loop,
    young_projector_by_group_sum,
)


class TestPartitions:
    def test_k1(self):
        assert partitions(1) == [(1,)]

    def test_k4_has_five_frames(self):
        assert len(partitions(4)) == 5

    def test_k7_against_sieve(self):
        ours = partitions(7)
        assert len(ours) == 15
        assert set(ours) == partitions_by_sieve(7)

    def test_order_is_lexicographically_decreasing(self):
        for k in range(1, 8):
            ps = partitions(k)
            assert ps == sorted(ps, reverse=True)

    def test_parts_weakly_decreasing_and_sum(self):
        for mu in partitions(6):
            assert sum(mu) == 6
            assert all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))

    def test_removable_boxes(self):
        assert removable_boxes((2, 1)) == [(1, 1), (2,)]
        assert removable_boxes((1,)) == [()]


class TestTableauCounts:
    def test_one_row_and_one_column(self):
        for k in (1, 3, 5):
            assert dim_standard(sym_partition(k)) == 1
            assert dim_standard((1,) * k) == 1

    def test_hook_formula_against_enumeration(self):
        for mu in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
            assert dim_standard(mu) == standard_tableaux_count(mu)

    def test_dimension_equals_identity_character(self):
        for k in (3, 4, 5):
            e = Permutation.identity(k)
            for mu in partitions(k):
                assert dim_standard(mu) == character(mu, e)

    def test_sum_of_squares_is_group_order(self):
        for k in (3, 4, 5, 6):
            assert sum(dim_standard(mu) ** 2 for mu in partitions(k)) == math.factorial(k)

    def test_one_row_multiplicity_closed_form(self):
        assert mult_semistandard((3,), 2) == math.comb(4, 3)
        for k in (1, 2, 5):
            for d in (2, 3, 4):
                assert mult_semistandard(sym_partition(k), d) == math.comb(k - 1 + d, k)

    def test_tall_frames_have_zero_multiplicity(self):
        for mu in partitions(4):
            if len(mu) > 2:
                assert mult_semistandard(mu, 2) == 0

    def test_hook_content_against_enumeration(self):
        for mu, d in [((2, 1), 2), ((2, 1), 3), ((2, 2), 3), ((3, 1), 2)]:
            assert mult_semistandard(mu, d) == semistandard_tableaux_count(mu, d)

    def test_schur_weyl_dimension_count(self):
        for k, d in [(3, 2), (4, 2), (4, 3)]:
            total = sum(dim_standard(mu) * mult_semistandard(mu, d) for mu in partitions(k))
            assert total == d**k

    def test_irrep_data(self):
        data = irrep_data((2, 1), 2)
        assert (data.d_mu, data.m_mu) == (2, 2)


class TestCharacters:
    def test_trivial_representation(self):
        for sigma in symmetric_group(4):
            assert character((4,), sigma) == 1

    def test_sign_representation(self):
        for sigma in symmetric_group(4):
            assert character((1, 1, 1, 1), sigma) == sign_of_permutation(sigma.images)

    def test_known_standard_values(self):
        classes = {(1, 1, 1): 2, (2, 1): 0, (3,): -1}
        for sigma in symmetric_group(3):
            assert character((2, 1), sigma) == classes[sigma.cycle_type()]

    def test_orthogonality_exact_k4(self):
        sigmas = list(symmetric_group(4))
        for mu in partitions(4):
            for nu in partitions(4):
                acc = sum(character(mu, s) * character(nu, s) for s in sigmas)
                assert acc == (math.factorial(4) if mu == nu else 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character((2, 1), Permutation.identity(4))


class TestYoungProjectors:
    def test_symmetric_two_qubits(self):
        p = young_projector((2,), 2)
        swap = permutation_operator(Permutation.transposition(2, 0, 1), 2).mat
        assert np.allclose(p.mat, (np.eye(4) + swap) / 2, atol=1e-14)
        assert abs(p.trace() - 3) < 1e-12

    def test_antisymmetric_two_qubits(self):
        p = young_projector((1, 1), 2)
        swap = permutation_operator(Permutation.transposition(2, 0, 1), 2).mat
        assert np.allclose(p.mat, (np.eye(4) - swap) / 2, atol=1e-14)
        assert abs(p.trace() - 1) < 1e-12

    def test_resolution_of_identity_with_height_exclusion(self):
        total = np.zeros((8, 8), dtype=complex)
        for mu in partitions(3):
            total += young_projector(mu, 2).mat
        assert np.allclose(total, np.eye(8), atol=1e-12)
        assert np.linalg.norm(young_projector((1, 1, 1), 2).mat) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_orthogonal_idempotents_and_trace_rule(self, k, d):
        projs = {mu: young_projector(mu, d) for mu in partitions(k)}
        for mu, p in projs.items():
            assert p.projector_defect() < 1e-11
            expected = mult_semistandard(mu, d) * dim_standard(mu)
            assert abs(p.trace() - expected) < 1e-10
            for nu, q in projs.items():
                if mu != nu:
                    assert np.linalg.norm(p.mat @ q.mat) < 1e-11

    def test_budget_exceeded(self):
        with pytest.raises(CapacityError):
            young_projector((9,), 2)

    @pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in range(1, 7)] + [(2, 8)])
    def test_one_pass_equals_the_group_sum_of_each_frame_bit_for_bit(self, d, k):
        # at k = 8 only the frames with at most d rows, as the oracle takes
        # about a second per frame; a taller one is zero with no group sum
        # (next test)
        for mu in partitions(k):
            if k <= 6 or len(mu) <= d:
                assert np.array_equal(young_projector(mu, d).mat, young_projector_by_group_sum(mu, d)), mu

    def test_tall_frame_is_exact_zero_without_a_group_sum(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("sum over the symmetric group")

        monkeypatch.setattr(symgroup, "symmetric_group", unexpected)
        for mu, d in [((1, 1, 1), 2), ((2, 1, 1, 1), 3), ((3, 2), 1), ((1,) * 9, 2)]:
            p = young_projector(mu, d)
            assert p.dims == (d,) * sum(mu)
            assert not p.mat.any()

    def test_stored_projector_is_returned_read_only(self):
        p = young_projector((2, 1), 2)
        assert p is young_projector((2, 1), 2)
        assert not p.mat.flags.writeable


class TestSymProjector:
    def test_single_factor_is_identity(self):
        assert np.allclose(sym_projector(1, 2).mat, np.eye(2))

    def test_two_qubit_trace(self):
        assert abs(sym_projector(2, 2).trace() - 3) < 1e-12

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (1, 2, 3) for n in range(1, 6)] + [(2, 8)]
    )
    def test_agrees_with_group_average(self, d, n):
        assert np.linalg.norm(sym_projector(n, d).mat - group_average_symmetriser(n, d)) < 1e-12

    def test_absorbs_every_permutation(self):
        p = sym_projector(3, 2)
        for sigma in symmetric_group(3):
            v = permutation_operator(sigma, 2).mat
            assert np.linalg.norm(v @ p.mat - p.mat) < 1e-12
            assert np.linalg.norm(p.mat @ v - p.mat) < 1e-12


class TestSymBasis:
    def test_single_factor_is_computational(self):
        basis = sym_basis(1, 3)
        assert np.allclose(np.column_stack([b.vec for b in basis]), np.eye(3))

    def test_two_qubit_triplet(self):
        basis = sym_basis(2, 2)
        expected = [
            np.array([1, 0, 0, 0]),
            np.array([0, 1, 1, 0]) / math.sqrt(2),
            np.array([0, 0, 0, 1]),
        ]
        for b, e in zip(basis, expected):
            assert np.allclose(b.vec, e)

    def test_counts(self):
        for n, d in [(0, 2), (1, 4), (2, 3), (3, 3), (4, 2)]:
            assert len(sym_basis(n, d)) == math.comb(n - 1 + d, n)

    def test_gram_is_identity(self):
        basis = sym_basis(3, 3)
        assert len(basis) == 10
        columns = np.column_stack([b.vec for b in basis])
        gram = columns.conj().T @ columns
        assert np.abs(gram - np.eye(10)).max() < 1e-12

    def test_vectors_are_permutation_invariant(self):
        for vec in sym_basis(3, 2):
            for sigma in symmetric_group(3):
                v = permutation_operator(sigma, 2).mat
                assert np.linalg.norm(v @ vec.vec - vec.vec) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_the_loop_over_kets_bit_for_bit(self, d):
        for n in range(6):
            columns = np.column_stack([b.vec for b in sym_basis(n, d)])
            want = sym_basis_by_loop(n, d)
            assert columns.dtype == np.float64 and np.array_equal(columns, want)


class TestOccupations:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_order_matches_sorted_digit_counts(self, d):
        for n in range(6):
            assert [tuple(row) for row in occupations(n, d).tolist()] == occupations_by_sorting(n, d)

    @pytest.mark.parametrize("n,d", [(361, 3), (10, 2), (5, 4), (1, 5), (0, 3), (4, 1)])
    def test_levelwise_table_keeps_the_rows_of_the_recursion(self, n, d):
        occ, want = occupations(n, d), occupations_by_recursion(n, d)
        assert occ.dtype == want.dtype and np.array_equal(occ, want)

    def test_rank_inverts_the_listing(self):
        for n, d in [(0, 3), (1, 1), (4, 1), (3, 4), (6, 3), (200, 2), (5, 6), (2, 16)]:
            occ = occupations(n, d)
            assert len(occ) == math.comb(n + d - 1, n)
            assert np.array_equal(occupation_rank(occ), np.arange(len(occ)))

    def test_rank_keeps_leading_axes(self):
        occ = occupations(3, 3)
        stacked = np.stack([occ[::-1], occ])
        assert np.array_equal(occupation_rank(stacked), [np.arange(10)[::-1], np.arange(10)])

    @pytest.mark.parametrize("n,d", [(1, 300), (2, 128), (0, 80), (2, 70)])
    def test_ranks_at_many_levels_stay_in_range(self, n, d):
        # C(d, d // 2) passes the int64 range at these d; no rank needs it
        occ = occupations(n, d)
        assert np.array_equal(occupation_rank(occ), np.arange(len(occ)))

    def test_listing_is_read_only(self):
        with pytest.raises(ValueError):
            occupations(2, 2)[0, 0] = 5

    def test_capacity(self):
        with pytest.raises(CapacityError, match="occupation table of 170544 x 16 entries"):
            occupations(7, 16)  # C(22, 7) = 170544 rows

    def test_capacity_bounds_the_table_entries(self):
        # the m x d table, not the row count: 65703 rows pass at d = 3, 59640 do not at d = 70
        assert occupations(361, 3).shape == (65703, 3)
        with pytest.raises(CapacityError, match=f"occupation table of 59640 x 70 entries exceeds cap {FACTOR_CAP}"):
            occupations(3, 70)


def valid_f_pairs(k, d):
    pairs = []
    for mu in partitions(k):
        if mult_semistandard(mu, d) == 0:
            continue
        for alpha in removable_boxes(mu):
            if mult_semistandard(alpha, d) == 0:
                continue
            pairs.append((mu, alpha))
    return pairs


class TestFProjectors:
    def test_single_copy_is_entangled_projector(self):
        f = f_projector((1,), (), 2)
        phi = max_entangled_state(2)
        assert np.linalg.norm(f.mat - phi.projector().mat) < 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_row_trace_rule(self, k):
        f = f_projector(sym_partition(k), sym_partition(k - 1), 2)
        assert abs(f.trace() - mult_semistandard(sym_partition(k - 1), 2)) < 1e-11

    def test_trace_rule_all_pairs(self):
        for k, d in [(2, 2), (2, 3), (3, 2)]:
            for mu, alpha in valid_f_pairs(k, d):
                f = f_projector(mu, alpha, d)
                expected = mult_semistandard(alpha, d) * dim_standard(mu)
                assert abs(f.trace() - expected) < 1e-10

    def test_mutual_orthogonality_k3(self):
        pairs = valid_f_pairs(3, 2)
        projectors = {pair: f_projector(*pair, 2).mat for pair in pairs}
        for pa, fa in projectors.items():
            assert np.linalg.norm(fa @ fa - fa) < 1e-10
            for pb, fb in projectors.items():
                expected = fa if pa == pb else np.zeros_like(fa)
                assert np.linalg.norm(fa @ fb - expected) < 1e-10

    def test_rejects_non_adjacent_frames(self):
        with pytest.raises(ValueError):
            f_projector((3,), (1,), 2)

    def test_rejects_vanishing_multiplicity(self):
        with pytest.raises(ValueError):
            f_projector((1, 1, 1), (1, 1), 2)


class TestAlgebraIdentities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_tall_symmetriser_annihilates_other_frames(self, d):
        # P^sym on k+1 factors kills every Young projector on the first k
        # factors except the one-row frame, which it absorbs.
        for k in range(1, 6):
            big = sym_projector(k + 1, d).mat
            for mu in partitions(k):
                projector = np.kron(young_projector(mu, d).mat, np.eye(d))
                delta = 1.0 if mu == sym_partition(k) else 0.0
                assert np.linalg.norm(big @ projector - delta * big) < 1e-10
            assert absorption_residual(d, k) < 1e-10

    def test_absorption_skips_frames_taller_than_d(self, monkeypatch):
        # A frame taller than d has a zero Young projector and a zero term.
        d, k = 2, 5
        big = sym_projector(k + 1, d).mat
        expected = max(
            float(np.linalg.norm(big @ np.kron(young_projector(mu, d).mat, np.eye(d)) - (mu == (k,)) * big))
            for mu in partitions(k)
        )
        build = symgroup.young_projector

        def short_frames_only(mu, d):
            if len(mu) > d:
                raise AssertionError(f"Young projector of {mu} built at d={d}")
            return build(mu, d)

        monkeypatch.setattr(symgroup, "young_projector", short_frames_only)
        assert abs(absorption_residual(d, k) - expected) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_absorption_matches_the_dense_formula_without_a_symmetriser(self, d, monkeypatch):
        expected = {}
        for k in range(1, 6):
            big = sym_projector(k + 1, d).mat
            expected[k] = max(
                float(np.linalg.norm(big @ np.kron(young_projector(mu, d).mat, np.eye(d)) - (mu == (k,)) * big))
                for mu in partitions(k)
            )

        def unexpected(*args, **kwargs):
            raise AssertionError("dense symmetriser built")

        monkeypatch.setattr(symgroup, "sym_projector", unexpected)
        for k, want in expected.items():
            assert abs(absorption_residual(d, k) - want) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_transposed_swap_is_entangled_projector(self, d):
        swap = permutation_operator(Permutation.transposition(2, 0, 1), d)
        transposed = partial_transpose(swap, {1})
        target = d * max_entangled_state(d).projector().mat
        assert np.linalg.norm(transposed.mat - target) < 1e-13
