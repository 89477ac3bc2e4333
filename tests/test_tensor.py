import math
from itertools import permutations as sn_iter

import numpy as np
import pytest

from mcteleport import (
    CapacityError,
    Operator,
    Permutation,
    StateVector,
    haar_state,
    haar_unitary,
    hermitian_eig,
    identity_operator,
    kron,
    max_entangled_state,
    partial_trace,
    partial_transpose,
    permutation_operator,
    permute_state,
)

from mcteleport import tensor
from mcteleport.streams import pcg64_state, seeded_normals, spawn_keys
from mcteleport.tensor import FACTOR_CAP, batch_slices

from oracles import dense_permutation_matrix


def random_operator(dims, rng, hermitian=False):
    n = math.prod(dims)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        mat = (mat + mat.conj().T) / 2
    return Operator(mat, dims)


class TestKron:
    def test_identity_case(self):
        result = kron(identity_operator((2,)), identity_operator((3,)))
        assert result.dims == (2, 3)
        assert np.array_equal(result.mat, np.eye(6))

    def test_rank_one_projectors(self):
        p0 = Operator(np.diag([1.0, 0.0]), (2,))
        p1 = Operator(np.diag([0.0, 1.0]), (2,))
        result = kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> is index 1 with factor 0 most significant
        assert np.allclose(result.mat, expected)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(5)
        x = random_operator((2,), rng)
        y = random_operator((2,), rng)
        direct = np.trace(np.kron(x.mat, y.mat))
        assert abs(kron(x, y).trace() - x.trace() * y.trace()) < 1e-12
        assert abs(kron(x, y).trace() - direct) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            kron(identity_operator((512,)), identity_operator((256,)))  # 131072 > DIM_CAP


class TestPartialTrace:
    def test_entangled_pair_reduces_to_maximally_mixed(self):
        for d in (2, 3, 4):
            proj = max_entangled_state(d).projector()
            for side in (0, 1):
                reduced = partial_trace(proj, {side})
                assert np.allclose(reduced.mat, np.eye(d) / d, atol=1e-13)

    def test_full_trace(self):
        rng = np.random.default_rng(1)
        x = random_operator((2, 3), rng)
        result = partial_trace(x, {0, 1})
        assert result.dims == ()
        assert abs(result.mat[0, 0] - x.trace()) < 1e-12

    def test_product_state_factor(self):
        rng = np.random.default_rng(2)
        rho = random_operator((2,), rng, hermitian=True)
        sigma_mat = np.diag([0.25, 0.75]).astype(complex)
        sigma = Operator(sigma_mat, (2,))
        result = partial_trace(kron(rho, sigma), {1})
        assert np.allclose(result.mat, rho.mat, atol=1e-12)

    def test_factorisation_against_kron(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_operator((2,), rng)
            b = random_operator((3,), rng)
            left = partial_trace(kron(a, b), {1}).mat
            assert np.allclose(left, a.mat * b.trace(), atol=1e-12)

    def test_kept_factors_preserve_order(self):
        rng = np.random.default_rng(12)
        a = random_operator((2,), rng, hermitian=True)
        b = Operator(np.diag([0.5, 0.5]).astype(complex), (2,))
        c = random_operator((3,), rng, hermitian=True)
        triple = kron(kron(a, b), c)
        kept = partial_trace(triple, {1})
        assert kept.dims == (2, 3)
        assert np.allclose(kept.mat, kron(a, c).mat, atol=1e-12)
        assert abs(kept.trace() - triple.trace()) < 1e-12

    def test_index_out_of_range(self):
        x = identity_operator((2, 2))
        with pytest.raises(IndexError):
            partial_trace(x, {2})


class TestPartialTranspose:
    def test_swap_becomes_entangled_projector(self):
        for d in (2, 3):
            swap = permutation_operator(Permutation.transposition(2, 0, 1), d)
            proj = max_entangled_state(d).projector()
            assert np.allclose(partial_transpose(swap, {0}).mat, d * proj.mat, atol=1e-13)

    def test_empty_subset_is_identity_map(self):
        rng = np.random.default_rng(4)
        x = random_operator((2, 2), rng)
        assert partial_transpose(x, set()) is x

    def test_involution_on_random_hermitian(self):
        rng = np.random.default_rng(6)
        x = random_operator((2, 2, 2), rng, hermitian=True)
        for subset in ({0}, {1}, {2}, {0, 2}):
            twice = partial_transpose(partial_transpose(x, subset), subset)
            assert np.allclose(twice.mat, x.mat, atol=1e-13)

    def test_preserves_trace_and_frobenius_norm(self):
        rng = np.random.default_rng(7)
        x = random_operator((2, 3), rng)
        pt = partial_transpose(x, {1})
        assert abs(pt.trace() - x.trace()) < 1e-12
        assert abs(np.linalg.norm(pt.mat) - np.linalg.norm(x.mat)) < 1e-12


class TestPermutations:
    def test_identity_permutation(self):
        v = permutation_operator(Permutation.identity(3), 2)
        assert np.array_equal(v.mat, np.eye(8))

    def test_swap_matrix(self):
        v = permutation_operator(Permutation.transposition(2, 0, 1), 2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(v.mat, expected)

    def test_matches_bruteforce_matrix(self):
        for images in sn_iter(range(3)):
            ours = permutation_operator(Permutation(images), 2).mat
            assert np.array_equal(ours, dense_permutation_matrix(images, 2))

    def test_homomorphism_exhaustive_s3(self):
        ops = {im: permutation_operator(Permutation(im), 2).mat for im in sn_iter(range(3))}
        for a in sn_iter(range(3)):
            for b in sn_iter(range(3)):
                composed = Permutation(a).compose(Permutation(b)).images
                assert np.allclose(ops[a] @ ops[b], ops[composed], atol=1e-14)

    def test_unitary_representation_s4(self):
        ops = {im: permutation_operator(Permutation(im), 2).mat for im in sn_iter(range(4))}
        for images, v in ops.items():
            assert np.allclose(v @ v.conj().T, np.eye(16), atol=1e-14)
        for a in sn_iter(range(4)):
            for b in sn_iter(range(4)):
                composed = Permutation(a).compose(Permutation(b)).images
                assert np.array_equal(ops[a] @ ops[b], ops[composed])

    def test_permute_state_matches_matrix(self):
        rng = np.random.default_rng(8)
        x = StateVector(haar_state(8, rng).vec, (2, 2, 2))
        for images in sn_iter(range(3)):
            sigma = Permutation(images)
            via_matrix = permutation_operator(sigma, 2).mat @ x.vec
            assert np.allclose(permute_state(sigma, x).vec, via_matrix, atol=1e-14)

    def test_cycle_type(self):
        assert Permutation((1, 0, 2)).cycle_type() == (2, 1)
        assert Permutation((1, 2, 0)).cycle_type() == (3,)


class TestMaxEntangled:
    def test_d1_is_scalar_one(self):
        state = max_entangled_state(1)
        assert state.dims == (1, 1)
        assert np.allclose(state.vec, [1.0])

    def test_d2_components(self):
        state = max_entangled_state(2)
        assert np.allclose(state.vec, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_transfer_identity(self):
        # (A (x) 1)|phi+> = (1 (x) A^T)|phi+> for any matrix A.
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        phi = max_entangled_state(3).vec
        left = np.kron(a, np.eye(3)) @ phi
        right = np.kron(np.eye(3), a.T) @ phi
        assert np.allclose(left, right, atol=1e-13)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            max_entangled_state(0)


class TestHaar:
    def test_unitarity(self):
        u = haar_unitary(4, 11).mat
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12

    def test_determinism(self):
        assert np.array_equal(haar_unitary(3, 123).mat, haar_unitary(3, 123).mat)

    def test_first_moment(self):
        # E|<0|U|0>|^2 = 1/d; |U00|^2 is Beta(1, d-1) so the variance is
        # 2/(d(d+1)) - 1/d^2, giving an exact 3-sigma band for the mean.
        d, samples = 2, 100_000
        rng = np.random.default_rng(321)
        values = np.empty(samples)
        for i in range(samples):
            values[i] = abs(haar_unitary(d, rng).mat[0, 0]) ** 2
        variance = 2 / (d * (d + 1)) - 1 / d**2
        band = 3 * math.sqrt(variance / samples)
        assert abs(values.mean() - 1 / d) < band


class TestSpawnKeys:
    #: the seed's 32-bit words fill the pool of 4 exactly, or not, or overflow it
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200 + 12345]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_keys_are_the_spawned_childrens_states(self, seed, n):
        want = [child.generate_state(4, np.uint64) for child in np.random.SeedSequence(seed).spawn(n)]
        keys = spawn_keys(seed, n)
        assert keys.dtype == np.uint64 and np.array_equal(keys, np.stack(want))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pcg64_is_seeded_as_default_rng_seeds_it(self, seed):
        children = np.random.SeedSequence(seed).spawn(50)
        for key, child in zip(spawn_keys(seed, 50).tolist(), children):
            assert pcg64_state(key) == np.random.default_rng(child).bit_generator.state["state"]

    @pytest.mark.parametrize("cap", [FACTOR_CAP, 1])
    @pytest.mark.parametrize("seed,width", [(0, 1), (7, 4), (2**64 - 1, 40)])
    def test_rows_are_the_childrens_normals(self, seed, width, cap, monkeypatch):
        monkeypatch.setattr(tensor, "FACTOR_CAP", cap)
        keys = spawn_keys(seed, 30)
        rows = np.concatenate([seeded_normals(keys[part], width) for part in batch_slices(30, width)])
        want = [np.random.default_rng(child).standard_normal(width) for child in np.random.SeedSequence(seed).spawn(30)]
        assert np.array_equal(rows, np.stack(want))

    def test_a_negative_seed_is_refused_as_seed_sequence_refuses_it(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            spawn_keys(-1, 3)


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(identity_operator((2, 2)))
        assert np.allclose(vals, 1.0)

    def test_rank_one_projector(self):
        vals, _ = hermitian_eig(max_entangled_state(2).projector())
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-13)

    def test_transposed_two_factor_symmetriser(self):
        # Hand-built 4x4: symmetrise two qubits, transpose the second factor.
        half = 0.5
        sym = np.array(
            [[1, 0, 0, 0], [0, half, half, 0], [0, half, half, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        x = partial_transpose(Operator(sym, (2, 2)), {1})
        vals, vecs = hermitian_eig(x)
        assert np.allclose(vals, [0.5, 0.5, 0.5, 1.5], atol=1e-13)
        recon = vecs.mat @ np.diag(vals) @ vecs.mat.conj().T
        assert np.linalg.norm(recon - x.mat) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,))
        with pytest.raises(ValueError):
            hermitian_eig(bad)


class TestTeleportationTrick:
    def test_contraction_produces_scaled_input(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            phi = max_entangled_state(d).vec
            for _ in range(100):
                psi = haar_state(d, rng).vec
                state = np.kron(psi, phi)  # |psi>_1 (x) |phi+>_{AB}
                projected = np.tensordot(
                    phi.conj().reshape(d, d), state.reshape(d, d, d), axes=([0, 1], [0, 1])
                )
                assert np.linalg.norm(projected - psi / d) < 1e-12


class TestValueTypes:
    def test_operator_layout_mismatch(self):
        with pytest.raises(ValueError):
            Operator(np.eye(4), (2, 3))

    def test_statevector_layout_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3), (2, 2))

    def test_dtype_follows_the_data(self):
        assert Operator(np.eye(2), (2,)).mat.dtype == np.float64
        assert Operator(np.eye(2, dtype=int), (2,)).mat.dtype == np.float64
        assert Operator(np.eye(2, dtype=complex), (2,)).mat.dtype == np.complex128
        assert StateVector([1, 0], (2,)).vec.dtype == np.float64
        assert StateVector(np.array([1j, 0]), (2,)).vec.dtype == np.complex128
        assert identity_operator((2,)).mat.dtype == np.float64
        assert max_entangled_state(3).vec.dtype == np.float64
        assert haar_unitary(2, 0).mat.dtype == np.complex128

    def test_arrays_are_frozen(self):
        op = identity_operator((2,))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_projector_defect(self):
        proj = max_entangled_state(2).projector()
        assert proj.projector_defect() < 1e-14
        assert proj.hermiticity_defect() < 1e-14
        assert proj.min_eigenvalue() > -1e-14
