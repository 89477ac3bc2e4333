import math
import os
import re
import warnings
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
    kron,
    max_entangled_state,
    partial_trace,
    partial_transpose,
    permute_state,
    random_channel,
    verify_theorem,
)

from mcteleport import core
from mcteleport.core import FACTOR_CAP, batch_slices, seeded_normals, seeded_uniforms, spawn_keys
from mcteleport.tensor import check_memory

from oracles import (
    box_muller_normals,
    dense_permutation_matrix,
    hermitian_eig,
    identity_operator,
    permutation_operator,
    splitmix64,
    splitmix64_uniforms,
)


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
        x = StateVector(haar_state(8, 8).vec, (2, 2, 2))
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
        values = np.empty(samples)
        for i, seed in enumerate(spawn_keys(321, samples)):
            values[i] = abs(haar_unitary(d, seed).mat[0, 0]) ** 2
        variance = 2 / (d * (d + 1)) - 1 / d**2
        band = 3 * math.sqrt(variance / samples)
        assert abs(values.mean() - 1 / d) < band


class TestSpawnKeys:
    #: the smallest seeds, the edges of the low 32-bit word and the largest 64-bit seed
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    #: seeds outside 64 bits, and what is not an integer; unchecked, a uint64 array would raise OverflowError
    #: on the first two and wrap int64(-1) to 2^64 - 1
    OUTSIDE = [-1, 2**64, 2**200 + 12345, 1.5, np.int64(-1)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_keys_are_the_scalar_splitmix64_outputs(self, seed, n):
        keys = spawn_keys(seed, n)
        assert keys.dtype == np.uint64 and keys.shape == (n,) and keys.tolist() == splitmix64(seed, n)

    def test_keys_are_distinct(self):
        assert np.unique(spawn_keys(2024, 10**5)).size == 10**5

    @pytest.mark.parametrize("seed", OUTSIDE)
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match="need a 64-bit seed"):
            spawn_keys(seed, 3)

    @pytest.mark.parametrize("seed", OUTSIDE)
    @pytest.mark.parametrize(
        "draw",
        [haar_state, haar_unitary, lambda d, seed: random_channel(d, 3, 2, seed)],
        ids=["state", "unitary", "channel"],
    )
    def test_the_one_sample_draws_refuse_it_too(self, draw, seed):
        with pytest.raises(ValueError, match="need a 64-bit seed"):
            draw(2, seed)

    @pytest.mark.parametrize("seed", OUTSIDE)
    def test_verify_theorem_refuses_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="need a 64-bit seed"):
            verify_theorem(2, 1, samples=2, seed=seed)


#: Keys 0, 1, 2^64 - 1 and 2^64 - gamma: SplitMix64's sums wrap mod 2^64 at the first step, later or never.
EDGE_KEYS = np.array([0, 1, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15], dtype=np.uint64)


def _keys(seed):
    return EDGE_KEYS if seed is None else spawn_keys(seed, 50)


class TestSeededNormals:
    @pytest.mark.parametrize("seed", [None, *TestSpawnKeys.SEEDS])
    @pytest.mark.parametrize("count", [1, 2, 9])
    def test_uniforms_are_the_scalar_splitmix64_stream_bit_for_bit(self, seed, count):
        keys = _keys(seed)
        want = np.array([splitmix64_uniforms(int(word), count) for word in keys])
        assert np.array_equal(seeded_uniforms(keys, count), want)

    @pytest.mark.parametrize("seed", [None, 0, 7, 2**64 - 1])
    @pytest.mark.parametrize("width", [1, 2, 7, 40])
    def test_normals_are_the_scalar_box_muller_normals_to_a_few_ulp(self, seed, width):
        # numpy's vectorised log1p, cos and sin may round otherwise than the C library's
        keys = _keys(seed)
        rows = seeded_normals(keys, width)
        want = np.array([box_muller_normals(int(word), width) for word in keys])
        assert rows.shape == want.shape
        assert np.all(np.abs(rows - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("step", [30, 7, 1])
    @pytest.mark.parametrize("seed,width", [(0, 1), (7, 4), (2**64 - 1, 40)])
    def test_rows_do_not_depend_on_the_chunks(self, seed, width, step, monkeypatch):
        monkeypatch.setattr(core, "FACTOR_CAP", step * width)  # step rows a chunk
        keys = spawn_keys(seed, 30)
        rows = np.concatenate([seeded_normals(keys[part], width) for part in batch_slices(30, width)])
        assert np.array_equal(rows, seeded_normals(keys, width))
        assert np.array_equal(rows, np.concatenate([seeded_normals(key[None], width) for key in keys]))

    def test_wrapping_mod_two_to_the_64_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeded_normals(EDGE_KEYS, 41)
            seeded_normals(EDGE_KEYS[2:3], 1)


class TestNormalLaw:
    """The stream's normals against N(0, 1), in 5-sigma bands over 10^5 of them."""

    @pytest.fixture(scope="class")
    def normals(self):
        return seeded_normals(spawn_keys(2024, 25_000), 4)

    def test_mean_and_variance(self, normals):
        n = normals.size
        assert abs(normals.mean()) < 5 / math.sqrt(n)
        assert abs(normals.var() - 1) < 5 * math.sqrt(2 / n)  # a normal's 4th moment is 3

    def test_share_below_one_is_phi_of_one(self, normals):
        phi = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert abs((normals < 1.0).mean() - phi) < 5 * math.sqrt(phi * (1 - phi) / normals.size)

    def test_the_cos_and_sin_halves_are_uncorrelated(self, normals):
        cos, sin = normals[:, 0::2].ravel(), normals[:, 1::2].ravel()
        assert abs(np.corrcoef(cos, sin)[0, 1]) < 5 / math.sqrt(cos.size)


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
        for d in (2, 3, 4):
            phi = max_entangled_state(d).vec
            for seed in spawn_keys(10 * d, 100):
                psi = haar_state(d, seed).vec
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


class TestCheckMemory:
    def test_a_store_past_the_address_space_limit_is_named_apart_from_the_mapped_space(self, monkeypatch):
        # the store is compared with the limit together with the address space already mapped, but its own
        # size is the one reported: 3e9 bytes are 2.79 GiB, however much the process maps
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(resource, "getrlimit", lambda which: (2 << 30, resource.RLIM_INFINITY))
        with pytest.raises(CapacityError) as refused:
            check_memory(3 * 10**9, "store")
        assert re.fullmatch(r"store of 2\.79 GiB, with [\d.]+ GiB already mapped, exceeds the 2\.00 GiB this process gets",
                            str(refused.value))

    def test_a_store_past_physical_memory_is_reported_alone(self, monkeypatch):
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        check_memory(physical, "store")
        with pytest.raises(CapacityError, match=r"^store of [\d.]+ GiB exceeds the [\d.]+ GiB this process gets$"):
            check_memory(physical + 1, "store")
