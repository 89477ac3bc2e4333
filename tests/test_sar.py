import numpy as np
import pytest

from mcteleport import (
    CapacityError,
    Channel,
    StateVector,
    depolarizing_channel,
    haar_state,
    haar_unitary,
    identity_channel,
    max_entangled_state,
    mix_channels,
    random_channel,
    retrieve,
    store,
    success_probability_formula,
    unitary_channel,
    verify_sar,
)
from mcteleport import sar
from mcteleport.sar import ProgramState

from oracles import kron_program_state


def basis_state(d, i):
    vec = np.zeros(d, dtype=complex)
    vec[i] = 1.0
    return StateVector(vec, (d,))


class TestChannels:
    def test_identity_channel(self):
        ch = identity_channel(3)
        assert len(ch.kraus) == 1
        assert np.array_equal(ch.kraus[0], np.eye(3))
        assert ch.cptp_defect() < 1e-15

    def test_single_kraus_random_channel_is_isometric(self):
        ch = random_channel(2, 3, kraus_rank=1, seed=0)
        k = ch.kraus[0]
        assert np.linalg.norm(k.conj().T @ k - np.eye(2)) < 1e-12

    def test_random_channel_is_cptp_and_deterministic(self):
        for rank in (2, 4):
            ch = random_channel(3, 2, kraus_rank=rank, seed=42)
            again = random_channel(3, 2, kraus_rank=rank, seed=42)
            assert ch.cptp_defect() < 1e-12
            assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, again.kraus))

    def test_random_channel_rejects_impossible_rank(self):
        with pytest.raises(ValueError):
            random_channel(3, 2, kraus_rank=1, seed=0)

    def test_depolarizing_choi_is_maximally_mixed(self):
        prog = store(depolarizing_channel(2))
        assert np.linalg.norm(prog.rho.mat - np.eye(4) / 4) < 1e-12

    def test_kraus_shape_validation(self):
        with pytest.raises(ValueError):
            Channel((np.eye(2),), 2, 3)

    def test_empty_kraus_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            Channel((), 2, 2)


#: (d, d_out, Kraus rank) with d <= 4 and d_out, rank <= 3 whose Stinespring
#: isometry exists, so the channel is trace preserving.
ISOMETRIC_CELLS = [
    (d, d_out, rank)
    for d in range(1, 5)
    for d_out in range(1, 4)
    for rank in range(1, 4)
    if d_out * rank >= d
]


class TestStore:
    def test_identity_program_is_entangled_pair(self):
        prog = store(identity_channel(2))
        expected = max_entangled_state(2).projector().mat
        assert np.linalg.norm(prog.rho.mat - expected) < 1e-13

    def test_unitary_program_is_pure_rotation(self):
        u = haar_unitary(2, 3)
        prog = store(unitary_channel(u))
        phi = max_entangled_state(2).vec
        branch = np.kron(np.eye(2), u.mat) @ phi
        expected = np.outer(branch, branch.conj())
        assert np.linalg.norm(prog.rho.mat - expected) < 1e-13
        purity = np.trace(prog.rho.mat @ prog.rho.mat).real
        assert abs(purity - 1.0) < 1e-12

    def test_program_state_invariants(self):
        for seed in range(4):
            ch = random_channel(2, 3, kraus_rank=2, seed=seed)
            prog = store(ch)
            rho = prog.rho
            assert abs(rho.trace() - 1.0) < 1e-12
            assert rho.hermiticity_defect() < 1e-12
            assert rho.min_eigenvalue() > -1e-12
            # reduced state on the kept input half is maximally mixed
            reduced = rho.mat.reshape(2, 3, 2, 3)
            first = np.einsum("ibjb->ij", reduced)
            assert np.linalg.norm(first - np.eye(2) / 2) < 1e-12

    @pytest.mark.parametrize("d,d_out,rank", ISOMETRIC_CELLS)
    def test_matches_kron_built_program(self, d, d_out, rank):
        ch = random_channel(d, d_out, kraus_rank=rank, seed=100 * d + 10 * d_out + rank)
        expected = kron_program_state(list(ch.kraus), d)
        assert np.linalg.norm(store(ch).rho.mat - expected) <= 1e-13

    def test_store_rejects_non_cptp(self):
        broken = Channel((0.5 * np.eye(2),), 2, 2)
        with pytest.raises(ValueError):
            store(broken)

    def test_store_refuses_a_program_over_the_cap(self):
        wide = Channel((np.eye(3000, 2),), 2, 3000)  # a 6000-square program, 3.6e7 entries
        with pytest.raises(CapacityError, match="program state of 6000 x 6000"):
            store(wide)


class TestRetrieve:
    def test_identity_program_single_copy(self):
        prog = store(identity_channel(2))
        p, out = retrieve(prog, basis_state(2, 0), k=1)
        assert abs(p - 0.25) < 1e-12
        assert np.linalg.norm(out.mat - np.diag([1.0, 0.0])) < 1e-12

    def test_unitary_program_two_copies(self):
        u = haar_unitary(2, 8)
        prog = store(unitary_channel(u))
        psi = haar_state(2, 9)
        p, out = retrieve(prog, psi, k=2)
        rotated = u.mat @ psi.vec
        assert abs(p - 1 / 3) < 1e-12
        assert np.linalg.norm(out.mat - np.outer(rotated, rotated.conj())) < 1e-12

    def test_random_rank_two_channel_three_copies(self):
        ch = random_channel(2, 3, kraus_rank=2, seed=17)
        prog = store(ch)
        psi = haar_state(2, 18)
        p, out = retrieve(prog, psi, k=3)
        assert abs(p - 3 / 8) < 1e-12
        expected = ch.apply(np.outer(psi.vec, psi.vec.conj()))
        assert np.linalg.norm(out.mat - expected) < 1e-10

    def test_probability_is_channel_and_input_independent(self):
        rng = np.random.default_rng(21)
        probs = []
        for seed in range(10):
            ch = random_channel(2, 2, kraus_rank=3, seed=seed)
            psi = haar_state(2, rng)
            p, _ = retrieve(store(ch), psi, k=2)
            probs.append(p)
        assert np.std(probs) <= 1e-10

    def test_linearity_over_channel_mixtures(self):
        a = random_channel(2, 2, kraus_rank=1, seed=31)
        b = random_channel(2, 2, kraus_rank=2, seed=32)
        mixed = mix_channels(a, b, weight=0.3)
        assert mixed.cptp_defect() < 1e-12
        psi = haar_state(2, 33)
        p_mixed, out_mixed = retrieve(store(mixed), psi, k=2)
        _, out_a = retrieve(store(a), psi, k=2)
        _, out_b = retrieve(store(b), psi, k=2)
        combination = 0.3 * out_a.mat + 0.7 * out_b.mat
        assert abs(p_mixed - 1 / 3) < 1e-12
        assert np.linalg.norm(out_mixed.mat - combination) < 1e-11

    def test_dimension_mismatch(self):
        prog = store(identity_channel(2))
        with pytest.raises(ValueError):
            retrieve(prog, basis_state(3, 0), k=1)


class TestVerifySar:
    def test_identity_shape_single_copy(self):
        report = verify_sar(2, 2, k=1, kraus_rank=1, samples=20, seed=1)
        assert report.passed
        assert abs(report.p_formula - 0.25) < 1e-15

    def test_growing_output_two_copies(self):
        report = verify_sar(2, 3, k=2, kraus_rank=2, samples=20, seed=2)
        assert report.passed
        assert abs(report.p_formula - 1 / 3) < 1e-15

    def test_reports_retrieval_probabilities(self):
        report = verify_sar(3, 2, k=3, kraus_rank=3, samples=10, seed=4)
        assert report.passed
        assert abs(report.p_mean - report.p_formula) <= report.tol
        assert report.p_std <= 1e-12

    def test_shrinking_output_two_copies(self):
        report = verify_sar(3, 2, k=2, kraus_rank=4, samples=10, seed=3)
        assert report.passed
        assert abs(report.p_formula - 1 / 6) < 1e-15

    def test_formula_limit(self):
        for d in (2, 5):
            assert abs(success_probability_formula(d, 10**6) - 1 / d) < 1e-5


@pytest.mark.parametrize("d,d_out", [(300, 300), (2, 3000), (80, 80)])
def test_verify_sar_checks_the_program_cap_on_entry(d, d_out, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("built for a cell over the program cap")

    monkeypatch.setattr(sar, "build_measurement", unexpected)
    monkeypatch.setattr(sar, "ginibre", unexpected)
    with pytest.raises(CapacityError, match="program state"):
        verify_sar(d, d_out, 1, 1, samples=2)


class TestProgramStateType:
    def test_rho_layout(self):
        prog = store(random_channel(2, 3, kraus_rank=2, seed=4))
        assert isinstance(prog, ProgramState)
        assert prog.rho.dims == (2, 3)
        assert (prog.d, prog.d_out) == (2, 3)
