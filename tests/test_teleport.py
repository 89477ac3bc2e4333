import math
from functools import reduce

import numpy as np
import pytest

from mcteleport import (
    DIM_CAP,
    CapacityError,
    Permutation,
    StateVector,
    VerificationError,
    assert_eigendecomposition,
    build_measurement,
    conjugate_by_permutation,
    eigendecomposition_residual,
    gram_residual,
    haar_state,
    haar_unitary,
    hermitian_eig,
    max_entangled_state,
    r_vectors,
    simulate,
    success_probability_formula,
    sym_projector,
    symmetric_group,
    verify_theorem,
)
from mcteleport import cli, sar, symgroup, teleport
from mcteleport.symgroup import occupation_rank

from oracles import (
    dense_conditional_output,
    dense_success_element,
    frobenius_distance,
    full_eigen_factor,
    full_projector_factor,
    occupations_by_sorting,
    sandwich_rows_by_count,
    sqrt_multinomials_by_combs,
    sym_basis_by_loop,
)

#: Every cell whose dense success element has at most 4096 rows (so k <= 11
#: for d >= 2), d = 1 included.
DENSE_CELLS = [(d, k) for d in range(1, 65) for k in range(1, 12) if d ** (k + 1) <= 4096]

#: Every cell whose success element has at most 1024 rows and k <= 6: small
#: enough to write out with explicit permutation matrices, d = 1 included.
FORMULA_CELLS = [(d, k) for d in range(1, 33) for k in range(1, 7) if d ** (k + 1) <= 1024]

#: Every cell whose success element has at most 1024 rows (so k <= 9 for
#: d >= 2), d = 1 included up to the same k.
CONTRACTION_CELLS = [(d, k) for d in range(1, 33) for k in range(1, 10) if d ** (k + 1) <= 1024]


def dense_factor(meas):
    """G as an (m d) x width array: column j holds values[j, a] in row rows[j, a]."""
    g = np.zeros((meas.d * math.comb(meas.k + meas.d - 1, meas.k), len(meas.rows)), dtype=meas.values.dtype)
    for j, (rows, values) in enumerate(zip(meas.rows, meas.values)):
        g[rows, j] = values
    return g


class TestFormula:
    def test_single_copy_baseline(self):
        for d in (2, 3, 4, 7):
            assert abs(success_probability_formula(d, 1) - 1 / d**2) < 1e-15

    def test_two_copies_two_levels(self):
        assert abs(success_probability_formula(2, 2) - 1 / 3) < 1e-15

    def test_many_copy_limit(self):
        for d in (2, 3, 5):
            assert abs(success_probability_formula(d, 10**6) - 1 / d) < 1e-5

    def test_monotone_and_bounded(self):
        for d in (2, 3, 4):
            k = np.arange(1, 10**6 + 1, dtype=float)
            p = k / (d * (k - 1 + d))
            assert np.all(np.diff(p) > 0)
            assert np.all(p < 1 / d + 1e-15)


class TestRVectors:
    def test_single_copy_is_entangled_state(self):
        vectors = r_vectors(2, 1)
        assert len(vectors) == 1
        assert np.allclose(vectors[0].vector.vec, max_entangled_state(2).vec, atol=1e-14)

    def test_count_matches_symmetric_dimension(self):
        for d, k in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
            assert len(r_vectors(d, k)) == math.comb(k - 2 + d, k - 1)

    def test_orthonormality(self):
        vectors = r_vectors(2, 2)
        columns = np.column_stack([r.vector.vec for r in vectors])
        gram = columns.conj().T @ columns
        assert np.abs(gram - np.eye(2)).max() < 1e-12
        for d, k in [(1, 3), (2, 2), (2, 4), (3, 3)]:
            assert gram_residual(d, k) <= 1e-12

    def test_constituent_overlaps(self):
        d, k = 2, 3
        vectors = r_vectors(d, k)
        for ri in vectors:
            for rj in vectors:
                same_index = 1.0 if ri.index == rj.index else 0.0
                for a in range(k):
                    for b in range(k):
                        overlap = ri.constituents[a].overlap(rj.constituents[b])
                        want = same_index if a == b else same_index / d
                        assert abs(overlap - want) < 1e-12


class TestBuildMeasurement:
    def test_single_copy_both_forms(self):
        target = max_entangled_state(2).projector().mat
        for form in ("eigen", "projector"):
            m = build_measurement(2, 1, form=form)
            assert np.linalg.norm(m.op.mat - target) < 1e-13

    def test_trivial_local_dimension(self):
        for k in (1, 2, 3):
            m = build_measurement(1, k)
            assert m.op.mat.shape == (1, 1)
            assert abs(m.op.mat[0, 0] - 1.0) < 1e-12

    def test_rank(self):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            m = build_measurement(d, k)
            vals, _ = hermitian_eig(m.op)
            assert int((vals > 0.5).sum()) == math.comb(k - 2 + d, k - 1)
            assert np.all((vals < 1e-10) | (np.abs(vals - 1) < 1e-10))

    def test_povm_element_invariants(self):
        for d, k in [(2, 3), (3, 2)]:
            for form in ("eigen", "projector"):
                op = build_measurement(d, k, form=form).op
                assert op.hermiticity_defect() < 1e-12
                assert op.projector_defect() < 1e-11
                vals, _ = hermitian_eig(op)
                assert vals[0] > -1e-12 and vals[-1] < 1 + 1e-12


class TestEigendecomposition:
    @pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 2)])
    def test_dual_constructions_agree(self, d, k):
        report = assert_eigendecomposition(d, k, tol=1e-10)
        assert report.residual <= 1e-12

    def test_failure_carries_residual(self):
        with pytest.raises(VerificationError) as err:
            assert_eigendecomposition(2, 2, tol=-1.0)
        assert err.value.residual is not None


class TestSimulate:
    def test_basis_state_single_copy(self):
        meas = build_measurement(2, 1)
        psi = StateVector(np.array([1.0, 0.0]), (2,))
        p, bob = simulate(psi, meas)
        assert abs(p - 0.25) < 1e-12
        assert np.linalg.norm(bob.mat - np.diag([1.0, 0.0])) < 1e-12

    def test_basis_state_two_copies(self):
        meas = build_measurement(2, 2)
        psi = StateVector(np.array([1.0, 0.0]), (2,))
        p, _ = simulate(psi, meas)
        assert abs(p - 1 / 3) < 1e-12

    def test_haar_samples_d3_k2(self):
        meas = build_measurement(3, 2)
        rng = np.random.default_rng(77)
        for _ in range(100):
            psi = haar_state(3, rng)
            p, bob = simulate(psi, meas)
            assert abs(p - 1 / 6) < 1e-10
            fidelity = float(np.real(psi.vec.conj() @ bob.mat @ psi.vec))
            assert fidelity >= 1 - 1e-10

    def test_projector_form_measurement_also_simulates(self):
        meas = build_measurement(2, 2, form="projector")
        psi = StateVector(np.array([0.0, 1.0]), (2,))
        p, bob = simulate(psi, meas)
        assert abs(p - 1 / 3) < 1e-12
        assert np.linalg.norm(bob.mat - np.diag([0.0, 1.0])) < 1e-11

    def test_rejects_unnormalised_input(self):
        meas = build_measurement(2, 1)
        with pytest.raises(ValueError):
            simulate(StateVector(np.array([1.0, 1.0]), (2,)), meas)

    def test_degenerate_outcome_guard(self):
        from mcteleport.teleport import Measurement

        zero = Measurement(2, 1, build_measurement(2, 1).rows, np.zeros((1, 2)))  # width x d
        with pytest.raises(VerificationError):
            simulate(StateVector(np.array([1.0, 0.0]), (2,)), zero)

    def test_rejects_wrong_dimension(self):
        meas = build_measurement(2, 1)
        with pytest.raises(ValueError):
            simulate(StateVector(np.ones(3) / math.sqrt(3), (3,)), meas)


class TestConditionedOutput:
    @pytest.mark.parametrize("d,k", CONTRACTION_CELLS)
    def test_general_measurement_matches_dense_oracle(self, d, k):
        # Random complex values on the eigen rows give a conditioned element
        # of rank min(width, d), unlike the optimal measurement, whose element
        # is rank one.
        rng = np.random.default_rng([d, k])
        shape = build_measurement(d, k).rows.shape
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2 * shape[0])
        meas = teleport.Measurement(d, k, build_measurement(d, k).rows, values)
        g = dense_factor(meas)
        b = sym_basis_by_loop(k, d)
        f = (b @ g.reshape(b.shape[1], -1)).reshape(d ** (k + 1), -1)  # F = (B (x) 1) G
        m = f @ f.conj().T
        psi = haar_state(d, rng)
        phi = max_entangled_state(d).vec
        want = dense_conditional_output(m, psi.vec, k, np.outer(phi, phi.conj()))
        p, bob = simulate(psi, meas)
        assert abs(p - want.trace().real) < 1e-12
        assert np.linalg.norm(p * bob.mat - want) < 1e-12
        prog = sar.store(sar.random_channel(d, d + 1, kraus_rank=2, seed=rng))
        want = dense_conditional_output(m, psi.vec, k, prog.rho.mat)
        p, out = sar.retrieve(prog, psi, k, meas)
        assert abs(p - want.trace().real) < 1e-12
        assert np.linalg.norm(p * out.mat - want) < 1e-12


class TestVerifyTheorem:
    def test_single_copy(self):
        report = verify_theorem(2, 1, samples=50, seed=5)
        assert report.passed
        assert abs(report.p_mean - 0.25) < 1e-12

    def test_four_copies(self):
        report = verify_theorem(2, 4, samples=50, seed=6)
        assert report.passed
        assert abs(report.p_mean - 0.4) < 1e-12

    def test_qudit_three_copies(self):
        report = verify_theorem(4, 3, samples=20, seed=7)
        assert report.passed
        assert abs(report.p_mean - 0.125) < 1e-12

    def test_probability_is_input_independent(self):
        report = verify_theorem(3, 2, samples=40, seed=8)
        assert report.p_std <= 1e-10

    def test_disagreeing_constructions_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(teleport, "_factor_distance", lambda *args: 1.0)
        assert not verify_theorem(2, 2, samples=3, seed=9).passed
        assert cli.main(["verify", "--d", "2", "--k", "2", "--samples", "3", "--threads", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].split(",")[-2] == "false"

    def test_impossible_tolerance_fails_with_worst_sample(self):
        report = verify_theorem(2, 2, samples=10, seed=9, tol=0.0)
        assert not report.passed
        assert 0 <= report.worst_sample_index < 10


class TestCovariance:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permutation_covariance(self, k):
        op = build_measurement(2, k).op
        for sigma in symmetric_group(k):
            extended = Permutation(sigma.images + (k,))
            conjugated = conjugate_by_permutation(extended, op)
            assert np.linalg.norm(conjugated.mat - op.mat) < 1e-11

    def test_unitary_covariance(self):
        d, k = 2, 3
        op = build_measurement(d, k).op.mat
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = haar_unitary(d, rng).mat
            w = reduce(np.kron, [u] * k + [u.conj()])
            assert np.linalg.norm(w @ op @ w.conj().T - op) < 1e-9


class TestThinFactor:
    @pytest.mark.parametrize("d,k", DENSE_CELLS)
    def test_thin_residual_matches_dense_oracle(self, d, k):
        dense = frobenius_distance(
            build_measurement(d, k, form="eigen").op.mat,
            build_measurement(d, k, form="projector").op.mat,
        )
        assert abs(eigendecomposition_residual(d, k) - dense) <= 1e-13

    @pytest.mark.parametrize("d,k", FORMULA_CELLS)
    def test_both_forms_match_the_written_out_formula(self, d, k):
        target = dense_success_element(d, k)
        for form in ("eigen", "projector"):
            assert frobenius_distance(build_measurement(d, k, form=form).op.mat, target) < 1e-12

    @pytest.mark.parametrize("d,k", DENSE_CELLS)
    def test_forms_match_full_coordinate_oracles(self, d, k):
        for form, oracle in (("eigen", full_eigen_factor), ("projector", full_projector_factor)):
            f = oracle(d, k)
            assert frobenius_distance(build_measurement(d, k, form=form).op.mat, f @ f.conj().T) < 1e-12

    def test_factor_widths(self):
        for d, k in [(3, 3), (2, 10), (6, 5), (2, 200)]:  # one row per eigenvector, one column per level
            shape = (math.comb(k - 2 + d, k - 1), d)
            for form in ("eigen", "projector"):
                meas = build_measurement(d, k, form)
                assert meas.rows.shape == meas.values.shape == shape

    @pytest.mark.parametrize("d,k", [(1, 4), (2, 1), (2, 5), (3, 1), (3, 4), (4, 3), (5, 2), (7, 1)])
    def test_eigen_factor_entries(self, d, k):
        # column n' holds sqrt((n'_a + 1)/(k - 1 + d)) in row index(n' + e_a) d + a, and nothing else
        index = {occ: i for i, occ in enumerate(occupations_by_sorting(k, d))}
        want_rows = np.zeros((math.comb(k - 2 + d, k - 1), d), dtype=int)
        want_values = np.zeros(want_rows.shape)
        for col, occ in enumerate(occupations_by_sorting(k - 1, d)):
            for a in range(d):
                grown = occ[:a] + (occ[a] + 1,) + occ[a + 1 :]
                want_rows[col, a] = index[grown] * d + a
                want_values[col, a] = math.sqrt(grown[a] / (k - 1 + d))
        meas = build_measurement(d, k)
        assert np.array_equal(meas.rows, want_rows)
        assert np.array_equal(meas.values, want_values)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 1), (2, 4), (3, 3), (4, 2)])
    def test_eigen_factor_embeds_to_the_stacked_r_vectors(self, d, k):
        g = dense_factor(build_measurement(d, k))
        b = sym_basis_by_loop(k, d)
        stacked = np.column_stack([r.vector.vec for r in r_vectors(d, k)])
        assert np.abs((b @ g.reshape(b.shape[1], -1)).reshape(d ** (k + 1), -1) - stacked).max() < 1e-13

    def test_factor_needs_symmetric_rows(self):
        rows, values = build_measurement(2, 3).rows, np.ones((3, 2))  # m d = 8 coordinates
        for bad in (
            np.zeros((2**4, 1), dtype=int),  # d^(k+1) rows, not width x d
            rows + 0.0,  # not integer
            rows + 2,  # one past index(n) = m - 1
            rows[:, ::-1],  # rows[j, a] at level 1 - a
            np.stack([rows[0], rows[0], rows[2]]),  # a coordinate twice
        ):
            with pytest.raises(ValueError):
                teleport.Measurement(2, 3, bad, values)
        with pytest.raises(ValueError):
            teleport.Measurement(2, 3, rows, np.ones((2, 2)))

    def test_verify_paths_need_no_full_basis(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("basis on all d^k coordinates")

        monkeypatch.setattr(symgroup, "sym_basis", unexpected)
        monkeypatch.setattr(teleport, "sym_basis", unexpected)
        assert verify_theorem(2, 30, samples=3, seed=2).passed
        assert sar.verify_sar(2, 2, 30, kraus_rank=2, samples=3, seed=2).passed

    def test_weights_past_the_float_range_are_refused(self):
        with pytest.raises(CapacityError):  # C(1100, 550) > 2^1000
            teleport._sqrt_multinomials(2, 1100)

    @pytest.mark.parametrize("d,k", [(2, 30000), (16, 7), (2, 1010), (2, 1100)])
    def test_oversized_cells_are_refused_before_allocation(self, d, k, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("factor built for a cell over the cap")

        monkeypatch.setattr(teleport, "_insertions", unexpected)
        monkeypatch.setattr(teleport, "_sandwich_rows", unexpected)
        for form in ("eigen", "projector"):
            with pytest.raises(CapacityError):
                build_measurement(d, k, form)

    def test_every_dense_cell_fits_the_factor_cap(self):
        for d in range(2, 257):  # 257^2 > DIM_CAP
            for k in range(1, 17):
                if d ** (k + 1) > DIM_CAP:
                    break
                width = math.comb(k - 2 + d, k - 1)
                assert width * d * d <= teleport.FACTOR_CAP

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 1), (2, 5), (3, 3), (4, 2), (5, 1)])
    def test_projector_form_shares_no_helper_with_the_eigen_form(self, d, k, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("eigen-form helper used by the projector form")

        monkeypatch.setattr(teleport, "_insertions", unexpected)
        monkeypatch.setattr(teleport, "occupation_rank", unexpected)
        monkeypatch.setattr(symgroup, "occupation_rank", unexpected)
        g = dense_factor(build_measurement(d, k, form="projector"))
        b = sym_basis_by_loop(k, d)
        f = (b @ g.reshape(b.shape[1], -1)).reshape(d ** (k + 1), -1)
        assert frobenius_distance(f @ f.conj().T, dense_success_element(d, k)) < 1e-12

    @pytest.mark.parametrize("d,k", [(2, 10), (3, 5), (4, 6), (3, 40), (1, 4), (5, 1)])
    def test_sandwich_rows_keep_the_bits_of_the_per_row_count(self, d, k):
        columns, entries = teleport._sandwich_rows(d, k)
        want_columns, want_entries = sandwich_rows_by_count(d, k)
        assert columns.dtype == want_columns.dtype and np.array_equal(columns, want_columns)
        assert entries.dtype == want_entries.dtype and np.array_equal(entries, want_entries)

    @pytest.mark.parametrize("d,k", [(3, 361), (2, 10), (4, 5), (5, 1), (1, 4)])
    def test_sqrt_multinomials_keep_the_bits_of_one_comb_chain_per_occupation(self, d, k):
        roots, want = teleport._sqrt_multinomials(d, k), sqrt_multinomials_by_combs(d, k)
        assert roots.dtype == want.dtype and np.array_equal(roots, want)

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 2), (3, 6)])
    def test_residual_ignores_the_column_order(self, d, k):
        eigen, proj = (build_measurement(d, k, form) for form in ("eigen", "projector"))
        order = np.random.default_rng(d * k).permutation(len(proj.rows))
        shuffled = teleport.Measurement(d, k, proj.rows[order], proj.values[order])
        assert teleport._factor_distance(eigen, shuffled) == teleport._factor_distance(eigen, proj)
        assert teleport._factor_distance(shuffled, eigen) < 1e-14

    def test_residual_sees_a_broken_occupation_rank(self, monkeypatch):
        m = math.comb(4, 2)  # occupations of k = 2 factors over d = 3 levels
        monkeypatch.setattr(teleport, "occupation_rank", lambda occ: (occupation_rank(occ) + 1) % m)
        with pytest.raises(VerificationError, match="different coordinates"):
            eigendecomposition_residual(3, 2)
        with pytest.raises(VerificationError):
            assert_eigendecomposition(3, 2)

    def test_verify_paths_leave_dense_op_unbuilt(self, monkeypatch):
        built = []

        def recording(d, k, form="eigen"):
            meas = build_measurement(d, k, form)
            built.append(meas)
            return meas

        monkeypatch.setattr(teleport, "build_measurement", recording)
        monkeypatch.setattr(sar, "build_measurement", recording)
        assert verify_theorem(3, 3, samples=3, seed=1).passed
        assert sar.verify_sar(2, 3, k=3, kraus_rank=2, samples=3, seed=1).passed
        assert len(built) == 3  # eigen for sampling and the residual, projector for the residual, eigen for sar
        assert all("op" not in vars(meas) for meas in built)

    def test_projector_form_needs_no_group_sum(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("sum over the symmetric group")

        monkeypatch.setattr(symgroup, "symmetric_group", unexpected)
        symgroup.sym_projector.cache_clear()  # a cached projector would hide a group sum
        assert sym_projector(10, 2).trace() == pytest.approx(11, abs=1e-10)
        assert eigendecomposition_residual(2, 10) <= 1e-12


def test_residual_helper_matches_assert():
    assert eigendecomposition_residual(2, 2) <= 1e-12
