import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from mcteleport import (
    DIM_CAP,
    CapacityError,
    Permutation,
    StateVector,
    VerificationError,
    build_measurement,
    conditioned_element,
    conjugate_by_permutation,
    eigendecomposition_residual,
    gram_residual,
    haar_state,
    haar_unitary,
    max_entangled_state,
    r_vectors,
    simulate,
    success_probability_formula,
    sym_projector,
    symmetric_group,
    verify_theorem,
)
from mcteleport import cli, sar, symgroup, teleport
from mcteleport.core import FACTOR_CAP, spawn_keys

from oracles import (
    dense_conditional_output,
    dense_success_element,
    frobenius_distance,
    full_eigen_factor,
    full_projector_factor,
    hermitian_eig,
    measurement_op,
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
            assert np.linalg.norm(measurement_op(m).mat - target) < 1e-13

    def test_trivial_local_dimension(self):
        for k in (1, 2, 3):
            mat = measurement_op(build_measurement(1, k)).mat
            assert mat.shape == (1, 1)
            assert abs(mat[0, 0] - 1.0) < 1e-12

    def test_rank(self):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            m = build_measurement(d, k)
            vals, _ = hermitian_eig(measurement_op(m))
            assert int((vals > 0.5).sum()) == math.comb(k - 2 + d, k - 1)
            assert np.all((vals < 1e-10) | (np.abs(vals - 1) < 1e-10))

    def test_povm_element_invariants(self):
        for d, k in [(2, 3), (3, 2)]:
            for form in ("eigen", "projector"):
                op = measurement_op(build_measurement(d, k, form=form))
                assert op.hermiticity_defect() < 1e-12
                assert op.projector_defect() < 1e-11
                vals, _ = hermitian_eig(op)
                assert vals[0] > -1e-12 and vals[-1] < 1 + 1e-12


class TestEigendecomposition:
    @pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 2)])
    def test_dual_constructions_agree(self, d, k):
        assert eigendecomposition_residual(d, k) <= 1e-12

    def test_a_moved_entry_shows_in_the_residual(self, monkeypatch):
        exact = teleport.build_measurement

        def moved(d, k, form="eigen"):
            meas = exact(d, k, form)
            if form == "eigen":
                return meas
            values = meas.values.copy()
            values[0, 0] += 1e-3
            return teleport.Measurement(d, k, values)

        monkeypatch.setattr(teleport, "build_measurement", moved)
        assert eigendecomposition_residual(2, 2) > 1e-4

    @staticmethod
    def exact_squared_distance(g, h):
        # sum over the columns of ||g g^T - h h^T||^2 in rationals, from the float entries of both factors
        total = Fraction(0)
        for gs, hs in zip(g.tolist(), h.tolist()):
            gs, hs = [Fraction(x) for x in gs], [Fraction(x) for x in hs]
            total += sum((ga * gb - ha * hb) ** 2 for ga, ha in zip(gs, hs) for gb, hb in zip(gs, hs))
        return total

    @pytest.mark.parametrize("d,k,moved", [(1, 3, False), (2, 1, False), (2, 3, False), (3, 4, False),
                                           (8, 5, False), (3, 4, True)])
    def test_factor_distance_is_the_exact_distance_of_the_stored_factors(self, d, k, moved):
        eigen, projector = build_measurement(d, k, "eigen"), build_measurement(d, k, "projector")
        if moved:
            values = projector.values.copy()
            values[1, 2] += 1e-3
            projector = teleport.Measurement(d, k, values)
        exact = self.exact_squared_distance(eigen.values, projector.values)
        distance = teleport._factor_distance(eigen, projector)
        assert distance**2 == pytest.approx(float(exact), rel=1e-12, abs=0)
        assert (distance > 1e-4) == moved

    @pytest.mark.parametrize("d,k", [(8, 12), (128, 2)])
    def test_factor_distance_holds_width_x_d_arrays(self, d, k):
        eigen, projector = build_measurement(d, k, "eigen"), build_measurement(d, k, "projector")
        tracemalloc.start()
        try:
            teleport._factor_distance(eigen, projector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * eigen.values.size * 16, peak


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
        for seed in spawn_keys(77, 100):
            psi = haar_state(3, seed)
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

        zero = Measurement(2, 1, np.zeros((1, 2)))  # width x d
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
        meas = teleport.Measurement(d, k, values)
        g = dense_factor(meas)
        b = sym_basis_by_loop(k, d)
        f = (b @ g.reshape(b.shape[1], -1)).reshape(d ** (k + 1), -1)  # F = (B (x) 1) G
        m = f @ f.conj().T
        psi = haar_state(d, 10 * d + k)
        phi = max_entangled_state(d).vec
        want = dense_conditional_output(m, psi.vec, k, np.outer(phi, phi.conj()))
        p, bob = simulate(psi, meas)
        assert abs(p - want.trace().real) < 1e-12
        assert np.linalg.norm(p * bob.mat - want) < 1e-12
        prog = sar.store(sar.random_channel(d, d + 1, kraus_rank=2, seed=10 * d + k + 1))
        want = dense_conditional_output(m, psi.vec, k, prog.rho.mat)
        p, out = sar.retrieve(prog, psi, k, meas)
        assert abs(p - want.trace().real) < 1e-12
        assert np.linalg.norm(p * out.mat - want) < 1e-12


    @pytest.mark.parametrize("form", ["eigen", "projector"])
    @pytest.mark.parametrize("d,k", [(2, 3), (3, 2)])
    def test_conditioned_element_is_the_one_sample_case(self, d, k, form):
        meas = build_measurement(d, k, form)
        psi = haar_state(d, 10 * d + k)
        e = conditioned_element(meas, psi)
        assert e.shape == (d, d)
        assert np.array_equal(e, teleport.conditioned_elements(meas, psi.vec[None])[0])
        trace = np.trace(e).real
        assert abs(trace / d - success_probability_formula(d, k)) < 1e-12
        assert np.abs(e.T / trace - np.outer(psi.vec, psi.vec.conj())).max() < 1e-12
        with pytest.raises(ValueError):
            conditioned_element(meas, StateVector(np.kron(psi.vec, psi.vec), (d, d)))


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
        op = measurement_op(build_measurement(2, k))
        for sigma in symmetric_group(k):
            extended = Permutation(sigma.images + (k,))
            conjugated = conjugate_by_permutation(extended, op)
            assert np.linalg.norm(conjugated.mat - op.mat) < 1e-11

    def test_unitary_covariance(self):
        d, k = 2, 3
        op = measurement_op(build_measurement(d, k)).mat
        for seed in spawn_keys(13, 20):
            u = haar_unitary(d, seed).mat
            w = reduce(np.kron, [u] * k + [u.conj()])
            assert np.linalg.norm(w @ op @ w.conj().T - op) < 1e-9


class TestThinFactor:
    @pytest.mark.parametrize("d,k", DENSE_CELLS)
    def test_thin_residual_matches_dense_oracle(self, d, k):
        dense = frobenius_distance(
            measurement_op(build_measurement(d, k, form="eigen")).mat,
            measurement_op(build_measurement(d, k, form="projector")).mat,
        )
        assert abs(eigendecomposition_residual(d, k) - dense) <= 1e-13

    @pytest.mark.parametrize("d,k", FORMULA_CELLS)
    def test_both_forms_match_the_written_out_formula(self, d, k):
        target = dense_success_element(d, k)
        for form in ("eigen", "projector"):
            assert frobenius_distance(measurement_op(build_measurement(d, k, form=form)).mat, target) < 1e-12

    @pytest.mark.parametrize("d,k", DENSE_CELLS)
    def test_forms_match_full_coordinate_oracles(self, d, k):
        for form, oracle in (("eigen", full_eigen_factor), ("projector", full_projector_factor)):
            f = oracle(d, k)
            assert frobenius_distance(measurement_op(build_measurement(d, k, form=form)).mat, f @ f.conj().T) < 1e-12

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

    def test_factor_needs_width_x_d_values(self):
        for bad in (np.ones((2, 2)), np.ones((2**4, 1)), np.ones((3, 2, 1))):  # width x d = 3 x 2 at (2, 3)
            with pytest.raises(ValueError):
                teleport.Measurement(2, 3, bad)

    def test_verify_paths_need_no_full_basis(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("basis on all d^k coordinates")

        monkeypatch.setattr(symgroup, "sym_basis", unexpected)
        assert verify_theorem(2, 30, samples=3, seed=2).passed
        assert sar.verify_sar(2, 2, 30, kraus_rank=2, samples=3, seed=2).passed

    def test_weights_past_the_float_range_are_refused(self):
        with pytest.raises(CapacityError):  # C(1100, 550) > 2^1000
            teleport._sqrt_multinomials(2, 1100)

    @pytest.mark.parametrize("d,k", [(16, 7), (10, 30), (20, 20)])
    def test_oversized_cells_are_refused_before_allocation(self, d, k):
        # the projector form is refused by the table of k factors before its multinomials exist; the eigen
        # form by the first table that does not fit, of k - 1 factors or of k, after its width x d values
        rows = {n: math.comb(n + d - 1, n) for n in (k - 1, k)}
        for form, bound in (("eigen", 3 * FACTOR_CAP * 8), ("projector", 2**16)):
            n = k - 1 if form == "eigen" and rows[k - 1] * d > FACTOR_CAP else k
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match=f"occupation table of {rows[n]} x {d} entries exceeds cap"):
                    build_measurement(d, k, form)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (form, peak)

    @pytest.mark.parametrize("d,k", [(2, 30000), (2, 1010), (2, 1100)])
    def test_only_the_multinomials_are_refused_past_the_float_range(self, d, k, monkeypatch):
        # the projector form is refused by its first multinomial, before an occupation table exists
        with monkeypatch.context() as patch:
            patch.setattr(teleport, "occupations", lambda *args: pytest.fail("projector form built"))
            with pytest.raises(CapacityError, match=f"weights of k={k} copies at d={d} exceed the float range"):
                build_measurement(d, k, "projector")
        with pytest.raises(CapacityError, match="exceed the float range"):
            teleport._sqrt_multinomials(d, k)
        with pytest.raises(CapacityError, match="exceed the float range"):
            teleport.check_weights(d, k)
        monkeypatch.setattr(teleport, "_sqrt_multinomials", lambda *args: pytest.fail("multinomials formed"))
        meas = build_measurement(d, k, "eigen")
        assert meas.rows.shape == meas.values.shape == (k, d)  # width C(k, k - 1) = k at d = 2

    def test_every_dense_cell_fits_the_factor_cap(self):
        for d in range(2, 257):  # 257^2 > DIM_CAP
            for k in range(1, 17):
                if d ** (k + 1) > DIM_CAP:
                    break
                assert math.comb(k + d - 1, k) * d <= FACTOR_CAP  # its occupation table fits

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 1), (2, 5), (3, 3), (4, 2), (5, 1)])
    def test_projector_form_shares_no_helper_with_the_eigen_form(self, d, k, monkeypatch):
        # the forms share the layout, built from occupations(k, d); the eigen form's values read
        # occupations(k - 1, d), which the projector form never builds
        exact = teleport.occupations

        def layout_only(n, levels):
            assert n == k, "eigen-form table built by the projector form"
            return exact(n, levels)

        def unexpected(*args, **kwargs):
            raise AssertionError("occupation_rank used by the projector form")

        monkeypatch.setattr(teleport, "occupations", layout_only)
        monkeypatch.setattr(symgroup, "occupation_rank", unexpected)
        g = dense_factor(build_measurement(d, k, form="projector"))
        b = sym_basis_by_loop(k, d)
        f = (b @ g.reshape(b.shape[1], -1)).reshape(d ** (k + 1), -1)
        assert frobenius_distance(f @ f.conj().T, dense_success_element(d, k)) < 1e-12

    @pytest.mark.parametrize(
        "d,k", [(2, 10), (3, 5), (4, 6), (3, 40), (1, 4), (5, 1), (8, 10), (4, 60), (16, 5), (2, 1000)]
    )
    def test_sandwich_rows_keep_the_bits_of_the_per_row_count(self, d, k):
        # the oracle finds each row's columns by lookup; the measurement builds them from (d, k).  Its entries
        # are exact quotients; the roots round two conversions, three square roots, a product and a quotient
        columns, entries = build_measurement(d, k, "projector").rows, teleport._sandwich_rows(d, k)
        want_columns, want_entries = sandwich_rows_by_count(d, k)
        assert columns.dtype == want_columns.dtype and np.array_equal(columns, want_columns)
        assert entries.dtype == want_entries.dtype
        assert np.all(np.abs(entries - want_entries) <= 4 * np.spacing(want_entries))

    def test_the_projector_form_and_the_draws_share_one_table_per_copy_count(self):
        # the projector form reads the roots of k and of k - 1 factors; the draws of the same cell reuse k's
        teleport._sqrt_multinomials.cache_clear()
        build_measurement(3, 40, "projector")
        verify_theorem(3, 40, samples=2)
        info = teleport._sqrt_multinomials.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    @pytest.mark.parametrize("d,k", [(3, 361), (2, 10), (4, 5), (5, 1), (1, 4)])
    def test_sqrt_multinomials_keep_the_bits_of_one_comb_chain_per_occupation(self, d, k):
        roots, want = teleport._sqrt_multinomials(d, k), sqrt_multinomials_by_combs(d, k)
        assert roots.dtype == want.dtype and np.array_equal(roots, want)

    @pytest.mark.parametrize("form", ["eigen", "projector"])
    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 2), (3, 6)])
    def test_column_shuffled_factor_is_refused(self, d, k, form, monkeypatch):
        # the columns follow occupations(k - 1, d), so the residual compares them without sorting
        exact, rolled = teleport.build_measurement, form

        def shuffled(d, k, form="eigen"):
            meas = exact(d, k, form)
            return teleport.Measurement(d, k, np.roll(meas.values, 1, axis=0)) if form == rolled else meas

        monkeypatch.setattr(teleport, "build_measurement", shuffled)
        assert eigendecomposition_residual(d, k) > 1e-4
        report = verify_theorem(d, k, samples=3, seed=1)
        assert not report.passed
        assert "eig_residual" in {name for name, _, ok in report.checks if not ok}

    @pytest.mark.parametrize("d,k", [(8, 12), (128, 2)])
    def test_coordinates_are_built_one_level_at_a_time(self, d, k):
        # one width x d output and one level's columns at a time, never a whole-table mask of occupations(k, d)
        out = teleport._coordinates(d, k)  # its occupation table is cached, as for every build after the first
        tracemalloc.start()
        try:
            teleport._coordinates(d, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.size * 8, peak

    def test_residual_sees_a_shifted_layout(self, monkeypatch):
        # the projector form looks its multinomials up through the layout, so a shifted layout moves its values
        exact = teleport._coordinates
        monkeypatch.setattr(teleport, "_coordinates", lambda d, k: (exact(d, k) + d) % (d * math.comb(k + d - 1, k)))
        assert eigendecomposition_residual(3, 2) > 1e-4

    @pytest.mark.parametrize("d,k", [(8, 12), (128, 2)])
    def test_eigen_build_holds_a_few_width_x_d_arrays(self, d, k):
        # the values and the coordinates are each one width x d array, never a (width, d, d) table
        meas = build_measurement(d, k)  # its occupation tables are cached, as for every build after the first
        tracemalloc.start()
        try:
            build_measurement(d, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * meas.rows.size * 8, peak

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
        assert all(not hasattr(meas, "__dict__") for meas in built)  # its four slots, so nothing dense is cached

    def test_projector_form_needs_no_group_sum(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("sum over the symmetric group")

        monkeypatch.setattr(symgroup, "symmetric_group", unexpected)
        symgroup.sym_projector.cache_clear()  # a cached projector would hide a group sum
        assert sym_projector(10, 2).trace() == pytest.approx(11, abs=1e-10)
        assert eigendecomposition_residual(2, 10) <= 1e-12


def test_residual_helper_matches_assert():
    assert eigendecomposition_residual(2, 2) <= 1e-12
