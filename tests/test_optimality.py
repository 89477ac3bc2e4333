import itertools
import math

import numpy as np
import pytest

from mcteleport import (
    CapacityError,
    Operator,
    Permutation,
    VerificationError,
    absorption_residual,
    build_measurement,
    conjugate_by_permutation,
    equality_residual,
    f_projector,
    haar_moment_check,
    identity_operator,
    decomposition_coefficients,
    max_entangled_state,
    mult_semistandard,
    objective,
    partitions,
    perturbation_falsifier,
    reduced_optimum,
    removable_boxes,
    success_probability_formula,
    sym_partition,
    sym_projector,
    young_projector,
)
from mcteleport import optimality, teleport
from mcteleport.tensor import DIM_CAP

import oracles
from oracles import (
    commutant_blocks,
    commutant_orbit_sums,
    commutant_projection,
    dense_coefficients,
    dense_falsifier_candidate,
    dense_family_traces,
    dense_generator,
    copy_average,
    covariant_unitary,
    dense_permutation_matrix,
    dense_success_element,
    haar_twirl,
    haar_unitary_by_qr,
    partially_transposed_overlap,
    sym_basis_by_loop,
    success_projector,
    sym_with_identity,
    transposed_symmetriser,
)


class TestHaarMoment:
    def test_first_moment_exact_target(self):
        report = haar_moment_check(k=1, d=2, samples=2000, seed=1)
        # target is I/2; Monte-Carlo residual shrinks as 1/sqrt(N)
        assert report.mc_residual < 0.1
        assert report.exact_residual < 1e-12

    def test_second_moment_monte_carlo(self):
        report = haar_moment_check(k=2, d=2, samples=10_000, seed=2)
        assert report.mc_residual <= 0.05

    def test_exact_projection_identity(self):
        report = haar_moment_check(k=3, d=3, samples=1, seed=3)
        assert report.exact_residual <= 1e-12


class TestObjective:
    def test_zero_operator(self):
        zero = Operator(np.zeros((8, 8)), (2, 2, 2))
        assert objective(zero, 2, 2) == 0.0

    def test_optimal_measurement(self):
        m = build_measurement(2, 2).op
        assert abs(objective(m, 2, 2) - 1 / 3) < 1e-12

    def test_identity_is_one_but_infeasible(self):
        eye = identity_operator((2, 2, 2))
        assert abs(objective(eye, 2, 2) - 1.0) < 1e-12
        assert equality_residual(eye, 2, 2) > 1e-3

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            objective(identity_operator((2, 2)), 2, 2)


class TestEqualityResidual:
    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
    def test_optimal_measurement_is_feasible(self, d, k):
        m = build_measurement(d, k).op
        assert equality_residual(m, d, k) <= 1e-11

    def test_zero_operator(self):
        zero = Operator(np.zeros((8, 8)), (2, 2, 2))
        assert equality_residual(zero, 2, 2) == 0.0

    def test_sym_complement_violates(self):
        # Q - F carries mismatched weights on the two sides of the equality.
        m = build_measurement(2, 2).op
        q = np.kron(np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]]), np.eye(2))
        complement = Operator(q - m.mat, (2, 2, 2))
        assert equality_residual(complement, 2, 2) > 1e-3

    def test_unsymmetrised_candidate_is_feasible_but_suboptimal(self):
        # Ignoring the extra copy and projecting slot k against A alone is a
        # legitimate POVM element: it meets the trace equality exactly but
        # only reaches the single-copy probability, and it breaks the
        # permutation covariance a valid optimum can be assumed to have.
        phi = max_entangled_state(2).projector().mat
        candidate = Operator(np.kron(np.eye(2), phi), (2, 2, 2))
        assert equality_residual(candidate, 2, 2) < 1e-12
        assert abs(objective(candidate, 2, 2) - 0.25) < 1e-12
        swap = Permutation((1, 0, 2))
        moved = conjugate_by_permutation(swap, candidate)
        assert np.linalg.norm(moved.mat - candidate.mat) > 1e-3


class TestCoefficients:
    @pytest.mark.parametrize(
        "d,k,c1,c2",
        [(2, 1, 1.5, 0.5), (2, 2, 4 / 3, 1 / 3), (3, 2, 5 / 3, 1 / 3)],
    )
    def test_projected_coefficients(self, d, k, c1, c2):
        report = decomposition_coefficients(d, k)
        assert abs(report.c1 - c1) < 1e-12
        assert abs(report.c2 - c2) < 1e-12
        assert report.residual_on_support < 1e-12

    def test_note_records_coefficient_discrepancy(self):
        report = decomposition_coefficients(2, 1)
        assert report.c1_row_form == 3.0  # (d+k)/k
        assert report.c1_closed == 1.5  # (d+k)/(k+1), the measured one
        assert "(d+k)/k" in report.note and "(d+k)/(k+1)" in report.note

    def test_failure_raises(self):
        with pytest.raises(VerificationError):
            decomposition_coefficients(2, 2, tol=-1.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trivial_dimension_has_no_second_coefficient(self, k):
        report = decomposition_coefficients(1, k)
        assert report.c2 is None
        assert abs(report.c1 - 1.0) < 1e-12
        assert report.residual_on_support < 1e-12


class TestReducedOptimum:
    def test_two_qubit_two_copies(self):
        report = reduced_optimum(2, 2)
        assert (report.a1, report.a2) == (1.0, 0.0)
        assert abs(report.p_star - 1 / 3) < 1e-12
        assert abs(report.grid_p_max - report.p_star) <= 1e-6
        assert (report.grid_a1, report.grid_a2) == (1.0, 0.0)

    def test_qutrit_three_copies(self):
        report = reduced_optimum(3, 3)
        assert abs(report.p_star - 0.2) < 1e-12
        assert abs(report.grid_p_max - 0.2) <= 1e-6

    def test_single_copy_reduces_to_plain_teleportation(self):
        report = reduced_optimum(2, 1)
        assert abs(report.p_star - 0.25) < 1e-12
        f = f_projector(sym_partition(1), sym_partition(0), 2)
        phi = max_entangled_state(2).projector()
        assert np.linalg.norm(f.mat - phi.mat) < 1e-12

    def test_feasibility_and_covariance_residuals(self):
        report = reduced_optimum(2, 2)
        assert report.equality_residual <= 1e-11
        assert report.covariance_residual <= 1e-11

    def test_seven_copies_are_covariant(self):
        assert reduced_optimum(2, 7).covariance_residual <= 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trivial_dimension_takes_the_a2_zero_vertex(self, k):
        # Q - F is empty at d = 1, so the whole square is feasible and the
        # tie between (1, 0) and (1, 1) goes to a2 = 0.
        report = reduced_optimum(1, k)
        assert (report.grid_a1, report.grid_a2) == (1.0, 0.0)
        assert report.grid_p_max == report.objective_value == 1.0

    def test_violated_equality_raises(self, monkeypatch):
        # Mixing in some of Q - F puts weight where the equality has a gap.
        classes = optimality._weight_classes(2, 2)
        mixed = classes._replace(f=classes.f + 0.1 * (classes.q - classes.f))
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: mixed)
        with pytest.raises(VerificationError, match="violates the equality"):
            reduced_optimum(2, 2)

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 5), (3, 3), (1, 4), (4, 2)])
    def test_reports_the_reduction_margin(self, d, k):
        # K's eigenvalues are integers, so the smallest nonzero one is at least 1
        report = reduced_optimum(d, k)
        if d == 1:
            assert report.reduction_margin is None
        else:
            assert report.reduction_margin >= 1.0 - 1e-12
            assert abs(report.reduction_margin - round(report.reduction_margin)) <= 1e-12

    def test_flipped_generator_fails_the_covariance_certificate(self, monkeypatch):
        # J_01 (x) 1 + 1 (x) E_10 generates no symmetry of F
        exact = optimality._generator

        def flipped(d, k, p, q):
            tgt, coef = exact(d, k, p, q)
            return tgt, coef * [1.0, -1.0] if (p, q) == (0, 1) else coef

        monkeypatch.setattr(optimality, "_generator", flipped)
        with pytest.raises(VerificationError, match="does not commute"):
            reduced_optimum(2, 2)

    def test_mixed_f_fails_the_reduction_certificate(self):
        # F + (Q - F)/10 is covariant, but not the projector onto one component
        classes = optimality._weight_classes(2, 2)
        mixed = classes._replace(f=classes.f + 0.1 * (classes.q - classes.f))
        with pytest.raises(VerificationError, match="is not the commutant"):
            optimality._certify(mixed, 2, 2)

    def test_leaking_factor_fails_on_entry(self, monkeypatch):
        # an entry of the factor outside its column's weight class is checked, not assumed
        exact = optimality.build_measurement

        def leaking(d, k):
            meas = exact(d, k)
            rows = meas.rows.copy()
            rows[[0, -1], 0] = rows[[-1, 0], 0]  # columns 0 and -1 trade their level-0 coordinates
            return teleport.Measurement(d, k, rows, meas.values)

        monkeypatch.setattr(optimality, "build_measurement", leaking)
        optimality._weight_classes.cache_clear()
        try:
            with pytest.raises(VerificationError, match="rows differ from the weight classes"):
                optimality._weight_classes(2, 3)
        finally:
            optimality._weight_classes.cache_clear()


def _projection_by_least_squares(op, d, k):
    """Distance of op from the span of the explicit orbit sums (test oracle)."""
    basis = np.array([b.reshape(-1) for b in commutant_orbit_sums(d, k)]).T
    coefficients, *_ = np.linalg.lstsq(basis, op.mat.reshape(-1), rcond=None)
    return float(np.linalg.norm(basis @ coefficients - op.mat.reshape(-1)))


def _distance_from_commutant(op, d, k):
    """||P(op) - op||_F with P the dense commutant projection (test oracle)."""
    return float(np.linalg.norm(commutant_projection(op.mat, d, k) - op.mat))


class TestCovarianceResidual:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_transposition_alone_is_not_enough(self, k):
        # |0 0 1 .. 1>|0>: (0 1) fixes it, the k-cycle does not
        d = 2
        v = np.zeros(d ** (k + 1))
        v[(2 ** (k - 2) - 1) * 2] = 1.0
        op = Operator(np.outer(v, v), (d,) * (k + 1))
        swap = Permutation((1, 0) + tuple(range(2, k + 1)))
        assert np.linalg.norm(conjugate_by_permutation(swap, op).mat - op.mat) == 0.0
        residual = _distance_from_commutant(op, d, k)
        assert residual > 1e-11
        assert residual == pytest.approx(_projection_by_least_squares(op, d, k), abs=1e-12)

    def test_two_copies_and_one_copy(self):
        v = np.zeros(8)
        v[0b010] = 1.0  # |0 1>|0> is moved by the one nontrivial permutation
        op = Operator(np.outer(v, v), (2, 2, 2))
        assert _distance_from_commutant(op, 2, 2) == pytest.approx(
            _projection_by_least_squares(op, 2, 2), abs=1e-12
        )
        assert _distance_from_commutant(op, 2, 2) > 1e-11
        # S_1 is trivial: only U (x) conj(U) acts, which fixes span{1, Phi}
        # and moves |0 1><0 1|
        phi = max_entangled_state(2).projector()
        assert _distance_from_commutant(phi, 2, 1) <= 1e-12
        assert _distance_from_commutant(identity_operator((2, 2)), 2, 1) <= 1e-12
        w = np.zeros(4)
        w[0b01] = 1.0
        moved = Operator(np.outer(w, w), (2, 2))
        assert _distance_from_commutant(moved, 2, 1) > 1e-11

    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (2, 4)])
    def test_copy_permutations_alone_are_not_enough(self, d, k):
        # |0><0|^(x (k+1)) is fixed by every permutation of the copies but
        # not by U^(x k) (x) conj(U)
        v = np.zeros(d ** (k + 1))
        v[0] = 1.0
        op = Operator(np.outer(v, v), (d,) * (k + 1))
        assert np.linalg.norm(copy_average(op.mat, d, k) - op.mat) == 0.0
        residual = _distance_from_commutant(op, d, k)
        assert residual > 1e-11
        assert residual == pytest.approx(_projection_by_least_squares(op, d, k), abs=1e-12)

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 3), (2, 5)])
    def test_optimum_is_covariant(self, d, k):
        assert _distance_from_commutant(build_measurement(d, k).op, d, k) <= 1e-11
        assert reduced_optimum(d, k).covariance_residual <= 1e-11


#: The cells whose span of partially transposed permutations is linearly
#: dependent (d <= k) named in the design, plus every cell with at most 1024
#: rows and k <= GROUP_BUDGET, d = 1 included.
PROJECTION_CELLS = sorted(
    {(1, 3), (2, 3), (3, 4)}
    | {(d, k) for d in range(1, 33) for k in range(1, 9) if d ** (k + 1) <= 1024}
)


class TestFalsifier:
    def test_zero_perturbation_objective_is_exact(self):
        for d, k in [(2, 2), (3, 2)]:
            f = build_measurement(d, k).op
            assert abs(objective(f, d, k) - success_probability_formula(d, k)) < 1e-12

    def test_small_search_finds_no_improvement(self):
        report = perturbation_falsifier(2, 2, trials=20, seed=4)
        assert report.passed
        assert report.max_objective <= report.p_star + 1e-7

    def test_trivial_dimension(self):
        report = perturbation_falsifier(1, 2, trials=3, seed=6)
        assert report.passed
        assert report.max_objective <= report.p_star + 1e-7

    def test_search_takes_nontrivial_steps(self):
        # The projected directions must actually move the candidate, otherwise
        # the search is vacuous.
        report = perturbation_falsifier(2, 2, trials=10, seed=5)
        assert report.max_step > 1e-3

    def test_candidate_above_margin_raises(self, monkeypatch):
        # With a negative margin every candidate beats the optimum.
        monkeypatch.setattr(optimality, "MARGIN", -1.0)
        with pytest.raises(VerificationError, match="beats the optimum"):
            perturbation_falsifier(2, 2, trials=1)

    def test_candidate_outside_the_unit_interval_raises(self, monkeypatch):
        # With no step the candidate is F: coefficient 0 on Q - F.  A gap of
        # one on both coefficients gives F and Q - F the same gap, so the
        # correction subtracts all of Q - F: coefficient -1, and a lower
        # objective, so only the spectrum check can catch it.
        tables = optimality._family

        def unit_gaps(d, k):
            family = tables(d, k)
            return family._replace(gap=np.ones_like(family.gap))

        monkeypatch.setattr(optimality, "PERTURBATION_SCALE", 0.0)
        monkeypatch.setattr(optimality, "_family", unit_gaps)
        with pytest.raises(VerificationError, match=r"leaves \[0, 1\] by 1\.000e\+00"):
            perturbation_falsifier(2, 2, trials=1)

    def test_infeasible_optimum_raises(self, monkeypatch):
        classes = optimality._weight_classes(2, 2)
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: classes._replace(f=1.5 * classes.f))
        with pytest.raises(VerificationError, match="optimal element"):
            perturbation_falsifier(2, 2, trials=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            perturbation_falsifier(2, 2, trials=trials)

    def test_trials_run_no_dense_eigensolve(self, monkeypatch):
        perturbation_falsifier(3, 3, trials=1)  # builds and caches F, Q and the blocks
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            solver = getattr(np.linalg, name)

            def counted(*args, _name=name, _solver=solver, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        perturbation_falsifier(3, 3, trials=10)
        assert calls == {"eigh": 0, "eigvalsh": 1}

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_two_coefficient_trial_matches_the_dense_trial(self, d, k):
        # the dense oracle keeps the shield 1 - (Q - F), which the trial drops
        family = optimality._family(d, k)
        live = family.ranks > 0
        family = optimality._Family(*(column[live] for column in family))
        f, q, x = success_projector(d, k), sym_with_identity(d, k), transposed_symmetriser(d, k)
        parts = [f, q - f][: len(family.ranks)]
        direction = np.random.default_rng(7 * d + k).standard_normal(len(family.ranks)) / np.sqrt(family.ranks)
        target = optimality._trial(family, direction, d)
        oracle, value, step, spectrum = dense_falsifier_candidate(
            f, q, x, sum(c * part for c, part in zip(direction, parts)), d, optimality.PERTURBATION_SCALE
        )
        assert np.linalg.norm(sum(c * part for c, part in zip(target, parts)) - oracle) <= 1e-12
        assert abs(target @ family.objective - value) <= 1e-12
        assert abs(np.sqrt(family.ranks @ (target - family.f) ** 2) - step) <= 1e-12
        # the rest of the space, outside Q, keeps eigenvalue 0
        outside = [0.0] if len(f) > d * mult_semistandard(sym_partition(k), d) else []
        assert abs(spectrum[0] - min([*target, *outside])) <= 1e-12
        assert abs(spectrum[-1] - max([*target, *outside])) <= 1e-12

    def test_eight_copies_still_run(self):
        # at d = 1 the family is F alone
        report = perturbation_falsifier(1, 8, trials=1)
        assert report.passed
        assert report.max_objective <= report.p_star + 1e-7


def _unit_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x + x.conj().T
    return x / np.linalg.norm(x)


class TestCommutantProjection:
    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_projection_properties(self, d, k):
        dim = d ** (k + 1)
        x = _unit_hermitian(dim, 10 * d + k)
        p = commutant_projection(x, d, k)
        # invariant under U^(x k) (x) conj(U) for seeded Haar U ...
        rng = np.random.default_rng(d + 100 * k)
        for _ in range(2):
            w = covariant_unitary(haar_unitary_by_qr(d, rng), k)
            assert np.linalg.norm(w @ p @ w.conj().T - p) <= 1e-12
        # ... and under the permutations of the copies (S_k is generated by
        # a transposition and the k-cycle)
        for images in {(1, 0) + tuple(range(2, k + 1)), tuple(range(1, k)) + (0, k)} if k > 1 else ():
            v = dense_permutation_matrix(images, d)
            assert np.linalg.norm(v @ p @ v.conj().T - p) <= 1e-12
        # idempotent and self-adjoint: an orthogonal projection
        assert np.linalg.norm(commutant_projection(p, d, k) - p) <= 1e-12
        y = _unit_hermitian(dim, 10 * d + k + 5)
        assert abs(np.vdot(p, y) - np.vdot(x, commutant_projection(y, d, k))) <= 1e-12
        # the optimal measurement lies in the commutant
        m = build_measurement(d, k).op.mat
        assert np.linalg.norm(commutant_projection(m, d, k) - m) <= 1e-12 * max(1.0, np.linalg.norm(m))

    @pytest.mark.parametrize("d,k", [cell for cell in PROJECTION_CELLS if cell[1] <= 6])
    def test_residual_is_orthogonal_to_every_partial_transpose(self, d, k):
        # P(X) is also the projection of the copy average A(X), and the
        # residual A(X) - P(X) is orthogonal to every V_sigma^(t_k) itself,
        # sigma in S_(k+1); X - P(X) is orthogonal only to their orbit sums.
        x = _unit_hermitian(d ** (k + 1), 7 * d + k)
        residual = copy_average(x, d, k) - commutant_projection(x, d, k)
        worst = max(
            abs(partially_transposed_overlap(residual, sigma, d))
            for sigma in itertools.permutations(range(k + 1))
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (3, 4), (2, 1), (3, 2), (2, 4)])
    def test_matches_least_squares_on_explicit_orbit_sums(self, d, k):
        basis = np.array([b.reshape(-1) for b in commutant_orbit_sums(d, k)]).T
        x = _unit_hermitian(d ** (k + 1), 3 * d + k)
        coefficients, *_ = np.linalg.lstsq(basis, x.reshape(-1), rcond=None)
        expected = (basis @ coefficients).reshape(x.shape)
        assert np.linalg.norm(commutant_projection(x, d, k) - expected) <= 1e-12

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (3, 4), (2, 2), (3, 2)])
    def test_haar_oracle_converges_to_the_projection(self, d, k):
        x = _unit_hermitian(d ** (k + 1), 11 * d + k)
        p = commutant_projection(x, d, k)
        few = np.linalg.norm(haar_twirl(x, d, k, samples=20, seed=3) - p)
        many = np.linalg.norm(haar_twirl(x, d, k, samples=320, seed=3) - p)
        # 16 times the samples: the Monte-Carlo error shrinks about 4-fold
        assert many <= few / 2 + 1e-12

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (3, 4), (3, 2), (4, 2)])
    def test_blocks_span_the_commutant(self, d, k):
        positions, values, ranks = commutant_blocks(d, k)
        dim = d ** (k + 1)
        blocks = []
        for row in values:
            block = np.zeros(dim * dim)
            block[positions] = row
            blocks.append(block.reshape(dim, dim))
        for b, (block, rank) in enumerate(zip(blocks, ranks)):
            for c, other in enumerate(blocks):
                assert np.linalg.norm(block @ other - (b == c) * block) <= 1e-12
            assert abs(np.trace(block) - rank) <= 1e-12
        assert np.linalg.norm(sum(blocks) - np.eye(dim)) <= 1e-12
        sums = np.array([s.reshape(-1) for s in commutant_orbit_sums(d, k)])
        assert len(blocks) == np.linalg.matrix_rank(sums @ sums.T)

    @pytest.mark.parametrize("d,k", [cell for cell in PROJECTION_CELLS if cell[1] <= 6])
    def test_blocks_vanish_between_kets_of_different_weights(self, d, k):
        # rebuilt densely from f_projector and the Young projectors, so a
        # wrong weight (say, one that ignores the level of A) shows
        positions, _, _ = commutant_blocks(d, k)
        dim = d ** (k + 1)
        off = np.ones(dim * dim, dtype=bool)
        off[positions] = False
        for mu in partitions(k):
            if len(mu) > d:
                continue
            blocks = [f_projector(mu, alpha, d).mat for alpha in removable_boxes(mu)]
            complement = np.kron(young_projector(mu, d).mat, np.eye(d)) - sum(blocks)
            for block in blocks + [complement]:
                assert not block.reshape(-1)[off].any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutant_projection(np.eye(4), 2, 2)

    def test_corrupted_blocks_fail_the_certificate(self, monkeypatch):
        build = oracles.f_projector

        def scaled(mu, alpha, d):
            return Operator(1.01 * build(mu, alpha, d).mat, (d,) * (sum(mu) + 1))

        monkeypatch.setattr(oracles, "f_projector", scaled)
        commutant_blocks.cache_clear()
        try:
            with pytest.raises(VerificationError, match="not orthogonal projectors"):
                commutant_blocks(2, 3)
        finally:
            commutant_blocks.cache_clear()


class TestReducedFamily:
    def test_components_are_orthogonal_projectors(self):
        classes = optimality._weight_classes(2, 2)
        f = _dense(classes, classes.f)
        ps = _dense(classes, classes.q - classes.f)
        assert np.linalg.norm(f @ f - f) < 1e-12
        assert np.linalg.norm(ps @ ps - ps) < 1e-12
        assert np.linalg.norm(f @ ps) < 1e-12

    def test_bounds_hold_exactly_on_the_unit_square(self):
        classes = optimality._weight_classes(2, 2)

        def operator(a1, a2):
            return _dense(classes, a1 * classes.f + a2 * (classes.q - classes.f))

        vals = np.linalg.eigvalsh(operator(0.7, 0.2))
        assert vals[0] > -1e-12 and vals[-1] < 1 + 1e-12
        assert np.linalg.eigvalsh(operator(1.2, 0.0))[-1] > 1 + 1e-3
        assert np.linalg.eigvalsh(operator(1.0, -0.1))[0] < -1e-3


class TestStructuralIdentities:
    def test_weighted_overlap_identity(self):
        # tr(X F)/m_{k+1} = k/(k-1+d) with X the transposed symmetriser:
        # the F side of the equality carries exactly the optimal weight.
        for d in (2, 3):
            for k in (1, 2, 3):
                x = transposed_symmetriser(d, k)
                f = success_projector(d, k)
                m_k1 = mult_semistandard(sym_partition(k + 1), d)
                overlap = np.einsum("ij,ji->", x, f).real / m_k1
                assert abs(overlap - k / (k - 1 + d)) < 1e-12

    def test_multiplicity_ratio_integer_identity(self):
        for d in range(2, 7):
            for k in range(1, 11):
                m_prev = mult_semistandard(sym_partition(k - 1), d)
                m_cur = mult_semistandard(sym_partition(k), d)
                assert m_prev * (k - 1 + d) == m_cur * k

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_algebra_projector_equals_measurement(self, d, k):
        f = f_projector(sym_partition(k), sym_partition(k - 1), d)
        m = build_measurement(d, k).op
        assert np.linalg.norm(f.mat - m.mat) <= 1e-10


def test_dense_layers_check_capacity_on_entry():
    with pytest.raises(CapacityError, match="ambient dimension 390625"):
        absorption_residual(5, 7)  # 5^8 entries per row, S_7 within the group budget


@pytest.mark.parametrize("d,k", [(300, 1), (162, 1), (128, 2), (56, 2), (16, 7)])
def test_weight_class_layers_check_capacity_on_entry(d, k, monkeypatch):
    # the tables hold m d x d entries, more than CLASS_CAP here although the measurement's
    # own width x d x d insertion table is within FACTOR_CAP at every cell but (16, 7)
    def unexpected(*args, **kwargs):
        raise AssertionError("weight-class table built for a cell over the cap")

    monkeypatch.setattr(optimality, "build_measurement", unexpected)
    monkeypatch.setattr(optimality, "occupations", unexpected)
    for layer in (decomposition_coefficients, reduced_optimum, perturbation_falsifier):
        with pytest.raises(CapacityError, match="weight-class tables"):
            layer(d, k)


def test_weight_class_cap_admits_every_cell_of_at_most_dim_cap_rows():
    for k in range(2, 17):
        for d in range(2, 51):
            if math.comb(k + d - 1, k) * d <= DIM_CAP:
                assert math.comb(k + d - 1, k) * d * d <= optimality.CLASS_CAP
    for d, k in [(161, 1), (8, 10), (5, 15)]:
        assert math.comb(k + d - 1, k) * d * d <= optimality.CLASS_CAP


def test_group_layers_check_the_budget_before_any_dense_operator(forbid_dense_builders):
    with pytest.raises(CapacityError, match="symmetric group on 9 letters"):
        absorption_residual(2, 9)  # 2^10 entries per row is within the dense cap


SUCCESS_CELLS = [(d, k) for d in range(1, 33) for k in range(1, 10) if d ** (k + 1) <= 1024]


class TestDenseSuccessElement:
    @pytest.mark.parametrize("d,k", SUCCESS_CELLS)
    def test_matches_the_written_out_formula(self, d, k):
        f = success_projector(d, k)
        assert np.linalg.norm(f - dense_success_element(d, k)) <= 1e-12

    def test_permutation_algebra_is_real(self):
        d, k = 2, 3
        arrays = [
            sym_projector(k, d).mat,
            young_projector((2, 1), d).mat,
            f_projector(sym_partition(k), sym_partition(k - 1), d).mat,
            success_projector(d, k),
            sym_with_identity(d, k),
            transposed_symmetriser(d, k),
            *optimality._weight_classes(d, k)[3:6],
        ]
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def _dense(classes, a):
    """The (m d)-square matrix of an operator held class by class."""
    size, d = a.shape
    out = np.zeros((size, size))
    live = classes.slots >= 0
    out[np.repeat(np.arange(size), d).reshape(size, d)[live], classes.slots[live]] = a[live]
    return out


def _class_held(classes, dense):
    """The inverse of ``_dense`` on operators that keep each weight class."""
    live = classes.slots >= 0
    return np.where(live, dense[np.arange(len(dense))[:, None], np.maximum(classes.slots, 0)], 0.0)


def _sym_generator(d, k, p, q):
    """L_pq on Sym^k (x) C^d as a dense (m d)-square matrix, from ``optimality._generator``."""
    tgt, coef = optimality._generator(d, k, p, q)
    out = np.zeros((len(tgt),) * 2)
    for t in range(tgt.shape[1]):
        np.add.at(out, (tgt[:, t], np.arange(len(tgt))), coef[:, t])
    return out


def _isometry(d, k):
    """B (x) 1 from the loop-built symmetric basis: columns in the row order index(n) d + a."""
    return np.kron(sym_basis_by_loop(k, d), np.eye(d))


#: Small cells for the checks that build every generator densely.
GENERATOR_CELLS = [(1, 3), (2, 1), (2, 3), (2, 6), (3, 2), (3, 3), (4, 2), (5, 1)]


class TestSymmetricCoordinates:
    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_classes_match_the_compressed_dense_operators(self, d, k):
        # X_sym is the closed form; F comes from the factor; Q is 1
        classes = optimality._weight_classes(d, k)
        iso = _isometry(d, k)
        for held, dense in [(classes.x, transposed_symmetriser(d, k)), (classes.f, success_projector(d, k))]:
            assert np.linalg.norm(_dense(classes, held) - iso.conj().T @ dense @ iso) <= 1e-12
        assert np.array_equal(_dense(classes, classes.q), np.eye(len(iso.T)))

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_coefficients_match_the_dense_projections(self, d, k):
        report = decomposition_coefficients(d, k)
        c1, c2, residual = dense_coefficients(d, k)
        assert abs(report.c1 - c1) <= 1e-12
        assert (report.c2 is None) == (c2 is None) and (c2 is None or abs(report.c2 - c2) <= 1e-12)
        assert abs(report.residual_on_support - residual) <= 1e-12

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_family_traces_match_the_dense_traces(self, d, k):
        family = optimality._family(d, k)
        assert np.abs(np.concatenate([family.objective, family.gap]) - dense_family_traces(d, k)).max() <= 1e-12
        report = reduced_optimum(d, k)
        assert (report.objective_value, report.equality_residual) == (family.objective[0], abs(family.gap[0]))

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_generators_are_the_compressed_lie_algebra(self, d, k):
        iso = _isometry(d, k)
        for p in range(d):
            for q in range(d):
                dense = iso.conj().T @ dense_generator(d, k, p, q) @ iso
                assert np.linalg.norm(_sym_generator(d, k, p, q) - dense) <= 1e-12

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_commutators_match_dense_products(self, d, k):
        # F, and a symmetric operator on the same classes that is not covariant
        classes = optimality._weight_classes(d, k)
        noise = _dense(classes, np.random.default_rng(d + 10 * k).standard_normal(classes.f.shape))
        worst = []
        for held in (classes.f, _class_held(classes, noise + noise.T)):
            m = _dense(classes, held)
            worst.append(0.0)
            for p in range(d):
                for q in range(d):
                    tgt, coef = optimality._generator(d, k, p, q)
                    ell = _sym_generator(d, k, p, q)
                    norm = optimality._commutator_norm(classes._replace(f=held), tgt, coef)
                    assert abs(norm - np.linalg.norm(ell @ m - m @ ell)) <= 1e-12
                    if np.linalg.norm(ell):
                        worst[-1] = max(worst[-1], norm / np.linalg.norm(ell))
        assert optimality._certify(classes, d, k)[0] == pytest.approx(worst[0], abs=1e-15)
        if d > 1:  # at d = 1 every operator on the one row commutes
            assert worst[1] > 1e-3
            with pytest.raises(VerificationError, match="does not commute"):
                optimality._certify(classes._replace(f=_class_held(classes, noise + noise.T)), d, k)

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_kernel_and_margin_match_a_dense_eigensolve(self, d, k):
        total = np.zeros((d * mult_semistandard(sym_partition(k), d),) * 2)
        for p in range(d):
            for q in range(p + 1, d):
                ell = _sym_generator(d, k, p, q)
                total += ell.T @ ell
        values = np.linalg.eigvalsh(total)
        assert np.abs(values - np.round(values)).max() <= 1e-12  # integer spectrum
        assert (values < optimality.KERNEL_CUT).sum() == (2 if d > 1 else 1)
        margin = reduced_optimum(d, k).reduction_margin
        rest = values[values >= optimality.KERNEL_CUT]
        assert margin is None if d == 1 else abs(margin - rest.min()) <= 1e-12
