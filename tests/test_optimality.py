import itertools
import math
import tracemalloc

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
    f_projector,
    decomposition_coefficients,
    max_entangled_state,
    mult_semistandard,
    partitions,
    perturbation_falsifier,
    reduced_optimum,
    removable_boxes,
    success_probability_formula,
    sym_partition,
    sym_projector,
    young_projector,
)
from mcteleport import cli, core, optimality, teleport

import oracles
from oracles import (
    equality_residual,
    haar_moment_check,
    objective,
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
    identity_operator,
    measurement_op,
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
        m = measurement_op(build_measurement(2, 2))
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
        m = measurement_op(build_measurement(d, k))
        assert equality_residual(m, d, k) <= 1e-11

    def test_zero_operator(self):
        zero = Operator(np.zeros((8, 8)), (2, 2, 2))
        assert equality_residual(zero, 2, 2) == 0.0

    def test_sym_complement_violates(self):
        # Q - F carries mismatched weights on the two sides of the equality.
        m = measurement_op(build_measurement(2, 2))
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


class TestVerifyLemmas:
    @pytest.mark.parametrize("d,k", [(1, 3), (2, 1), (2, 3), (3, 2)])
    def test_four_residuals_in_order(self, d, k):
        report = optimality.verify_lemmas(d, k)
        names = [name for name, *_ in report.checks]
        assert names == ["gram_residual", "eig_residual", "absorption_residual", "residual_on_support"]
        assert report.passed and all(value <= 1e-9 for _, value, _ in report.checks)
        assert report.eig_residual == report.checks[1][1] and report.p_formula == success_probability_formula(d, k)
        assert report.c2 is None if d == 1 else abs(report.c2 - 1 / (k + 1)) < 1e-12

    def test_a_nan_residual_on_the_support_fails_its_check(self, monkeypatch):
        # decomposition_coefficients raises when max(residual, ...) > tol, which max(nan, ...) never is
        _changed_x(monkeypatch, (-1, 0, 0), lambda entry: math.nan)
        report = optimality.verify_lemmas(2, 2)
        assert not report.passed and math.isnan(report.c1)
        assert [name for name, _, ok in report.checks if not ok] == ["residual_on_support"]


class TestReducedOptimum:
    def test_two_qubit_two_copies(self):
        report = reduced_optimum(2, 2)
        assert abs(report.p_star - 1 / 3) < 1e-12
        assert abs(report.objective_value - report.p_star) <= 1e-12

    def test_qutrit_three_copies(self):
        report = reduced_optimum(3, 3)
        assert abs(report.p_star - 0.2) < 1e-12
        assert abs(report.objective_value - 0.2) <= 1e-12

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
    def test_trivial_dimension_has_objective_one(self, k):
        # Q - F is empty at d = 1, so F = Q and its gap need not be checked
        assert reduced_optimum(1, k).objective_value == 1.0

    def test_violated_equality_raises(self, monkeypatch):
        # Turning F's factor within one class keeps tr F and moves tr(X F), so the equality gets a gap.
        turned = _turned(optimality._weight_classes(2, 2), 0, 0.1)
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: turned)
        with pytest.raises(VerificationError, match="violates the equality"):
            reduced_optimum(2, 2)

    @pytest.mark.parametrize("factor", [0.0, math.nan])
    def test_feasible_complement_raises(self, monkeypatch, factor):
        # were the gap of Q - F zero, Q would be feasible and beat F; a NaN gap proves nothing either
        exact = optimality._family

        def closed_gap(classes, d, k):
            family = exact(classes, d, k)
            return family._replace(gap=family.gap * [1.0, factor])

        monkeypatch.setattr(optimality, "_family", closed_gap)
        with pytest.raises(VerificationError, match="Q - F meets the equality"):
            reduced_optimum(2, 2)

    def test_the_objective_is_checked_at_tol_not_raised(self, monkeypatch):
        # an objective 1e-6 off p* fails its check at the default tol and passes at 1e-3
        exact = optimality.success_probability_formula
        monkeypatch.setattr(optimality, "success_probability_formula", lambda d, k: exact(d, k) + 1e-6)
        strict, loose = reduced_optimum(2, 2), reduced_optimum(2, 2, tol=1e-3)
        assert [name for name, *_ in strict.checks] == ["objective_deviation", "covariance_residual"]
        assert [ok for *_, ok in strict.checks] == [False, True] and not strict.passed and loose.passed
        assert strict.checks[0][1] == loose.checks[0][1] == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 5), (3, 3), (1, 4), (4, 2)])
    def test_reports_the_reduction_margin(self, d, k):
        # K's eigenvalues are integers, so the smallest nonzero one is at least 1
        report = reduced_optimum(d, k)
        if d == 1:
            assert report.reduction_margin is None
        else:
            assert report.reduction_margin >= 1.0 - 1e-12
            assert abs(report.reduction_margin - round(report.reduction_margin)) <= 1e-12

    def test_flipped_generator_fails_the_covariance_certificate(self):
        # J_01 (x) 1 + 1 (x) E_10 generates no symmetry of F: it is L_01 conjugated by 1 (x) Z,
        # Z = diag(1, -1), so F's commutator with it is that of L_01 with (1 (x) Z) F (1 (x) Z),
        # which is (Z g)(Z g)^T on each class, Z acting on the levels b
        classes = optimality._weight_classes(2, 2)
        with pytest.raises(VerificationError, match="does not commute"):
            optimality._certify(classes._replace(g=classes.g * [1.0, -1.0]), 2, 2)

    def test_scaled_f_fails_the_reduction_certificate(self):
        # 1.1 F, its factor scaled by sqrt(1.1), is covariant, but not the projector onto one component
        classes = optimality._weight_classes(2, 2)
        with pytest.raises(VerificationError, match="is not the commutant"):
            optimality._certify(classes._replace(g=classes.g * math.sqrt(1.1)), 2, 2)

    @pytest.mark.parametrize("block,scale", [(0, 0.5), (0, 1.5), (-1, 3.0)])
    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 2)])
    def test_perturbed_x_fails_the_reduction_certificate(self, d, k, block, scale, monkeypatch):
        # K reads X: scaling X's block on the class of F's highest weight takes that class off
        # K's kernel, to a positive eigenvalue at 0.5 and to a negative one at 1.5; scaling the
        # last class's block by 3 leaves the kernel as it is, and gives K a negative eigenvalue
        classes = optimality._weight_classes(d, k)
        _changed_x(monkeypatch, block, lambda blocks: blocks * scale)
        with pytest.raises(VerificationError, match="is not the commutant"):
            optimality._certify(classes, d, k)

    @pytest.mark.parametrize("d,k,block", [(2, 2, 0), (3, 3, 0), (3, 3, -1), (4, 2, 2)])
    def test_an_off_diagonal_change_to_x_fails_the_reduction_certificate(self, d, k, block, monkeypatch):
        # 1e-6 (e_0 e_1^T + e_1 e_0^T) on one class keeps X's trace and K's integer diagonal, and an eigensolve
        # of the K it gives still finds the kernel and the margin; but X is then (k+1) 1e-6 sqrt(2) from its
        # closed form, which bounds how far K's spectrum may lie from the integers
        classes = optimality._weight_classes(d, k)
        exact = optimality._x_blocks(classes.v, k)
        _changed_x(monkeypatch, (block, [0, 1], [1, 0]), lambda pair: pair + 1e-6)
        x = optimality._x_blocks(classes.v, k)
        assert np.abs(x - exact).max() == pytest.approx(1e-6)
        assert np.trace(x, axis1=1, axis2=2).sum() == np.trace(exact, axis1=1, axis2=2).sum()
        *_, on_kernel, margin = oracles.reduction_by_eigh(classes, d, k)
        assert np.abs(on_kernel - [0.0, 1.0]).max() <= 1e-9 and abs(margin - round(margin)) <= 1e-9
        with pytest.raises(VerificationError, match="is not the commutant") as raised:
            optimality._certify(classes, d, k)
        assert raised.value.residual == pytest.approx((k + 1) * 1e-6 * math.sqrt(2), rel=1e-6)

    @pytest.mark.parametrize("d,k", [(3, 3), (2, 4), (4, 2)])
    def test_a_nan_in_one_class_off_the_kernel_fails_the_certificate_and_the_optimum(self, d, k):
        # the last class is off K's kernel, so only F's covariance and its traces read the NaN, and
        # each must fail on it rather than let it compare false
        classes = optimality._weight_classes(d, k)
        assert len(classes.g) - 1 not in optimality._reduction(classes, d, k).blocks
        g = classes.g.copy()
        g[-1, 0] = math.nan
        broken = classes._replace(g=g)
        with pytest.raises(VerificationError, match="does not commute"):
            optimality._certify(broken, d, k)
        with pytest.raises(VerificationError, match="violates the equality"):
            reduced_optimum(d, k, classes=broken)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (3, 2), (5, 1), (6, 3)])
    def test_one_root_and_the_level_permutations_are_looked_up(self, d, k, monkeypatch):
        # the root L_01 finds its image classes by their place in the order, with no lookup; each level
        # permutation, which does not keep the order, looks its classes up once: the swap and the cycle at
        # d >= 3, one permutation at d = 2, where they agree, and nothing at d = 1; which classes they and
        # the root reach is pinned by the residuals in test_commutators_match_dense_products
        classes = optimality._weight_classes(d, k)
        looked_up = []
        exact = optimality.occupation_rank

        def counting(occ):
            looked_up.append(occ)
            return exact(occ)

        monkeypatch.setattr(optimality, "occupation_rank", counting)
        optimality._certify(classes, d, k)
        assert len(looked_up) == (0 if d == 1 else min(d - 1, 2))


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
        assert _distance_from_commutant(measurement_op(build_measurement(d, k)), d, k) <= 1e-11
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
            f = measurement_op(build_measurement(d, k))
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

        def unit_gaps(classes, d, k):
            family = tables(classes, d, k)
            return family._replace(gap=np.ones_like(family.gap))

        monkeypatch.setattr(optimality, "PERTURBATION_SCALE", 0.0)
        monkeypatch.setattr(optimality, "_family", unit_gaps)
        with pytest.raises(VerificationError, match=r"leaves \[0, 1\] by 1\.000e\+00"):
            perturbation_falsifier(2, 2, trials=1)

    def test_infeasible_optimum_raises(self, monkeypatch):
        classes = optimality._weight_classes(2, 2)
        scaled = classes._replace(g=math.sqrt(1.5) * classes.g)  # 1.5 F
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: scaled)
        with pytest.raises(VerificationError, match="optimal element"):
            perturbation_falsifier(2, 2, trials=1)

    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 2)])
    def test_an_excess_of_f_on_u_perp_leaves_the_unit_interval(self, d, k):
        # 0.8 of a unit vector across u added to g on one class gives F = g g^T the eigenvalue 1.64
        classes = optimality._weight_classes(d, k)
        u = np.sqrt(classes.v[0])
        across = np.eye(d)[1] - u[1] * u / (u @ u)
        g = classes.g.copy()
        g[0] += 0.8 * across / np.linalg.norm(across)
        with pytest.raises(VerificationError, match=rf"optimal element at d={d}, k={k} leaves \[0, 1\] by 6\.400e-01"):
            perturbation_falsifier(d, k, trials=1, classes=classes._replace(g=g))

    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 2)])
    def test_a_nan_in_f_leaves_the_unit_interval(self, d, k):
        classes = optimality._weight_classes(d, k)
        g = classes.g.copy()
        g[-1, -1] = math.nan
        with pytest.raises(VerificationError, match=rf"optimal element at d={d}, k={k} leaves \[0, 1\] by nan"):
            perturbation_falsifier(d, k, trials=1, classes=classes._replace(g=g))

    def test_a_nan_objective_fails_the_sweep(self, monkeypatch):
        # every candidate's objective is NaN, which compares false with p* + MARGIN and must fail anyway
        exact = optimality._family
        monkeypatch.setattr(
            optimality, "_family", lambda classes, d, k: exact(classes, d, k)._replace(objective=np.full(2, np.nan))
        )
        with pytest.raises(VerificationError, match=r"beats the optimum at d=2, k=2: objective nan .*\(trial 0"):
            perturbation_falsifier(2, 2, trials=3)

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
        assert calls == {"eigh": 0, "eigvalsh": 0}

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_two_coefficient_trial_matches_the_dense_trial(self, d, k):
        # the dense oracle keeps the shield 1 - (Q - F), which the trial drops
        family = optimality._family(optimality._weight_classes(d, k), d, k)
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


def _swept(monkeypatch, d, k, trials, seed=0):
    """The directions perturbation_falsifier(d, k, trials, seed) tries, in the orthonormal basis of its family."""
    seen, trial = [], optimality._trial

    def recorded(family, direction, d):
        seen.append(direction * np.sqrt(family.ranks))
        return trial(family, direction, d)

    with monkeypatch.context() as patch:
        patch.setattr(optimality, "_trial", recorded)
        perturbation_falsifier(d, k, trials=trials, seed=seed)
    return np.concatenate(seen)


class TestSweep:
    @pytest.mark.parametrize("trials", [1, 2, 7, 200])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_directions_are_unit_and_evenly_spaced(self, monkeypatch, trials, seed):
        coords = _swept(monkeypatch, 3, 2, trials, seed)
        assert coords.shape == (trials, 2)
        assert np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() <= 1e-12
        angles = np.sort(np.arctan2(coords[:, 1], coords[:, 0]) % (2 * np.pi))
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        assert np.abs(gaps - 2 * np.pi / trials).max() <= 1e-12

    def test_two_seeds_turn_the_sweep_differently(self, monkeypatch):
        first, second = (_swept(monkeypatch, 2, 2, 5, seed)[0] for seed in (0, 1))
        assert np.abs(first - second).max() > 1e-6

    @pytest.mark.parametrize("trials", [2, 3, 7, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_both_signs_come_up_at_one_level(self, monkeypatch, trials, seed):
        coords = _swept(monkeypatch, 1, 3, trials, seed)
        assert coords.shape == (trials, 1)
        assert set(np.sign(coords[:, 0])) == {-1.0, 1.0}

    def test_a_failing_sweep_names_its_first_trial(self, monkeypatch):
        monkeypatch.setattr(optimality, "MARGIN", -1.0)
        with pytest.raises(VerificationError, match=r"beats the optimum.*\(trial 0, seed 0\)"):
            perturbation_falsifier(2, 2, trials=200)

    @pytest.mark.parametrize("cap", [core.FACTOR_CAP, 8 * 3])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_stacked_checks_agree_with_one_trial_at_a_time(self, monkeypatch, cap, seed):
        d, k, trials = 2, 3, 20
        family = optimality._family(optimality._weight_classes(d, k), d, k)
        p_star = success_probability_formula(d, k)
        coords = _swept(monkeypatch, d, k, trials, seed)
        targets = [optimality._trial(family, c / np.sqrt(family.ranks), d) for c in coords]
        values = [float(target @ family.objective) for target in targets]
        steps = [float(np.sqrt(family.ranks @ (target - family.f) ** 2)) for target in targets]
        monkeypatch.setattr(core, "FACTOR_CAP", cap)  # 3 trials a chunk at the smaller cap
        report = perturbation_falsifier(d, k, trials=trials, seed=seed)
        assert report.max_objective == pytest.approx(max(p_star, *values), abs=1e-15)
        assert report.max_step == pytest.approx(max(steps), abs=1e-15)
        # Negated, the objective is highest on the trials that move F furthest,
        # so the first trial to beat the margin is one in mid-sweep.
        first = next(j for j, value in enumerate(values) if value < 0.2)
        assert first > 2
        monkeypatch.setattr(optimality, "_family", lambda classes, d, k: family._replace(objective=-family.objective))
        monkeypatch.setattr(optimality, "MARGIN", -p_star - 0.2)
        with pytest.raises(VerificationError, match=rf"beats the optimum.*\(trial {first}, seed {seed}\)"):
            perturbation_falsifier(d, k, trials=trials, seed=seed)


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
        m = measurement_op(build_measurement(d, k)).mat
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
        f = _dense(_combined(classes, 1.0, 0.0), 2, 2)
        ps = _dense(_combined(classes, 0.0, 1.0), 2, 2)
        assert np.linalg.norm(f @ f - f) < 1e-12
        assert np.linalg.norm(ps @ ps - ps) < 1e-12
        assert np.linalg.norm(f @ ps) < 1e-12

    def test_bounds_hold_exactly_on_the_unit_square(self):
        classes = optimality._weight_classes(2, 2)

        def operator(a1, a2):
            return _dense(_combined(classes, a1, a2), 2, 2)

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
        m = measurement_op(build_measurement(d, k))
        assert np.linalg.norm(f.mat - m.mat) <= 1e-10


def test_dense_layers_check_capacity_on_entry():
    with pytest.raises(CapacityError, match="ambient dimension 390625"):
        absorption_residual(5, 7)  # 5^8 entries per row, S_7 within the group budget


@pytest.mark.parametrize("d,k", [(16, 7), (162, 2)])
def test_weight_class_layers_check_capacity_on_entry(d, k, monkeypatch):
    # the measurement is built first, and its layout's occupation table of k copies refuses the
    # cell before any weight-class table is built
    def unexpected(*args, **kwargs):
        raise AssertionError("weight-class table built for a cell over the cap")

    monkeypatch.setattr(optimality, "occupations", unexpected)
    m = math.comb(k + d - 1, k)
    for layer in (decomposition_coefficients, reduced_optimum, perturbation_falsifier):
        with pytest.raises(CapacityError, match=f"occupation table of {m} x {d} entries exceeds cap"):
            layer(d, k)


def test_the_weight_classes_of_every_cell_whose_occupations_fit_are_held_within_one_factor_cap():
    # a cell runs when occupations(k, d) has at most FACTOR_CAP entries; its classes hold width d
    # = m d k / (k + d - 1) entries, and all their blocks together width d^2, which grow with k, so the
    # largest such k of each d bounds them: at (7, 21) the blocks would take 5.38 FACTOR_CAP, and so they
    # are formed a chunk at a time.  At d = 1 a block has one entry, and past d = 1448 not even k = 1 fits.
    def fits(d, k):
        return math.comb(k + d - 1, k) * d <= core.FACTOR_CAP

    assert fits(1448, 1) and not fits(1449, 1)
    stacks = {}
    for d in range(2, 1449):
        fit, over = 1, 2
        while fits(d, over):
            fit, over = over, 2 * over
        while over - fit > 1:
            mid = (fit + over) // 2
            fit, over = (mid, over) if fits(d, mid) else (fit, mid)
        stacks[d, fit] = math.comb(fit + d - 2, fit - 1) * d * d
        assert stacks[d, fit] // d <= core.FACTOR_CAP
    largest = max(stacks, key=stacks.get)
    assert (largest, stacks[largest]) == ((7, 21), 11_281_270)
    assert 5 * core.FACTOR_CAP < stacks[largest] <= 6 * core.FACTOR_CAP


@pytest.mark.parametrize("d,k", [(300, 1), (162, 1), (128, 2), (56, 2)])
def test_wide_cells_whose_occupation_tables_fit_run_every_weight_class_layer(d, k):
    # m d x d is 27 M entries at (300, 1) and 135 M at (128, 2), but no array of that size is built
    assert decomposition_coefficients(d, k).residual_on_support <= 1e-10
    report = reduced_optimum(d, k)
    assert report.covariance_residual <= 1e-9 and report.reduction_margin >= 1.0 - 1e-9
    assert perturbation_falsifier(d, k, trials=3).passed


@pytest.mark.parametrize("d,k", [(2, 3), (3, 4), (6, 4), (8, 10), (16, 5)])
def test_weight_classes_hold_blocks_not_tables(d, k):
    # width x d arrays for the width classes of d rows, a count of the classes of one row, and no d x d block
    def arrays(item):
        if isinstance(item, np.ndarray):
            return [item]
        return [array for part in item for array in arrays(part)] if isinstance(item, tuple) else []

    width, m = math.comb(k + d - 2, k - 1), math.comb(k + d - 1, k)
    held = arrays(optimality._weight_classes(d, k))
    assert held and max(array.size for array in held) <= max(width * d, m * d)


@pytest.mark.parametrize("d,k", [(3, 4), (8, 12), (128, 2)])
def test_weight_classes_match_the_gathered_occupation_table_bit_for_bit(d, k):
    # X from each class's weight alone equals X from the (width, d, d) table of the rows' occupations;
    # at (8, 12), 2 M entries per stack, the build stays under 60 MiB with no such table kept, nor a stack
    tracemalloc.start()
    try:
        classes = optimality._weight_classes(d, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    meas = teleport.build_measurement(d, k)
    n = core.occupations(k, d)[meas.rows // d]
    order = np.argsort(core.occupation_rank(n[:, 0] - np.eye(d, dtype=n.dtype)[0]))
    n, values = n[order], meas.values[order]
    x = np.sqrt((n + 1) * (np.swapaxes(n, 1, 2) + 1)) / (k + 1)
    blocks = optimality._x_blocks(classes.v, k)
    assert blocks.dtype == x.dtype and np.array_equal(blocks, x) and np.array_equal(classes.g, values)
    assert (d, k) != (8, 12) or peak < 60 * 2**20, peak / 2**20


@pytest.mark.parametrize("layer", ["_weight_classes", "reduced_optimum", "perturbation_falsifier",
                                   "decomposition_coefficients"])
def test_each_weight_class_layer_peaks_below_two_stacks(layer):
    # at (8, 14) a (width, d, d) stack is 37.9 MiB, and each layer, its measurement build included and its
    # caches cold, peaks below two of them: no stack is held, and a chunk's blocks stay within FACTOR_CAP
    d, k = 8, 14
    core.occupations.cache_clear()
    teleport._sqrt_multinomials.cache_clear()
    tracemalloc.start()
    try:
        getattr(optimality, layer)(d, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * math.comb(k + d - 2, k - 1) * d * d * 8, peak / 2**20


@pytest.mark.parametrize("d,k", [(3, 4), (8, 10), (128, 2)])
def test_casimir_values_on_the_classes_of_one_row_match_the_gathered_form(d, k):
    # The classes of one row (n, a), n_a = 0, listed by np.nonzero, and s_r gathered over them; X is 1 / (k + 1)
    # there, so K is (alpha - s_r) / 2 - 1, an integer, and within rounding of its value read from X
    classes = optimality._weight_classes(d, k)
    occ, tilt = core.occupations(k, d), d - 1 - 2 * np.arange(d)
    n, a = np.nonzero(occ == 0)
    s = ((occ**2).sum(axis=1) + occ @ tilt)[n] + 1 - tilt[a]
    twice = k * (k + d - 1) + d + 2 - s
    assert not (twice % 2).any()
    _, single = optimality._casimir_spectrum(d, k)
    assert single.dtype == np.int64 and np.array_equal(single, twice // 2 - 1)
    assert np.abs(single - oracles.casimir_blocks_from_x(classes, d, k)[1]).max() <= 1e-12


def test_an_optimality_run_calls_no_lapack_routine(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in ("qr", "eigh", "eigvalsh", "svd", "cholesky", "inv", "solve", "det", "eig", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    core.occupations.cache_clear()  # so that no table a LAPACK call could have built is reused
    teleport._sqrt_multinomials.cache_clear()
    for d, k in [(1, 3), (2, 5), (3, 3), (4, 2)]:
        classes = optimality._weight_classes(d, k)
        assert reduced_optimum(d, k, classes=classes).passed
        assert perturbation_falsifier(d, k, trials=20, seed=d + k, classes=classes).passed
    argv = ["optimality", "--d", "1..4", "--k", "1..4", "--samples", "5", "--threads", "1", "--no-timestamp"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 16 and all(",true," in row for row in rows)


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
            optimality._weight_classes(d, k).g,
            optimality._x_blocks(optimality._weight_classes(d, k).v, k),
        ]
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def _changed_x(monkeypatch, index, change):
    """Make ``optimality._x_blocks`` replace x[index] by change(x[index]) in each chunk of X's blocks it forms."""
    exact = optimality._x_blocks

    def changed(v, k):
        x = exact(v, k)
        x[index] = change(x[index])
        return x

    monkeypatch.setattr(optimality, "_x_blocks", changed)


def _turned(classes, j, angle):
    """The classes with F's factor on class j turned by angle in the plane of levels 0 and 1."""
    c, s = math.cos(angle), math.sin(angle)
    g = classes.g.copy()
    g[j, :2] = [[c, -s], [s, c]] @ g[j, :2]
    return classes._replace(g=g)


def _f(g):
    """F = g g^T on each class of d rows and 0 on each class of one row, as (blocks, value)."""
    return g[:, :, None] * g[:, None, :], 0.0


def _combined(classes, a1, a2):
    """a1 F + a2 (Q - F), as (blocks, value on the classes of one row)."""
    f, _ = _f(classes.g)
    return a1 * f + a2 * (np.eye(f.shape[1]) - f), a2


def _class_rows(d, k):
    """The rows index(n) d + a of each block, in the order of its levels b, and of the classes of one row."""
    weights = core.occupations(k - 1, d)
    rows = core.occupation_rank(weights[:, None, :] + np.eye(d, dtype=weights.dtype)) * d + np.arange(d)
    n, a = np.nonzero(core.occupations(k, d) == 0)
    return rows, n * d + a


def _dense(held, d, k):
    """The (m d)-square matrix of an operator that keeps each weight class, given as (blocks, one-row value)."""
    rows, singles = _class_rows(d, k)
    out = np.zeros((d * math.comb(k + d - 1, k),) * 2)
    out[rows[:, :, None], rows[:, None, :]], out[singles, singles] = held
    return out


def _sym_generator(d, k, p, q):
    """L_pq on Sym^k (x) C^d as a dense (m d)-square matrix, compressed from ``oracles.dense_generator``."""
    iso = _isometry(d, k).real  # the symmetric basis is real
    return iso.T @ dense_generator(d, k, p, q) @ iso


def _isometry(d, k):
    """B (x) 1 from the loop-built symmetric basis: columns in the row order index(n) d + a."""
    return np.kron(sym_basis_by_loop(k, d), np.eye(d))


def _sym_level_permutation(d, k, sigma):
    """rho(P_sigma) = P_sigma^(x k) (x) P_sigma on Sym^k (x) C^d, P_sigma |a> = |sigma(a)>, compressed densely."""
    perm = np.zeros((d, d))
    perm[list(sigma), range(d)] = 1.0
    iso = _isometry(d, k).real
    return iso.T @ covariant_unitary(perm, k).real @ iso


def _dense_residuals(m, d, k):
    """||[L_01, M]|| / ||L_01|| and ||rho M rho^T - M|| for the swap (0 1) and the cycle a -> a + 1, dense."""
    ell = _sym_generator(d, k, 0, 1)
    perms = [_sym_level_permutation(d, k, sigma) for sigma in [(1, 0, *range(2, d)), (*range(1, d), 0)]]
    return [np.linalg.norm(ell @ m - m @ ell) / np.linalg.norm(ell)] + [
        np.linalg.norm(rho @ m @ rho.T - m) for rho in perms
    ]


def _scaled(classes, d, k, weight):
    """The classes with F on the class of each weight w scaled by 1 + 1e-3 weight(w), its factor by the root."""
    scale = 1.0 + 1e-3 * weight(core.occupations(k - 1, d))  # block j is the class of row j
    return classes._replace(g=classes.g * np.sqrt(scale)[:, None])


#: Small cells for the checks that build every generator densely.
GENERATOR_CELLS = [(1, 3), (2, 1), (2, 3), (2, 6), (3, 2), (3, 3), (4, 2), (5, 1)]


class TestSymmetricCoordinates:
    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_classes_match_the_compressed_dense_operators(self, d, k):
        # X_sym is X's definition on each class's weight and 1 / (k + 1) on a class of one row; F is g g^T
        # from the factor, and 0 on a class of one row; Q is 1, and the classes cover every row
        classes = optimality._weight_classes(d, k)
        iso = _isometry(d, k)
        x = optimality._x_blocks(classes.v, k), 1 / (k + 1)
        for held, dense in [(x, transposed_symmetriser(d, k)), (_f(classes.g), success_projector(d, k))]:
            assert np.linalg.norm(_dense(held, d, k) - iso.conj().T @ dense @ iso) <= 1e-12
        q = np.broadcast_to(np.eye(d), (len(classes.g), d, d)), 1.0
        assert np.array_equal(_dense(q, d, k), np.eye(len(iso.T)))

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_coefficients_match_the_dense_projections(self, d, k):
        report = decomposition_coefficients(d, k)
        c1, c2, residual = dense_coefficients(d, k)
        assert abs(report.c1 - c1) <= 1e-12
        assert (report.c2 is None) == (c2 is None) and (c2 is None or abs(report.c2 - c2) <= 1e-12)
        assert abs(report.residual_on_support - residual) <= 1e-12

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS)
    def test_family_traces_match_the_dense_traces(self, d, k):
        family = optimality._family(optimality._weight_classes(d, k), d, k)
        assert np.abs(np.concatenate([family.objective, family.gap]) - dense_family_traces(d, k)).max() <= 1e-12
        report = reduced_optimum(d, k)
        assert (report.objective_value, report.equality_residual) == (family.objective[0], abs(family.gap[0]))

    def test_the_class_traces_are_taken_once_per_cell(self, monkeypatch):
        # reduced_optimum, the falsifier and decomposition_coefficients read the traces of the one
        # classes they are handed: X's blocks are formed once for them, once for X's distance from its
        # closed form and once for the residual of the decomposition, and never again
        fresh = optimality._weight_classes(3, 4)
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: fresh)
        formed, exact = [], optimality._x_blocks
        monkeypatch.setattr(optimality, "_x_blocks", lambda v, k: formed.append(len(v)) or exact(v, k))
        reduced_optimum(3, 4)
        perturbation_falsifier(3, 4, trials=5)
        decomposition_coefficients(3, 4)
        assert formed == [len(fresh.v)] * 3

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_generators_are_the_compressed_lie_algebra(self, d, k):
        # what _certify reads of L_pq: the class of weight w goes to that of w + e_p - e_q by
        # diag(c) - E_qp, into the one row (w + e_p, q) when w_q = 0, and the class of one row
        # (w + e_q, p), w_p = 0, goes to sqrt(w_q + 1) e_p - e_q in the class of w; the rest of
        # L_pq links classes of one row only, where every operator held here is constant
        rows, singles = _class_rows(d, k)
        weights, level = core.occupations(k - 1, d), np.arange(d)
        for p, q in itertools.permutations(range(d), 2):
            ell = _sym_generator(d, k, p, q)
            expected = np.zeros(ell.shape)
            for j, w in enumerate(weights):
                block = np.diag(np.sqrt((w[q] + (level == q)) * (w[p] + (level == p) + 1.0)))
                block[q, p] -= 1.0
                if w[q]:
                    expected[rows[core.occupation_rank(w + (level == p) - (level == q))][:, None], rows[j]] = block
                else:
                    expected[core.occupation_rank(w + (level == p)) * d + q, rows[j]] = block[q]
                if not w[p]:
                    expected[rows[j], core.occupation_rank(w + (level == q)) * d + p] = (
                        np.sqrt(w[q] + 1.0) * (level == p) - (level == q)
                    )
            among = np.ix_(singles, singles)
            expected[among] = ell[among]
            assert np.abs(ell - expected).max() <= 1e-12

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_commutators_match_dense_products(self, d, k):
        # F, and g g^T on the same classes for factors g that are not covariant: the residual is the
        # largest of the dense L_01 ratio and the dense residuals of the swap and the cycle; one factor
        # is g_w[a] = phi(w_a, w_(a+1), ..., w_(a-1)), the weight read cyclically from level a, which
        # the cycle keeps exactly, so that its swap residual is not hidden behind its cycle residual (at
        # k = 1 the one weight is 0, where such a factor is constant and F covariant)
        classes = optimality._weight_classes(d, k)
        rng = np.random.default_rng(d + 10 * k)
        noisy = rng.standard_normal(classes.g.shape)
        if d == 1:  # no root and no permutation: every operator on the one row commutes
            assert optimality._covariance(classes._replace(g=noisy), d, k) == 0.0
            return
        worst = max(_dense_residuals(_dense(_f(classes.g), d, k), d, k))
        assert optimality._certify(classes, d, k)[0] == pytest.approx(worst, abs=1e-15)
        weights = core.occupations(k - 1, d)
        turns = np.array([np.roll(weights, -a, axis=1) for a in range(d)])  # turns[a, w] = (w_a, w_(a+1), ...)
        cyclic = np.sin(turns @ rng.standard_normal(d) + 1.0).T
        for g in (noisy, cyclic)[: 1 + (k > 1)]:
            residuals = _dense_residuals(_dense(_f(g), d, k), d, k)
            assert max(residuals) > 1e-3 and (g is noisy or residuals[-1] <= 1e-12)
            with pytest.raises(VerificationError, match="does not commute") as raised:
                optimality._certify(classes._replace(g=g), d, k)
            assert raised.value.residual == pytest.approx(max(residuals), rel=1e-12)

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 3), (3, 5), (5, 4)])
    def test_a_weyl_invariant_f_fails_on_the_root(self, d, k):
        # max(w) is kept by every permutation of the levels, so this F keeps the swap and the cycle
        # exactly, and only the root L_01 can see that it is not covariant
        scaled = _scaled(optimality._weight_classes(d, k), d, k, lambda w: w.max(axis=1))
        root, swap, cycle = _dense_residuals(_dense(_f(scaled.g), d, k), d, k)
        assert max(swap, cycle) <= 1e-14 and root > 1e-5
        with pytest.raises(VerificationError, match="does not commute") as raised:
            optimality._certify(scaled, d, k)
        assert raised.value.residual == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("d,k", [(3, 3), (4, 3), (3, 5), (5, 4), (3, 2)])
    def test_an_f_covariant_under_the_root_and_the_swap_fails_on_the_cycle(self, d, k):
        # L_01 and the swap (0 1) leave w_2 alone, so this F commutes with both, and only the
        # cycle a -> a + 1 can see that it is not covariant
        scaled = _scaled(optimality._weight_classes(d, k), d, k, lambda w: w[:, 2])
        root, swap, cycle = _dense_residuals(_dense(_f(scaled.g), d, k), d, k)
        assert max(root, swap) <= 1e-14 and cycle > 1e-4
        with pytest.raises(VerificationError, match="does not commute") as raised:
            optimality._certify(scaled, d, k)
        assert raised.value.residual == pytest.approx(cycle, rel=1e-12)

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_casimir_blocks_match_the_dense_raising_sum(self, d, k):
        # K's closed form s_w - 1 - u u^T, placed back entry by entry, against sum_(p<q) L_pq^T L_pq, and
        # against K read from X's blocks
        classes = optimality._weight_classes(d, k)
        shift, single = optimality._casimir_spectrum(d, k)
        u = np.sqrt(core.occupations(k - 1, d) + 1.0)
        blocks = (shift - 1)[:, None, None] * np.eye(d) - u[:, :, None] * u[:, None, :]
        from_x, single_from_x = oracles.casimir_blocks_from_x(classes, d, k)
        assert np.abs(blocks - from_x).max() <= 1e-12 and np.abs(single - single_from_x).max(initial=0) <= 1e-12
        rows, singles = _class_rows(d, k)
        casimir = np.zeros((d * math.comb(k + d - 1, k),) * 2)
        casimir[rows[:, :, None], rows[:, None, :]] = blocks
        casimir[singles, singles] = single
        total = sum(ell.T @ ell for ell in (_sym_generator(d, k, p, q) for p in range(d) for q in range(p + 1, d)))
        assert np.abs(casimir - total).max() <= 1e-12
        assert (len(singles) > 0) == (d > 1)  # single-row classes are compared too

    @pytest.mark.parametrize("d,k", PROJECTION_CELLS + [(8, 10)])
    def test_closed_form_spectra_match_the_eigh_oracle(self, d, k):
        # K's and F's spectra, the classes that K's kernel meets, <v, F v> on it and the margin, against
        # eigh and eigvalsh of the built blocks; eigh sorts s_w - (k + d) before the d - 1 values s_w - 1
        classes = optimality._weight_classes(d, k)
        values, single, blocks, singles, on_kernel, margin = oracles.reduction_by_eigh(classes, d, k)
        shift, closed_single = optimality._casimir_spectrum(d, k)
        closed = np.column_stack([shift - (k + d)] + [shift - 1] * (d - 1))
        assert np.abs(values - closed).max() <= 1e-10 and np.abs(single - closed_single).max(initial=0) <= 1e-12
        kernel = optimality._reduction(classes, d, k)
        assert np.array_equal(kernel.blocks, blocks) and np.array_equal(kernel.singles, singles)
        assert kernel.vectors == len(on_kernel) and np.abs(kernel.on_kernel - on_kernel).max() <= 1e-12
        if margin is None:
            assert kernel.margin is None and d == 1
        else:
            assert type(kernel.margin) is int and abs(kernel.margin - margin) <= 1e-10
        g = build_measurement(d, k).values
        f_closed = np.column_stack([np.zeros((len(g), d - 1)), np.einsum("na,na->n", g, g)])
        assert np.abs(np.linalg.eigvalsh(_f(classes.g)[0]) - f_closed).max() <= 1e-12

    @pytest.mark.parametrize("d,k", GENERATOR_CELLS)
    def test_kernel_and_margin_match_a_dense_eigensolve(self, d, k):
        total = np.zeros((d * mult_semistandard(sym_partition(k), d),) * 2)
        for p in range(d):
            for q in range(p + 1, d):
                ell = _sym_generator(d, k, p, q)
                total += ell.T @ ell
        values = np.linalg.eigvalsh(total)
        assert np.abs(values - np.round(values)).max() <= 1e-12  # integer spectrum
        assert (values < oracles.KERNEL_CUT).sum() == (2 if d > 1 else 1)
        margin = reduced_optimum(d, k).reduction_margin
        rest = values[values >= oracles.KERNEL_CUT]
        assert margin is None if d == 1 else abs(margin - rest.min()) <= 1e-12
