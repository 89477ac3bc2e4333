"""Optimality certification for the multicopy teleportation probability.

The Haar-averaged feasibility problem is linear in the measurement: maximise
(1/d) tr[(Psym/m (x) 1) M] subject to an equality constraint tying that trace
to the overlap with the partially transposed (k+1)-factor symmetriser,
covariance under factor permutations and under U^(x k) (x) conj(U), and
0 <= M <= 1.  Restricted to the two-projector family a1 F + a2 (Q - F) the
constraint forces a2 = 0 and the objective is maximised at a1 = 1, which
``reduced_optimum`` reads off the feasible vertices in closed form.  The
covariance of F is certified exactly by its distance from the commutant of
both symmetries.  That commutant is spanned by certified orthogonal block
projectors, so a randomised perturbation search beyond the reduced family
runs on one coefficient per block, with no dense operator per trial.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .symgroup import (
    _commutant_blocks,
    commutant_projection,
    mult_semistandard,
    sym_partition,
    sym_projector,
)
from .tensor import (
    Operator,
    VerificationError,
    as_rng,
    check_capacity,
    check_group_budget,
    haar_state,
    partial_transpose,
)
from .teleport import build_measurement, success_probability_formula

#: Largest allowed distance of the reduced optimum from the closed form.
GRID_TOL = 1e-6
#: Largest constraint gap of F that still counts as rounding of an exact zero.
FEASIBILITY_TOL = 1e-9
#: Frobenius length of each normalised perturbation of the optimum.
PERTURBATION_SCALE = 1.0
#: How far a feasible candidate's objective may exceed p* before it raises.
MARGIN = 1e-7
#: Eigenvalue slack of the [0, 1] feasibility test of F and of each candidate.
EIG_SLACK = 1e-10


def _trace_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a b) without forming the product."""
    return float(np.einsum("ij,ji->", a, b).real)


@lru_cache(maxsize=None)
def _sym_with_identity(d: int, k: int) -> np.ndarray:
    """Psym on the k copy factors, tensored with the identity on A."""
    return np.kron(sym_projector(k, d).mat, np.eye(d))


@lru_cache(maxsize=None)
def _transposed_symmetriser(d: int, k: int) -> np.ndarray:
    """(Psym on k+1 factors) partially transposed on the last factor."""
    big = sym_projector(k + 1, d)
    return partial_transpose(big, {k}).mat


@lru_cache(maxsize=None)
def _success_projector(d: int, k: int) -> np.ndarray:
    """F = F_(k)((k-1)), the optimal measurement: the dense ``Measurement.op``."""
    return build_measurement(d, k).op.mat


def _check_layout(m: Operator, d: int, k: int) -> None:
    if m.dims != (d,) * (k + 1):
        raise ValueError(f"operator layout {m.dims} does not match (d,)*{k + 1} for d={d}")


def objective(m: Operator, d: int, k: int) -> float:
    """(1/d) tr[(Psym/m_sym_k (x) 1_A) M]; equals p(d,k) at the optimum."""
    _check_layout(m, d, k)
    m_sym = mult_semistandard(sym_partition(k), d)
    return _trace_pair(_sym_with_identity(d, k), m.mat) / (d * m_sym)


def _constraint_gap(mat: np.ndarray, d: int, k: int) -> float:
    """LHS - RHS of the feasibility equality: tr(Q M)/m_k - tr(X M)/m_(k+1)."""
    m_k = mult_semistandard(sym_partition(k), d)
    m_k1 = mult_semistandard(sym_partition(k + 1), d)
    lhs = _trace_pair(_sym_with_identity(d, k), mat) / m_k
    rhs = _trace_pair(_transposed_symmetriser(d, k), mat) / m_k1
    return lhs - rhs


def equality_residual(m: Operator, d: int, k: int) -> float:
    """|LHS - RHS| of the feasibility equality tying the two Haar averages."""
    _check_layout(m, d, k)
    return abs(_constraint_gap(m.mat, d, k))


def _covariance_residual(m: Operator, d: int, k: int) -> float:
    """||P(M) - M||_F with P the orthogonal projection onto the commutant of
    S_k x (U^(x k) (x) conj(U)): zero exactly when M commutes with every
    permutation of the copies and with every U^(x k) (x) conj(U).
    """
    _check_layout(m, d, k)
    return float(np.linalg.norm(commutant_projection(m.mat, d, k) - m.mat))


@dataclass(frozen=True)
class ReducedMeasurement:
    """The two-parameter family a1 F + a2 (Q - F) the optimum lives in.

    F and Q - F are orthogonal projectors, so the family sits inside the
    operator interval [0, 1] exactly when both coefficients do.
    """

    d: int
    k: int
    f: Operator
    ps: Operator

    @classmethod
    def build(cls, d: int, k: int) -> "ReducedMeasurement":
        dims = (d,) * (k + 1)
        f = _success_projector(d, k)
        return cls(d, k, Operator(f, dims), Operator(_sym_with_identity(d, k) - f, dims))

    def operator(self, a1: float, a2: float) -> Operator:
        return Operator(a1 * self.f.mat + a2 * self.ps.mat, self.f.dims)


@dataclass(frozen=True)
class MomentReport:
    d: int
    k: int
    samples: int
    mc_residual: float
    exact_residual: float


def haar_moment_check(k: int, d: int, samples: int, seed: int = 0) -> MomentReport:
    """Monte-Carlo check that the k-th Haar moment is Psym/m_sym_k.

    The sample mean of |psi><psi|^(x k) converges to the target at the usual
    N^(-1/2) rate; the exact part re-projects the target onto the symmetric
    subspace, which must reproduce it to machine precision.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = as_rng(seed)
    m_sym = mult_semistandard(sym_partition(k), d)
    target = sym_projector(k, d).mat / m_sym
    total = d**k
    acc = np.zeros((total, total), dtype=complex)
    for _ in range(samples):
        psi = haar_state(d, rng).vec
        copies = reduce(np.kron, [psi] * k)
        acc += np.outer(copies, copies.conj())
    acc /= samples
    mc_residual = float(np.linalg.norm(acc - target))
    sym = sym_projector(k, d).mat
    exact_residual = float(np.linalg.norm(sym @ target @ sym - target))
    return MomentReport(d, k, samples, mc_residual, exact_residual)


@dataclass(frozen=True)
class CoefficientReport:
    """Projection of the transposed symmetriser onto the reduced family.

    ``c1_row_form`` records the alternative closed form (d+k)/k that floats
    around for the leading coefficient; the measured value matches
    (d+k)/(k+1) and the note spells the discrepancy out.
    """

    d: int
    k: int
    c1: float
    c2: float | None
    c1_closed: float
    c2_closed: float
    c1_row_form: float
    residual_on_support: float
    tol: float
    note: str


def decomposition_coefficients(d: int, k: int, tol: float = 1e-10) -> CoefficientReport:
    """Decompose (Psym_{1..k,A})^{t_A} = c1 F + c2 (Q - F) numerically.

    c1 and c2 are least-squares projections onto the two orthogonal
    projectors; the residual is evaluated on their combined support Q.  At
    d = 1, Q - F is empty: c2 is then None and left unchecked.
    """
    check_capacity(d ** (k + 1))
    x = _transposed_symmetriser(d, k)
    f = _success_projector(d, k)
    q = _sym_with_identity(d, k)
    ps = q - f
    c1 = _trace_pair(x, f) / float(f.trace().real)
    delta = x - c1 * f
    c2 = None
    if d > 1:  # at d = 1, Q - F is empty
        c2 = _trace_pair(x, ps) / float(ps.trace().real)
        delta -= c2 * ps
    residual = float(np.linalg.norm(q @ delta @ q))
    c1_closed = (d + k) / (k + 1)
    c2_closed = 1.0 / (k + 1)
    c1_row_form = (d + k) / k
    note = (
        f"leading coefficient: measured {c1:.12g}, matches (d+k)/(k+1) = "
        f"{c1_closed:.12g}; the alternative closed form (d+k)/k = "
        f"{c1_row_form:.12g} is inconsistent with the measured value"
    )
    report = CoefficientReport(
        d, k, c1, c2, c1_closed, c2_closed, c1_row_form, residual, tol, note
    )
    worst = max(residual, abs(c1 - c1_closed), 0.0 if c2 is None else abs(c2 - c2_closed))
    if worst > tol:
        raise VerificationError(
            f"reduced-family decomposition failed at d={d}, k={k}: "
            f"c1={c1}, c2={c2}, residual={residual:.3e}",
            worst,
        )
    return report


@dataclass(frozen=True)
class SdpReport:
    """Exact optimum of the reduced two-parameter family.

    ``grid_a1``, ``grid_a2`` and ``grid_p_max`` are the best feasible vertex
    and its objective, taken from the raw traces; ``covariance_residual`` is
    the Frobenius distance of F from the commutant of both symmetries.
    """

    d: int
    k: int
    a1: float
    a2: float
    p_star: float
    objective_value: float
    equality_residual: float
    covariance_residual: float
    grid_a1: float
    grid_a2: float
    grid_p_max: float


def reduced_optimum(d: int, k: int) -> SdpReport:
    """Maximise over M(a1, a2) = a1 F + a2 (Q - F), 0 <= a1, a2 <= 1, under the equality.

    The constraint gap is linear, a1 gap(F) + a2 gap(Q - F), and gap(F) is
    zero: one larger than FEASIBILITY_TOL raises, a smaller one is rounding
    and is taken as zero.  The feasible set is then the edge a2 = 0, or the
    whole square at d = 1, where Q - F is empty and its gap vanishes.  The
    objective is linear too, so its maximum over that set sits at a vertex;
    ties go to a2 = 0.  Covariance under S_k and U^(x k) (x) conj(U) is
    certified at once by the distance of F from their commutant.
    """
    check_capacity(d ** (k + 1))
    check_group_budget(k)  # before F and Q: the commutant blocks sum over S_k
    family = ReducedMeasurement.build(d, k)
    f_op, ps = family.f, family.ps

    obj_f = objective(f_op, d, k)
    obj_ps = objective(ps, d, k)
    gap_f = _constraint_gap(f_op.mat, d, k)
    gap_ps = _constraint_gap(ps.mat, d, k)
    if abs(gap_f) > FEASIBILITY_TOL:
        raise VerificationError(
            f"F violates the equality at d={d}, k={k}: gap {gap_f:.3e}",
            abs(gap_f),
        )

    vertices = [(0.0, 0.0), (1.0, 0.0)]
    if abs(gap_ps) <= FEASIBILITY_TOL:
        vertices += [(0.0, 1.0), (1.0, 1.0)]
    grid_a1, grid_a2 = max(vertices, key=lambda a: (a[0] * obj_f + a[1] * obj_ps, -a[1]))
    grid_p = grid_a1 * obj_f + grid_a2 * obj_ps

    p_star = success_probability_formula(d, k)
    if abs(grid_p - p_star) > GRID_TOL or abs(obj_f - p_star) > GRID_TOL:
        raise VerificationError(
            f"reduced optimum {grid_p} deviates from closed form {p_star} at d={d}, k={k}",
            abs(grid_p - p_star),
        )

    return SdpReport(
        d=d,
        k=k,
        a1=1.0,
        a2=0.0,
        p_star=p_star,
        objective_value=obj_f,
        equality_residual=abs(gap_f),
        covariance_residual=_covariance_residual(f_op, d, k),
        grid_a1=grid_a1,
        grid_a2=grid_a2,
        grid_p_max=grid_p,
    )


def _check_unit_interval(spectrum: np.ndarray, what: str) -> None:
    """Raise unless every value of spectrum lies in [-EIG_SLACK, 1 + EIG_SLACK]."""
    excess = max(-spectrum.min(), spectrum.max() - 1.0)
    if excess > EIG_SLACK:
        raise VerificationError(f"{what} leaves [0, 1] by {excess:.3e}", excess)


#: Per block Pi_b: the coefficients of F and of Q - F, the objective and constraint gap of Pi_b, and r_b.
_Blocks = namedtuple("_Blocks", "f ps objective gap ranks")


def _block_tables(d: int, k: int) -> _Blocks:
    """F, Q and X = (Psym_(k+1))^(t_A) at the block positions, where tr(Pi_b A) is a dot product."""
    positions, values, ranks = _commutant_blocks(d, k)
    f, q, x = (
        values @ a.reshape(-1)[positions]
        for a in (_success_projector(d, k), _sym_with_identity(d, k), _transposed_symmetriser(d, k))
    )
    m_k, m_k1 = (mult_semistandard(sym_partition(n), d) for n in (k, k + 1))
    return _Blocks(f / ranks, (q - f) / ranks, q / (d * m_k), q / m_k - x / m_k1, ranks)


def _block_candidate(blocks: _Blocks, direction: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of F moved PERTURBATION_SCALE along sum_b direction_b Pi_b, then
    clipped into [0, 1], shielded by (1 - (Q - F))^2 and gap-corrected by a multiple of Q - F."""
    scale = PERTURBATION_SCALE / np.sqrt(blocks.ranks @ direction**2)
    target = (1.0 - blocks.ps) ** 2 * np.clip(blocks.f + scale * direction, 0.0, 1.0)
    if d > 1:  # at d = 1, Q - F is empty and the gap is structurally zero
        target -= (target @ blocks.gap) / (blocks.ps @ blocks.gap) * blocks.ps
    return target


@dataclass(frozen=True)
class FalsifierReport:
    d: int
    k: int
    trials: int
    seed: int
    p_star: float
    max_objective: float
    margin: float
    max_step: float
    passed: bool


def perturbation_falsifier(
    d: int,
    k: int,
    trials: int = 200,
    seed: int = 0,
) -> FalsifierReport:
    """Search for feasible perturbations of the optimum that beat it.

    The commutant of S_k x (U^(x k) (x) conj(U)) is spanned by the certified
    orthogonal projectors Pi_b of ``_commutant_blocks``, so its elements are
    sum_b c_b Pi_b with spectrum the c_b, and each trial works on those D
    coefficients.  The direction, N(0, 1)^D over sqrt(r_b), is uniform in
    the orthonormal basis Pi_b / sqrt(r_b), as a Gaussian symmetric
    direction projected onto the commutant is.  Clipping the spectrum clips
    the coefficients; the shield 1 - (Q - F) removes the block that any PSD
    operator satisfying the equality lacks, which the objective does not
    see.  A coefficient outside [-EIG_SLACK, 1 + EIG_SLACK] raises, and so
    does an objective above p* + MARGIN, as it would contradict the
    optimality statement or expose a bug.  F is checked by one ``eigvalsh``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    check_capacity(d ** (k + 1))
    check_group_budget(k)  # before F and Q: the commutant blocks sum over S_k
    p_star = success_probability_formula(d, k)
    _check_unit_interval(np.linalg.eigvalsh(_success_projector(d, k)), f"optimal element at d={d}, k={k}")
    blocks = _block_tables(d, k)
    max_objective = p_star
    max_step = 0.0
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        direction = np.random.default_rng(child).standard_normal(len(blocks.ranks)) / np.sqrt(blocks.ranks)
        target = _block_candidate(blocks, direction, d)
        _check_unit_interval(target, f"candidate at d={d}, k={k} (trial {index}, seed {seed})")
        value = float(target @ blocks.objective)
        max_objective = max(max_objective, value)
        max_step = max(max_step, float(np.sqrt(blocks.ranks @ (target - blocks.f) ** 2)))
        if value > p_star + MARGIN:
            raise VerificationError(
                f"feasible candidate beats the optimum at d={d}, k={k}: "
                f"objective {value} > {p_star} + {MARGIN} "
                f"(trial {index}, seed {seed})",
                value - p_star,
            )
    return FalsifierReport(
        d=d,
        k=k,
        trials=trials,
        seed=seed,
        p_star=p_star,
        max_objective=max_objective,
        margin=MARGIN,
        max_step=max_step,
        passed=True,
    )
