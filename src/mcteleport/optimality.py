"""Optimality certification for the multicopy teleportation probability.

The Haar-averaged feasibility problem is linear in the measurement: maximise
(1/d) tr[(Psym/m (x) 1) M] subject to an equality constraint tying that trace
to the overlap with X, the (k+1)-factor symmetriser partially transposed on
A, covariance under factor permutations and under U^(x k) (x) conj(U), and
0 <= M <= 1.  Both traces see only the compression of M to Sym^k (x) C^d,
where permutation covariance is automatic, so the layers here work in the
coordinates (n, a) of that space, grouped by the weight n - e_a: F, Q = 1
and X keep each weight class, of at most d rows.  The generators of
U^(x k) (x) conj(U) certify that F is covariant, and the kernel of the
raising operators that the covariant operators are span{F, 1 - F} (two
irreducible components, Pieri rule).  ``reduced_optimum`` reads the optimum
off the four traces of that family; the perturbation search draws on its
two coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .symgroup import (
    mult_semistandard,
    occupation_rank,
    occupations,
    sym_basis,
    sym_partition,
    sym_projector,
)
from .tensor import (
    DEFAULT_ATOL,
    CapacityError,
    Operator,
    VerificationError,
    as_rng,
    haar_state,
    partial_trace,
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
#: The raising operators' sum K has integer eigenvalues, so one below this is zero.
KERNEL_CUT = 0.5
#: Largest weight-class table, in entries (m d x d); every cell with k >= 2 and m d <= DIM_CAP (so d <= 50) is under it.
CLASS_CAP = 2**22


def _check_layout(m: Operator, d: int, k: int) -> None:
    if m.dims != (d,) * (k + 1):
        raise ValueError(f"operator layout {m.dims} does not match (d,)*{k + 1} for d={d}")


def _sym_overlap(mat: np.ndarray, n: int, d: int) -> float:
    """Re tr(Psym_n A) = Re tr(B^T A B), B the vectors of ``sym_basis(n, d)`` as columns."""
    b = np.column_stack([s.vec for s in sym_basis(n, d)])
    return float(np.sum(b * (mat @ b)).real)


def objective(m: Operator, d: int, k: int) -> float:
    """(1/d) tr[(Psym/m_sym_k (x) 1_A) M]; equals p(d,k) at the optimum."""
    _check_layout(m, d, k)
    return _sym_overlap(partial_trace(m, {k}).mat, k, d) / (d * mult_semistandard(sym_partition(k), d))


def equality_residual(m: Operator, d: int, k: int) -> float:
    """|LHS - RHS| of the feasibility equality tying the two Haar averages: tr(Q M)/m_k - tr(X M)/m_(k+1).

    X is Psym on k+1 factors partially transposed on A, so tr(X M) = tr(Psym_(k+1) M^(t_A)).
    """
    _check_layout(m, d, k)
    m_k, m_k1 = (mult_semistandard(sym_partition(n), d) for n in (k, k + 1))
    lhs = _sym_overlap(partial_trace(m, {k}).mat, k, d) / m_k
    return abs(lhs - _sym_overlap(partial_transpose(m, {k}).mat, k + 1, d) / m_k1)


#: Operators on Sym^k (x) C^d that keep each weight class, as (m d) x d arrays; see ``_weight_classes``.
_Classes = namedtuple("_Classes", "rows singles slots q f x")


def _class_trace(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B) for symmetric A and B held as in ``_Classes``: sum_r sum_b A[r, s_b] B[s_b, r]."""
    return float(np.sum(a * b))


def _class_blocks(classes: _Classes, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal blocks of A: a (width, d, d) stack for the classes of d rows, the values of the rest."""
    return a[classes.rows], a[classes.singles, classes.singles % a.shape[1]]


@lru_cache(maxsize=None)
def _weight_classes(d: int, k: int) -> _Classes:
    """Q = 1, F and X on Sym^k (x) C^d, each held as A[r, b] = A[r, slots[r, b]].

    Row r = (n, a) has the weight n - e_a; slots[r, b] is the row (n', b) of
    its class, n' = n - e_a + e_b, or -1 when n' has a negative entry.  A
    class has d rows when n - e_a >= 0 (``rows[j]``, of weight
    occupations(k - 1, d)[j]) and one row otherwise (``singles``).  X is
    delta(n + e_b, n' + e_a) sqrt((n_b + 1)(n'_a + 1)) / (k + 1); F is g g^T
    on class j, g the values of column j of the measurement, whose rows must
    be those of class j, or it raises; over CLASS_CAP entries it refuses first.
    """
    if (size := math.comb(k + d - 1, k) * d) * d > CLASS_CAP:
        raise CapacityError(f"weight-class tables of {size} x {d} entries exceed cap {CLASS_CAP}")
    meas = build_measurement(d, k)
    n = np.repeat(occupations(k, d), d, axis=0)
    level = np.arange(size) % d
    eye = np.eye(d, dtype=n.dtype)
    slots = np.empty((size, d), dtype=np.intp)
    x = np.empty((size, d))
    for b in range(d):
        partner = n - eye[level] + eye[b]
        live = partner.min(axis=1) >= 0
        slots[:, b] = np.where(live, occupation_rank(np.where(live[:, None], partner, n)) * d + b, -1)
        x[:, b] = live * np.sqrt((n[:, b] + 1) * (partner[np.arange(size), level] + 1)) / (k + 1)
    whole = slots.min(axis=1) >= 0
    rows = slots[whole & (level == 0)]
    if not np.array_equal(meas.rows, rows):
        raise VerificationError(f"measurement rows differ from the weight classes at d={d}, k={k}")
    f = np.zeros((size, d))
    f[rows] = meas.values[:, :, None] * meas.values[:, None, :]
    classes = _Classes(rows, np.flatnonzero(~whole), slots, (slots == np.arange(size)[:, None]) * 1.0, f, x)
    for array in classes:
        array.setflags(write=False)
    return classes


def _generator(d: int, k: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """L_pq = J_pq (x) 1 - 1 (x) E_qp on Sym^k (x) C^d, two terms per row: L e_r = sum_t coef[r, t] e_tgt[r, t].

    The d^2 generators of U^(x k) (x) conj(U), conj(U) acting as the dual
    representation: J_pq |n> = sqrt(n_q (n_p + 1)) |n + e_p - e_q>, J_pp |n>
    = n_p |n>, and E_qp moves A from level p to q.  A missing term has coefficient 0.
    """
    occ = occupations(k, d)
    moved = occ + (np.arange(d) == p) - (np.arange(d) == q)
    copies = occ[:, p].astype(float) if p == q else np.sqrt(occ[:, q] * (occ[:, p] + 1.0))
    image = occupation_rank(np.where(moved.min(axis=1, keepdims=True) >= 0, moved, occ))
    level = np.tile(np.arange(d), len(occ))
    tgt = np.column_stack([np.repeat(image, d) * d + level, np.repeat(np.arange(len(occ)), d) * d + q])
    coef = np.column_stack([np.repeat(copies, d), np.where(level == p, -1.0, 0.0)])
    return tgt, coef


def _commutator_norm(classes: _Classes, tgt: np.ndarray, coef: np.ndarray) -> float:
    """||[L, F]||_F for F symmetric and held as in ``_Classes``, L given as by ``_generator``.

    L F moves row r of F to row tgt[r, t]; column r of F L gains coef[r, t]
    times column tgt[r, t] of F, which by symmetry is that row of F at the
    rows of its class.  [L, F] takes each class into one class, so an entry
    is keyed by its row and the level of its column.
    """
    f, slots = classes.f, np.maximum(classes.slots, 0)
    d = f.shape[1]
    keys, values = [], []
    for t in range(tgt.shape[1]):
        src = np.flatnonzero(coef[:, t])
        dst, c = tgt[src, t], coef[src, t, None]
        keys += [(dst[:, None] * d + np.arange(d)).ravel(), (slots[dst] * d + (src % d)[:, None]).ravel()]
        values += [(c * f[src]).ravel(), -(c * f[dst]).ravel()]
    _, entry = np.unique(np.concatenate(keys), return_inverse=True)
    return float(np.linalg.norm(np.bincount(entry, np.concatenate(values))))


def _certify(classes: _Classes, d: int, k: int) -> tuple[float, float | None]:
    """Certify that F is covariant and that span{F, 1 - F} holds every covariant operator, or raise.

    Covariance: the d^2 generators L_pq span the Lie algebra of U^(x k) (x)
    conj(U), U(d) is connected, and brackets of the 2(d-1) simple roots
    L_(p,p+1), L_(p+1,p) give every other L_pq with p != q and each
    L_pp - L_(p+1,p+1), while sum_p L_pp = k - 1 is a scalar; so each
    ||[L, F]||_F / ||L||_F of a simple root must be within DEFAULT_ATOL.
    Only a zero ratio implies covariance exactly: a ratio eps bounds the
    commutator with a root of height h only through h - 1 nested brackets.
    Reduction: the kernel of K = sum_(p<q) L_pq^dagger L_pq, which keeps each
    class, holds one highest-weight vector per irreducible component; it must
    meet two classes, one vector each, so the commutant is spanned by two
    projectors, and <v, F v> on them must be 0 and 1, so F is one of them (at
    d = 1, one vector and 1, and no simple root).  Returns the largest ratio
    and K's smallest nonzero eigenvalue, None at d = 1 where K = 0.
    """
    covariance, sums = 0.0, np.zeros(classes.f.shape)
    for p, q in [(p, q) for p in range(d) for q in range(d) if q > p or q == p - 1]:  # raising, or a simple root
        tgt, coef = _generator(d, k, p, q)
        if abs(p - q) == 1:  # the two terms of L_pq land on different rows, so ||L||_F = ||coef||
            covariance = max(covariance, _commutator_norm(classes, tgt, coef) / np.linalg.norm(coef))
        for t in range(2 if p < q else 0):
            src = np.flatnonzero(coef[:, t])
            near = np.maximum(classes.slots[src], 0)
            for u in range(2):  # <L e_r, L e_s> for s = slots[r, b]: terms that land on the same row
                sums[src] += coef[src, t, None] * coef[near, u] * (tgt[src, t, None] == tgt[near, u])
    if covariance > DEFAULT_ATOL:
        raise VerificationError(
            f"F does not commute with U^(x k) (x) conj(U) at d={d}, k={k}: residual {covariance:.3e}", covariance
        )
    blocks, single = _class_blocks(classes, sums * (classes.slots >= 0))
    values, vectors = np.linalg.eigh(blocks)
    f_blocks, f_single = _class_blocks(classes, classes.f)
    kernel, alone = values < KERNEL_CUT, single < KERNEL_CUT
    on_kernel = np.einsum("jai,jab,jbi->ji", vectors, f_blocks, vectors)[kernel]
    on_kernel = np.sort(np.concatenate([on_kernel, f_single[alone]]))
    met, expected = int(kernel.any(axis=1).sum() + alone.sum()), np.arange(2 - min(d, 2), 2.0)
    if (met, len(on_kernel)) != (len(expected),) * 2 or np.abs(on_kernel - expected).max() > DEFAULT_ATOL:
        raise VerificationError(
            f"span{{F, 1 - F}} is not the commutant at d={d}, k={k}: the raising operators' kernel "
            f"meets {met} classes, with <v, F v> = {on_kernel} on it where {expected} was expected"
        )
    rest = np.concatenate([values[~kernel], single[~alone]])
    return covariance, (float(rest.min()) if rest.size else None)


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
    """Decompose (Psym_{1..k,A})^{t_A} = c1 F + c2 (Q - F) numerically, class by class.

    c1 and c2 are least-squares projections onto the two orthogonal
    projectors; the residual is the Frobenius norm of the rest of X on their
    combined support Q = 1 on Sym^k (x) C^d.  At d = 1, Q - F is empty: c2
    is then None and left unchecked.
    """
    *_, q, f, x = _weight_classes(d, k)
    c1 = _class_trace(x, f) / _class_trace(q, f)
    delta = x - c1 * f
    c2 = None
    if d > 1:  # at d = 1, Q - F is empty
        c2 = _class_trace(x, q - f) / _class_trace(q, q - f)
        delta -= c2 * (q - f)
    residual = float(np.linalg.norm(delta))
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


#: For F and for Q - F: the coefficients of F, the rank, the objective tr(M)/(d m_k) and the gap
#: tr(M)/m_k - tr(X M)/m_(k+1).
_Family = namedtuple("_Family", "f ranks objective gap")


def _family(d: int, k: int) -> _Family:
    """Ranks, objective values and constraint gaps of F and of Q - F, from their traces on the classes.

    The ranks are C(k+d-2, k-1) and m d minus that, so Q - F has rank 0 at d = 1.
    """
    classes = _weight_classes(d, k)
    m_k, m_k1 = (mult_semistandard(sym_partition(n), d) for n in (k, k + 1))
    parts = (classes.f, classes.q - classes.f)
    traces, overlaps = (np.array([_class_trace(a, part) for part in parts]) for a in (classes.q, classes.x))
    width = math.comb(k + d - 2, k - 1)
    ranks = np.array([width, d * m_k - width])
    return _Family(np.array([1.0, 0.0]), ranks, traces / (d * m_k), traces / m_k - overlaps / m_k1)


@dataclass(frozen=True)
class SdpReport:
    """Exact optimum of the reduced two-parameter family.

    ``grid_a1``, ``grid_a2`` and ``grid_p_max`` are the best feasible vertex
    and its objective, taken from the raw traces; ``covariance_residual`` and
    ``reduction_margin`` are the largest relative commutator of F with a
    simple-root generator (exact covariance only at 0) and the smallest
    nonzero eigenvalue of K (see ``_certify``).
    """

    d: int
    k: int
    a1: float
    a2: float
    p_star: float
    objective_value: float
    equality_residual: float
    covariance_residual: float
    reduction_margin: float | None
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
    ties go to a2 = 0.  Then ``_certify`` checks that the family holds every
    covariant operator.
    """
    family = _family(d, k)
    (obj_f, obj_ps), (gap_f, gap_ps) = family.objective, family.gap
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

    covariance, margin = _certify(_weight_classes(d, k), d, k)
    return SdpReport(
        d=d,
        k=k,
        a1=1.0,
        a2=0.0,
        p_star=p_star,
        objective_value=obj_f,
        equality_residual=abs(gap_f),
        covariance_residual=covariance,
        reduction_margin=margin,
        grid_a1=grid_a1,
        grid_a2=grid_a2,
        grid_p_max=grid_p,
    )


def _check_unit_interval(spectrum: np.ndarray, what: str) -> None:
    """Raise unless every value of spectrum lies in [-EIG_SLACK, 1 + EIG_SLACK]."""
    excess = max(-spectrum.min(), spectrum.max() - 1.0)
    if excess > EIG_SLACK:
        raise VerificationError(f"{what} leaves [0, 1] by {excess:.3e}", excess)


def _trial(family: _Family, direction: np.ndarray, d: int) -> np.ndarray:
    """F moved PERTURBATION_SCALE along direction, clipped into [0, 1] and gap-corrected by Q - F."""
    scale = PERTURBATION_SCALE / np.sqrt(family.ranks @ direction**2)
    target = np.clip(family.f + scale * direction, 0.0, 1.0)
    if d > 1:  # at d = 1, Q - F is empty and the gap is structurally zero
        target[1] -= (target @ family.gap) / family.gap[1]
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

    The covariant operators are c_1 F + c_2 (Q - F), as ``reduced_optimum``
    certifies, with spectrum the c_b, so each trial works on those
    coefficients (F alone at d = 1).  The direction, N(0, 1) per coefficient
    over sqrt(rank), is uniform in the orthonormal basis F / sqrt(r_1),
    (Q - F) / sqrt(r_2), as a projected Gaussian symmetric direction is.  A
    coefficient outside [-EIG_SLACK, 1 + EIG_SLACK] raises, and so does an
    objective above p* + MARGIN, as it would contradict the optimality
    statement or expose a bug.  F is checked by one ``eigvalsh`` of its blocks.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p_star = success_probability_formula(d, k)
    classes = _weight_classes(d, k)
    blocks, single = _class_blocks(classes, classes.f)
    spectrum = np.concatenate([np.linalg.eigvalsh(blocks).ravel(), single])
    _check_unit_interval(spectrum, f"optimal element at d={d}, k={k}")
    family = _family(d, k)
    family = _Family(*(column[family.ranks > 0] for column in family))
    max_objective = p_star
    max_step = 0.0
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        direction = np.random.default_rng(child).standard_normal(len(family.ranks)) / np.sqrt(family.ranks)
        target = _trial(family, direction, d)
        _check_unit_interval(target, f"candidate at d={d}, k={k} (trial {index}, seed {seed})")
        value = float(target @ family.objective)
        max_objective = max(max_objective, value)
        max_step = max(max_step, float(np.sqrt(family.ranks @ (target - family.f) ** 2)))
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
