"""Optimality certification for the multicopy teleportation probability.

The Haar-averaged feasibility problem is linear in the measurement: maximise
(1/d) tr[(Psym/m (x) 1) M] subject to an equality constraint tying that trace
to the overlap with X, the (k+1)-factor symmetriser partially transposed on
A, covariance under factor permutations and under U^(x k) (x) conj(U), and
0 <= M <= 1.  Both traces see only the compression of M to Sym^k (x) C^d,
where permutation covariance is automatic, so the layers here work in the
coordinates (n, a) of that space, grouped by the weight n - e_a: F, Q = 1
and X keep each weight class, of at most d rows.  The simple-root
generators of U^(x k) (x) conj(U) certify that F is covariant, and the
kernel of K = sum_(p<q) L_pq^dagger L_pq that the covariant operators are
span{F, 1 - F} (two irreducible components, Pieri rule).  The quadratic
Casimir gives K = (alpha - 2 (k+1) X - s_r) / 2 (see ``_certify``): K reads
X, only covariance rests on the generators, and the tests compare K with
their dense sum.  ``reduced_optimum`` finds F optimal in that family; the
perturbation search draws on its two coefficients.  Nothing here builds a
d^(k+1)-square operator, so this module loads neither ``tensor`` nor
``symgroup``, and nothing here draws random numbers, so it loads neither
``streams`` nor ``numpy.random``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_ATOL,
    CapacityError,
    VerificationError,
    batch_slices,
    mult_semistandard,
    occupation_rank,
    occupations,
    spawn_keys,
    sym_partition,
)
from .teleport import build_measurement, success_probability_formula

#: Largest constraint gap that still counts as rounding of an exact zero: F's must be within it, Q - F's beyond.
FEASIBILITY_TOL = 1e-9
#: Frobenius length of each normalised perturbation of the optimum.
PERTURBATION_SCALE = 1.0
#: How far a feasible candidate's objective may exceed p* before it raises.
MARGIN = 1e-7
#: Eigenvalue slack of the [0, 1] feasibility test of F and of each candidate.
EIG_SLACK = 1e-10
#: The raising operators' sum K has integer eigenvalues, so one within this of 0 is zero.
KERNEL_CUT = 0.5
#: Largest weight-class table, in entries (m d x d); every cell with k >= 2 and m d <= DIM_CAP (so d <= 50) is under it.
CLASS_CAP = 2**22


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
    is keyed by its row r and the level b of its column, as r d + b < f.size.
    """
    f, slots = classes.f, np.maximum(classes.slots, 0)
    d = f.shape[1]
    keys, values = [], []
    for t in range(tgt.shape[1]):
        src = np.flatnonzero(coef[:, t])
        dst, c = tgt[src, t], coef[src, t, None]
        keys += [(dst[:, None] * d + np.arange(d)).ravel(), (slots[dst] * d + (src % d)[:, None]).ravel()]
        values += [(c * f[src]).ravel(), -(c * f[dst]).ravel()]
    return float(np.linalg.norm(np.bincount(np.concatenate(keys), np.concatenate(values), f.size)))


def _casimir_blocks(classes: _Classes, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """K = (alpha - 2 (k+1) X - s_r) / 2 on each class (see ``_certify``), split as by ``_class_blocks``."""
    occ, tilt = occupations(k, d), d - 1 - 2 * np.arange(d)
    # s_r of the row (n, a) is A(n) - 2 n_a + 1 - tilt_a, A(n) = sum_p n_p^2 + sum_p tilt_p n_p
    s = np.repeat((occ**2).sum(axis=1) + occ @ tilt, d) - 2 * occ.ravel() + 1 - np.tile(tilt, len(occ))
    diagonal = (k * (k + d - 1) + d + 2 - s) / 2
    x_blocks, x_single = _class_blocks(classes, classes.x)
    blocks = -(k + 1) * x_blocks
    blocks[:, np.arange(d), np.arange(d)] += diagonal[classes.rows]
    return blocks, diagonal[classes.singles] - (k + 1) * x_single


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
    d = 1, one vector and 1, and no simple root).  The quadratic Casimir
    sum_(p,q) L_pq L_qp is sum_p L_pp^2 + 2 K + sum_(p<q) (L_pp - L_qq), and
    alpha - 2 (k+1) X, as its cross term -2 sum_i (i A)^(t_A) is 2 - 2 (k+1) X;
    L_pp is w_p on a row of weight w, so K = (alpha - 2 (k+1) X - s_r) / 2 with
    alpha = k (k+d-1) + d + 2 and s_r = sum_p w_p^2 + sum_p (d-1-2p) w_p.  K
    thus reads X's closed form, not the generators, which certify covariance
    alone; the tests compare K with the dense generator sum.  So K >= 0 is no
    longer built in: a kernel eigenvalue is one within KERNEL_CUT of 0, and
    a negative one outside it raises.  Returns the largest ratio and K's
    smallest nonzero eigenvalue, None at d = 1 (K = 0).
    """
    covariance = 0.0
    for p, q in [(p, p + 1) for p in range(d - 1)] + [(p + 1, p) for p in range(d - 1)]:
        tgt, coef = _generator(d, k, p, q)
        # the two terms of a simple root land on different rows, so ||L||_F = ||coef||
        covariance = max(covariance, _commutator_norm(classes, tgt, coef) / np.linalg.norm(coef))
    if covariance > DEFAULT_ATOL:
        raise VerificationError(
            f"F does not commute with U^(x k) (x) conj(U) at d={d}, k={k}: residual {covariance:.3e}", covariance
        )
    blocks, single = _casimir_blocks(classes, d, k)
    values, vectors = np.linalg.eigh(blocks)
    f_blocks, f_single = _class_blocks(classes, classes.f)
    kernel, alone = np.abs(values) < KERNEL_CUT, np.abs(single) < KERNEL_CUT
    on_kernel = np.einsum("jai,jab,jbi->ji", vectors, f_blocks, vectors)[kernel]
    on_kernel = np.sort(np.concatenate([on_kernel, f_single[alone]]))
    met, expected = int(kernel.any(axis=1).sum() + alone.sum()), np.arange(2 - min(d, 2), 2.0)
    rest = np.concatenate([values[~kernel], single[~alone]])
    margin = float(rest.min()) if rest.size else None
    wrong = (met, len(on_kernel)) != (len(expected),) * 2 or np.abs(on_kernel - expected).max() > DEFAULT_ATOL
    if wrong or (margin or 0.0) < 0:
        raise VerificationError(
            f"span{{F, 1 - F}} is not the commutant at d={d}, k={k}: the kernel of K meets {met} classes, "
            f"with <v, F v> = {on_kernel} on it where {expected} was expected, and K's least other eigenvalue {margin}"
        )
    return covariance, margin


class CoefficientReport(NamedTuple):
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


class SdpReport(NamedTuple):
    """Exact optimum of the reduced two-parameter family, attained at M = F.

    ``objective_value`` is F's objective and ``equality_residual`` its
    constraint gap, both from the raw traces; ``covariance_residual`` and
    ``reduction_margin`` are the largest relative commutator of F with a
    simple-root generator (exact covariance only at 0) and the smallest
    nonzero eigenvalue of K (see ``_certify``).
    """

    d: int
    k: int
    p_star: float
    objective_value: float
    equality_residual: float
    covariance_residual: float
    reduction_margin: float | None


def reduced_optimum(d: int, k: int) -> SdpReport:
    """Maximise over M(a1, a2) = a1 F + a2 (Q - F), 0 <= a1, a2 <= 1, under the equality.

    The constraint gap is linear, a1 gap(F) + a2 gap(Q - F), and gap(F) is
    zero: one larger than FEASIBILITY_TOL raises, a smaller one is rounding
    and is taken as zero.  When Q - F is nonempty (d > 1), its gap must be
    larger than FEASIBILITY_TOL, or it raises, since Q would then be
    feasible and beat F; the feasible set is then the edge a2 = 0, where the
    linear objective peaks at F.  At d = 1, Q - F is empty and F = Q.  F's
    objective must be within DEFAULT_ATOL of p*, or it raises.  Then
    ``_certify`` checks that the family holds every covariant operator.
    """
    family = _family(d, k)
    obj_f, (gap_f, gap_ps) = family.objective[0], family.gap
    if abs(gap_f) > FEASIBILITY_TOL:
        raise VerificationError(
            f"F violates the equality at d={d}, k={k}: gap {gap_f:.3e}",
            abs(gap_f),
        )
    if family.ranks[1] and abs(gap_ps) <= FEASIBILITY_TOL:
        raise VerificationError(
            f"Q - F meets the equality at d={d}, k={k}: gap {gap_ps:.3e}, so Q would beat F",
            abs(gap_ps),
        )

    p_star = success_probability_formula(d, k)
    if abs(obj_f - p_star) > DEFAULT_ATOL:
        raise VerificationError(
            f"reduced optimum {obj_f} deviates from closed form {p_star} at d={d}, k={k}",
            abs(obj_f - p_star),
        )

    covariance, margin = _certify(_weight_classes(d, k), d, k)
    return SdpReport(d, k, p_star, obj_f, abs(gap_f), covariance, margin)


def _check_unit_interval(spectrum: np.ndarray, what: str) -> None:
    """Raise unless every value of spectrum lies in [-EIG_SLACK, 1 + EIG_SLACK]."""
    excess = max(-spectrum.min(), spectrum.max() - 1.0)
    if excess > EIG_SLACK:
        raise VerificationError(f"{what} leaves [0, 1] by {excess:.3e}", excess)


def _trial(family: _Family, direction: np.ndarray, d: int) -> np.ndarray:
    """F moved PERTURBATION_SCALE along each direction (last axis), clipped into [0, 1] and gap-corrected by Q - F."""
    scale = PERTURBATION_SCALE / np.sqrt(direction**2 @ family.ranks)
    target = np.clip(family.f + scale[..., None] * direction, 0.0, 1.0)
    if d > 1:  # at d = 1, Q - F is empty and the gap is structurally zero
        target[..., 1] -= (target @ family.gap) / family.gap[1]
    return target


class FalsifierReport(NamedTuple):
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
    coefficients (F alone at d = 1).  The trials sweep the unit circle of
    the orthonormal basis F / sqrt(r_1), (Q - F) / sqrt(r_2) evenly, 2 pi /
    trials apart, from an offset u = key / 2^64 hashed from the seed
    (``spawn_keys``): trial j has direction (cos t_j, sin t_j) / sqrt(ranks),
    t_j = 2 pi (j + u) / trials.  Each is uniform on that circle, as a
    projected Gaussian symmetric direction is, and evenly spaced they leave
    no arc wider than 2 pi / trials unsearched; at d = 1 the direction is
    the sign of cos t_j, and both signs come up once trials >= 2.  A
    coefficient outside [-EIG_SLACK, 1 + EIG_SLACK] raises, and so does an
    objective above p* + MARGIN, as it would contradict the optimality
    statement or expose a bug; the first failing trial is named.  F is
    checked by one ``eigvalsh`` of its blocks, the trials as stacked
    arrays, in chunks of at most FACTOR_CAP entries.
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
    offset = int(spawn_keys(seed, 1)[0]) / 2**64
    max_objective = p_star
    max_step = 0.0
    for part in batch_slices(trials, 8):  # a trial's angle, direction, candidate and temporaries: under 8 floats
        theta = 2 * np.pi * (np.arange(part.start, min(part.stop, trials)) + offset) / trials
        directions = np.column_stack([np.cos(theta), np.sin(theta)])[:, : len(family.ranks)] / np.sqrt(family.ranks)
        targets = _trial(family, directions, d)
        values = targets @ family.objective
        excess = np.maximum(-targets.min(axis=1), targets.max(axis=1) - 1.0)
        failed = (excess > EIG_SLACK) | (values > p_star + MARGIN)
        if failed.any():
            first = int(np.argmax(failed))
            trial, value = part.start + first, float(values[first])
            _check_unit_interval(targets[first], f"candidate at d={d}, k={k} (trial {trial}, seed {seed})")
            raise VerificationError(
                f"feasible candidate beats the optimum at d={d}, k={k}: "
                f"objective {value} > {p_star} + {MARGIN} "
                f"(trial {trial}, seed {seed})",
                value - p_star,
            )
        max_objective = max(max_objective, float(values.max()))
        max_step = max(max_step, float(np.sqrt(((targets - family.f) ** 2) @ family.ranks).max()))
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
