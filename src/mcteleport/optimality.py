"""Optimality certification for the multicopy teleportation probability.

The Haar-averaged feasibility problem is linear in the measurement: maximise
(1/d) tr[(Psym/m (x) 1) M] subject to an equality constraint tying that trace
to the overlap with X, the (k+1)-factor symmetriser partially transposed on
A, covariance under factor permutations and under U^(x k) (x) conj(U), and
0 <= M <= 1.  Both traces see only the compression of M to Sym^k (x) C^d,
where permutation covariance is automatic, so the layers here work in the
coordinates (n, a) of that space, grouped by the weight n - e_a: F, Q = 1
and X keep each weight class, and each is held as one d x d block per class
of d rows and one value for every class of one row.  One root generator
L_01 of U^(x k) (x) conj(U), which moves each class to one other, and the
two level permutations that generate S_d, which carry L_01 to every other
root, certify block by block that F is covariant, and the kernel of K =
sum_(p<q) L_pq^dagger L_pq that the covariant operators are span{F, 1 - F}
(two irreducible components, Pieri rule).  The quadratic Casimir gives K =
(alpha - 2 (k+1) X - s_r) / 2 (see ``_certify``): K reads X, only
covariance rests on the generators, and the tests compare both with the
dense generators.
``reduced_optimum`` finds F optimal in that family; the perturbation search
draws on its two coefficients.  Nothing here builds a d^(k+1)-square
operator, so this module loads neither ``tensor`` nor ``symgroup``: the
one-row multiplicities m_k = C(k + d - 1, k) it needs are binomials.  The
falsifier's only draw is an offset from ``core.spawn_keys``, so nothing here
reads a row of normals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_ATOL,
    VerificationError,
    batch_slices,
    occupation_rank,
    occupations,
    spawn_keys,
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


#: An operator that keeps each weight class: a (width, d, d) stack of blocks, one per class of d rows, and
#: its one value on every class of one row.
_Held = namedtuple("_Held", "blocks single")


class _Classes(namedtuple("_Classes", "singles q f x")):
    """The number of classes of one row, and Q = 1, F and X as ``_Held``; see ``_weight_classes``."""

    @cached_property
    def traces(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(tr(Q F), tr(Q (Q - F))) and (tr(X F), tr(X (Q - F))), over the blocks and the classes of one row."""
        parts = (self.f, _Held(self.q.blocks - self.f.blocks, self.q.single - self.f.single))
        return tuple(
            tuple(float(np.sum(a.blocks * b.blocks) + self.singles * a.single * b.single) for b in parts)
            for a in (self.q, self.x)
        )


@lru_cache(maxsize=None)
def _weight_classes(d: int, k: int) -> _Classes:
    """Q = 1, F and X on Sym^k (x) C^d, on the weight classes of the rows.

    Row (n, a) has the weight n - e_a.  The classes of d rows are the
    measurement's columns: each column holds the rows (w + e_b, b) of one
    weight w >= 0, or it raises.  Block j is the class whose weight w is row
    j of occupations(k - 1, d), its rows in the order of b.  Every other row,
    n_a = 0, is a class of one.  Within a class X is sqrt((n_b + 1)(n'_a +
    1)) / (k + 1) between rows (n, a) and (n', b), that is sqrt((w_b + 1 +
    delta_ab)(w_a + 1 + delta_ab)) / (k + 1), built from the weight alone;
    on a class of one it is (n_a + 1) / (k + 1) = 1 / (k + 1).  F is g g^T
    on the class of a column, g the measurement's values there, and 0 on a
    class of one.
    Every array kept is a (width, d, d) stack, as large as the insertion
    table that ``build_measurement`` bounds by FACTOR_CAP before it builds
    anything; ``occupations`` bounds the m d entries of the other table.
    """
    meas = build_measurement(d, k)
    n = occupations(k, d)[meas.rows // d]  # n[j, b] is the occupation of row rows[j, b]
    eye = np.eye(d, dtype=n.dtype)
    n -= eye  # the weight of each row
    if n.min() < 0 or np.any(n != n[:, :1]):
        raise VerificationError(f"measurement rows differ from the weight classes at d={d}, k={k}")
    order = np.argsort(occupation_rank(n[:, 0]))
    v, values = n[order, 0] + 1, meas.values[order]  # w + 1 for each class's weight w
    del n
    width = len(v)
    x = v[:, None, :] + eye
    x *= v[:, :, None] + eye  # (w_b + 1 + delta_ab)(w_a + 1 + delta_ab), exact integers, in place
    x = np.sqrt(x)
    x /= k + 1
    q = _Held(np.broadcast_to(np.eye(d), (width, d, d)), 1.0)
    f = _Held(values[:, :, None] * values[:, None, :], 0.0)
    x = _Held(x, 1 / (k + 1))
    for held in (f, x):
        held.blocks.setflags(write=False)
    return _Classes((math.comb(k + d - 1, k) - width) * d, q, f, x)


def _casimir_blocks(classes: _Classes, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """K = (alpha - 2 (k+1) X - s_r) / 2 (see ``_certify``): its blocks, and its value on each class of one row."""
    alpha, tilt = k * (k + d - 1) + d + 2, d - 1 - 2 * np.arange(d)
    weights, occ = occupations(k - 1, d), occupations(k, d)
    blocks = -(k + 1) * classes.x.blocks
    blocks[:, np.arange(d), np.arange(d)] += ((alpha - (weights**2).sum(axis=1) - weights @ tilt) / 2)[:, None]
    # the class of one row (n, a), n_a = 0, has the weight n - e_a, so s_r = A(n) + 1 - tilt_a with
    # A(n) = sum_p n_p^2 + sum_p tilt_p n_p, and (alpha - s_r) / 2 = (alpha - 1 - A(n)) / 2 + tilt_a / 2, exactly;
    # the mask lists the (n, a) row-major, as the classes are
    single = np.add.outer((alpha - 1 - (occ**2).sum(axis=1) - occ @ tilt) / 2, tilt / 2)[occ == 0]
    single -= (k + 1) * classes.x.single
    return blocks, single


def _covariance(classes: _Classes, d: int, k: int) -> float:
    """The largest of ||[L_01, F]||_F / ||L_01||_F and F's residuals under the swap and the cycle of levels.

    L_pq, here L_01, moves every weight by e_p - e_q.  On the class of weight w it is L_w
    = diag(c) - E_qp, c_b = sqrt((w + e_b)_q ((w + e_b)_p + 1)), into the
    class of w + e_p - e_q, which has one row, where F is constant, when w_q
    = 0; and it takes the class of one row (w + e_q, p), w_p = 0, to sqrt(w_q
    + 1) e_p - e_q in the class of w.  [L, 1] = 0, so with F's value on the
    classes of one row taken off, ||[L, F]||^2 = sum_w ||L_w F_w - F_(w+e_p-
    e_q) L_w||^2 + sum_(w: w_p = 0) ||F_w (sqrt(w_q + 1) e_p - e_q)||^2, and
    ||L||^2 = d sum_n n_q (n_p + 1) + m over the occupations n of k.
    rho(P_sigma) takes the class of w to that of sigma.w, level b to
    sigma(b), so ||rho(P_sigma)^dagger F rho(P_sigma) - F||_F is one gather
    of the blocks; the classes of one row need none, F being constant on
    them.  At d = 2 the swap is the cycle; at d = 1 there is nothing to check.
    """
    if d == 1:
        return 0.0
    weights, occ, level, (p, q) = occupations(k - 1, d), occupations(k, d), np.arange(d), (0, 1)
    padded = np.zeros((len(classes.f.blocks) + 1, d, d))  # the last block: the classes of one row, where f is 0
    f = np.subtract(classes.f.blocks, classes.f.single * np.eye(d), out=padded[:-1])
    c = np.sqrt((weights[:, q, None] + (level == q)) * (weights[:, p, None] + (level == p) + 1.0))
    moved = np.maximum(weights + (level == p) - (level == q), 0)  # taken only where w_q > 0
    image = padded[np.where(weights[:, q] > 0, occupation_rank(moved), len(f))]
    column = image[:, :, q].copy()
    commutator = c[:, :, None] * f
    commutator -= np.multiply(image, c[:, None, :], out=image)
    commutator[:, q] -= f[:, p]
    commutator[:, :, p] += column
    onto = weights[:, p] == 0  # the classes that the class of one row (w + e_q, p) goes to
    lifted = np.sqrt(weights[onto, q, None] + 1.0) * f[onto, :, p] - f[onto, :, q]
    squares = np.vdot(commutator, commutator) + np.vdot(lifted, lifted)
    residuals = [math.sqrt(squares / (d * (occ[:, q] * (occ[:, p] + 1.0)).sum() + len(occ)))]
    del image, commutator
    swap = np.array([1, 0, *level[2:]])
    for sigma, inverse in [(swap, swap), (np.roll(level, -1), np.roll(level, 1))][: min(d - 1, 2)]:
        # rho(P_sigma)^dagger F rho(P_sigma) on the class of w: F's block on sigma.w, rows and columns by sigma
        moved = f[occupation_rank(weights[:, inverse])[:, None, None], sigma[:, None], sigma]
        moved -= f
        residuals.append(math.sqrt(np.vdot(moved, moved)))
    return max(residuals)


def _certify(classes: _Classes, d: int, k: int) -> tuple[float, float | None]:
    """Certify that F is covariant and that span{F, 1 - F} holds every covariant operator, or raise.

    Covariance: the d^2 generators L_pq = J_pq (x) 1 - 1 (x) E_qp span the
    Lie algebra of U^(x k) (x) conj(U), with J_pq |n> = sqrt(n_q (n_p + 1))
    |n + e_p - e_q> and E_qp moving A from level p to q.  U(d) is connected,
    sum_p L_pp = k - 1 is a scalar and [L_pq, L_qp] = L_pp - L_qq, so F is
    covariant once it commutes with each L_pq, p != q.  A permutation matrix
    P_sigma lies in U(d), and rho(P_sigma) = P_sigma^(x k) (x) P_sigma
    conjugates L_pq to L_sigma(p)sigma(q); the swap (0 1) and the cycle a ->
    a + 1 mod d generate S_d, which is transitive on ordered pairs.  So with
    ratio(L) = ||[L, F]||_F / ||L||_F and l(sigma) the length of sigma as a
    word in the two, ratio(L_sigma(0)sigma(1)) <= ratio(L_01) + 2 l(sigma)
    (largest residual of F under the two): ``_covariance``'s largest value
    bounds every root directly, and must be within DEFAULT_ATOL.  The swap
    is there for this bound; from the cycle alone the other roots follow
    only through nested brackets.
    Reduction: the kernel of K = sum_(p<q) L_pq^dagger L_pq, which keeps each
    class, holds one highest-weight vector per irreducible component; it must
    meet two classes, one vector each, so the commutant is spanned by two
    projectors, and <v, F v> on them must be 0 and 1, so F is one of them (at
    d = 1, one vector and 1).  The quadratic Casimir
    sum_(p,q) L_pq L_qp is sum_p L_pp^2 + 2 K + sum_(p<q) (L_pp - L_qq), and
    alpha - 2 (k+1) X, as its cross term -2 sum_i (i A)^(t_A) is 2 - 2 (k+1) X;
    L_pp is w_p on a row of weight w, so K = (alpha - 2 (k+1) X - s_r) / 2 with
    alpha = k (k+d-1) + d + 2 and s_r = sum_p w_p^2 + sum_p (d-1-2p) w_p.  K
    thus reads X's closed form, not the generators (the tests compare it with
    their dense sum), and K >= 0 is not built in: a kernel eigenvalue is one
    within KERNEL_CUT of 0, and a negative one outside it raises.  Returns
    the covariance residual and K's least nonzero eigenvalue, None at d = 1.
    """
    covariance = _covariance(classes, d, k)  # in a call of its own, so its arrays are gone before K's
    if covariance > DEFAULT_ATOL:
        raise VerificationError(
            f"F does not commute with U^(x k) (x) conj(U) at d={d}, k={k}: residual {covariance:.3e}", covariance
        )
    blocks, single = _casimir_blocks(classes, d, k)
    values, vectors = np.linalg.eigh(blocks)
    kernel, alone = np.abs(values) < KERNEL_CUT, np.abs(single) < KERNEL_CUT
    j, i = np.nonzero(kernel)  # <v, F v> on the kernel's vectors v = vectors[j, :, i] alone
    on_kernel = np.einsum("na,nab,nb->n", vectors[j, :, i], classes.f.blocks[j], vectors[j, :, i])
    on_kernel = np.sort(np.append(on_kernel, np.full(alone.sum(), classes.f.single)))
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
    classes = _weight_classes(d, k)
    _, q, f, x = classes
    (on_f, on_rest), (x_on_f, x_on_rest) = classes.traces
    c1, c2 = x_on_f / on_f, None
    blocks, single = x.blocks - c1 * f.blocks, x.single - c1 * f.single
    if d > 1:  # at d = 1, Q - F is empty
        c2 = x_on_rest / on_rest
        blocks, single = blocks - c2 * (q.blocks - f.blocks), single - c2 * (q.single - f.single)
    residual = math.sqrt(np.sum(blocks**2) + classes.singles * single**2)
    c1_closed, c2_closed, c1_row_form = (d + k) / (k + 1), 1.0 / (k + 1), (d + k) / k
    note = (
        f"leading coefficient: measured {c1:.12g}, matches (d+k)/(k+1) = "
        f"{c1_closed:.12g}; the alternative closed form (d+k)/k = "
        f"{c1_row_form:.12g} is inconsistent with the measured value"
    )
    worst = max(residual, abs(c1 - c1_closed), 0.0 if c2 is None else abs(c2 - c2_closed))
    if worst > tol:
        raise VerificationError(
            f"reduced-family decomposition failed at d={d}, k={k}: c1={c1}, c2={c2}, residual={residual:.3e}", worst
        )
    return CoefficientReport(d, k, c1, c2, c1_closed, c2_closed, c1_row_form, residual, tol, note)


#: For F and for Q - F: the coefficients of F, the rank, the objective tr(M)/(d m_k) and the gap
#: tr(M)/m_k - tr(X M)/m_(k+1).
_Family = namedtuple("_Family", "f ranks objective gap")


def _family(d: int, k: int) -> _Family:
    """Ranks, objective values and constraint gaps of F and of Q - F, from their traces on the classes.

    The ranks are C(k+d-2, k-1) and m d minus that, so Q - F has rank 0 at d = 1.
    """
    m_k, m_k1 = (math.comb(n + d - 1, n) for n in (k, k + 1))
    traces, overlaps = np.array(_weight_classes(d, k).traces)
    ranks = np.array([width := math.comb(k + d - 2, k - 1), d * m_k - width])
    return _Family(np.array([1.0, 0.0]), ranks, traces / (d * m_k), traces / m_k - overlaps / m_k1)


class SdpReport(NamedTuple):
    """Exact optimum of the reduced two-parameter family, attained at M = F.

    ``objective_value`` is F's objective and ``equality_residual`` its
    constraint gap, both from the raw traces; ``covariance_residual`` is the
    largest of F's relative commutator with the root L_01 and its residuals
    under the swap and the cycle of levels, which bound F's relative
    commutator with every root (see ``_certify``), and ``reduction_margin``
    is the smallest nonzero eigenvalue of K.
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
        raise VerificationError(f"F violates the equality at d={d}, k={k}: gap {gap_f:.3e}", abs(gap_f))
    if family.ranks[1] and abs(gap_ps) <= FEASIBILITY_TOL:
        raise VerificationError(
            f"Q - F meets the equality at d={d}, k={k}: gap {gap_ps:.3e}, so Q would beat F", abs(gap_ps)
        )
    p_star = success_probability_formula(d, k)
    if abs(obj_f - p_star) > DEFAULT_ATOL:
        raise VerificationError(
            f"reduced optimum {obj_f} deviates from closed form {p_star} at d={d}, k={k}", abs(obj_f - p_star)
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


def perturbation_falsifier(d: int, k: int, trials: int = 200, seed: int = 0) -> FalsifierReport:
    """Search for feasible perturbations of the optimum that beat it.

    The covariant operators are c_1 F + c_2 (Q - F), as ``reduced_optimum``
    certifies, with spectrum the c_b, so each trial works on those
    coefficients (F alone at d = 1).  The trials sweep the unit circle of
    the orthonormal basis F / sqrt(r_1), (Q - F) / sqrt(r_2) evenly, 2 pi /
    trials apart, from an offset u = key / 2^64, key the seed's first
    SplitMix64 output (``spawn_keys``): trial j has direction (cos t_j, sin
    t_j) / sqrt(ranks), t_j = 2 pi (j + u) / trials.  Each is uniform on
    that circle, and evenly spaced they leave no arc wider than 2 pi /
    trials unsearched; at d = 1 the direction is the sign of cos t_j, and
    both signs come up once trials >= 2.  A
    coefficient outside [-EIG_SLACK, 1 + EIG_SLACK] raises, and so does an
    objective above p* + MARGIN, as it would contradict the optimality
    statement or expose a bug; the first failing trial is named.  F is
    checked by one ``eigvalsh`` of its blocks, the trials as stacked
    arrays, in chunks of at most FACTOR_CAP entries.

    The sweep cannot beat F and does not test the reduction: F's gap is
    exactly 0, so the gap correction sets every candidate's coefficient of
    Q - F back to 0, and each candidate is c F with c <= 1 after clipping,
    objective c p*.  It only confirms that scaling F down loses.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p_star = success_probability_formula(d, k)
    classes = _weight_classes(d, k)
    spectrum = np.append(np.linalg.eigvalsh(classes.f.blocks), [classes.f.single] if classes.singles else [])
    _check_unit_interval(spectrum, f"optimal element at d={d}, k={k}")
    family = _family(d, k)
    family = _Family(*(column[family.ranks > 0] for column in family))
    offset = int(spawn_keys(seed, 1)[0]) / 2**64
    max_objective, max_step = p_star, 0.0
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
                f"feasible candidate beats the optimum at d={d}, k={k}: objective {value} > {p_star} + {MARGIN} "
                f"(trial {trial}, seed {seed})",
                value - p_star,
            )
        max_objective = max(max_objective, float(values.max()))
        max_step = max(max_step, float(np.sqrt(((targets - family.f) ** 2) @ family.ranks).max()))
    return FalsifierReport(d, k, trials, seed, p_star, max_objective, MARGIN, max_step, passed=True)
