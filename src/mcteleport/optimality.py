"""Optimality certification for the multicopy teleportation probability.

The Haar-averaged feasibility problem is linear in the measurement: maximise
(1/d) tr[(Psym/m (x) 1) M] subject to an equality constraint tying that trace
to the overlap with X, the (k+1)-factor symmetriser partially transposed on
A, covariance under factor permutations and under U^(x k) (x) conj(U), and
0 <= M <= 1.  Both traces see only the compression of M to Sym^k (x) C^d,
where permutation covariance is automatic, so the layers here work in the
coordinates (n, a) of that space, grouped by the weight n - e_a: F, Q = 1
and X keep each weight class, each a scalar plus a rank-one term on a
class of d rows and one value on every class of one row.  Only width x d
arrays are held, F's factor g and the weights; a d x d block is formed
only within a chunk of classes, and dropped with it.  One root generator
L_01 of U^(x k) (x) conj(U), which moves each class to one other, and the
two level permutations that generate S_d, which carry L_01 to every other
root, certify block by block that F is covariant, and the kernel of K =
sum_(p<q) L_pq^dagger L_pq that the covariant operators are span{F, 1 - F}
(two irreducible components, Pieri rule).  The quadratic Casimir gives K =
(alpha - 2 (k+1) X - s_r) / 2 (see ``_certify``): K reads X, only
covariance rests on the generators, and the tests compare both with the
dense generators.  K's spectrum is taken in closed form, integers, and
X's distance from its closed form bounds how far K's may lie (Weyl's
inequality); F's is ||g||^2 and 0: no eigensolver runs, and the tests
keep one as an oracle.
``reduced_optimum`` finds F optimal in that family; the perturbation search
draws on its two coefficients; ``verify_optimality`` runs both on one build
of the classes, which forms X's blocks in one pass.  Only ``verify_lemmas``
builds a d^(k+1)-square operator, and it imports ``tensor`` and ``symgroup``
when called; the rest needs only the binomials m_k = C(k + d - 1, k), the
one-row multiplicities.  The falsifier's only draw is an offset from
``core.spawn_keys``, so nothing here reads a row of normals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_ATOL,
    VerificationError,
    batch_slices,
    factor_distance,
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


class _Classes(namedtuple("_Classes", "singles v g")):
    """The number of classes of one row, v = w + 1 for each class's weight w, and g; see ``_weight_classes``."""

    @cached_property
    def x_pass(self) -> tuple[tuple[float, float], tuple[float, float], float, float]:
        """All that is read of X, from one pass over its blocks: (tr(Q F), tr(Q (Q - F))), (tr(X F), tr(X (Q - F))),
        eps_X = max_w ||(k+1) X_w - 1 - u u^T||_F, u = sqrt(v) (see ``_certify``), and ||X - c1* F - c2* (Q - F)||_F
        at c1* = (d+k)/(k+1) and c2* = 1/(k+1), 0 at d = 1, which is 0 on each class of one row (X = 1/(k+1) there)."""
        width, d = self.g.shape
        k = int(self.v[0].sum()) - d + 1  # a weight w sums to k - 1, so v = w + 1 to k - 1 + d
        c1, c2, eye, off, squares = (d + k) / (k + 1), (d > 1) / (k + 1), np.eye(d), 0.0, 0.0
        on_f, x_on_f, x_trace = float(np.einsum("na,na->", self.g, self.g)), 0.0, self.singles / (k + 1)
        for part in batch_slices(width, 4 * d * d):  # X's build and up to three more d x d arrays a class
            x, g, u = _x_blocks(self.v[part], k), self.g[part], np.sqrt(self.v[part])
            x_on_f += float(np.einsum("na,nab,nb->", g, x, g))
            x_trace += float(np.trace(x, axis1=1, axis2=2).sum())
            # ||X - c1* F - c2* (1 - F)||^2 on the chunk, F = g g^T, from temporaries that numpy reuses
            squares += float(np.sum((g[:, :, None] * g[:, None, :] * (c2 - c1) + x - c2 * eye) ** 2))
            x *= k + 1  # (k+1) X_w - 1 - u u^T
            x -= eye
            x -= u[:, :, None] * u[:, None, :]
            off = np.maximum(off, np.sqrt(np.einsum("nab,nab->n", x, x).max()))  # a NaN is kept
        return (on_f, width * d + self.singles - on_f), (x_on_f, x_trace - x_on_f), float(off), math.sqrt(squares)


def _weight_classes(d: int, k: int) -> _Classes:
    """Q = 1, F and X on Sym^k (x) C^d, on the weight classes of the rows, as width x d arrays.

    Row (n, a) has the weight n - e_a.  The classes of d rows are the
    measurement's columns, in the layout ``Measurement`` builds from (d, k):
    block j is the class whose weight w is row j of occupations(k - 1, d),
    its rows (w + e_b, b) in the order of b.  Every other row, n_a = 0, is
    a class of one.  Q is 1 on every class.  F is g g^T on the class of a
    column, g the measurement's values there, and 0 on a class of one.
    X is ``_x_blocks`` of v = w + 1 on a class of d rows and (n_a + 1) /
    (k + 1) = 1 / (k + 1) on a class of one.  So only v and g are kept,
    m d k / (k + d - 1) entries each, fewer than the occupation table of k
    copies, which the measurement's layout, built first, bounds by
    FACTOR_CAP; a block is formed only within a chunk of ``batch_slices``
    and dropped with it, X's in one pass per build (``_Classes.x_pass``).  No
    build is cached: ``verify_optimality`` hands both of its layers one.
    """
    values = build_measurement(d, k).values
    return _Classes((math.comb(k + d - 1, k) - len(values)) * d, occupations(k - 1, d) + 1, values)


def _x_blocks(v: np.ndarray, k: int) -> np.ndarray:
    """X's blocks on the classes of weights v - 1: between rows (n, a) and (n', b), sqrt((n_b + 1)(n'_a + 1)) /
    (k + 1), that is sqrt((v_b + delta_ab)(v_a + delta_ab)) / (k + 1), the product an exact integer."""
    eye = np.eye(v.shape[1], dtype=v.dtype)
    x = v[:, None, :] + eye
    x *= v[:, :, None] + eye
    x = np.sqrt(x)
    x /= k + 1
    return x


def _casimir_spectrum(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """K's closed form (see ``_certify``), exact in int64: s_w on each class of d rows, and K on each class of one row.

    With u = sqrt(w + 1), X's block on the class of weight w is (1 + u u^T) / (k + 1)
    (``_weight_classes``), so K = (alpha - 2 (k+1) X - s_r) / 2 is s_w - 1 - u u^T there, with
    s_w = (alpha - s_r) / 2: eigenvalue s_w - 1 on u-perp, d - 1 times, and s_w - 1 - ||u||^2
    = s_w - (k + d) on u.  On the class of one row (n, a), n_a = 0, X is 1 / (k + 1), and K is
    (alpha - s_r) / 2 - 1 for its weight n - e_a.  alpha - s_r is even for every weight of k - 1
    factors, as sum_p w_p^2 and sum_p w_p = k - 1 have one parity; an odd one raises.
    """
    alpha, tilt = k * (k + d - 1) + d + 2, d - 1 - 2 * np.arange(d)
    weights, occ = occupations(k - 1, d), occupations(k, d)
    twice = alpha - (weights**2).sum(axis=1) - weights @ tilt
    # the class of one row (n, a), n_a = 0, has the weight n - e_a, so s_r = A(n) + 1 - tilt_a with
    # A(n) = sum_p n_p^2 + sum_p tilt_p n_p; the mask lists the (n, a) row-major, as the classes are
    twice_single = np.add.outer(alpha - 1 - (occ**2).sum(axis=1) - occ @ tilt, tilt)[occ == 0]
    if (twice % 2).any() or (twice_single % 2).any():
        raise VerificationError(f"K's closed form is not an integer at d={d}, k={k}")
    return twice // 2, twice_single // 2 - 1


#: K's kernel (see ``_certify``): the classes of d rows and of one row it meets, its vectors, <v, F v> on them
#: in increasing order, and K's least nonzero eigenvalue, None when there is none.
_Reduction = namedtuple("_Reduction", "blocks singles vectors on_kernel margin")


def _reduction(classes: _Classes, d: int, k: int) -> _Reduction:
    """K's kernel and margin from its closed-form spectra; raise unless X is within DEFAULT_ATOL of its closed form."""
    u, norm, off = np.sqrt(classes.v), k - 1 + d, classes.x_pass[2]  # ||u||^2 = k - 1 + d
    if not off <= DEFAULT_ATOL:  # a NaN fails too
        raise VerificationError(
            f"span{{F, 1 - F}} is not the commutant at d={d}, k={k}: X is {off:.3e} from its closed form "
            f"(1 + u u^T) / (k + 1), so K's spectrum is not known to be integer",
            float(off),
        )
    shift, single = _casimir_spectrum(d, k)
    on_u, alone = np.flatnonzero(shift == k + d), np.flatnonzero(single == 0)
    on_perp = np.flatnonzero(shift == 1) if d > 1 else on_u[:0]
    g = classes.g

    def along(j):  # <v, F v> = (u . g)^2 / ||u||^2 at v = u / ||u|| on the classes j
        return np.einsum("na,na->n", u[j], g[j]) ** 2 / norm

    if d == 2:  # the one vector of u-perp takes the rest of the trace, ||g||^2
        across = np.einsum("na,na->n", g[on_perp], g[on_perp]) - along(on_perp)
    else:  # at d >= 3, d - 1 >= 2 vectors in one class, which the count refuses (at d = 1, u-perp is empty)
        across = np.full((d - 1) * len(on_perp), np.nan)
    on_kernel = np.sort(np.concatenate([along(on_u), across, np.zeros(len(alone))]))
    rest = np.concatenate([shift - (k + d), shift - 1 if d > 1 else shift[:0], single])
    rest = rest[rest != 0]
    margin = int(rest.min()) if rest.size else None
    vectors = len(on_u) + (d - 1) * len(on_perp) + len(alone)
    return _Reduction(np.sort(np.concatenate([on_u, on_perp])), alone, vectors, on_kernel, margin)


def _covariance(classes: _Classes, d: int, k: int) -> float:
    """The largest of ||[L_01, F]||_F / ||L_01||_F and F's residuals under the swap and the cycle of levels.

    L_pq, here L_01, moves every weight by e_p - e_q.  On the class of weight w it is L_w
    = diag(c) - E_qp, c_b = sqrt((w + e_b)_q ((w + e_b)_p + 1)), into the
    class of w + e_p - e_q, which has one row, where F is 0, when w_q = 0;
    and it takes the class of one row (w + e_q, p), w_p = 0, to sqrt(w_q +
    1) e_p - e_q in the class of w.  So ||[L, F]||^2 = sum_w ||L_w F_w -
    F_(w+e_p-e_q) L_w||^2 + sum_(w: w_p = 0) ||F_w (sqrt(w_q + 1) e_p -
    e_q)||^2, and ||L||^2 = d sum_n n_q (n_p + 1) + m over the occupations
    n of k.  Adding e_p keeps the order of ``occupations``, and so does
    taking e_q off, so w + e_p - e_q takes the j-th w with w_q > 0 to the
    j-th with w_p > 0.  The first sum's blocks are formed from g a chunk at
    a time: expanded into dot products of the factors, its terms would
    cancel to about 1e-8.  rho(P_sigma) takes the class of w to that of
    sigma.w, level b to sigma(b), so rho(P_sigma)^dagger F rho(P_sigma) is
    h h^T on the class of w, h F's factor on sigma.w gathered by sigma, and
    its distance from F is ``factor_distance``'s, which does not cancel;
    the classes of one row need none, F being 0 on them.  At d = 2 the
    swap is the cycle; at d = 1 there is nothing to check.
    """
    if d == 1:
        return 0.0
    weights, occ, level, (p, q), g = occupations(k - 1, d), occupations(k, d), np.arange(d), (0, 1), classes.g
    c = np.sqrt((weights[:, q, None] + (level == q)) * (weights[:, p, None] + (level == p) + 1.0))
    moves = weights[:, q] > 0  # the classes whose image w + e_p - e_q has d rows, found by its place in the order
    h = np.zeros(g.shape)  # F's factor on each class's image, 0 on an image of one row
    h[moves] = g[np.flatnonzero(weights[:, p])]
    squares = 0.0
    for part in batch_slices(len(g), 4 * d * d):  # F, its image, the commutator and a temporary
        f = g[part, :, None] * g[part, None, :]
        image = h[part, :, None] * h[part, None, :]
        column = image[:, :, q].copy()
        commutator = c[part, :, None] * f
        commutator -= np.multiply(image, c[part, None, :], out=image)
        commutator[:, q] -= f[:, p]
        commutator[:, :, p] += column
        squares += np.vdot(commutator, commutator)
    onto = weights[:, p] == 0  # the classes that the class of one row (w + e_q, p) goes to
    lifted = g[onto] * (np.sqrt(weights[onto, q] + 1.0) * g[onto, p] - g[onto, q])[:, None]
    squares += np.vdot(lifted, lifted)
    residuals = [math.sqrt(squares / (d * (occ[:, q] * (occ[:, p] + 1.0)).sum() + len(occ)))]
    swap = np.array([1, 0, *level[2:]])
    for sigma, inverse in [(swap, swap), (np.roll(level, -1), np.roll(level, 1))][: min(d - 1, 2)]:
        residuals.append(factor_distance(g[occupation_rank(weights[:, inverse])][:, sigma], g))
    return float(np.max(residuals))  # a NaN is kept


def _certify(classes: _Classes, d: int, k: int) -> tuple[float, int | None]:
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
    thus reads X, not the generators (the tests compare it with their dense
    sum).  On the class of weight w, X's closed form (1 + u u^T) / (k + 1),
    u = sqrt(w + 1), makes K = s_w - 1 - u u^T with s_w = (alpha - s_r) / 2,
    whose eigenvalues s_w - 1 (on u-perp) and s_w - (k + d) (on u) are
    integers (``_casimir_spectrum``, which also refuses an odd alpha - s_r),
    and so are K's values on the classes of one row.  The K of the built X
    differs from that by (k+1) X_w - 1 - u u^T, so by Weyl's inequality its
    eigenvalues lie within eps_X = max_w ||(k+1) X_w - 1 - u u^T||_F of the
    integers, and its eigenvectors, the spectral gaps being at least 1,
    within about eps_X of u and u-perp: eps_X above DEFAULT_ATOL raises.
    The kernel is where the integers are 0, and <v, F v> is read from F's
    factor g, (u . g)^2 / ||u||^2 on u and, at d = 2, ||g||^2 minus that on
    u-perp; at d >= 3 a kernel on u-perp is d - 1 >= 2 vectors in one
    class, which the count refuses.  K >= 0 is not built in: a negative
    eigenvalue raises.  Returns the covariance residual and K's least
    nonzero eigenvalue, an exact integer, None at d = 1.
    """
    covariance = _covariance(classes, d, k)
    if not covariance <= DEFAULT_ATOL:  # a NaN fails too
        raise VerificationError(
            f"F does not commute with U^(x k) (x) conj(U) at d={d}, k={k}: residual {covariance:.3e}", covariance
        )
    kernel = _reduction(classes, d, k)
    met, expected = len(kernel.blocks) + len(kernel.singles), np.arange(2 - min(d, 2), 2.0)
    counts = (met, kernel.vectors) != (len(expected),) * 2
    if counts or not np.abs(kernel.on_kernel - expected).max() <= DEFAULT_ATOL or (kernel.margin or 0) < 0:
        raise VerificationError(
            f"span{{F, 1 - F}} is not the commutant at d={d}, k={k}: the kernel of K meets {met} classes in "
            f"{kernel.vectors} vectors, with <v, F v> = {kernel.on_kernel} on it where {expected} was expected, "
            f"and K's least other eigenvalue {kernel.margin}"
        )
    return covariance, kernel.margin


class CoefficientReport(NamedTuple):
    """Projection of the transposed symmetriser onto the reduced family, and its residual at the closed forms.

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

    c1 and c2 are least-squares projections onto the two orthogonal projectors; the residual is
    ||X - c1* F - c2* (Q - F)||_F at c1* = (d+k)/(k+1) and c2* = 1/(k+1), which bounds the least-squares
    one and leaves out the rounding of c1 and c2 (``_Classes.x_pass``).  At d = 1, Q - F is empty: c2
    is then None and left unchecked.
    """
    (on_f, on_rest), (x_on_f, x_on_rest), _, residual = _weight_classes(d, k).x_pass
    c1, c2 = x_on_f / on_f, None if d == 1 else x_on_rest / on_rest  # at d = 1, Q - F is empty
    c1_closed, c2_closed, c1_row_form = (d + k) / (k + 1), 1.0 / (k + 1), (d + k) / k
    note = (
        f"leading coefficient: measured {c1:.12g}, matches (d+k)/(k+1) = "
        f"{c1_closed:.12g}; the alternative closed form (d+k)/k = "
        f"{c1_row_form:.12g} is inconsistent with the measured value"
    )
    worst = np.max([residual, abs(c1 - c1_closed), 0.0 if c2 is None else abs(c2 - c2_closed)])  # a NaN is kept
    if not worst <= tol:
        raise VerificationError(
            f"reduced-family decomposition failed at d={d}, k={k}: c1={c1}, c2={c2}, residual={residual:.3e}", worst
        )
    return CoefficientReport(d, k, c1, c2, c1_closed, c2_closed, c1_row_form, residual, tol, note)


class LemmaReport(NamedTuple):
    """The identities behind the optimum at (d, k), with X's coefficients c1 and c2 (None at d = 1); ``checks``
    holds the Gram, eigen, absorption and support residuals, in that order, each at most tol to pass."""

    d: int
    k: int
    p_formula: float
    eig_residual: float
    c1: float
    c2: float | None
    checks: tuple[tuple[str, float, bool], ...]
    passed: bool


def verify_lemmas(d: int, k: int, tol: float = DEFAULT_ATOL) -> LemmaReport:
    """Certify the identities behind the optimum at (d, k).  Absorption comes first, so a cell over the group
    budget or the dense cap skips before anything is built; ``decomposition_coefficients`` raises on its own."""
    from . import symgroup, teleport

    absorption = symgroup.absorption_residual(d, k)
    coeff = decomposition_coefficients(d, k, tol=tol)
    gram, eig = teleport.gram_residual(d, k), teleport.eigendecomposition_residual(d, k)
    residuals = (("gram_residual", gram), ("eig_residual", eig), ("absorption_residual", absorption),
                 ("residual_on_support", coeff.residual_on_support))
    checks = tuple((name, value, value <= tol) for name, value in residuals)
    p_formula = success_probability_formula(d, k)
    return LemmaReport(d, k, p_formula, eig, coeff.c1, coeff.c2, checks, all(ok for *_, ok in checks))


#: For F and for Q - F: the coefficients of F, the rank, the objective tr(M)/(d m_k) and the gap
#: tr(M)/m_k - tr(X M)/m_(k+1).
_Family = namedtuple("_Family", "f ranks objective gap")


def _family(classes: _Classes, d: int, k: int) -> _Family:
    """Ranks, objective values and constraint gaps of F and of Q - F, from their traces on the classes.

    The ranks are C(k+d-2, k-1) and m d minus that, so Q - F has rank 0 at d = 1.
    """
    m_k, m_k1 = (math.comb(n + d - 1, n) for n in (k, k + 1))
    traces, overlaps = np.array(classes.x_pass[:2])
    ranks = np.array([width := math.comb(k + d - 2, k - 1), d * m_k - width])
    return _Family(np.array([1.0, 0.0]), ranks, traces / (d * m_k), traces / m_k - overlaps / m_k1)


class SdpReport(NamedTuple):
    """Exact optimum of the reduced two-parameter family, attained at M = F.

    ``objective_value`` is F's objective and ``equality_residual`` its
    constraint gap, both from the raw traces; ``covariance_residual`` is the
    largest of F's relative commutator with the root L_01 and its residuals
    under the swap and the cycle of levels, which bound F's relative
    commutator with every root (see ``_certify``), and ``reduction_margin``
    is the smallest nonzero eigenvalue of K, an exact integer from its
    closed form, None at d = 1.  ``checks`` holds the first's
    distance from p* and the covariance residual, each at most tol to pass.
    """

    d: int
    k: int
    p_star: float
    objective_value: float
    equality_residual: float
    covariance_residual: float
    reduction_margin: int | None
    checks: tuple[tuple[str, float, bool], ...]
    passed: bool


def reduced_optimum(d: int, k: int, tol: float = DEFAULT_ATOL, classes: _Classes | None = None) -> SdpReport:
    """Maximise over M(a1, a2) = a1 F + a2 (Q - F), 0 <= a1, a2 <= 1, under the equality.

    The constraint gap is linear, a1 gap(F) + a2 gap(Q - F), and gap(F) is
    zero: one larger than FEASIBILITY_TOL raises, a smaller one is rounding
    and is taken as zero.  When Q - F is nonempty (d > 1), its gap must be
    larger than FEASIBILITY_TOL, or it raises, since Q would then be
    feasible and beat F; the feasible set is then the edge a2 = 0, where the
    linear objective peaks at F.  At d = 1, Q - F is empty and F = Q.  Then
    ``_certify`` checks that the family holds every covariant operator; F's
    objective and the covariance residual are checked at tol.
    """
    classes = _weight_classes(d, k) if classes is None else classes
    family = _family(classes, d, k)
    obj_f, (gap_f, gap_ps) = family.objective[0], family.gap
    if not abs(gap_f) <= FEASIBILITY_TOL:  # a NaN fails too
        raise VerificationError(f"F violates the equality at d={d}, k={k}: gap {gap_f:.3e}", abs(gap_f))
    if family.ranks[1] and not abs(gap_ps) > FEASIBILITY_TOL:
        raise VerificationError(
            f"Q - F meets the equality at d={d}, k={k}: gap {gap_ps:.3e}, so Q would beat F", abs(gap_ps)
        )
    p_star = success_probability_formula(d, k)
    covariance, margin = _certify(classes, d, k)
    deviation = float(abs(obj_f - p_star))
    checks = (("objective_deviation", deviation, deviation <= tol),
              ("covariance_residual", covariance, covariance <= tol))
    return SdpReport(d, k, p_star, obj_f, abs(gap_f), covariance, margin, checks, all(ok for *_, ok in checks))


def _check_unit_interval(spectrum: np.ndarray, what: str) -> None:
    """Raise unless every value of spectrum lies in [-EIG_SLACK, 1 + EIG_SLACK]."""
    excess = np.maximum(-spectrum.min(), spectrum.max() - 1.0)
    if not excess <= EIG_SLACK:  # a NaN fails too
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
    d: int, k: int, trials: int = 200, seed: int = 0, classes: _Classes | None = None
) -> FalsifierReport:
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
    objective above p* + MARGIN or a NaN, as it would contradict the
    optimality statement or expose a bug; the first failing trial is named.
    F's spectrum must pass the same test: on each class F = g g^T, whose
    eigenvalues are ||g||^2 and 0.  The trials run as stacked arrays, in
    chunks of at most FACTOR_CAP entries.

    The sweep cannot beat F and does not test the reduction: F's gap is
    exactly 0, so the gap correction sets every candidate's coefficient of
    Q - F back to 0, and each candidate is c F with c <= 1 after clipping,
    objective c p*.  It only confirms that scaling F down loses.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p_star = success_probability_formula(d, k)
    classes = _weight_classes(d, k) if classes is None else classes
    _check_unit_interval(np.einsum("na,na->n", classes.g, classes.g), f"optimal element at d={d}, k={k}")
    family = _family(classes, d, k)
    family = _Family(*(column[family.ranks > 0] for column in family))
    offset = int(spawn_keys(seed, 1)[0]) / 2**64
    max_objective, max_step = p_star, 0.0
    for part in batch_slices(trials, 8):  # a trial's angle, direction, candidate and temporaries: under 8 floats
        theta = 2 * np.pi * (np.arange(part.start, min(part.stop, trials)) + offset) / trials
        directions = np.column_stack([np.cos(theta), np.sin(theta)])[:, : len(family.ranks)] / np.sqrt(family.ranks)
        targets = _trial(family, directions, d)
        values = targets @ family.objective
        excess = np.maximum(-targets.min(axis=1), targets.max(axis=1) - 1.0)
        failed = ~((excess <= EIG_SLACK) & (values <= p_star + MARGIN))  # a NaN fails too
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


def verify_optimality(d: int, k: int, trials: int, tol: float = DEFAULT_ATOL, seed: int = 0) -> SdpReport:
    """``reduced_optimum`` and then ``perturbation_falsifier`` at (d, k) on one build of the classes: the former's
    report; the falsifier raises on a failure, and its report, which has no checks, is dropped."""
    classes = _weight_classes(d, k)
    report = reduced_optimum(d, k, tol, classes=classes)
    perturbation_falsifier(d, k, trials=trials, seed=seed, classes=classes)
    return report
