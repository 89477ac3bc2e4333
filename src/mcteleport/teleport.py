"""Optimal multicopy teleportation: measurement construction and simulation.

Alice holds k copies of an unknown qudit state on factors 0..k-1 plus her
half of a shared maximally entangled pair on factor k (called A below); Bob
holds the other half.  The success element of her two-outcome measurement is

    M = d k / (k - 1 + d) * (Psym (x) 1_A) (1 (x) P+_{k-1,A}) (Psym (x) 1_A),

a projector of rank C(k-2+d, k-1) whose eigenbasis is assembled from the
symmetric-subspace basis of k-1 factors entangled into each copy slot in
turn.  Conditioned on the success outcome Bob holds the input state exactly,
with probability k / (d (k - 1 + d)) independent of the input.

M lives on Sym^k (x) C^d as F F^dagger with F = (B (x) 1) G, and column j
of G is nonzero only on the d coordinates |n'_j + e_a>_sym (x) |a> of one
weight class, so G is held as those coordinates and its values there.
Simulation, retrieval and the residual between the eigen and projector
forms, which share no helper and so certify each other, never touch the
d^(k+1) coordinates of the full space.  A cell whose insertion table would
pass FACTOR_CAP entries is refused before it is built.  ``r_vectors`` (for
``gram_residual``) and ``Measurement.op`` (for the tests) live there.

``verify_theorem`` draws each input with one call on its own child seed,
then forms and simulates the samples together: every array of
``conditioned_elements`` and ``simulations`` carries them on a leading axis,
and a cell runs in chunks whose arrays, all counted together, stay within
FACTOR_CAP entries.  ``conditioned_element`` and ``simulate`` are the
one-sample case of the same kernels.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np

from .symgroup import occupation_rank, occupations, sym_basis
from .streams import seeded_normals, spawn_keys
from .tensor import (
    DEFAULT_ATOL,
    FACTOR_CAP,
    CapacityError,
    Operator,
    Permutation,
    StateVector,
    VerificationError,
    batch_slices,
    check_capacity,
    gaussian_vectors,
    kron,
    max_entangled_state,
    permute_state,
    unit_rows,
)

#: Success probabilities below this are treated as a degenerate outcome.
P_FLOOR = 1e-14


def success_probability_formula(d: int, k: int) -> float:
    """k / (d (k - 1 + d)): 1/d^2 at k = 1, approaching 1/d as k grows."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return k / (d * (k - 1 + d))


@dataclass(frozen=True)
class RVector:
    """One eigenvector of the success element, with its k summands.

    ``constituents[a]`` carries the symmetric-basis vector on all copy slots
    except a, entangled between slot a and A.  Overlaps between constituents
    of different slots equal delta_ij / d.
    """

    index: int
    vector: StateVector
    constituents: tuple[StateVector, ...]


def r_vectors(d: int, k: int) -> list[RVector]:
    """Orthonormal eigenbasis of the success element on (C^d)^(x (k+1))."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    check_capacity(d ** (k + 1))
    phi = max_entangled_state(d)
    scale = math.sqrt(d / (k * (k - 1 + d)))
    dims = (d,) * (k + 1)
    out = []
    for i, s in enumerate(sym_basis(k - 1, d)):
        base = kron(s, phi)
        constituents = tuple(
            permute_state(Permutation.transposition(k + 1, a, k - 1), base) for a in range(k)
        )
        total = scale * np.sum([c.vec for c in constituents], axis=0)
        out.append(RVector(i, StateVector(total, dims), constituents))
    return out


@dataclass(frozen=True, eq=False)
class Measurement:
    """The success POVM element M for (d, k), held as the entries of a thin factor in symmetric coordinates.

    M is supported on Sym^k (x) C^d, so M = F F^dagger with F = (B (x) 1) G,
    where B stacks ``sym_basis(k, d)``.  Column j of G, one per eigenvector,
    holds ``values[j, a]`` in row ``rows[j, a]`` = index(n) d + a, the
    coordinate |n>_sym (x) |a> with index(n) the row of n in
    ``occupations(k, d)``, and zero elsewhere.  Both arrays are width x d,
    width = C(k+d-2, k-1), and kept as read-only views; rows of the wrong
    level, out of range or repeated are refused.  The dense ``op`` on
    (C^d)^(x (k+1)) is formed on first access and kept.
    """

    d: int
    k: int
    rows: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d, k = self.d, self.k
        rows, values = np.asarray(self.rows).view(), np.asarray(self.values).view()
        shape = (math.comb(k + d - 2, k - 1), d)
        if rows.shape != shape or values.shape != shape or rows.dtype.kind != "i":
            raise ValueError(f"need {shape} integer rows and values at d={d}, k={k}, got {rows.shape} {rows.dtype}")
        if rows.min() < 0 or rows.max() >= d * math.comb(k + d - 1, k) or ((rows - np.arange(d)) % d).max():
            raise ValueError(f"rows[j, a] must be a coordinate index(n) d + a of Sym^{k} (x) C^{d}")
        if np.bincount(rows.ravel()).max() > 1:
            raise ValueError("rows hold a coordinate twice")
        for name, view in (("rows", rows), ("values", values)):
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @cached_property
    def op(self) -> Operator:
        dims = (self.d,) * (self.k + 1)
        check_capacity(math.prod(dims))
        b = np.column_stack([s.vec for s in sym_basis(self.k, self.d)])
        g = np.zeros((b.shape[1] * self.d, len(self.rows)), dtype=self.values.dtype)
        g[self.rows, np.arange(len(self.rows))[:, None]] = self.values
        full = (b @ g.reshape(b.shape[1], -1)).reshape(math.prod(dims), -1)
        return Operator(full @ full.conj().T, dims)


def _insertions(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where inserting a factor at level a takes each occupation n' of k-1 factors.

    Returns, for every n' (rows, in ``occupations(k - 1, d)`` order) and
    level a (columns), the symmetric coordinate (n' + e_a, a) and the count
    n'_a + 1 of level a in n' + e_a.
    """
    base = occupations(k - 1, d)
    grown = base[:, None, :] + np.eye(d, dtype=base.dtype)
    return occupation_rank(grown) * d + np.arange(d), base + 1


def _sandwich_rows(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The P+ sandwich Z^dagger compressed to one row per occupation of k-1 factors.

    With Psym = B B^dagger, M = c (B (x) 1) Z Z^dagger (B (x) 1)^dagger
    where Z = (B^dagger (x) 1)(1 (x) |phi>), with one column per ket y of
    k-1 factors: Z[(n, a), y] = <n|_sym (|y> (x) |a>) / sqrt(d) is
    1/sqrt(d mult(n)) when occ(y) + e_a = n.  Columns of kets with one
    occupation n'' agree, so Z Z^dagger = C^dagger C with one row per n'',
    weighted by sqrt(mult(n'')).  Row n'' is nonzero only in the d columns
    (n'' + e_a, a), so the rows are orthogonal, and each is returned as
    those columns and its entries there.  The rows come from sorted
    multisets of levels, counted by bisection, the columns from a lookup of
    n'' + e_a and the entries from the multinomials themselves, each taken
    once per occupation from one table of exact factorials, so nothing is
    shared with the eigen form.
    """
    factorial = list(accumulate(range(1, k + 1), operator.mul, initial=1))  # factorial[c] = c!

    def multinomial(occ: tuple[int, ...]) -> int:
        den = 1
        for c in occ:
            den *= factorial[c]
        return factorial[sum(occ)] // den

    column = {occ: (i * d, multinomial(occ)) for i, occ in enumerate(map(tuple, occupations(k, d).tolist()))}
    columns, entries = [], []
    for levels in combinations_with_replacement(range(d), k - 1):
        edges = [bisect_left(levels, a) for a in range(1, d)]
        base = tuple(hi - lo for lo, hi in zip([0] + edges, edges + [k - 1]))
        mult = multinomial(base)
        for a in range(d):
            index, grown = column[base[:a] + (base[a] + 1,) + base[a + 1 :]]
            columns.append(index + a)
            entries.append(math.sqrt(mult / (d * grown)))
    shape = (math.comb(k - 2 + d, k - 1), d)
    return np.array(columns, dtype=np.intp).reshape(shape), np.array(entries).reshape(shape)


def build_measurement(d: int, k: int, form: str = "eigen") -> Measurement:
    """Construct the success element as the entries of its thin factor G on Sym^k (x) C^d.

    ``form="eigen"`` is the eigenbasis of ``r_vectors`` in symmetric
    coordinates: Psym_k(|n'>_sym (x) |a>) = sqrt((n'_a + 1)/k) |n' + e_a>_sym
    puts the eigenvector of index n' at sqrt((n'_a + 1)/(k - 1 + d)) in
    coordinate (n' + e_a, a), for each level a.  ``form="projector"`` is
    G = sqrt(c) C^dagger for the rows C of ``_sandwich_rows``: they are
    orthogonal, so Z Z^dagger = C^dagger C needs no factorisation.  It is
    coded independently of the eigen form and kept for cross-checks.

    A cell is refused with ``CapacityError`` before anything is allocated
    when its width x d x d insertion table would pass FACTOR_CAP entries, or
    when its sqrt-multinomial weights leave the float range.  That table is
    the largest array of a build and of the residual, never smaller than the
    m d entries of the occupation table (d width >= m), and every cell with
    d^(k+1) <= DIM_CAP fits, as width <= d^(k-1).
    """
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    width = math.comb(k - 2 + d, k - 1)
    if width * d * d > FACTOR_CAP:
        raise CapacityError(f"insertion table of {width} x {d} x {d} entries exceeds cap {FACTOR_CAP}")
    _sqrt_multinomials(d, k)
    if form == "eigen":
        coords, counts = _insertions(d, k)
        return Measurement(d, k, coords, np.sqrt(counts / (k - 1 + d)))
    if form == "projector":
        columns, entries = _sandwich_rows(d, k)
        return Measurement(d, k, columns, math.sqrt(d * k / (k - 1 + d)) * entries)
    raise ValueError(f"unknown form {form!r}")


def gram_residual(d: int, k: int) -> float:
    """Largest entry of |R^dagger R - 1| for the stacked eigenbasis R of ``r_vectors``."""
    columns = np.column_stack([r.vector.vec for r in r_vectors(d, k)])
    return float(np.abs(columns.conj().T @ columns - np.eye(columns.shape[1])).max())


def _factor_distance(a: Measurement, b: Measurement) -> float:
    """||M_a - M_b||_F from the entries of the thin factors alone.

    Sorted by rows[:, 0] (no coordinate is held twice) and with the same
    rows, M_a - M_b is a direct sum over the columns j of g_j g_j^dagger -
    h_j h_j^dagger on the coordinates rows[j], so its squared norm is the
    sum of theirs; B (x) 1 cancels.  Different rows raise VerificationError.
    """
    order_a, order_b = np.argsort(a.rows[:, 0]), np.argsort(b.rows[:, 0])
    if not np.array_equal(a.rows[order_a], b.rows[order_b]):
        raise VerificationError(f"measurement constructions hold different coordinates at d={a.d}, k={a.k}")
    g, h = a.values[order_a], b.values[order_b]
    return float(np.linalg.norm(g[:, :, None] * g[:, None, :].conj() - h[:, :, None] * h[:, None, :].conj()))


def eigendecomposition_residual(d: int, k: int) -> float:
    """Frobenius distance between the two independent constructions."""
    return _factor_distance(build_measurement(d, k, form="eigen"), build_measurement(d, k, form="projector"))


@dataclass(frozen=True)
class EigenReport:
    d: int
    k: int
    residual: float
    tol: float


def assert_eigendecomposition(d: int, k: int, tol: float = 1e-10) -> EigenReport:
    """Certify that both measurement constructions agree within tol."""
    residual = eigendecomposition_residual(d, k)
    if residual > tol:
        raise VerificationError(
            f"measurement constructions disagree at d={d}, k={k}: "
            f"residual {residual:.3e} > {tol:.1e}",
            residual,
        )
    return EigenReport(d, k, residual, tol)


def _check_input(psi: StateVector, d: int) -> None:
    """Reject an input that is not one factor of dim d; the stacked kernels check its norm."""
    if psi.dims != (d,):
        raise ValueError(f"input state must be a single factor of dim {d}")


def _check_normalised(psis: np.ndarray) -> None:
    """Reject a stack of input vectors (one per row) unless every one is normalised."""
    if np.abs(np.linalg.norm(psis, axis=-1) - 1.0).max() > DEFAULT_ATOL:
        raise ValueError("input state must be normalised")


def _check_floor(probs: np.ndarray) -> None:
    """Raise on the first success probability below P_FLOOR, carrying it."""
    low = np.flatnonzero(probs < P_FLOOR)
    if low.size:
        p_est = float(probs[low[0]])
        raise VerificationError(f"success probability {p_est:.3e} below floor", p_est)


@lru_cache(maxsize=None)
def _sqrt_multinomials(d: int, k: int) -> np.ndarray:
    """sqrt(k! / prod_j n_j!) for each occupation n in ``occupations(k, d)``, read-only.

    The multinomials are exact integers.  Below 2^1000 every square root
    stays under 2^500, so the power products of a weight that matters stay
    far above the float underflow; larger multinomials are refused, from
    the largest one (the most even occupation) before the others are formed.
    They are grown level by level in the order of ``occupations``: a row
    with r copies left takes n = r, .., 0 of them at the next level, times
    C(r, n) = C(r, r - n) from the row of Pascal's triangle of r, made once
    per r by the exact recurrence C(r, j + 1) = C(r, j) (r - j) / (j + 1).
    """
    q, extra = divmod(k, d)
    most_even = math.factorial(k) // (math.factorial(q + 1) ** extra * math.factorial(q) ** (d - extra))
    if most_even.bit_length() > 1000:
        raise CapacityError(f"multinomial weights of k={k} copies at d={d} exceed the float range")
    pascal: dict[int, list[int]] = {}
    mults, rest = [1], [k]
    for _ in range(d - 1):
        for r in set(rest) - pascal.keys():
            row = pascal[r] = [1]
            for j in range(r):
                row.append(row[-1] * (r - j) // (j + 1))
        mults = [m * c for m, r in zip(mults, rest) for c in pascal[r]]
        rest = [left for r in rest for left in range(r + 1)]
    out = np.sqrt(np.array([float(m) for m in mults]))
    out.setflags(write=False)
    return out


def _sample_entries(d: int, k: int) -> int:
    """Entries per sample of every array a chunk of ``verify_theorem`` can hold at once, all counted
    as if alive together: the draw row and the input (3 d), and in ``conditioned_elements`` the power
    table with the array it accumulates (2 d (k + 1)), the m weights with a gather of them, the
    width x d table t with its conjugate, and E with Bob's state (2 d^2).
    """
    m, width = math.comb(k + d - 1, k), math.comb(k + d - 2, k - 1)
    return 3 * d + 2 * d * (k + 1) + 2 * m + 2 * width * d + 2 * d * d


def conditioned_elements(meas: Measurement, psis: np.ndarray) -> np.ndarray:
    """E = (<psi|^(x k) (x) 1_A) M (|psi>^(x k) (x) 1_A) for each row psi of ``psis``, as S x d x d.

    Bob's success-conditioned output depends on Alice's measurement only
    through E.  In symmetric coordinates <psi^(x k)|n>_sym = sqrt(k!/prod
    n_j!) prod_j conj(psi_j)^n_j =: w_n, so with M = F F^dagger and
    F = (B (x) 1) G, E = t^T conj(t) for t[j, a] = sum_n w_n G[(n, a), j],
    which is the one term w_n ``values[j, a]`` at (n, a) = ``rows[j, a]``;
    E is PSD by construction.  Every array carries the samples on its
    leading axis.
    """
    _check_normalised(psis)
    d, k = meas.d, meas.k
    powers = np.ones((len(psis), d, k + 1), dtype=complex)
    powers[:, :, 1:] = psis.conj()[:, :, None]
    powers = np.cumprod(powers, axis=2)  # powers[s, j, c] = conj(psi_sj)^c
    occ = occupations(k, d)
    w = powers[:, 0, occ[:, 0]]  # prod_j powers[:, j, occ[:, j]], one level at a time
    for j in range(1, d):
        w *= powers[:, j, occ[:, j]]
    w *= _sqrt_multinomials(d, k)
    t = w[:, meas.rows // d]
    t *= meas.values
    return np.swapaxes(t, 1, 2) @ t.conj()


def conditioned_element(meas: Measurement, psi: StateVector) -> np.ndarray:
    """``conditioned_elements`` of the one input psi, a d x d matrix."""
    _check_input(psi, meas.d)
    return conditioned_elements(meas, psi.vec[None])[0]


def simulations(meas: Measurement, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the protocol on k copies of each row psi of ``psis``; return (p_est, Bob's states), stacked.

    With the shared pair |phi>, tr_Alice[(E (x) 1)|phi><phi|] = E^T / d, so
    the success probability is tr E / d and Bob's normalised state E^T / tr E.
    """
    e = conditioned_elements(meas, psis)
    traces = np.trace(e, axis1=1, axis2=2).real
    probs = traces / meas.d
    _check_floor(probs)
    return probs, np.swapaxes(e, 1, 2) / traces[:, None, None]


def simulate(psi: StateVector, meas: Measurement) -> tuple[float, Operator]:
    """``simulations`` of the one input psi: (p_est, Bob's state)."""
    _check_input(psi, meas.d)
    probs, bob = simulations(meas, psi.vec[None])
    return float(probs[0]), Operator(bob[0], (meas.d,))


def _theorem_chunk(meas: Measurement, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success probabilities and fidelities of the inputs drawn from the children's ``keys``, simulated together.

    Its arrays are released on return, so no two chunks are alive at once.
    """
    psis = unit_rows(gaussian_vectors(seeded_normals(keys, 2 * meas.d), meas.d))
    probs, bob = simulations(meas, psis)
    return probs, np.einsum("sa,sab,sb->s", psis.conj(), bob, psis).real


@dataclass(frozen=True)
class TheoremReport:
    """Aggregate of Haar-sampled protocol runs against the closed formula."""

    d: int
    k: int
    samples: int
    seed: int
    p_formula: float
    p_mean: float
    p_std: float
    max_probability_deviation: float
    min_fidelity: float
    eig_residual: float
    tol: float
    passed: bool
    worst_sample_index: int


def verify_theorem(
    d: int,
    k: int,
    samples: int = 25,
    tol: float = 1e-9,
    seed: int = 0,
) -> TheoremReport:
    """Sample Haar inputs, simulate, and compare against the formula.

    Each sample fills one row of 2 d standard normals, the real and then the
    imaginary parts of its input, with one draw from its own child of
    ``SeedSequence(seed)``: the numbers ``haar_state`` takes from that child.
    The children's generator keys come from ``spawn_keys`` in one pass, and
    ``seeded_normals`` seeds one reused generator from each chunk's keys.
    The inputs are then formed and simulated together, one chunk at a time,
    so that every array a chunk holds (``_sample_entries``) stays within
    FACTOR_CAP.  Passes iff every sampled probability matches k/(d(k-1+d))
    within tol, every conditional output has fidelity at least 1 - tol with
    the input, and the residual between the two measurement constructions
    (reusing the eigen form it sampled with) is at most tol.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    meas = build_measurement(d, k, form="eigen")
    p_formula = success_probability_formula(d, k)
    keys = spawn_keys(seed, samples)
    probs = np.empty(samples)
    fids = np.empty(samples)
    for part in batch_slices(samples, _sample_entries(d, k)):
        probs[part], fids[part] = _theorem_chunk(meas, keys[part])
    deviations = np.abs(probs - p_formula)
    badness = np.maximum(deviations, 1.0 - fids)
    worst = int(np.argmax(badness))
    eig_residual = _factor_distance(meas, build_measurement(d, k, form="projector"))
    passed = bool(deviations.max() <= tol and fids.min() >= 1.0 - tol and eig_residual <= tol)
    return TheoremReport(
        d, k, samples, seed, p_formula, float(probs.mean()), float(probs.std()), float(deviations.max()),
        float(fids.min()), eig_residual, tol, passed, worst,
    )

