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
weight class.  Those coordinates are fixed by (d, k) and built in one
place, ``Measurement``; the eigen and projector forms give only the values
there, so they certify each other where they can disagree.  Simulation,
retrieval and the residual between the forms never touch the d^(k+1)
coordinates of the full space that ``r_vectors`` (for ``gram_residual``)
works on; the dense oracles check the layout against ``occupation_rank``.
A cell is refused by the occupation tables it builds, each bounded by
FACTOR_CAP entries in ``core.occupations``.
``r_vectors`` and ``simulate`` import the dense layer (``tensor``,
``symgroup``) when called, so ``verify``, ``sar`` and ``optimality`` load
neither dense module; the samples' normals are ``core.seeded_normals`` rows.

``verify_theorem`` draws each input from one row of normals on its own
child seed, then forms and simulates the samples together: every array of
``conditioned_elements`` and ``simulations`` carries them on a leading axis,
and a cell runs in chunks whose arrays, all counted together, stay within
FACTOR_CAP entries.  ``conditioned_element`` and ``simulate`` are the
one-sample case of the same kernels.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_ATOL,
    CapacityError,
    VerificationError,
    batch_slices,
    factor_distance,
    gaussian_vectors,
    occupations,
    seeded_normals,
    spawn_keys,
    unit_rows,
)

#: Success probabilities below this are treated as a degenerate outcome.
P_FLOOR = 1e-14


def success_probability_formula(d: int, k: int) -> float:
    """k / (d (k - 1 + d)): 1/d^2 at k = 1, approaching 1/d as k grows."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return k / (d * (k - 1 + d))


class RVector(NamedTuple):
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
    from .symgroup import sym_basis
    from .tensor import Permutation, StateVector, check_capacity, kron, max_entangled_state, permute_state

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


class Measurement:
    """The success POVM element M for (d, k), held as the entries of a thin factor in symmetric coordinates.

    M is supported on Sym^k (x) C^d, so M = F F^dagger with F = (B (x) 1) G,
    where B stacks ``sym_basis(k, d)``.  Column j of G, one per eigenvector,
    holds ``values[j, a]`` in row ``rows[j, a]`` = index(n) d + a, the
    coordinate |n>_sym (x) |a> with index(n) the row of n in
    ``occupations(k, d)``, and zero elsewhere.  Both arrays are width x d,
    width = C(k+d-2, k-1), and kept as read-only views.  Only ``values`` is
    passed in: ``rows`` is fixed by (d, k), column j being the weight class of
    n'_j, row j of ``occupations(k - 1, d)``, and ``_coordinates`` builds it.
    """

    __slots__ = ("d", "k", "rows", "values")

    def __init__(self, d: int, k: int, values: np.ndarray):
        values = np.asarray(values).view()
        shape = (math.comb(k + d - 2, k - 1), d)
        if values.shape != shape:
            raise ValueError(f"need {shape} values at d={d}, k={k}, got {values.shape}")
        values.setflags(write=False)
        self.d, self.k, self.rows, self.values = d, k, _coordinates(d, k), values


def _coordinates(d: int, k: int) -> np.ndarray:
    """``Measurement.rows``: [j, a] is index(n'_j + e_a) d + a, n'_j row j of ``occupations(k - 1, d)``; read-only.

    Adding e_a keeps the order, so n'_j + e_a is the j-th row of
    ``occupations(k, d)`` with level a nonzero.
    """
    occ = occupations(k, d)
    out = np.empty((math.comb(k + d - 2, k - 1), d), dtype=np.intp)
    for a in range(d):
        out[:, a] = (occ[:, a] > 0).nonzero()[0] * d + a
    out.setflags(write=False)
    return out


def _sandwich_rows(d: int, k: int) -> np.ndarray:
    """The P+ sandwich Z^dagger compressed to one row per occupation of k-1 factors, as its entries.

    With Psym = B B^dagger, M = c (B (x) 1) Z Z^dagger (B (x) 1)^dagger
    where Z = (B^dagger (x) 1)(1 (x) |phi>), with one column per ket y of
    k-1 factors: Z[(n, a), y] = <n|_sym (|y> (x) |a>) / sqrt(d) is
    1/sqrt(d mult(n)) when occ(y) + e_a = n.  Columns of kets with one
    occupation n'' agree, so Z Z^dagger = C^dagger C with one row per n'',
    weighted by sqrt(mult(n'')).  Row n'' is nonzero only in the d columns
    (n'' + e_a, a), the coordinates ``Measurement`` holds, so the rows are
    orthogonal, and each is returned as its entries there, width x d.  Each
    entry sqrt(mult(n'')) / (sqrt(d) sqrt(mult(n'' + e_a))) comes within 4 ulp
    from the roots ``_sqrt_multinomials`` caches, once the float range of k and the layout pass.
    """
    check_weights(d, k)
    raised = _coordinates(d, k) // d
    return _sqrt_multinomials(d, k - 1)[:, None] / (math.sqrt(d) * _sqrt_multinomials(d, k)[raised])


def build_measurement(d: int, k: int, form: str = "eigen") -> Measurement:
    """Construct the success element as the entries of its thin factor G on Sym^k (x) C^d.

    ``form="eigen"`` is the eigenbasis of ``r_vectors`` in symmetric
    coordinates: Psym_k(|n'>_sym (x) |a>) = sqrt((n'_a + 1)/k) |n' + e_a>_sym
    puts the eigenvector of index n' at sqrt((n'_a + 1)/(k - 1 + d)) in
    coordinate (n' + e_a, a), for each level a.  ``form="projector"`` is
    G = sqrt(c) C^dagger for the rows C of ``_sandwich_rows``: they are
    orthogonal, so Z Z^dagger = C^dagger C needs no factorisation.  It shares
    the draws' cached roots but no helper or closed form of the eigen form, and is kept for cross-checks.
    Both forms give only the values; ``Measurement`` builds the coordinates
    from (d, k), and the dense oracles check them against ``occupation_rank``.

    A cell is refused with ``CapacityError`` only by what it builds: an
    occupation table past FACTOR_CAP entries, and in the projector form, not
    the eigen form, multinomials past the float range.
    """
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if form == "eigen":
        return Measurement(d, k, np.sqrt((occupations(k - 1, d) + 1) / (k - 1 + d)))
    if form == "projector":
        return Measurement(d, k, math.sqrt(d * k / (k - 1 + d)) * _sandwich_rows(d, k))
    raise ValueError(f"unknown form {form!r}")


def gram_residual(d: int, k: int) -> float:
    """Largest entry of |R^dagger R - 1| for the stacked eigenbasis R of ``r_vectors``."""
    columns = np.column_stack([r.vector.vec for r in r_vectors(d, k)])
    return float(np.abs(columns.conj().T @ columns - np.eye(columns.shape[1])).max())


def eigendecomposition_residual(d: int, k: int) -> float:
    """Frobenius distance between the two independent constructions.

    Two measurements of one cell hold the same rows, the layout
    ``Measurement`` builds from (d, k), so M_a - M_b is a direct sum over
    the columns of g g^dagger - h h^dagger (g, h the column's values) on its
    coordinates, its squared norm the sum of theirs; B (x) 1 cancels, and
    ``factor_distance`` takes it from the values alone.
    """
    eigen, projector = (build_measurement(d, k, form=form).values for form in ("eigen", "projector"))
    return factor_distance(eigen, projector)


def check_input(psi: StateVector, d: int) -> None:
    """Reject an input that is not one factor of dim d; the stacked kernels check its norm."""
    if psi.dims != (d,):
        raise ValueError(f"input state must be a single factor of dim {d}")


def _check_normalised(psis: np.ndarray) -> None:
    """Reject a stack of input vectors (one per row) unless every one is normalised."""
    if np.abs(np.linalg.norm(psis, axis=-1) - 1.0).max() > DEFAULT_ATOL:
        raise ValueError("input state must be normalised")


def check_floor(probs: np.ndarray) -> None:
    """Raise on the first success probability below P_FLOOR, carrying it."""
    low = np.flatnonzero(probs < P_FLOOR)
    if low.size:
        p_est = float(probs[low[0]])
        raise VerificationError(f"success probability {p_est:.3e} below floor", p_est)


def check_weights(d: int, k: int) -> None:
    """Refuse (``CapacityError``) a cell whose largest multinomial weight passes 2^1000, before any draw.

    The largest is that of the most even occupation.  Its log2 from ``math.lgamma`` is off by about
    1e-15 of its size: far below one bit near 1000 bits, which only k < 1100 reach, and far below its
    distance from 1000 elsewhere.  So it decides alone unless it lies within one bit of 1000; only then
    is the exact integer formed, and every decision is that of the exact integer.
    """
    q, extra = divmod(k, d)
    bits = (math.lgamma(k + 1) - extra * math.lgamma(q + 2) - (d - extra) * math.lgamma(q + 1)) / math.log(2)
    if abs(bits - 1000) <= 1:
        most_even = math.factorial(k) // (math.factorial(q + 1) ** extra * math.factorial(q) ** (d - extra))
        bits = most_even.bit_length()
    if bits > 1000:
        raise CapacityError(f"multinomial weights of k={k} copies at d={d} exceed the float range")


@lru_cache(maxsize=None)
def _sqrt_multinomials(d: int, n: int) -> np.ndarray:
    """sqrt(n! / prod_j c_j!) for each occupation c in ``occupations(n, d)``, read-only; once per (d, n).

    The one place exact multinomials are formed.  Past 2^1000 ``check_weights``
    refuses them first, so every root stays under 2^500 and the power products
    of a weight that matters stay far above the float underflow.  They grow exactly, level by
    level in the order of ``occupations``: a row with r factors left takes
    r, .., 0 of them at the next level, times C(r, j) from the row of
    Pascal's triangle of r, made once per r by the exact recurrence
    C(r, j + 1) = C(r, j) (r - j) / (j + 1).
    """
    check_weights(d, n)
    pascal: dict[int, list[int]] = {}
    mults, rest = [1], [n]
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


def sample_entries(d: int, k: int) -> int:
    """Entries per sample of every array a chunk of ``verify_theorem`` can hold at once, all counted
    as if alive together: the draw row, the generator's temporaries (3 per pair of normals) and the
    input (6 d), and in ``conditioned_elements`` the power table with the array it accumulates
    (2 d (k + 1)), the m weights with a gather of them, the width x d table t with its conjugate,
    and E with Bob's state (2 d^2).
    """
    m, width = math.comb(k + d - 1, k), math.comb(k + d - 2, k - 1)
    return 6 * d + 2 * d * (k + 1) + 2 * m + 2 * width * d + 2 * d * d


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
    check_input(psi, meas.d)
    return conditioned_elements(meas, psi.vec[None])[0]


def simulations(meas: Measurement, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the protocol on k copies of each row psi of ``psis``; return (p_est, Bob's states), stacked.

    With the shared pair |phi>, tr_Alice[(E (x) 1)|phi><phi|] = E^T / d, so
    the success probability is tr E / d and Bob's normalised state E^T / tr E.
    """
    e = conditioned_elements(meas, psis)
    traces = np.trace(e, axis1=1, axis2=2).real
    probs = traces / meas.d
    check_floor(probs)
    return probs, np.swapaxes(e, 1, 2) / traces[:, None, None]


def simulate(psi: StateVector, meas: Measurement) -> tuple[float, Operator]:
    """``simulations`` of the one input psi: (p_est, Bob's state)."""
    from .tensor import Operator

    check_input(psi, meas.d)
    probs, bob = simulations(meas, psi.vec[None])
    return float(probs[0]), Operator(bob[0], (meas.d,))


def _theorem_chunk(meas: Measurement, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success probabilities and fidelities of the inputs drawn from the children's ``keys``, simulated together.

    Its arrays are released on return, so no two chunks are alive at once.
    """
    psis = unit_rows(gaussian_vectors(seeded_normals(keys, 2 * meas.d), meas.d))
    probs, bob = simulations(meas, psis)
    return probs, np.einsum("sa,sab,sb->s", psis.conj(), bob, psis).real


class TheoremReport(NamedTuple):
    """Aggregate of Haar-sampled protocol runs against the closed formula; ``checks`` holds the largest probability
    deviation, the least fidelity and the residual, each judged at tol, and ``passed`` reads them alone."""

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
    checks: tuple[tuple[str, float, bool], ...]
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

    Each sample's input is the unit vector of one row of 2 d standard
    normals, the real and then the imaginary parts, drawn from its own child
    key of the seed: the children's keys, the seed's SplitMix64 outputs, come
    from ``spawn_keys`` in one pass, and ``seeded_normals`` draws each chunk's rows, one
    SplitMix64 stream per key, with numpy array arithmetic.  ``haar_state``
    on child i's key forms sample i's input bit for bit, after ``check_weights``.
    The inputs are then formed and simulated together, one chunk at a time,
    so that every array a chunk holds (``sample_entries``) stays within
    FACTOR_CAP.  Its checks: every sampled probability matches k/(d(k-1+d))
    within tol, every conditional output has fidelity at least 1 - tol with
    the input, and the residual between the two measurement constructions
    (reusing the eigen form it sampled with) is at most tol.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    meas = build_measurement(d, k, form="eigen")
    check_weights(d, k)
    p_formula = success_probability_formula(d, k)
    keys = spawn_keys(seed, samples)
    probs = np.empty(samples)
    fids = np.empty(samples)
    for part in batch_slices(samples, sample_entries(d, k)):
        probs[part], fids[part] = _theorem_chunk(meas, keys[part])
    deviations = np.abs(probs - p_formula)
    badness = np.maximum(deviations, 1.0 - fids)
    worst = int(np.argmax(badness))
    max_deviation, min_fidelity = float(deviations.max()), float(fids.min())
    eig_residual = factor_distance(meas.values, build_measurement(d, k, form="projector").values)
    checks = (("max_probability_deviation", max_deviation, max_deviation <= tol),
              ("min_fidelity", min_fidelity, min_fidelity >= 1.0 - tol),
              ("eig_residual", eig_residual, eig_residual <= tol))
    return TheoremReport(
        d, k, samples, seed, p_formula, float(probs.mean()), float(probs.std()), max_deviation, min_fidelity,
        eig_residual, tol, checks, all(ok for *_, ok in checks), worst,
    )

