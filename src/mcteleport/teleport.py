"""Optimal multicopy teleportation: measurement construction and simulation.

Alice holds k copies of an unknown qudit state on factors 0..k-1 plus her
half of a shared maximally entangled pair on factor k (called A below); Bob
holds the other half.  The success element of her two-outcome measurement is

    M = d k / (k - 1 + d) * (Psym (x) 1_A) (1 (x) P+_{k-1,A}) (Psym (x) 1_A),

a projector of rank C(k-2+d, k-1) whose eigenbasis is assembled from the
symmetric-subspace basis of k-1 factors entangled into each copy slot in
turn.  Conditioned on the success outcome Bob holds the input state exactly,
with probability k / (d (k - 1 + d)) independent of the input.

M lives on Sym^k (x) C^d, of dimension m d with m = C(k+d-1, k), so the
measurement is held as a factor on the coordinates |n>_sym (x) |a> (n an
occupation vector of k factors, a a level of A) and the simulation, the
residual between the two constructions and retrieval never touch the
d^(k+1) coordinates of the full space.  The eigen and projector forms
share no helper, so their residual certifies one against the other.  A
factor over FACTOR_CAP entries is refused before it is built.
``r_vectors`` still lives on the full space, for ``gram_residual`` in the
lemma suite, and ``Measurement.op`` embeds the factor there for the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .symgroup import occupation_rank, occupations, sym_basis
from .tensor import (
    DEFAULT_ATOL,
    CapacityError,
    Operator,
    Permutation,
    StateVector,
    VerificationError,
    check_capacity,
    haar_state,
    kron,
    max_entangled_state,
    permute_state,
)

#: Success probabilities below this are treated as a degenerate outcome.
P_FLOOR = 1e-14

#: Largest thin factor, in entries (rows times columns), that
#: ``build_measurement`` allocates.  The QRs of the projector form and of the
#: residual work on arrays of about this size; every cell with
#: d^(k+1) <= DIM_CAP stays under it (the largest, d = 16 and k = 3, has
#: 1.8 million entries).
FACTOR_CAP = 2**21


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
    """The success POVM element M for (d, k), held as a thin factor in symmetric coordinates.

    M is supported on Sym^k (x) C^d, so M = F F^dagger with F = (B (x) 1) G,
    where B stacks ``sym_basis(k, d)``.  ``factor`` is G, an (m d) x r
    matrix with m = C(k+d-1, k); its row index(n) d + a is the
    coordinate |n>_sym (x) |a>, with index(n) the row of the occupation n in
    ``occupations(k, d)``.  It is kept as a read-only view, so the caller's
    array stays writable.  The dense ``op`` on (C^d)^(x (k+1)) is formed on
    first access and kept.
    """

    d: int
    k: int
    factor: np.ndarray

    def __post_init__(self):
        view = np.asarray(self.factor).view()
        rows = self.d * math.comb(self.k + self.d - 1, self.k)
        if view.ndim != 2 or view.shape[0] != rows:
            raise ValueError(
                f"factor of shape {view.shape} needs m d = {rows} rows at d={self.d}, k={self.k}"
            )
        view.setflags(write=False)
        object.__setattr__(self, "factor", view)

    @cached_property
    def op(self) -> Operator:
        dims = (self.d,) * (self.k + 1)
        check_capacity(math.prod(dims))
        b = np.column_stack([s.vec for s in sym_basis(self.k, self.d)])
        full = (b @ self.factor.reshape(b.shape[1], -1)).reshape(math.prod(dims), -1)
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


def _multinomial(counts) -> int:
    """(sum of counts)! / prod of counts!, exactly: how many kets share the occupation ``counts``."""
    out, total = 1, 0
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def _sandwich_rows(d: int, k: int) -> np.ndarray:
    """The P+ sandwich Z^dagger compressed to one row per occupation of k-1 factors.

    With Psym = B B^dagger, M = c (B (x) 1) Z Z^dagger (B (x) 1)^dagger
    where Z = (B^dagger (x) 1)(1 (x) |phi>), with one column per ket y of
    k-1 factors: Z[(n, a), y] = <n|_sym (|y> (x) |a>) / sqrt(d) is
    1/sqrt(d mult(n)) when occ(y) + e_a = n.  Columns of kets with one
    occupation n'' agree, so Z Z^dagger = C^dagger C with one row per n'',
    weighted by sqrt(mult(n'')).  The rows come from multisets of levels,
    the columns from a lookup of n'' + e_a and the entries from the
    multinomials themselves, so nothing is shared with the eigen form.
    """
    column = {occ: i * d for i, occ in enumerate(map(tuple, occupations(k, d).tolist()))}
    rows = list(combinations_with_replacement(range(d), k - 1))
    c = np.zeros((len(rows), d * len(column)))
    for row, levels in enumerate(rows):
        counts = Counter(levels)
        base = [counts[a] for a in range(d)]
        mult = _multinomial(base)
        for a in range(d):
            grown = base[:a] + [base[a] + 1] + base[a + 1 :]
            c[row, column[tuple(grown)] + a] = math.sqrt(mult / (d * _multinomial(grown)))
    return c


def build_measurement(d: int, k: int, form: str = "eigen") -> Measurement:
    """Construct the success element as a thin factor G on Sym^k (x) C^d.

    ``form="eigen"`` is the eigenbasis of ``r_vectors`` in symmetric
    coordinates: Psym_k(|n'>_sym (x) |a>) = sqrt((n'_a + 1)/k) |n' + e_a>_sym
    puts the eigenvector of index n' at sqrt((n'_a + 1)/(k - 1 + d)) in
    coordinate (n' + e_a, a), for each level a.  ``form="projector"``
    factors the sandwiched-projector formula through a QR decomposition of
    ``_sandwich_rows`` (C = Q R gives Z Z^dagger = R^dagger R, so
    G = sqrt(c) R^dagger); it is coded independently of the eigen form and
    kept for cross-checks.

    A cell is refused with ``CapacityError`` before anything is allocated
    when G would have more than DIM_CAP rows or FACTOR_CAP entries, or when
    its sqrt-multinomial weights leave the float range.
    """
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    rows, width = d * math.comb(k + d - 1, k), math.comb(k - 2 + d, k - 1)
    check_capacity(rows)
    if rows * width > FACTOR_CAP:
        raise CapacityError(f"measurement factor of {rows} x {width} entries exceeds cap {FACTOR_CAP}")
    _sqrt_multinomials(d, k)
    if form == "eigen":
        coords, counts = _insertions(d, k)
        g = np.zeros((rows, width))
        g[coords, np.arange(width)[:, None]] = np.sqrt(counts / (k - 1 + d))
        return Measurement(d, k, g)
    if form == "projector":
        r_dag = np.linalg.qr(_sandwich_rows(d, k), mode="r").conj().T
        return Measurement(d, k, math.sqrt(d * k / (k - 1 + d)) * r_dag)
    raise ValueError(f"unknown form {form!r}")


def gram_residual(d: int, k: int) -> float:
    """Largest entry of |R^dagger R - 1| for the stacked eigenbasis R of ``r_vectors``."""
    columns = np.column_stack([r.vector.vec for r in r_vectors(d, k)])
    return float(np.abs(columns.conj().T @ columns - np.eye(columns.shape[1])).max())


def _factor_distance(f_a: np.ndarray, f_b: np.ndarray) -> float:
    """||F_a F_a^dagger - F_b F_b^dagger||_F from the thin factors alone.

    With [F_a, F_b] = Q S and S = [S1, S2], F_a F_a^dagger - F_b F_b^dagger
    = Q (S1 S1^dagger - S2 S2^dagger) Q^dagger, and Q has orthonormal
    columns, so the distance is taken on the small triangular factor.  For
    the same reason the symmetric-coordinate factors G give the distance
    between the full operators: the isometry B (x) 1 cancels.
    """
    s = np.linalg.qr(np.hstack([f_a, f_b]), mode="r")
    s1, s2 = s[:, : f_a.shape[1]], s[:, f_a.shape[1] :]
    return float(np.linalg.norm(s1 @ s1.conj().T - s2 @ s2.conj().T))


def eigendecomposition_residual(d: int, k: int) -> float:
    """Frobenius distance between the two independent constructions."""
    return _factor_distance(
        build_measurement(d, k, form="eigen").factor,
        build_measurement(d, k, form="projector").factor,
    )


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
    """Reject an input that is not one normalised factor of dim d."""
    if psi.dims != (d,):
        raise ValueError(f"input state must be a single factor of dim {d}")
    if abs(psi.norm() - 1.0) > DEFAULT_ATOL:
        raise ValueError("input state must be normalised")


@lru_cache(maxsize=None)
def _sqrt_multinomials(d: int, k: int) -> np.ndarray:
    """sqrt(k! / prod_j n_j!) for each occupation n in ``occupations(k, d)``, read-only.

    The multinomials are exact integers.  Below 2^1000 every square root
    stays under 2^500, so the power products of a weight that matters stay
    far above the float underflow; larger multinomials are refused, from
    the largest one (the most even occupation) before the others are formed.
    """
    q, extra = divmod(k, d)
    if _multinomial([q + 1] * extra + [q] * (d - extra)).bit_length() > 1000:
        raise CapacityError(f"multinomial weights of k={k} copies at d={d} exceed the float range")
    out = np.sqrt(np.array([float(_multinomial(occ)) for occ in occupations(k, d).tolist()]))
    out.setflags(write=False)
    return out


def conditioned_element(meas: Measurement, psi: StateVector) -> np.ndarray:
    """E = (<psi|^(x k) (x) 1_A) M (|psi>^(x k) (x) 1_A), a d x d matrix.

    Bob's success-conditioned output depends on Alice's measurement only
    through E.  In symmetric coordinates <psi^(x k)|n>_sym = sqrt(k!/prod
    n_j!) prod_j conj(psi_j)^n_j =: w_n, so with M = F F^dagger and
    F = (B (x) 1) G, E = t t^dagger for t[a] = sum_n w_n G[(n, a)]; E is PSD
    by construction.
    """
    _check_input(psi, meas.d)
    d, k = meas.d, meas.k
    powers = np.ones((d, k + 1), dtype=complex)
    powers[:, 1:] = psi.vec.conj()[:, None]
    powers = np.cumprod(powers, axis=1)  # powers[j, c] = conj(psi_j)^c
    w = _sqrt_multinomials(d, k) * powers[np.arange(d), occupations(k, d)].prod(axis=1)
    t = (w @ meas.factor.reshape(len(w), -1)).reshape(d, -1)
    return t @ t.conj().T


def simulate(psi: StateVector, meas: Measurement) -> tuple[float, Operator]:
    """Run the protocol on k copies of psi; return (p_est, Bob's state).

    With the shared pair |phi>, tr_Alice[(E (x) 1)|phi><phi|] = E^T / d, so
    the success probability is tr E / d and Bob's normalised state E^T / tr E.
    """
    e = conditioned_element(meas, psi)
    trace = float(e.trace().real)
    p_est = trace / meas.d
    if p_est < P_FLOOR:
        raise VerificationError(f"success probability {p_est:.3e} below floor", p_est)
    return p_est, Operator(e.T / trace, (meas.d,))


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

    Passes iff every sampled probability matches k/(d(k-1+d)) within tol,
    every conditional output has fidelity at least 1 - tol with the input,
    and the residual between the two measurement constructions (reusing the
    eigen form it sampled with) is at most tol.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    meas = build_measurement(d, k, form="eigen")
    p_formula = success_probability_formula(d, k)
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    probs = np.empty(samples)
    fids = np.empty(samples)
    for i, child in enumerate(child_seeds):
        psi = haar_state(d, np.random.default_rng(child))
        p_est, bob = simulate(psi, meas)
        probs[i] = p_est
        fids[i] = float(np.real(psi.vec.conj() @ bob.mat @ psi.vec))
    deviations = np.abs(probs - p_formula)
    badness = np.maximum(deviations, 1.0 - fids)
    worst = int(np.argmax(badness))
    eig_residual = _factor_distance(meas.factor, build_measurement(d, k, form="projector").factor)
    passed = bool(deviations.max() <= tol and fids.min() >= 1.0 - tol and eig_residual <= tol)
    return TheoremReport(
        d=d,
        k=k,
        samples=samples,
        seed=seed,
        p_formula=p_formula,
        p_mean=float(probs.mean()),
        p_std=float(probs.std()),
        max_probability_deviation=float(deviations.max()),
        min_fidelity=float(fids.min()),
        eig_residual=eig_residual,
        tol=tol,
        passed=passed,
        worst_sample_index=worst,
    )
