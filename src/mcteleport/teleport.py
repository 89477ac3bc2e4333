"""Optimal multicopy teleportation: measurement construction and simulation.

Alice holds k copies of an unknown qudit state on factors 0..k-1 plus her
half of a shared maximally entangled pair on factor k (called A below); Bob
holds the other half.  The success element of her two-outcome measurement is

    M = d k / (k - 1 + d) * (Psym (x) 1_A) (1 (x) P+_{k-1,A}) (Psym (x) 1_A),

a projector of rank C(k-2+d, k-1) whose eigenbasis is assembled from the
symmetric-subspace basis of k-1 factors entangled into each copy slot in
turn.  Conditioned on the success outcome Bob holds the input state exactly,
with probability k / (d (k - 1 + d)) independent of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symgroup import sym_basis
from .tensor import (
    DEFAULT_ATOL,
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
    """The success POVM element M = F F^dagger for (d, k), held as a thin factor.

    ``factor`` is a dim x r matrix F: the stacked eigenbasis for the eigen
    form, r = min(d^(k-1), d C(k+d-1, k)) columns for the projector form.
    It is kept as a read-only view, so the caller's array stays writable.
    The dense ``op`` is formed from F on first access and kept.
    """

    d: int
    k: int
    factor: np.ndarray

    def __post_init__(self):
        view = np.asarray(self.factor).view()
        view.setflags(write=False)
        object.__setattr__(self, "factor", view)

    @cached_property
    def op(self) -> Operator:
        return Operator(self.factor @ self.factor.conj().T, (self.d,) * (self.k + 1))


def build_measurement(d: int, k: int, form: str = "eigen") -> Measurement:
    """Construct the success element as a thin factor F with M = F F^dagger.

    ``form="eigen"`` stacks the eigenbasis from ``r_vectors`` (symmetric
    basis on k-1 factors, entangled into each slot in turn);
    ``form="projector"`` factors the sandwiched-projector formula through the
    symmetric basis on all k factors and is kept as an independent
    construction for cross-checks.
    """
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    check_capacity(d ** (k + 1))
    if form == "eigen":
        return Measurement(d, k, np.column_stack([r.vector.vec for r in r_vectors(d, k)]))
    if form == "projector":
        # With Psym = B B^dagger, M = c (B (x) 1) Z Z^dagger (B (x) 1)^dagger
        # where Z = (B^dagger (x) 1)(1 (x) |phi>).  As phi = sum_i |ii>/sqrt(d),
        # Z^dagger[y, (j, a)] = B[(y, a), j] / sqrt(d).  Z^dagger = Q R gives
        # Z Z^dagger = R^dagger R, so F = sqrt(c) (B (x) 1) R^dagger.
        b = np.column_stack([s.vec for s in sym_basis(k, d)])
        m = b.shape[1]
        z_dag = b.reshape(d ** (k - 1), d, m).transpose(0, 2, 1).reshape(d ** (k - 1), m * d)
        r_dag = np.linalg.qr(z_dag / math.sqrt(d), mode="r").conj().T
        thin = (b @ r_dag.reshape(m, -1)).reshape(d ** (k + 1), -1)
        return Measurement(d, k, math.sqrt(d * k / (k - 1 + d)) * thin)
    raise ValueError(f"unknown form {form!r}")


def gram_residual(d: int, k: int) -> float:
    """Largest entry of |R^dagger R - 1| for the stacked eigenbasis R."""
    columns = build_measurement(d, k).factor
    return float(np.abs(columns.conj().T @ columns - np.eye(columns.shape[1])).max())


def _factor_distance(f_a: np.ndarray, f_b: np.ndarray) -> float:
    """||F_a F_a^dagger - F_b F_b^dagger||_F from the thin factors alone.

    With [F_a, F_b] = Q S and S = [S1, S2], F_a F_a^dagger - F_b F_b^dagger
    = Q (S1 S1^dagger - S2 S2^dagger) Q^dagger, and Q has orthonormal
    columns, so the distance is taken on the small triangular factor.
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


def conditioned_element(meas: Measurement, psi: StateVector) -> np.ndarray:
    """E = (<psi|^(x k) (x) 1_A) M (|psi>^(x k) (x) 1_A), a d x d matrix.

    Bob's success-conditioned output depends on Alice's measurement only
    through E.  With M = F F^dagger, E = t t^dagger where t contracts the k
    copy factors of F against conj(psi), so E is PSD by construction.
    """
    _check_input(psi, meas.d)
    bra = psi.vec.conj()
    t = meas.factor
    for _ in range(meas.k):  # contract the leading copy factor
        t = bra @ t.reshape(meas.d, -1)
    t = t.reshape(meas.d, -1)
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

    Passes iff every sampled probability matches k/(d(k-1+d)) within tol and
    every conditional output has fidelity at least 1 - tol with the input.
    The report also carries the residual between the two measurement
    constructions, reusing the eigen form it sampled with.
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
    passed = bool(deviations.max() <= tol and fids.min() >= 1.0 - tol)
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
