"""Symmetric-group representation numerics on qudit tensor spaces.

Partitions are tuples of weakly decreasing positive integers; the empty
tuple is the (trivial) partition of 0, needed as the removed-box companion
of the single-box frame.  Young frames, standard and semistandard tableau
counts, irreducible characters, the character-weighted group projectors
(every frame of k from one pass over S_k), the occupation-number basis of
the symmetric subspace and the projectors F_mu(alpha) of the partially
transposed permutation algebra live here.  The occupation tables, which
the suites in symmetric coordinates use without the dense layer, live in
``core``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import occupation_rank
from .tensor import (
    Operator,
    Permutation,
    StateVector,
    check_capacity,
    check_group_budget,
    check_memory,
    max_entangled_state,
    permutation_index_map,
    symmetric_group,
)


Partition = tuple[int, ...]


def check_partition(mu: Partition) -> None:
    if any(p < 1 for p in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")


def sym_partition(k: int) -> Partition:
    """The one-row frame with k boxes; the empty frame for k = 0."""
    return (k,) if k > 0 else ()


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0]))


def _hook_lengths(mu: Partition) -> list[int]:
    co = conjugate(mu)
    return [mu[i] - j + co[j] - i - 1 for i in range(len(mu)) for j in range(mu[i])]


def mult_semistandard(mu: Partition, d: int) -> int:
    """Number of semistandard tableaux with entries in 1..d (hook content).

    Zero whenever the frame is taller than d.
    """
    check_partition(mu)
    if d < 1:
        raise ValueError("d must be at least 1")
    if not mu:
        return 1
    if len(mu) > d:
        return 0
    numerator = math.prod(d + j - i for i in range(len(mu)) for j in range(mu[i]))
    denominator = math.prod(_hook_lengths(mu))
    quotient, rem = divmod(numerator, denominator)
    assert rem == 0
    return quotient


def partitions(k: int) -> list[Partition]:
    """All partitions of k, in lexicographically decreasing order."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(max_part, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def removable_boxes(mu: Partition) -> list[Partition]:
    """All frames obtained from mu by removing a single box."""
    check_partition(mu)
    out = []
    for i in range(len(mu)):
        if i == len(mu) - 1 or mu[i] > mu[i + 1]:
            smaller = list(mu)
            smaller[i] -= 1
            out.append(tuple(p for p in smaller if p > 0))
    return out


def dim_standard(mu: Partition) -> int:
    """Number of standard Young tableaux (hook-length formula)."""
    check_partition(mu)
    if not mu:
        return 1
    return math.factorial(sum(mu)) // math.prod(_hook_lengths(mu))


def _beta_to_partition(beta: tuple[int, ...]) -> Partition:
    rows = len(beta)
    parts = tuple(b - (rows - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _character_of_class(mu: Partition, cycles: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama recursion over first-column hook lengths: removing
    # a border strip of length t replaces one beta number b with b - t; the
    # sign is (-1)^(number of beta numbers jumped over).
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    rows = len(mu)
    beta = [mu[i] + (rows - 1 - i) for i in range(rows)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        strip_height = sum(1 for c in beta if nb < c < b)
        new_beta = tuple(sorted([c for j, c in enumerate(beta) if j != i] + [nb], reverse=True))
        total += (-1) ** strip_height * _character_of_class(_beta_to_partition(new_beta), rest)
    return total


def character(mu: Partition, sigma: Permutation) -> int:
    """Irreducible character of the frame mu at the permutation sigma.

    Depends only on the cycle type; values are exact integers.
    """
    check_partition(mu)
    if sum(mu) != sigma.n:
        raise ValueError(f"frame of {sum(mu)} boxes vs permutation on {sigma.n} letters")
    return _character_of_class(mu, sigma.cycle_type())


@lru_cache(maxsize=None)
def _young_projectors(k: int, d: int) -> dict[Partition, Operator]:
    """``young_projector`` of every frame of k with at most d rows, from one pass over S_k.

    V_sigma has its one in column j at row sum_m d^(k-1-sigma(m)) j_m, so each
    chunk of the group is remapped by one integer product and added into every
    frame, weighted by its characters, by ``np.bincount``.  A chunk has at most
    max(d^(2k), k!) keys.  The sums are exact integers until the scale.  Each
    frame has its own sum, released once its operator holds a copy, so at most
    one frame beyond the store is alive: the ``bincount`` output while summing,
    a frozen copy while wrapping.  That peak, (frames + 1) d^(2k) floats with
    a chunk's int64 keys and repeated weights, min(step, k!) d^k entries each,
    is refused by ``check_memory`` before the first sum is allocated.
    """
    frames = [mu for mu in partitions(k) if len(mu) <= d]
    group = symmetric_group(k)  # checks the group budget before anything is allocated
    total = d**k
    check_capacity(total)
    step = max(total, math.factorial(k) // total)  # group elements per chunk
    check_memory(((len(frames) + 1) * total + 2 * min(step, math.factorial(k))) * total * 8, "Young projector store")
    images, label, classes = [], [], {}
    for sigma in group:
        images.append(sigma.images)
        label.append(classes.setdefault(sigma.cycle_type(), len(classes)))
    chars = np.array([[_character_of_class(mu, ct) for ct in classes] for mu in frames], dtype=float)
    places = (d ** np.arange(k - 1, -1, -1))[np.array(images)]
    digits = np.indices((d,) * k).reshape(k, total)
    sums = [np.zeros(total * total) for _ in frames]
    for start in range(0, len(images), step):
        keys = (places[start : start + step] @ digits * total + np.arange(total)).reshape(-1)
        for acc, weight in zip(sums, chars[:, label[start : start + step]]):
            acc += np.bincount(keys, np.repeat(weight, total), total * total)
    out = {}
    for mu in frames:
        acc = sums.pop(0)  # wrapping copies it, so the sum is released before the next frame is copied
        acc *= dim_standard(mu) / math.factorial(k)
        out[mu] = Operator(acc.reshape(total, total), (d,) * k)
    return out


def young_projector(mu: Partition, d: int) -> Operator:
    """Character-weighted group average projecting on the mu-isotypic part.

    P_mu = (d_mu / k!) sum_sigma chi_mu(sigma^{-1}) V_sigma on (C^d)^(x k);
    sigma and its inverse share a cycle type, so the class character is used
    directly.  Satisfies P_mu P_nu = delta P_mu and tr P_mu = m_mu d_mu.
    A frame taller than d gives the zero operator without a group sum; every
    other one is the read-only operator stored by ``_young_projectors``.
    """
    check_partition(mu)
    k = sum(mu)
    if k < 1:
        raise ValueError("young_projector needs a non-empty frame")
    if len(mu) > d:
        check_capacity(d**k)
        return Operator(np.zeros((d**k, d**k)), (d,) * k)
    return _young_projectors(k, d)[mu]


# The store is the cache of the group passes, so its statistics are this
# function's: a miss is one pass over S_k.
young_projector.cache_info = _young_projectors.cache_info


@lru_cache(maxsize=None)
def sym_projector(n: int, d: int) -> Operator:
    """Projector onto the symmetric subspace of (C^d)^(x n), as B B^dagger.

    B stacks the orthonormal occupation-number basis from ``sym_basis``, so
    this equals the group average (1/n!) sum_sigma V_sigma without a loop
    over S_n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    b = np.column_stack([s.vec for s in sym_basis(n, d)])
    return Operator(b @ b.conj().T, (d,) * n)


@lru_cache(maxsize=None)
def sym_basis(n: int, d: int) -> tuple[StateVector, ...]:
    """Orthonormal occupation-number basis of the symmetric subspace.

    Each vector is the uniform superposition of all basis kets sharing one
    occupation vector (how many factors sit at each level); ordering is
    lexicographically decreasing in the occupation vector, as in
    ``occupations``.  For n = 0 the basis is the single scalar state on the
    empty layout.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if n == 0:
        return (StateVector(np.ones(1), ()),)
    total = d**n
    check_capacity(total)
    kets = np.arange(total)
    counts = np.zeros((total, d), dtype=np.intp)
    for digits in np.indices((d,) * n).reshape(n, total):
        counts[kets, digits] += 1
    rank = occupation_rank(counts)
    members = np.bincount(rank)
    rows = np.zeros((len(members), total))
    rows[rank, kets] = 1.0 / np.sqrt(members[rank])
    return tuple(StateVector(row, (d,) * n) for row in rows)


def f_projector(mu: Partition, alpha: Partition, d: int) -> Operator:
    """Projector of the partially transposed permutation algebra.

    With k = |mu| and alpha = mu minus one box, acting on (C^d)^(x (k+1))
    whose last factor is the transposed one:

        F_mu(alpha) = (1/gamma) P_mu [ sum_a V_(a,k) (P_alpha (x) d P+) V_(a,k) ] P_mu,
        gamma = k m_mu d_alpha / (m_alpha d_mu),

    where P_alpha sits on the k-1 factors other than a and d P+ couples
    factor a with the last factor.  Projector; tr F_mu(alpha) = m_alpha d_mu.
    """
    check_partition(mu)
    check_partition(alpha)
    k = sum(mu)
    if sum(alpha) != k - 1 or alpha not in removable_boxes(mu):
        raise ValueError(f"{alpha} is not {mu} minus one box")
    m_mu, d_mu = mult_semistandard(mu, d), dim_standard(mu)
    m_alpha, d_alpha = mult_semistandard(alpha, d), dim_standard(alpha)
    if m_mu == 0 or m_alpha == 0:
        raise ValueError(f"frame taller than d={d}: multiplicity vanishes")
    gamma = k * m_mu * d_alpha / (m_alpha * d_mu)

    dims = (d,) * (k + 1)
    total = math.prod(dims)
    check_capacity(total)
    # P_mu comes first: its group is the larger, so an over-budget frame
    # raises before the smaller group is summed.
    p_mu = young_projector(mu, d).mat
    # The middle factor P_alpha (x) d P+ equals B B^dagger with B of rank
    # d^(k-1), so the sandwich is assembled from k thin products instead of
    # two full dim^3 multiplications; P_mu (x) 1 acts on B with the last
    # factor moved into the columns.
    entangled_column = math.sqrt(d) * max_entangled_state(d).vec.reshape(-1, 1)
    thin = entangled_column if k == 1 else np.kron(young_projector(alpha, d).mat, entangled_column)
    out = np.zeros((total, total))
    for a in range(k):
        swap = Permutation.transposition(k + 1, a, k - 1)
        f = permutation_index_map(swap, dims)
        # f is an involution (swap is self-inverse), so B[f] applies V_swap.
        column = (p_mu @ thin[f, :].reshape(d**k, -1)).reshape(total, -1)
        out += column @ column.conj().T
    return Operator(out / gamma, dims)


def absorption_residual(d: int, k: int) -> float:
    """Worst ||Psym_(k+1) (P_mu (x) 1) - delta_(mu, sym) Psym_(k+1)||_F over frames mu of k.

    The symmetriser on k+1 factors absorbs the one-row Young projector on
    the first k factors and annihilates every other one.  With Psym_(k+1) =
    B B^dagger, B an isometry, each norm is that of B^dagger (P_mu (x) 1) -
    delta B^dagger, each row of B^dagger split by the last factor into d rows.
    """
    check_capacity(d ** (k + 1))
    check_group_budget(k)  # the frames' group sums need S_k; check before the basis is built
    rows = np.stack([s.vec for s in sym_basis(k + 1, d)])
    rows = rows.reshape(-1, d**k, d).transpose(0, 2, 1).reshape(-1, d**k)
    worst = 0.0
    for mu in partitions(k):
        if len(mu) > d:
            continue  # its Young projector is exactly zero, and so is its term
        delta = 1.0 if mu == sym_partition(k) else 0.0
        worst = max(worst, float(np.linalg.norm(rows @ young_projector(mu, d).mat - delta * rows)))
    return worst
