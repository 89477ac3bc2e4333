"""Symmetric-group representation numerics on qudit tensor spaces.

Partitions are tuples of weakly decreasing positive integers; the empty
tuple is the (trivial) partition of 0, needed as the removed-box companion
of the single-box frame.  Young frames, tableau counts, irreducible
characters, the character-weighted group projectors and the projectors of
the partially transposed permutation algebra all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations

import numpy as np

from .tensor import (
    Operator,
    Permutation,
    StateVector,
    check_capacity,
    check_group_budget,
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


def sym_partition(k: int) -> Partition:
    """The one-row frame with k boxes; the empty frame for k = 0."""
    return (k,) if k > 0 else ()


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0]))


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


def _hook_lengths(mu: Partition) -> list[int]:
    co = conjugate(mu)
    return [mu[i] - j + co[j] - i - 1 for i in range(len(mu)) for j in range(mu[i])]


def dim_standard(mu: Partition) -> int:
    """Number of standard Young tableaux (hook-length formula)."""
    check_partition(mu)
    if not mu:
        return 1
    return math.factorial(sum(mu)) // math.prod(_hook_lengths(mu))


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


@dataclass(frozen=True)
class IrrepData:
    """Tableau counts attached to one frame at a fixed local dimension."""

    partition: Partition
    d_mu: int
    m_mu: int


def irrep_data(mu: Partition, d: int) -> IrrepData:
    return IrrepData(mu, dim_standard(mu), mult_semistandard(mu, d))


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


def _group_sum(n: int, d: int, weight_of_class) -> np.ndarray:
    """Sum of weight(class(sigma)) * V_sigma over S_n, assembled by remapping."""
    group = symmetric_group(n)  # checks the group budget before anything is allocated
    dims = (d,) * n
    total = math.prod(dims)
    check_capacity(total)
    acc = np.zeros((total, total))
    cols = np.arange(total)
    multi = np.array(np.unravel_index(cols, dims))
    weights: dict[tuple[int, ...], float] = {}
    for sigma in group:
        ct = sigma.cycle_type()
        w = weights.get(ct)
        if w is None:
            w = weights[ct] = weight_of_class(ct)
        if w == 0:
            continue
        rows = np.ravel_multi_index(tuple(multi[list(sigma.inverse().images)]), dims)
        acc[rows, cols] += w
    return acc


@lru_cache(maxsize=None)
def young_projector(mu: Partition, d: int) -> Operator:
    """Character-weighted group average projecting on the mu-isotypic part.

    P_mu = (d_mu / k!) sum_sigma chi_mu(sigma^{-1}) V_sigma on (C^d)^(x k);
    sigma and its inverse share a cycle type, so the class character is used
    directly.  Satisfies P_mu P_nu = delta P_mu and tr P_mu = m_mu d_mu.
    """
    check_partition(mu)
    k = sum(mu)
    if k < 1:
        raise ValueError("young_projector needs a non-empty frame")
    mat = _group_sum(k, d, lambda ct: _character_of_class(mu, ct))
    mat *= dim_standard(mu) / math.factorial(k)
    return Operator(mat, (d,) * k)


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
def occupations(n: int, d: int) -> np.ndarray:
    """Occupation vectors of n factors over d levels, one per row, in ``sym_basis`` order.

    Row i counts how many factors sit at each level in the i-th symmetric
    basis vector; rows run lexicographically decreasing, so the first is
    (n, 0, ..., 0).  There are C(n + d - 1, n) of them.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    check_capacity(math.comb(n + d - 1, n))
    if d == 1:
        out = np.array([[n]])
    else:
        blocks = []
        for first in range(n, -1, -1):
            rest = occupations(n - first, d - 1)
            blocks.append(np.column_stack([np.full(len(rest), first), rest]))
        out = np.concatenate(blocks)
    out.setflags(write=False)
    return out


def occupation_rank(occ: np.ndarray) -> np.ndarray:
    """Row index in ``occupations(n, d)`` of each occupation vector along the last axis.

    The vectors ahead of c are those larger at the first level j where they
    differ; counting them by j gives sum_(j < d-1) C(t_j + d - j - 2, d - j - 1)
    with t_j the occupation of the levels after j.
    """
    occ = np.asarray(occ)
    d = occ.shape[-1]
    tails = np.cumsum(occ[..., :0:-1], axis=-1)[..., ::-1]  # t_j for j = 0 .. d-2
    if tails.size == 0:
        return np.zeros(occ.shape[:-1], dtype=np.intp)
    top = int(tails.max()) + d
    table = np.array([[math.comb(t, r) for t in range(top)] for r in range(d - 1, 0, -1)], dtype=np.intp)
    shifted = tails + np.arange(d - 2, -1, -1)
    return table[np.arange(d - 1), shifted].sum(axis=-1)


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
    big = np.kron(young_projector(mu, d).mat, np.eye(d))
    # The middle factor P_alpha (x) d P+ equals B B^dagger with B of rank
    # d^(k-1), so the sandwich is assembled from k thin products instead of
    # two full dim^3 multiplications.
    entangled_column = math.sqrt(d) * max_entangled_state(d).vec.reshape(-1, 1)
    if k == 1:
        thin = entangled_column
    else:
        thin = np.kron(young_projector(alpha, d).mat, entangled_column)
    out = np.zeros((total, total))
    for a in range(k):
        swap = Permutation.transposition(k + 1, a, k - 1)
        f = permutation_index_map(swap, dims)
        # f is an involution (swap is self-inverse), so B[f] applies V_swap.
        column = big @ thin[f, :]
        out += column @ column.conj().T
    return Operator(out / gamma, dims)


def absorption_residual(d: int, k: int) -> float:
    """Worst ||Psym_(k+1) (P_mu (x) 1) - delta_(mu, sym) Psym_(k+1)||_F over frames mu of k.

    The symmetriser on k+1 factors absorbs the one-row Young projector on
    the first k factors and annihilates every other one.
    """
    check_capacity(d ** (k + 1))
    check_group_budget(k)  # the frames' group sums need S_k; check before Psym_(k+1) is built
    big = sym_projector(k + 1, d).mat
    worst = 0.0
    for mu in partitions(k):
        projector = np.kron(young_projector(mu, d).mat, np.eye(d))
        delta = 1.0 if mu == sym_partition(k) else 0.0
        worst = max(worst, float(np.linalg.norm(big @ projector - delta * big)))
    return worst


def _lex_rank(columns: np.ndarray) -> np.ndarray:
    """Lexicographic indices in S_n of permutations given as image columns (Lehmer code)."""
    n = len(columns)
    rank = np.zeros(columns.shape[1], dtype=np.intp)
    later_smaller = np.empty(columns.shape[1], dtype=np.int8)
    for i in range(n - 1):
        later_smaller[:] = 0
        for j in range(i + 1, n):
            later_smaller += columns[j] < columns[i]
        rank += later_smaller.astype(np.intp) * math.factorial(n - 1 - i)
    return rank


def _cycle_lengths(perms: np.ndarray) -> np.ndarray:
    """Length of the cycle through each letter, row by row."""
    n = perms.shape[1]
    letters = np.arange(n)
    lengths = np.zeros(perms.shape, dtype=np.intp)
    walk = perms.astype(np.intp)
    for step in range(1, n + 1):
        lengths[(walk == letters) & (lengths == 0)] = step
        walk = np.take_along_axis(perms, walk, axis=1)
    return lengths


@lru_cache(maxsize=None)
def _orbit_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_(k+1) split into orbits under conjugation by the S_k fixing letter k.

    An orbit is fixed by the length of the cycle through k and the cycle
    type of the rest, so there are sum_(j <= k) p(j) of them.  Returns one
    representative sigma_o per orbit, the orbit sizes, and counts with
    counts[o, o', c] = #{tau in o' : sigma_o^-1 tau has c cycles}.  Only
    O((k+1)!)-sized arrays are built, with one ranking pass over S_(k+1)
    per orbit.
    """
    check_group_budget(k)
    n = k + 1
    # itertools yields S_n in lexicographic order, which _lex_rank indexes
    perms = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    lengths = _cycle_lengths(perms)
    cycles = np.rint((1.0 / lengths).sum(axis=1)).astype(np.intp)
    # letters per cycle length in base n + 1 fix the cycle type; times n + 1
    # plus the length through k fixes the orbit
    key = lengths[:, k] + (n + 1) * ((n + 1) ** (lengths - 1)).sum(axis=1)
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    orbits = len(first)
    columns = np.ascontiguousarray(perms.T)
    offset = label * (n + 1)
    counts = np.empty((orbits, orbits, n + 1))
    for o, rep in enumerate(first):
        # tau sigma_o^-1 is conjugate to sigma_o^-1 tau, and its image
        # columns are those of tau reordered by sigma_o^-1
        relative = cycles[_lex_rank(columns[np.argsort(perms[rep])])]
        counts[o] = np.bincount(offset + relative, minlength=orbits * (n + 1)).reshape(orbits, n + 1)
    return perms[first], np.bincount(label), counts


@lru_cache(maxsize=None)
def _commutant_tables(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Positions, orbit sizes, Gram pseudo-inverse and copy swaps for ``commutant_projection``.

    V_sigma^(t_k) has a one at (row, column) for every basis ket j, where
    digit j_m sits in row slot sigma(m) and column slot m, with the two
    slots of factor k swapped by the partial transpose; ``positions`` holds
    these flat positions in a dim x dim matrix for each orbit
    representative.  The Gram entries of the orbit sums follow from
    tr(V_sigma^(t_k)dagger V_tau^(t_k)) = d^#cycles(sigma^-1 tau) without a
    dense product.  The span is dependent when d <= k, so the pseudo-inverse
    drops the kernel of the unit-diagonal Gram matrix.  ``swaps[m]`` holds
    the index maps of the transpositions (a, m+1), a <= m, of the copies.
    """
    reps, sizes, counts = _orbit_tables(k)
    n = k + 1
    dims = (d,) * n
    dim = d**n
    check_capacity(dim)
    place = d ** np.arange(n - 1, -1, -1)
    row, col = place * dim, place.copy()
    row[k], col[k] = 1, dim
    positions = (row[reps] + col) @ np.array(np.unravel_index(np.arange(dim), dims))
    gram = sizes[:, None] * (counts @ float(d) ** np.arange(n + 1))
    scale = 1.0 / np.sqrt(np.diag(gram))
    vals, vecs = np.linalg.eigh(scale[:, None] * gram * scale)
    kept = vals > 1e-10 * vals[-1]
    basis = vecs[:, kept] * scale[:, None]
    pinv = basis @ (basis.T / vals[kept][:, None])
    swaps = [
        [permutation_index_map(Permutation.transposition(n, a, m), dims) for a in range(m)]
        for m in range(1, k)
    ]
    return positions, sizes, pinv, swaps


def _copy_average(x: np.ndarray, swaps: list) -> np.ndarray:
    """(1/k!) sum over S_k of V_pi x V_pi^dagger, one coset level at a time.

    S_m is the union of the cosets (a, m-1) S_(m-1), a < m, so the average
    over S_m is the mean of the average over S_(m-1) and its m - 1
    conjugates by (a, m-1): k(k-1)/2 index remaps instead of k!.
    """
    for level in swaps:
        x = (x + sum(x[np.ix_(f, f)] for f in level)) / (len(level) + 1)
    return x


def commutant_projection(x: np.ndarray, d: int, k: int) -> np.ndarray:
    """Orthogonal projection of x onto the operators on (C^d)^(x (k+1)) that
    commute with U^(x k) (x) conj(U) and with the permutations of the k copies.

    That commutant is the S_k-invariant part of span{V_sigma^(t_k)}, sigma in
    S_(k+1), spanned by the orbit sums B_o of V_sigma^(t_k) under conjugation
    by S_k.  With A the average over S_k conjugation, tr(B_o x) = |o|
    tr(V_sigma_o^(t_k)dagger A(x)) is gathered from A(x) at the positions of
    the representative, and sum_o c_o B_o = A(sum_o c_o |o| V_sigma_o^(t_k)).
    The orbit sums are real, so a complex x is projected as its real and
    imaginary parts; a real x stays real.
    """
    if np.iscomplexobj(x):
        return commutant_projection(x.real, d, k) + 1j * commutant_projection(x.imag, d, k)
    positions, sizes, pinv, swaps = _commutant_tables(d, k)
    dim = positions.shape[1]
    if x.shape != (dim, dim):
        raise ValueError(f"operator shape {x.shape} does not match d={d}, k={k}")
    overlaps = sizes * _copy_average(x, swaps).reshape(-1)[positions].sum(axis=1)
    weights = sizes * (pinv @ overlaps)
    spread = np.bincount(positions.reshape(-1), np.repeat(weights, dim), dim * dim)
    return _copy_average(spread.reshape(dim, dim), swaps)
