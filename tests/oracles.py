"""Independent brute-force oracles the library tests check against.

Nearly everything here is deliberately naive: different algorithms, different
data representations, no shared code with the package under test.  There are
three exceptions.  The per-sample loops of ``verify_theorem`` and
``verify_sar`` call the package's one-sample ``simulate``, ``store`` and
``retrieve`` once per child seed, as the suites did before they stacked their
samples, each on the one-sample draws of that child's key, a scalar
``splitmix64`` output; the row of normals itself is checked against the
scalar SplitMix64 and Box–Muller reference ``box_muller_normals``.  The dense
helpers no suite runs (``identity_operator``, ``permutation_operator``,
``hermitian_eig``, ``irrep_data``, ``measurement_op``) are built on the
package's value types.  The dense optimality path at the end of the file,
the feasibility functionals ``objective`` and ``equality_residual``, the
Haar-moment check, F, Q and X on (C^d)^(x (k+1)) and the commutant
projection, is built from the package's own operators (each checked
against a naive construction elsewhere in the suite) and cross-checks the
symmetric-coordinate optimality layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial, sqrt

import numpy as np

from mcteleport import (
    Measurement,
    Operator,
    Permutation,
    StateVector,
    VerificationError,
    build_measurement,
    dim_standard,
    eigendecomposition_residual,
    f_projector,
    haar_state,
    mult_semistandard,
    partial_trace,
    partial_transpose,
    partitions,
    random_channel,
    removable_boxes,
    retrieve,
    simulate,
    store,
    success_probability_formula,
    sym_basis,
    sym_partition,
    sym_projector,
    young_projector,
)
from mcteleport.core import DEFAULT_ATOL, Partition, gaussian_vectors, occupation_rank, occupations
from mcteleport.streams import seeded_normals
from mcteleport.tensor import check_capacity, permutation_index_map


def partitions_by_sieve(k: int) -> set[tuple[int, ...]]:
    """All partitions of k found by filtering compositions, as a set."""
    found: set[tuple[int, ...]] = set()

    def grow(remaining: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            found.add(tuple(sorted(prefix, reverse=True)))
            return
        for first in range(1, remaining + 1):
            grow(remaining - first, prefix + (first,))

    grow(k, ())
    return found


def standard_tableaux_count(shape: tuple[int, ...]) -> int:
    """Count standard fillings by explicit backtracking over cells."""
    cells = [(i, j) for i, row_len in enumerate(shape) for j in range(row_len)]
    n = len(cells)
    filling: dict[tuple[int, int], int] = {}

    def admissible(cell: tuple[int, int], value: int) -> bool:
        i, j = cell
        if j > 0 and (i, j - 1) not in filling:
            return False
        if i > 0 and (i - 1, j) not in filling:
            return False
        return True

    count = 0

    def place(value: int) -> None:
        nonlocal count
        if value > n:
            count += 1
            return
        for cell in cells:
            if cell in filling or not admissible(cell, value):
                continue
            filling[cell] = value
            place(value + 1)
            del filling[cell]

    place(1)
    return count


def semistandard_tableaux_count(shape: tuple[int, ...], d: int) -> int:
    """Count semistandard fillings with entries 1..d by backtracking."""
    rows = len(shape)

    def fill(i: int, j: int, tableau: list[list[int]]) -> int:
        if i == rows:
            return 1
        if j == shape[i]:
            return fill(i + 1, 0, tableau)
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])
        if i > 0:
            lo = max(lo, tableau[i - 1][j] + 1)
        total = 0
        for value in range(lo, d + 1):
            tableau[i].append(value)
            total += fill(i, j + 1, tableau)
            tableau[i].pop()
        return total

    return fill(0, 0, [[] for _ in range(rows)])


def dense_permutation_matrix(images: tuple[int, ...], d: int) -> np.ndarray:
    """Explicit loop construction of the factor-permutation matrix."""
    n = len(images)
    dims = (d,) * n
    total = d**n
    inverse = [0] * n
    for i, image in enumerate(images):
        inverse[image] = i
    mat = np.zeros((total, total), dtype=complex)
    for col in range(total):
        digits = np.unravel_index(col, dims)
        permuted = tuple(digits[inverse[i]] for i in range(n))
        row = int(np.ravel_multi_index(permuted, dims))
        mat[row, col] = 1.0
    return mat


def sign_of_permutation(images: tuple[int, ...]) -> int:
    seen = [False] * len(images)
    sign = 1
    for start in range(len(images)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def frobenius_distance(a: np.ndarray, b: np.ndarray, rows: int = 256) -> float:
    """||a - b||_F by summing squared moduli over row blocks of two dense matrices."""
    total = 0.0
    for start in range(0, a.shape[0], rows):
        diff = a[start : start + rows] - b[start : start + rows]
        total += float(np.sum(diff.real**2 + diff.imag**2))
    return float(np.sqrt(total))


def group_average_symmetriser(n: int, d: int) -> np.ndarray:
    """(1/n!) sum over S_n of the explicit permutation matrices on (C^d)^(x n).

    Every sigma in S_m factors uniquely as (a m-1) tau with tau fixing the
    last letter, so the sum over S_m is sum_a V_(a m-1) (sum over S_(m-1)
    (x) 1).  Each of the n! matrices enters once, but only m dense
    transposition matrices are built per level, which keeps n = 8 cheap.
    """
    total = np.ones((1, 1), dtype=complex)
    for m in range(1, n + 1):
        lifted = np.kron(total, np.eye(d))
        total = np.zeros_like(lifted)
        for a in range(m):
            images = list(range(m))
            images[a], images[m - 1] = m - 1, a
            total += dense_permutation_matrix(tuple(images), d) @ lifted
    return total / factorial(n)


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _is_border_strip(boxes: set[tuple[int, int]]) -> bool:
    """Edge-connected and free of 2 x 2 squares."""
    if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= boxes for i, j in boxes):
        return False
    start = next(iter(boxes))
    reached, frontier = {start}, [start]
    while frontier:
        i, j = frontier.pop()
        for step in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if step in boxes and step not in reached:
                reached.add(step)
                frontier.append(step)
    return reached == boxes


@functools.lru_cache(maxsize=None)
def character_by_border_strips(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama rule by brute force on the diagram.

    Every sub-diagram with cycles[0] boxes fewer is tried; it counts when the
    boxes it leaves form a border strip, with sign (-1)^(rows of the strip - 1).
    """
    if not cycles:
        return 1
    boxes = {(i, j) for i, row in enumerate(shape) for j in range(row)}
    total = 0
    for inner in partitions_by_sieve(sum(shape) - cycles[0]):
        if len(inner) > len(shape) or any(part > shape[i] for i, part in enumerate(inner)):
            continue
        strip = boxes - {(i, j) for i, row in enumerate(inner) for j in range(row)}
        if _is_border_strip(strip):
            rows = len({i for i, _ in strip})
            total += (-1) ** (rows - 1) * character_by_border_strips(inner, cycles[1:])
    return total


def young_projector_by_group_sum(mu: tuple[int, ...], d: int) -> np.ndarray:
    """(d_mu / k!) sum over S_k of chi_mu(sigma) V_sigma, summed for this frame alone.

    Every entry of the sum is an integer, so the order of the terms cannot
    change a bit of the result.
    """
    k = sum(mu)
    dims = (d,) * k
    digits = np.indices(dims).reshape(k, -1)
    cols = np.arange(digits.shape[1])
    acc = np.zeros((len(cols), len(cols)))
    for images in permutations(range(k)):
        moved = np.empty_like(digits)
        moved[list(images)] = digits  # factor m's digit goes to factor images[m]
        acc[np.ravel_multi_index(tuple(moved), dims), cols] += character_by_border_strips(mu, _cycle_type(images))
    acc *= standard_tableaux_count(mu) / factorial(k)
    return acc


def dense_conditional_output(m: np.ndarray, psi: np.ndarray, k: int, rho: np.ndarray) -> np.ndarray:
    """tr_Alice[(M (x) 1)(|psi><psi|^(x k) (x) rho)] for a dense M on k copies and A.

    rho lives on (A, output).  It acts as the identity on the copies, so the
    copies are traced out of M (|psi><psi|^(x k) (x) 1_A) first, leaving a
    d x d operator G on A; then A is traced out of (G (x) 1) rho.  Both
    traces are explicit sums over the diagonal of the traced factor.
    """
    d = psi.shape[0]
    d_out = rho.shape[0] // d
    copies = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        copies = np.kron(copies, np.outer(psi, psi.conj()))
    on_alice = (m @ np.kron(copies, np.eye(d))).reshape(d**k, d, d**k, d)
    g = sum(on_alice[i, :, i, :] for i in range(d**k))
    joint = (np.kron(g, np.eye(d_out)) @ rho).reshape(d, d_out, d, d_out)
    return sum(joint[a, :, a, :] for a in range(d))


def dense_success_element(d: int, k: int) -> np.ndarray:
    """d k/(k-1+d) (Psym (x) 1)(1 (x) P+)(Psym (x) 1) with every factor written out.

    Psym is the group average of explicit permutation matrices and P+ the
    outer product of sum_i |ii> / sqrt(d); the products are formed densely.
    """
    psym = group_average_symmetriser(k, d)
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    q = np.kron(psym, np.eye(d))
    middle = np.kron(np.eye(d ** (k - 1)), np.outer(phi, phi))
    return d * k / (k - 1 + d) * (q @ middle @ q)


def kron_program_state(kraus: list[np.ndarray], d: int) -> np.ndarray:
    """sum_K (1 (x) K)|phi><phi|(1 (x) K)^dagger with |phi> = sum_i |ii>/sqrt(d), via np.kron."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    total = 0
    for op in kraus:
        branch = np.kron(np.eye(d), op) @ phi
        total = total + np.outer(branch, branch.conj())
    return total


def identity_operator(dims: tuple[int, ...]) -> Operator:
    return Operator(np.eye(math.prod(dims)), dims)


def permutation_operator(sigma: Permutation, d: int) -> Operator:
    """Dense 0/1 matrix of the factor permutation on ``n`` qudits of dim d."""
    dims = (d,) * sigma.n
    total = math.prod(dims)
    check_capacity(total)
    f = permutation_index_map(sigma, dims)
    mat = np.zeros((total, total))
    mat[f, np.arange(total)] = 1.0
    return Operator(mat, dims)


def hermitian_eig(x: Operator, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, Operator]:
    """Eigendecomposition of a Hermitian operator.

    Returns ascending real eigenvalues and the unitary of eigenvectors
    (columns), tagged with the input layout.
    """
    defect = x.hermiticity_defect()
    if defect > atol:
        raise ValueError(f"operator is not Hermitian: defect {defect:.3e} > {atol:.1e}")
    vals, vecs = np.linalg.eigh(x.mat)
    return vals, Operator(vecs, x.dims)


@dataclass(frozen=True)
class IrrepData:
    """Tableau counts attached to one frame at a fixed local dimension."""

    partition: Partition
    d_mu: int
    m_mu: int


def irrep_data(mu: Partition, d: int) -> IrrepData:
    return IrrepData(mu, dim_standard(mu), mult_semistandard(mu, d))


def measurement_op(meas: Measurement) -> Operator:
    """The dense success element M = F F^dagger on (C^d)^(x (k+1)) of a ``Measurement``'s thin factor,
    F = (B (x) 1) G with B the stacked ``sym_basis(k, d)``; refused past DIM_CAP."""
    dims = (meas.d,) * (meas.k + 1)
    check_capacity(math.prod(dims))
    b = np.column_stack([s.vec for s in sym_basis(meas.k, meas.d)])
    g = np.zeros((b.shape[1] * meas.d, len(meas.rows)), dtype=meas.values.dtype)
    g[meas.rows, np.arange(len(meas.rows))[:, None]] = meas.values
    full = (b @ g.reshape(b.shape[1], -1)).reshape(math.prod(dims), -1)
    return Operator(full @ full.conj().T, dims)


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 from ``seed``, one Python int at a time."""
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ z >> 31)
    return out


def splitmix64_uniforms(seed: int, count: int) -> list[float]:
    """The first ``count`` outputs of ``splitmix64`` from ``seed``, each made a uniform on [0, 1)
    from its top 53 bits as numpy's Generator makes one."""
    return [(z >> 11) / 2**53 for z in splitmix64(seed, count)]


def box_muller_normals(seed: int, width: int) -> list[float]:
    """``width`` standard normals from successive pairs (u1, u2) of ``splitmix64_uniforms``:
    sqrt(-2 log(1 - u1)) times cos and then sin of 2 pi u2, with ``math``'s functions."""
    uniforms = splitmix64_uniforms(seed, width + width % 2)
    out = []
    for u1, u2 in zip(uniforms[::2], uniforms[1::2]):
        radius = math.sqrt(-2.0 * math.log1p(-u1))
        out += [radius * math.cos(math.tau * u2), radius * math.sin(math.tau * u2)]
    return out[:width]


def verify_theorem_by_loop(d: int, k: int, samples: int, tol: float, seed: int) -> dict:
    """``verify_theorem`` as a loop over samples: one ``haar_state`` and one ``simulate`` per child seed."""
    meas = build_measurement(d, k)
    p_formula = success_probability_formula(d, k)
    probs, fids = [], []
    for key in splitmix64(seed, samples):
        psi = haar_state(d, key)
        p_est, bob = simulate(psi, meas)
        probs.append(p_est)
        fids.append(float(np.real(psi.vec.conj() @ bob.mat @ psi.vec)))
    deviation = max(abs(p - p_formula) for p in probs)
    passed = deviation <= tol and min(fids) >= 1.0 - tol and eigendecomposition_residual(d, k) <= tol
    return {
        "p_mean": float(np.mean(probs)),
        "max_probability_deviation": deviation,
        "min_fidelity": min(fids),
        "passed": passed,
    }


def verify_sar_by_loop(d: int, d_out: int, k: int, kraus_rank: int, samples: int, tol: float, seed: int) -> dict:
    """``verify_sar`` as a loop over samples: one channel, input, ``store`` and ``retrieve`` per child seed.

    The channel is ``random_channel`` of the child's key, and the input the
    unit vector of the Gaussian vector at the tail of that key's row."""
    meas = build_measurement(d, k)
    p_formula = success_probability_formula(d, k)
    probs, state_devs = [], []
    head = 2 * d_out * kraus_rank * d
    for key in splitmix64(seed, samples):
        channel = random_channel(d, d_out, kraus_rank, key)
        v = gaussian_vectors(seeded_normals([key], head + 2 * d)[0, head:], d)
        psi = StateVector(v / np.linalg.norm(v), (d,))
        p_est, out = retrieve(store(channel), psi, k, meas)
        probs.append(p_est)
        state_devs.append(float(np.linalg.norm(out.mat - channel.apply(np.outer(psi.vec, psi.vec.conj())))))
    p_dev = max(abs(p - p_formula) for p in probs)
    return {
        "p_mean": float(np.mean(probs)),
        "max_probability_deviation": p_dev,
        "max_state_deviation": max(state_devs),
        "passed": p_dev <= tol and max(state_devs) <= tol,
    }


def haar_isometries_by_qr(z: np.ndarray) -> np.ndarray:
    """Haar isometries from a stack of w x d Ginibre matrices, w >= d: LAPACK's reduced QR of each, phases fixed.

    Each R's diagonal is divided out to unit modulus, so each Q is the one of
    Z = QR with R's diagonal positive (Mezzadri, Notices AMS 54, 2007), by
    Householder reflections rather than Gram–Schmidt.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary_by_qr(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: ``haar_isometries_by_qr`` of one d x d complex Ginibre matrix."""
    return haar_isometries_by_qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def covariant_unitary(u: np.ndarray, k: int) -> np.ndarray:
    """U^(x k) (x) conj(U) as an explicit Kronecker product."""
    w = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        w = np.kron(w, u)
    return np.kron(w, u.conj())


def _row_map(images: tuple[int, ...], d: int) -> np.ndarray:
    """Row of the single one in each column of the factor-permutation matrix.

    Column j is the ket whose factor m carries digit j_m; its image carries
    j_m in factor images[m].
    """
    n = len(images)
    digits = np.indices((d,) * n).reshape(n, -1)
    moved = np.empty_like(digits)
    moved[list(images)] = digits
    return np.ravel_multi_index(tuple(moved), (d,) * n)


def copy_average(x: np.ndarray, d: int, k: int) -> np.ndarray:
    """Mean of V_pi x V_pi^dagger over all k! permutations pi of the first k factors."""
    total = np.zeros_like(x, dtype=complex)
    count = 0
    for pi in permutations(range(k)):
        rows = _row_map(pi + (k,), d)
        moved = np.empty_like(total)
        moved[np.ix_(rows, rows)] = x
        total += moved
        count += 1
    return total / count


def haar_twirl(x: np.ndarray, d: int, k: int, samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo commutant twirl: the exact copy average, then the mean of
    W (.) W^dagger over `samples` Haar unitaries W = U^(x k) (x) conj(U)."""
    rng = np.random.default_rng(seed)
    averaged = copy_average(x, d, k)
    total = np.zeros_like(averaged)
    for _ in range(samples):
        w = covariant_unitary(haar_unitary_by_qr(d, rng), k)
        total += w @ averaged @ w.conj().T
    return total / samples


def _transpose_last(y: np.ndarray, d: int, n: int) -> np.ndarray:
    """Swap the row and column index of the last of n factors."""
    axes = list(range(2 * n))
    axes[n - 1], axes[2 * n - 1] = 2 * n - 1, n - 1
    return y.reshape((d,) * (2 * n)).transpose(axes).reshape(y.shape)


def partially_transposed_overlap(y: np.ndarray, images: tuple[int, ...], d: int) -> complex:
    """tr(V_sigma^(t_last)^dagger y) = sum over the ones of V_sigma of y^(t_last).

    V_sigma is real, so the overlap is the sum of y^(t_last) at the ones of
    V_sigma, one per column, in the rows given by ``_row_map``.
    """
    rows = _row_map(images, d)
    return complex(_transpose_last(y, d, len(images))[rows, np.arange(len(rows))].sum())


def commutant_orbit_sums(d: int, k: int) -> list[np.ndarray]:
    """Explicit sums of V_sigma^(t_k) over the orbits of S_(k+1) under conjugation by S_k.

    Each orbit is found by brute force, as the set of all pi sigma pi^-1.
    """
    n = k + 1
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for sigma in permutations(range(n)):
        conjugates = []
        for pi in permutations(range(k)):
            pi = pi + (k,)
            inverse = [pi.index(i) for i in range(n)]
            conjugates.append(tuple(pi[sigma[inverse[i]]] for i in range(n)))
        orbits.setdefault(min(conjugates), []).append(sigma)
    sums = []
    for members in orbits.values():
        total = 0
        for sigma in members:
            total = total + _transpose_last(dense_permutation_matrix(sigma, d), d, n)
        sums.append(total)
    return sums


def occupations_by_sorting(n: int, d: int) -> list[tuple[int, ...]]:
    """Distinct digit counts of all d^n kets of n factors, sorted decreasingly."""
    counts = set()
    for ket in itertools.product(range(d), repeat=n):
        counts.add(tuple(ket.count(level) for level in range(d)))
    return sorted(counts, reverse=True)


def occupations_by_recursion(n: int, d: int) -> np.ndarray:
    """``symgroup.occupations`` as first written: one block per leading occupation, the rest recursively."""
    if d == 1:
        return np.array([[n]])
    blocks = []
    for first in range(n, -1, -1):
        rest = occupations_by_recursion(n - first, d - 1)
        blocks.append(np.column_stack([np.full(len(rest), first), rest]))
    return np.concatenate(blocks)


def multinomial_by_combs(counts) -> int:
    """(sum of counts)! / prod of counts!, exactly, as one chain of ``math.comb`` factors."""
    out, total = 1, 0
    for c in counts:
        total += c
        out *= comb(total, c)
    return out


def sqrt_multinomials_by_combs(d: int, k: int) -> np.ndarray:
    """``teleport._sqrt_multinomials`` as first written: one ``multinomial_by_combs`` per occupation."""
    return np.sqrt(np.array([float(multinomial_by_combs(occ)) for occ in occupations_by_recursion(k, d).tolist()]))


def sym_basis_by_loop(n: int, d: int) -> np.ndarray:
    """Occupation-number basis of the symmetric subspace as columns, one Python step per ket.

    Each column is the uniform superposition of the kets sharing one
    occupation vector, in lexicographically decreasing occupation order.
    """
    total = d**n
    multi = np.indices((d,) * n).reshape(n, total)
    by_occupation: dict[tuple[int, ...], list[int]] = {}
    for j in range(total):
        occ = tuple(int(np.count_nonzero(multi[:, j] == level)) for level in range(d))
        by_occupation.setdefault(occ, []).append(j)
    columns = []
    for occ in sorted(by_occupation, reverse=True):
        members = by_occupation[occ]
        v = np.zeros(total, dtype=complex)
        v[members] = 1.0 / np.sqrt(len(members))
        columns.append(v)
    return np.column_stack(columns)


def sandwich_rows_by_count(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``teleport._sandwich_rows`` as first written: each row counts its levels with ``tuple.count``
    and recomputes the multinomial of its occupation and of every grown one with ``math.comb``.
    """
    column = {occ: i * d for i, occ in enumerate(map(tuple, occupations(k, d).tolist()))}
    width = comb(k - 2 + d, k - 1)
    columns, entries = np.empty((width, d), dtype=np.intp), np.empty((width, d))
    for row, levels in enumerate(itertools.combinations_with_replacement(range(d), k - 1)):
        base = [levels.count(a) for a in range(d)]
        mult = multinomial_by_combs(base)
        for a in range(d):
            grown = base[:a] + [base[a] + 1] + base[a + 1 :]
            columns[row, a] = column[tuple(grown)] + a
            entries[row, a] = sqrt(mult / (d * multinomial_by_combs(grown)))
    return columns, entries


def full_eigen_factor(d: int, k: int) -> np.ndarray:
    """The eigenbasis of the success element on all d^(k+1) coordinates, stacked.

    Column i is sqrt(d/(k (k-1+d))) sum_a V_(a k-1) (s_i (x) |phi>), with s_i
    the i-th symmetric basis vector of k-1 factors and the transposition
    applied by moving entries along ``_row_map``.
    """
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    scale = np.sqrt(d / (k * (k - 1 + d)))
    swaps = []
    for a in range(k):
        images = list(range(k + 1))
        images[a], images[k - 1] = k - 1, a
        swaps.append(_row_map(tuple(images), d))
    columns = []
    for s in sym_basis_by_loop(k - 1, d).T:
        base = np.kron(s, phi)
        total = np.zeros_like(base)
        for rows in swaps:
            total[rows] += base
        columns.append(scale * total)
    return np.column_stack(columns)


def full_projector_factor(d: int, k: int) -> np.ndarray:
    """sqrt(d k/(k-1+d)) (B (x) 1) R^dagger on all d^(k+1) coordinates.

    B stacks the symmetric basis of k factors and R is the triangular factor
    of Z^dagger, one row per ket y of k-1 factors:
    Z^dagger[y, (j, a)] = B[(y, a), j] / sqrt(d).
    """
    b = sym_basis_by_loop(k, d)
    m = b.shape[1]
    z_dag = b.reshape(d ** (k - 1), d, m).transpose(0, 2, 1).reshape(d ** (k - 1), m * d)
    r_dag = np.linalg.qr(z_dag / np.sqrt(d), mode="r").conj().T
    thin = (b @ r_dag.reshape(m, -1)).reshape(d ** (k + 1), -1)
    return np.sqrt(d * k / (k - 1 + d)) * thin


def dense_falsifier_candidate(
    f: np.ndarray, q: np.ndarray, x: np.ndarray, direction: np.ndarray, d: int, scale: float = 1.0
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """One perturbation trial on dense matrices.

    F moves by ``scale`` along the unit-Frobenius ``direction``; ``eigh``
    clips its spectrum into [0, 1]; the shield 1 - (Q - F) compresses it
    from both sides; and at d > 1 a multiple of Q - F zeroes the constraint
    gap tr(Q M)/m_k - tr(X M)/m_(k+1), with d m_k = tr(Q) and
    m_(k+1) = tr(X).  Returns the candidate, its objective tr(Q M)/tr(Q),
    its Frobenius distance from F and its spectrum from ``eigvalsh``.
    """
    ps = q - f
    q_trace, m_k1 = float(np.trace(q)), float(np.trace(x))

    def gap(m: np.ndarray) -> float:
        return d * float(np.sum(q * m.T)) / q_trace - float(np.sum(x * m.T)) / m_k1

    vals, vecs = np.linalg.eigh(f + scale * direction / np.linalg.norm(direction))
    clipped = (vecs * np.clip(vals, 0.0, 1.0)) @ vecs.T
    shield = np.eye(len(f)) - ps
    target = shield @ clipped @ shield
    if d > 1:  # at d = 1, Q - F is empty and so is the gap
        target -= gap(target) / gap(ps) * ps
    objective = float(np.sum(q * target.T)) / q_trace
    return target, objective, float(np.linalg.norm(target - f)), np.linalg.eigvalsh(target)


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
    m_sym = mult_semistandard(sym_partition(k), d)
    target = sym_projector(k, d).mat / m_sym
    total = d**k
    acc = np.zeros((total, total), dtype=complex)
    for key in splitmix64(seed, samples):
        psi = haar_state(d, key).vec
        copies = functools.reduce(np.kron, [psi] * k)
        acc += np.outer(copies, copies.conj())
    acc /= samples
    mc_residual = float(np.linalg.norm(acc - target))
    sym = sym_projector(k, d).mat
    exact_residual = float(np.linalg.norm(sym @ target @ sym - target))
    return MomentReport(d, k, samples, mc_residual, exact_residual)


@functools.lru_cache(maxsize=8)
def success_projector(d: int, k: int) -> np.ndarray:
    """F = F_(k)((k-1)), the optimal measurement, as the dense ``measurement_op``."""
    return measurement_op(build_measurement(d, k)).mat


@functools.lru_cache(maxsize=8)
def sym_with_identity(d: int, k: int) -> np.ndarray:
    """Q: Psym on the k copy factors, tensored with the identity on A."""
    return np.kron(sym_projector(k, d).mat, np.eye(d))


@functools.lru_cache(maxsize=8)
def transposed_symmetriser(d: int, k: int) -> np.ndarray:
    """X: Psym on k+1 factors, partially transposed on the last factor."""
    return partial_transpose(sym_projector(k + 1, d), {k}).mat


def _trace_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a b) without forming the product."""
    return float(np.einsum("ij,ji->", a, b).real)


def dense_coefficients(d: int, k: int) -> tuple[float, float | None, float]:
    """c1, c2 (None at d = 1) and ||Q (X - c1 F - c2 (Q - F)) Q||_F from the dense F, Q and X."""
    x, f, q = transposed_symmetriser(d, k), success_projector(d, k), sym_with_identity(d, k)
    c1 = _trace_pair(x, f) / float(f.trace())
    delta = x - c1 * f
    c2 = None
    if d > 1:
        c2 = _trace_pair(x, q - f) / float((q - f).trace())
        delta -= c2 * (q - f)
    return c1, c2, float(np.linalg.norm(q @ delta @ q))


def dense_family_traces(d: int, k: int) -> tuple[float, float, float, float]:
    """Objectives tr(Q M)/(d m_k) and gaps tr(Q M)/m_k - tr(X M)/m_(k+1) of M = F and M = Q - F."""
    x, f, q = transposed_symmetriser(d, k), success_projector(d, k), sym_with_identity(d, k)
    m_k, m_k1 = (mult_semistandard(sym_partition(n), d) for n in (k, k + 1))
    objective = [_trace_pair(q, m) / (d * m_k) for m in (f, q - f)]
    gap = [_trace_pair(q, m) / m_k - _trace_pair(x, m) / m_k1 for m in (f, q - f)]
    return objective[0], objective[1], gap[0], gap[1]


def dense_generator(d: int, k: int, p: int, q: int) -> np.ndarray:
    """sum over the k copies of E_pq on that copy, minus E_qp on the last factor, by np.kron."""
    unit = np.zeros((d, d))
    unit[p, q] = 1.0
    total = np.zeros((d ** (k + 1),) * 2)
    for copy in range(k):
        total += np.kron(np.kron(np.eye(d**copy), unit), np.eye(d ** (k - copy)))
    return total - np.kron(np.eye(d**k), unit.T)


@functools.lru_cache(maxsize=None)
def commutant_blocks(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal projectors Pi_b of the commutant of S_k x (U^(x k) (x) conj(U)), on their support.

    (C^d)^(x k) (x) conj(C^d) is multiplicity-free under that group (Pieri
    rule), so the commutant is spanned by orthogonal projectors: for every
    frame mu of k with at most d rows, F_mu(alpha) for each alpha = mu minus
    one box, of rank d_mu m_alpha, and (P_mu (x) 1) - sum_alpha F_mu(alpha),
    of rank d_mu (d m_mu - sum_alpha m_alpha) when that is not zero.  A
    diagonal unitary gives each ket a phase fixed by its weight, the
    occupation of the copies minus the level of the last factor, so no block
    links kets of different weights.  Returns the flat positions where row
    and column weights agree, one row of values there per block, and the ranks.

    Before returning, it certifies that each Pi_b is symmetric and
    idempotent with trace rank_b and that the Pi_b sum to 1, each within
    DEFAULT_ATOL in Frobenius norm, so sum_b c_b Pi_b has spectrum the c_b.
    """
    dim = d ** (k + 1)
    digits = np.indices((d,) * (k + 1)).reshape(k + 1, dim)
    levels = np.arange(d)
    # one more on every level makes the weight an occupation vector
    weight = occupation_rank((digits[:k, :, None] == levels).sum(axis=0) - (digits[k, :, None] == levels) + 1)
    positions = np.flatnonzero(weight[:, None] == weight)
    rows, cols = np.divmod(positions, dim)
    values, ranks = [], []
    for mu in partitions(k):
        if len(mu) > d:
            continue
        d_mu = dim_standard(mu)
        # P_mu (x) 1 at the positions, without the dense Kronecker product
        complement = young_projector(mu, d).mat[rows // d, cols // d] * (rows % d == cols % d)
        m_rest = d * mult_semistandard(mu, d)
        for alpha in removable_boxes(mu):
            m_alpha = mult_semistandard(alpha, d)
            block = f_projector(mu, alpha, d).mat.reshape(-1)[positions]
            complement -= block
            m_rest -= m_alpha
            values.append(block)
            ranks.append(d_mu * m_alpha)
        if m_rest:
            values.append(complement)
            ranks.append(d_mu * m_rest)
    values, ranks = np.array(values), np.array(ranks)
    # Squared Frobenius norms add up over the weight classes.
    squares, traces, completeness = np.zeros((2, len(ranks))), np.zeros(len(ranks)), 0.0
    for label in np.unique(weight):
        kets = np.flatnonzero(weight == label)
        sub = values[:, np.searchsorted(positions, kets[:, None] * dim + kets)]
        squares[0] += ((sub - sub.transpose(0, 2, 1)) ** 2).sum(axis=(1, 2))
        squares[1] += ((sub @ sub - sub) ** 2).sum(axis=(1, 2))
        completeness += ((sub.sum(axis=0) - np.eye(len(kets))) ** 2).sum()
        traces += np.trace(sub, axis1=1, axis2=2)
    worst = float(max(np.sqrt(squares.max()), np.sqrt(completeness), np.abs(traces - ranks).max()))
    if worst > DEFAULT_ATOL:
        raise VerificationError(
            f"commutant blocks at d={d}, k={k} are not orthogonal projectors summing to 1: {worst:.3e}", worst
        )
    return positions, values, ranks


def commutant_projection(x: np.ndarray, d: int, k: int) -> np.ndarray:
    """Orthogonal projection of x onto the operators on (C^d)^(x (k+1)) that
    commute with U^(x k) (x) conj(U) and with the permutations of the k copies.

    With the orthogonal projectors Pi_b of ``commutant_blocks``, P(x) =
    sum_b tr(Pi_b x) / rank_b Pi_b.  The Pi_b are real and symmetric, so a
    complex x needs no split and a real x stays real.
    """
    dim = d ** (k + 1)
    if x.shape != (dim, dim):
        raise ValueError(f"operator shape {x.shape} does not match d={d}, k={k}")
    positions, values, ranks = commutant_blocks(d, k)
    out = np.zeros(x.shape, dtype=np.result_type(x, values))
    out.reshape(-1)[positions] = (values @ x.reshape(-1)[positions] / ranks) @ values
    return out
