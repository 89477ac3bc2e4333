"""What every suite shares: tolerances, caps, errors, seed keys, stacked draws and occupation tables.

The errors are those a cell ends on; ``splitmix64`` is the one
construction that turns a seed into numbers, with no ``numpy.random``:
``spawn_keys`` takes a seed's child keys from it, for the cell seeds, the
falsifier's sweep and the samples' streams, and ``streams`` makes each
key's row of normals from it; the draws turn rows of standard normals into
stacks of Haar unitaries or isometries, by Gram–Schmidt with no LAPACK
call, and unit vectors; the partition counts are the semistandard ones.
``verify``, ``sar`` and ``optimality`` work in symmetric coordinates and on
stacks of samples, so they load this module and never the dense layer
(``tensor``'s layouts and operators, ``symgroup``'s characters and
projectors).  ``tensor`` and ``symgroup`` import what they use from here.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

#: Default tolerance for identity-style checks (Frobenius residuals).
DEFAULT_ATOL = 1e-9
#: Largest array, in entries, of the symmetric-coordinate layers: a measurement's
#: insertion table, an occupation table, and the arrays a chunk of stacked samples
#: holds at once, counted together.
FACTOR_CAP = 2**21


class CapacityError(ValueError):
    """Requested object exceeds the configured dimension or group budget."""


class VerificationError(RuntimeError):
    """A numerical certification failed.  Carries the offending residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def batch_slices(count: int, entries: int) -> list[slice]:
    """Consecutive slices of ``count`` samples whose working sets of ``entries`` entries
    per sample stay within FACTOR_CAP together; one sample per slice when one is already larger.
    """
    step = max(1, FACTOR_CAP // entries)
    return [slice(start, start + step) for start in range(0, count, step)]


def _complex_normals(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Complex normals of ``shape`` from the first 2 prod(shape) floats of each row of x: real parts, then imaginary parts."""
    n, lead = math.prod(shape), x.shape[:-1]
    return x[..., :n].reshape(lead + shape) + 1j * x[..., n : 2 * n].reshape(lead + shape)


def ginibres(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols complex Ginibre matrix, variance 1, of each row of at least 2 rows cols standard normals."""
    return _complex_normals(x, (rows, cols)) / math.sqrt(2)


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar isometries from a stack of w x d Ginibre matrices, w >= d: Gram–Schmidt, twice per column.

    Each column of Z loses its projections onto Q's earlier columns twice, by
    batched matmuls, and is then normalised: classical Gram–Schmidt run twice
    keeps Q orthonormal to rounding (Giraud, Langou and Rozložník, Comput.
    Math. Appl. 50, 2005).  Q is that of Z = QR with R's diagonal positive, so
    it is Haar with no phase fix (Mezzadri, Notices AMS 54, 2007).  Column j
    needs only Z's first j + 1 columns, so a w x d z gives the first d columns
    of the unitary of any square z that extends it.
    """
    q = np.empty_like(z)
    for j in range(z.shape[-1]):
        v, done = z[..., None, :, j], q[..., :j]  # column j as a 1 x w row, and Q's columns before it
        for _ in range(2 if j else 0):
            v = v - (v.conj() @ done).conj() @ np.swapaxes(done, -1, -2)
        q[..., j] = unit_rows(v[..., 0, :])
    return q


def gaussian_vectors(x: np.ndarray, d: int) -> np.ndarray:
    """The complex Gaussian d-vector of each row of at least 2 d standard normals."""
    return _complex_normals(x, (d,))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each real row, as BLAS dot products (the rounding of ``np.linalg.norm`` on one vector)."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Each complex vector along the last axis over its norm, rounded as ``np.linalg.norm`` rounds one vector."""
    return v / np.sqrt(_sq_norms(v.real) + _sq_norms(v.imag))[..., None]


#: SplitMix64's increment, the odd integer nearest 2^64 over the golden ratio.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Multipliers of its finaliser, Stafford's variant 13 of MurmurHash3's.
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def splitmix64(states, count: int) -> np.ndarray:
    """Outputs 1 .. count of SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) from each uint64 state s, a row each.

    Output j is z_j = mix(s + j gamma mod 2^64), mix the finaliser, as uint64
    array operations over all rows at once, which wrap without a warning.
    """
    z = np.asarray(states, dtype=np.uint64)[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def spawn_keys(seed: int, n: int) -> np.ndarray:
    """n child keys of a seed, 0 <= seed < 2^64 or ValueError: outputs 1 .. n of ``splitmix64`` from the seed.

    They are distinct: gamma is odd, so the states seed + j gamma mod 2^64
    are, and the finaliser is a bijection, each xorshift and odd multiplier
    being invertible.  Child i's key does not depend on n.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"need a 64-bit seed, 0 <= seed < 2^64, got {seed}")
    return splitmix64([seed], n)[0]


@lru_cache(maxsize=None)
def occupations(n: int, d: int) -> np.ndarray:
    """Occupation vectors of n factors over d levels, one per row, in ``sym_basis`` order.

    Row i counts how many factors sit at each level in the i-th symmetric
    basis vector; rows run lexicographically decreasing, so the first is
    (n, 0, ..., 0).  There are C(n + d - 1, n) of them; a table of more than
    FACTOR_CAP entries is refused before it is built.  The table grows one
    level at a time: a row with r factors left is repeated r + 1 times and
    its next level takes r, r - 1, .., 0 of them.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    count = math.comb(n + d - 1, n)
    if count * d > FACTOR_CAP:
        raise CapacityError(f"occupation table of {count} x {d} entries exceeds cap {FACTOR_CAP}")
    columns, rest = [], np.array([n])
    for _ in range(d - 1):
        sizes = rest + 1
        parent = np.repeat(np.arange(rest.size), sizes)
        left = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # 0 .. r within each parent
        columns = [column[parent] for column in columns] + [rest[parent] - left]
        rest = left
    out = np.column_stack(columns + [rest])
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
    span = range(int(tails.max()) + 1)  # table[j, t] = C(t + d - j - 2, d - j - 1), at most C(n + d - 2, n - 1)
    table = np.array([[math.comb(t + r - 1, r) for t in span] for r in range(d - 1, 0, -1)], dtype=np.intp)
    return table[np.arange(d - 1), tails].sum(axis=-1)


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
