"""What every suite shares: tolerances, caps, errors, seed keys, stacked draws and occupation tables.

The errors are those a cell ends on; ``spawn_keys`` hashes a seed's
spawned children as numpy's ``SeedSequence`` does (NEP 19), with no
``numpy.random``, for the cell seeds, the falsifier's sweep and the
samples' streams; the draws turn rows of standard normals into stacks of
Haar unitaries or isometries, by Gram–Schmidt with no LAPACK call, and unit
vectors; the partition counts are the semistandard ones.  ``verify``, ``sar``
and ``optimality`` work in symmetric coordinates and on stacks of samples, so
they load this module and never the dense layer (``tensor``'s layouts and
operators, ``symgroup``'s characters and projectors).  ``tensor`` and
``symgroup`` import what they use from here.
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


_MASK32 = 0xFFFFFFFF
#: numpy's SeedSequence (NEP 19): pool size in 32-bit words and its hashing constants.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """init mult^j mod 2^32 for j = 0 .. count: the hash constants SeedSequence steps through, in order."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def spawn_keys(seed: int, n: int) -> np.ndarray:
    """``generate_state(1, np.uint64)[0]`` of each child of ``SeedSequence(seed).spawn(n)``, one uint64 each.

    Child i hashes the seed's 32-bit words, zero-padded to the pool of 4,
    and then its spawn key i.  All but the key is shared, so that part is
    hashed once with Python ints; the key, one word below 2^32 children, is
    mixed into the pool's first 2 words, which alone make the first output
    word, and those 2 hashed, as uint32 array operations over all children
    at once, which wrap as numpy's C code does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if n > 1 << 32:
        raise CapacityError(f"{n} children need spawn keys of more than one 32-bit word")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (len(words) + 1))
    hashes = iter(zip(consts, consts[1:]))  # one (xor, multiplier) pair per hashmix

    def hashmix(value: int) -> int:
        xor, mult = next(hashes)
        value = (value ^ xor) * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    xor, mult = np.array([next(hashes) for _ in range(2)], dtype=np.uint32).T  # the key's hashes into words 0, 1
    key = (np.arange(n, dtype=np.uint32)[:, None] ^ xor) * mult
    key ^= key >> 16
    pool = np.array([_MIX_L * p & _MASK32 for p in pool[:2]], dtype=np.uint32) - key * np.uint32(_MIX_R)
    pool ^= pool >> 16
    consts = _hash_consts(_INIT_B, _MULT_B, 2)
    state = (pool ^ np.array(consts[:-1], dtype=np.uint32)) * np.array(consts[1:], dtype=np.uint32)
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False).reshape(n)


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
