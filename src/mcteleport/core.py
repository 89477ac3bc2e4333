"""What every suite shares: tolerances, caps, errors, seeded draws, occupation tables and factor distances.

The errors are those a cell ends on.  ``splitmix64`` is the one
construction that turns a seed into numbers, with no ``numpy.random``:
``spawn_keys`` takes a seed's child keys from it, for the cell seeds, the
falsifier's sweep and the samples' streams; ``seeded_normals`` turns each
key into one row of standard normals, each output of the key's stream made
a uniform as numpy makes one (``seeded_uniforms``) and each pair of
uniforms two normals by Box–Muller; ``check_seed`` refuses any other seed.
A row depends on its key alone, so neither chunking nor threads can change
a report.  The theorem holds for every input and every channel, so a
sample needs only to be generic and reproducible from the seed; the tests
pin the stream to a scalar reference and check its distribution.  The
draws turn rows of standard normals into stacks of Haar unitaries or
isometries, by Gram–Schmidt with no LAPACK call, and unit vectors, a
one-sample draw being one on a stack of one key.
``verify``, ``sar`` and ``optimality`` work in symmetric coordinates and on
stacks of samples, so they load this module and never the dense layer
(``tensor``'s layouts and operators, ``symgroup``'s frames, characters and
projectors).  ``tensor`` and ``symgroup`` import what they use from here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Default tolerance for identity-style checks (Frobenius residuals).
DEFAULT_ATOL = 1e-9
#: Largest array, in entries, of the symmetric-coordinate layers: an occupation
#: table, which bounds every table a cell builds from it, and the arrays a chunk of
#: stacked samples holds at once, counted together.
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


def factor_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum_j ||a_j a_j^dagger - b_j b_j^dagger||_F^2) over the rows a_j, b_j of two factors, from them alone.

    With s = a_j - b_j and t = a_j + b_j, each term is (||s||^2 ||t||^2 + Re((t^dagger s)^2)) / 2, two terms
    that are non-negative for real factors: nothing cancels, so the distance is as exact as the difference s.
    """
    s, t = a - b, a + b
    st, ss, tt = (np.einsum("ja,ja->j", x.conj(), y) for x, y in ((t, s), (s, s), (t, t)))
    return float(np.sqrt(np.sum(ss.real * tt.real + (st * st).real) / 2))


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


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer, 0 <= seed < 2^64."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 1 << 64:
        raise ValueError(f"need a 64-bit seed, an integer 0 <= seed < 2^64, got {seed!r}")
    return int(seed)


def spawn_keys(seed: int, n: int) -> np.ndarray:
    """n child keys of a seed (``check_seed``): outputs 1 .. n of ``splitmix64`` from the seed.

    They are distinct: gamma is odd, so the states seed + j gamma mod 2^64
    are, and the finaliser is a bijection, each xorshift and odd multiplier
    being invertible.  Child i's key does not depend on n.
    """
    return splitmix64([check_seed(seed)], n)[0]


def seeded_uniforms(keys, count: int) -> np.ndarray:
    """The first ``count`` uniforms of ``splitmix64`` from each uint64 key s, one row per key.

    Output z_j, j = 1 .. count, gives u_j = (z_j >> 11) 2^-53, a uniform on
    [0, 1) as numpy's Generator makes one.  Besides the output, a uint64
    array of it and one shifted copy are alive at once.
    """
    z = splitmix64(keys, count)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def seeded_normals(keys, width: int) -> np.ndarray:
    """One row of ``width`` standard normals per uint64 key: Box–Muller on its ``seeded_uniforms``.

    Each pair (u_(2i-1), u_(2i)) of a row's uniforms gives the normals
    sqrt(-2 log(1 - u_(2i-1))) (cos, sin)(2 pi u_(2i)) at places 2i - 1 and
    2i; the last is dropped when width is odd.  Besides its output the draw
    holds at most 3 entries per pair, which the chunk counts of ``verify``
    and ``sar`` include.  ``ginibres`` and ``gaussian_vectors`` read a row
    from its head, so a one-sample draw reads the head of its key's row.
    """
    half = -(-width // 2)
    out = seeded_uniforms(keys, 2 * half).reshape(len(keys), half, 2)
    radius = np.log1p(-out[..., 0])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = out[..., 1] * (2 * math.pi)
    np.multiply(radius, np.cos(angle), out=out[..., 0])
    np.multiply(radius, np.sin(angle, out=angle), out=out[..., 1])
    return out.reshape(len(keys), 2 * half)[:, :width]


@lru_cache(maxsize=None)
def occupations(n: int, d: int) -> np.ndarray:
    """Occupation vectors of n factors over d levels, one per row, in ``sym_basis`` order.

    Row i counts how many factors sit at each level in the i-th symmetric
    basis vector; rows run lexicographically decreasing, so the first is
    (n, 0, ..., 0).  There are C(n + d - 1, n) of them; a table of more than
    FACTOR_CAP entries is refused before it is built.  The table grows one
    level at a time: a row with r factors left is repeated r + 1 times and
    its next level takes r, r - 1, .., 0 of them.  Each level keeps its
    column and the parent of each of its rows; the columns are then gathered
    once each, from the last level back, through the composed parent maps.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    count = math.comb(n + d - 1, n)
    if count * d > FACTOR_CAP:
        raise CapacityError(f"occupation table of {count} x {d} entries exceeds cap {FACTOR_CAP}")
    columns, parents, rest = [], [], np.array([n])
    for _ in range(d - 1):
        sizes = rest + 1
        parent = np.repeat(np.arange(rest.size), sizes)
        left = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # 0 .. r within each parent
        columns.append(rest[parent] - left)
        parents.append(parent)
        rest = left
    out = np.empty((rest.size, d), dtype=rest.dtype)
    out[:, -1] = rest
    index = np.arange(rest.size)  # each row's row at the level being filled
    for level in range(d - 2, -1, -1):
        out[:, level] = columns[level][index]
        index = parents[level][index]
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

