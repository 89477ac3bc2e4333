"""Storage and retrieval of quantum programs via multicopy teleportation.

A channel is stored by applying it to half of a maximally entangled pair;
retrieval measures the multicopy success element on k copies of the input
together with the untouched half, leaving the channel output on the final
register with the teleportation probability k / (d (k - 1 + d)), channel
independent.

``verify_sar`` draws each sample's channel and input from one row of normals
on its own child seed.  A channel enters only through its Stinespring
isometry V: C^d -> C^d_out (x) C^rank, so the row holds a w x d Ginibre
matrix (w = d_out rank), not a w x w one, and Gram–Schmidt of its columns
is V.  The samples are then stored, retrieved and checked together: one
Gram–Schmidt over the stacked Ginibre matrices, as batched matmuls with no
LAPACK call, and every later array carries the samples on a leading axis.
A cell runs in chunks whose arrays, all counted together
(``_sar_sample_entries``), stay within FACTOR_CAP entries, or one sample at
a time past it.  ``store`` and ``retrieve`` are the one-channel case of
``programs`` and ``retrievals``; they import ``tensor`` when called, so
``verify_sar`` loads no dense module, nor does ``random_channel``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_ATOL,
    CapacityError,
    batch_slices,
    check_seed,
    gaussian_vectors,
    ginibres,
    haar_unitaries,
    seeded_normals,
    spawn_keys,
    unit_rows,
)
from .teleport import (
    Measurement,
    _check_floor,
    _check_input,
    _sample_entries,
    build_measurement,
    conditioned_elements,
    success_probability_formula,
)


class Channel:
    """CPTP map as a finite Kraus list of d_out x d_in matrices, each held as a read-only complex copy."""

    __slots__ = ("kraus", "d_in", "d_out")

    def __init__(self, kraus: tuple[np.ndarray, ...], d_in: int, d_out: int):
        if not kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        frozen = []
        for op in kraus:
            arr = np.array(op, dtype=complex)
            if arr.shape != (d_out, d_in):
                raise ValueError(f"Kraus shape {arr.shape} != ({d_out}, {d_in})")
            arr.setflags(write=False)
            frozen.append(arr)
        self.kraus, self.d_in, self.d_out = tuple(frozen), d_in, d_out

    def cptp_defect(self) -> float:
        return float(_cptp_defects(np.stack(self.kraus)[None])[0])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Direct Kraus-sum action; the oracle retrieval is checked against."""
        return sum(op @ rho @ op.conj().T for op in self.kraus)


def identity_channel(d: int) -> Channel:
    return Channel((np.eye(d, dtype=complex),), d, d)


def unitary_channel(u: Operator) -> Channel:
    return Channel((u.mat,), u.dim, u.dim)


def depolarizing_channel(d: int) -> Channel:
    """Complete depolarisation to the maximally mixed state."""
    ops = []
    for i in range(d):
        for j in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[i, j] = 1.0 / math.sqrt(d)
            ops.append(op)
    return Channel(tuple(ops), d, d)


def mix_channels(a: Channel, b: Channel, weight: float) -> Channel:
    """Convex mixture weight * a + (1 - weight) * b as one Kraus list."""
    if a.d_in != b.d_in or a.d_out != b.d_out:
        raise ValueError("mixed channels must share input and output dimensions")
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    ops = tuple(math.sqrt(weight) * op for op in a.kraus)
    ops += tuple(math.sqrt(1.0 - weight) * op for op in b.kraus)
    return Channel(ops, a.d_in, a.d_out)


def _check_dilation(d_in: int, d_out: int, kraus_rank: int) -> None:
    if kraus_rank < 1:
        raise ValueError("kraus_rank must be at least 1")
    if d_out * kraus_rank < d_in:
        raise ValueError(
            f"no isometry into {d_out} x {kraus_rank} dimensions from {d_in}; "
            "increase kraus_rank"
        )


def _stinespring_kraus(isometries: np.ndarray, d_out: int, kraus_rank: int) -> np.ndarray:
    """Kraus stacks S x rank x d_out x d_in from S isometries V, each (d_out rank) x d_in.

    V^dagger V = 1, and slicing the rows of V into rank blocks of d_out
    yields Kraus operators K_i with sum_i K_i^dagger K_i = V^dagger V, so
    the channel is trace preserving to the rounding of V's columns.
    """
    return isometries.reshape(-1, kraus_rank, d_out, isometries.shape[-1])


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed: int) -> Channel:
    """Haar-random channel via a Stinespring isometry of the given rank: ``haar_unitaries`` (Gram–Schmidt,
    twice per column) of the (d_out rank) x d_in ``ginibres`` of the first 2 d_out rank d_in normals of
    ``seeded_normals`` on the one key ``seed``, so ``spawn_keys(cell_seed, n)[i]`` gives sample i's
    channel in ``verify_sar``."""
    _check_dilation(d_in, d_out, kraus_rank)
    width = d_out * kraus_rank
    z = ginibres(seeded_normals([check_seed(seed)], 2 * width * d_in), width, d_in)
    return Channel(tuple(_stinespring_kraus(haar_unitaries(z), d_out, kraus_rank)[0]), d_in, d_out)


class ProgramState(NamedTuple):
    """Stored program: the channel applied to half of the entangled pair."""

    rho: Operator
    d: int
    d_out: int


#: Largest stored program, in entries of its (d d_out)-square density matrix (512 MiB).
PROGRAM_CAP = 2**25


def _check_program(d: int, d_out: int) -> None:
    if (d * d_out) ** 2 > PROGRAM_CAP:
        raise CapacityError(f"program state of {d * d_out} x {d * d_out} entries exceeds cap {PROGRAM_CAP}")


def _cptp_defects(kraus: np.ndarray) -> np.ndarray:
    """||sum_i K_i^dagger K_i - 1||_F of each Kraus stack in S x rank x d_out x d_in."""
    acc = (np.swapaxes(kraus.conj(), -1, -2) @ kraus).sum(axis=1)
    return np.linalg.norm(acc - np.eye(kraus.shape[-1]), axis=(1, 2))


def programs(kraus: np.ndarray, tol: float = DEFAULT_ATOL) -> np.ndarray:
    """The stored program of each Kraus stack in S x rank x d_out x d, as S x (d d_out) x (d d_out).

    (1 (x) K) sum_i |ii>/sqrt(d) = sum_i |i> (x) K|i>/sqrt(d) is vec(K^T)/sqrt(d),
    so with one such row per Kraus operator stacked in B, rho = B^T conj(B).
    The first channel that is not trace preserving within tol raises ValueError.
    """
    defects = _cptp_defects(kraus)
    broken = np.flatnonzero(defects > tol)
    if broken.size:
        raise ValueError(f"channel is not trace preserving: defect {defects[broken[0]]:.3e}")
    samples, rank, d_out, d = kraus.shape
    branches = np.swapaxes(kraus, -1, -2).reshape(samples, rank, d * d_out) / math.sqrt(d)
    return np.swapaxes(branches, 1, 2) @ branches.conj()


def store(channel: Channel, tol: float = DEFAULT_ATOL) -> ProgramState:
    """Apply the channel to the second half of the entangled resource: ``programs`` of one channel.

    A program over PROGRAM_CAP entries is refused before it is built.
    """
    from .tensor import Operator

    _check_program(channel.d_in, channel.d_out)
    rho = programs(np.stack(channel.kraus)[None], tol)[0]
    return ProgramState(Operator(rho, (channel.d_in, channel.d_out)), channel.d_in, channel.d_out)


def retrievals(e: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Retrieve each stored program of ``rhos`` (S x (d d_out) x (d d_out)) with the d x d
    ``conditioned_elements`` E of its input, stacked as S x d x d.

    Returns the success probability estimates and the conditioned outputs,
    tr_A[(E (x) 1) rho], which reproduce the stored channel acting on |psi><psi|.
    """
    d = e.shape[-1]
    d_out = rhos.shape[-1] // d
    blocks = np.einsum("sab,sbxay->sxy", e, rhos.reshape(-1, d, d_out, d, d_out))
    probs = np.trace(blocks, axis1=1, axis2=2).real
    _check_floor(probs)
    return probs, blocks / probs[:, None, None]


def retrieve(
    prog: ProgramState,
    psi: StateVector,
    k: int,
    meas: Measurement | None = None,
) -> tuple[float, Operator]:
    """Measure the success element on k copies of psi plus the stored half: ``retrievals`` of one program.

    Returns the success probability estimate and the conditioned output.
    """
    from .tensor import Operator

    _check_input(psi, prog.d)
    if meas is None:
        meas = build_measurement(prog.d, k, form="eigen")
    elif meas.d != prog.d or meas.k != k:
        raise ValueError("measurement does not match the requested (d, k)")
    probs, out = retrievals(conditioned_elements(meas, psi.vec[None]), prog.rho.mat[None])
    return float(probs[0]), Operator(out[0], (prog.d_out,))


def _sar_sample_entries(d: int, d_out: int, k: int, kraus_rank: int) -> int:
    """Entries per sample of every array a chunk of ``verify_sar`` can hold at once, all counted as
    if alive together: those of ``_sample_entries``, the rest of the draw row and the isometry step
    on w = d_out kraus_rank (the row's 2 w d, the generator's 3 w d temporaries, the w x d Ginibre
    matrix and the isometry, each w d, and Gram–Schmidt's column in hand, its projection and their
    difference, 3 w, with the column's d coefficients and its 2 norm sums), the Kraus stack's
    conjugate, the two copies of its branches and their conjugate (4 w d), the products and sums
    of the CPTP defect (rank d^2 + 2 d^2), the program, and the retrieved and expected outputs
    with K|psi> (4 d_out^2 + w).
    """
    w = d_out * kraus_rank
    isometry = 7 * w * d + 3 * w + d + 2
    kraus = 4 * w * d + kraus_rank * d * d + 2 * d * d
    return _sample_entries(d, k) + isometry + kraus + (d * d_out) ** 2 + 4 * d_out * d_out + w


def _sar_chunk(
    meas: Measurement, keys: np.ndarray, d_out: int, kraus_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Success probabilities and output deviations of the channels and inputs drawn from the children's ``keys``, together.

    Each row of normals holds a w x d Ginibre matrix, w = d_out kraus_rank,
    and then the input; Gram–Schmidt of the matrix's columns
    (``haar_unitaries``) is the channel's Stinespring isometry.  Its arrays
    are released on return, so no two chunks are alive at once.
    """
    d = meas.d
    width = d_out * kraus_rank
    split = 2 * width * d
    x = seeded_normals(keys, split + 2 * d)
    kraus = _stinespring_kraus(haar_unitaries(ginibres(x[:, :split], width, d)), d_out, kraus_rank)
    psis = unit_rows(gaussian_vectors(x[:, split:], d))
    e = conditioned_elements(meas, psis)  # before the programs, so that their arrays are not alive together
    probs, out = retrievals(e, programs(kraus))
    branches = (kraus @ psis[:, None, :, None])[..., 0]  # K_i |psi>, S x rank x d_out
    expected = np.swapaxes(branches, 1, 2) @ branches.conj()
    return probs, np.linalg.norm(out - expected, axis=(1, 2))


class SarReport(NamedTuple):
    d: int
    d_out: int
    k: int
    kraus_rank: int
    samples: int
    seed: int
    p_formula: float
    p_mean: float
    p_std: float
    max_probability_deviation: float
    max_state_deviation: float
    tol: float
    passed: bool
    worst_channel_index: int


def verify_sar(
    d: int,
    d_out: int,
    k: int,
    kraus_rank: int,
    samples: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> SarReport:
    """Monte-Carlo retrieval check over random channels and Haar inputs, refused first over PROGRAM_CAP.

    Each sample fills one row of 2 w d + 2 d standard normals (w = d_out
    kraus_rank) from its own child key of the seed: the real and
    imaginary parts of the w x d Ginibre matrix whose Gram–Schmidt is its
    channel's Stinespring isometry, then those of its input.
    The children's keys, the seed's SplitMix64 outputs, come from
    ``spawn_keys`` in one pass, and
    ``seeded_normals`` draws each chunk's rows, one SplitMix64 stream per
    key, with numpy array arithmetic; ``random_channel`` on child i's key
    forms sample i's channel bit for bit.  The samples are then stored, retrieved and compared
    with the direct Kraus action together, one chunk at a time, so that every
    array a chunk holds (``_sar_sample_entries``) stays within FACTOR_CAP.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_program(d, d_out)
    meas = build_measurement(d, k, form="eigen")
    _check_dilation(d, d_out, kraus_rank)
    p_formula = success_probability_formula(d, k)
    keys = spawn_keys(seed, samples)
    probs = np.empty(samples)
    state_devs = np.empty(samples)
    for part in batch_slices(samples, _sar_sample_entries(d, d_out, k, kraus_rank)):
        probs[part], state_devs[part] = _sar_chunk(meas, keys[part], d_out, kraus_rank)
    p_devs = np.abs(probs - p_formula)
    worst_p, worst_state = float(p_devs.max()), float(state_devs.max())
    passed = bool(worst_p <= tol and worst_state <= tol)
    return SarReport(
        d, d_out, k, kraus_rank, samples, seed, p_formula, float(probs.mean()), float(probs.std()),
        worst_p, worst_state, tol, passed, int(np.argmax(np.maximum(p_devs, state_devs))),
    )
