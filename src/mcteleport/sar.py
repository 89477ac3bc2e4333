"""Storage and retrieval of quantum programs via multicopy teleportation.

A channel is stored by applying it to half of a maximally entangled pair;
retrieval measures the multicopy success element on k copies of the input
together with the untouched half, leaving the channel output on the final
register with the teleportation probability k / (d (k - 1 + d)), channel
independent.

``verify_sar`` draws each sample's channel (a Ginibre matrix) and input with
one call on its own child seed, then stores, retrieves and checks the
samples together: one QR over the stacked Ginibre matrices, and every later
array carries the samples on a leading axis.  A cell runs in chunks whose
arrays, all counted together (``_sar_sample_entries``), stay within
FACTOR_CAP entries, or one sample at a time past it.  ``store`` and
``retrieve`` are the one-channel case of ``programs`` and ``retrievals``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import seeded_normals, spawn_keys
from .tensor import (
    DEFAULT_ATOL,
    CapacityError,
    Operator,
    StateVector,
    batch_slices,
    gaussian_vectors,
    ginibre,
    ginibres,
    haar_unitaries,
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


@dataclass(frozen=True)
class Channel:
    """CPTP map as a finite Kraus list of d_out x d_in matrices."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        frozen = []
        for op in self.kraus:
            arr = np.array(op, dtype=complex)
            if arr.shape != (self.d_out, self.d_in):
                raise ValueError(f"Kraus shape {arr.shape} != ({self.d_out}, {self.d_in})")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "kraus", tuple(frozen))

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


def _stinespring_kraus(unitaries: np.ndarray, d_in: int, d_out: int, kraus_rank: int) -> np.ndarray:
    """Kraus stacks S x rank x d_out x d_in from S unitaries on d_out * rank dimensions.

    The first d_in columns of each unitary form an isometry; slicing its rows
    into rank blocks yields Kraus operators which are exactly trace preserving.
    """
    return unitaries[..., :d_in].reshape(-1, kraus_rank, d_out, d_in)


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed: int | np.random.Generator) -> Channel:
    """Haar-random channel via a Stinespring isometry of the given rank."""
    _check_dilation(d_in, d_out, kraus_rank)
    kraus = _stinespring_kraus(haar_unitaries(ginibre(d_out * kraus_rank, seed)), d_in, d_out, kraus_rank)[0]
    return Channel(tuple(kraus), d_in, d_out)


@dataclass(frozen=True)
class ProgramState:
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
    _check_input(psi, prog.d)
    if meas is None:
        meas = build_measurement(prog.d, k, form="eigen")
    elif meas.d != prog.d or meas.k != k:
        raise ValueError("measurement does not match the requested (d, k)")
    probs, out = retrievals(conditioned_elements(meas, psi.vec[None]), prog.rho.mat[None])
    return float(probs[0]), Operator(out[0], (prog.d_out,))


def _sar_sample_entries(d: int, d_out: int, k: int, kraus_rank: int) -> int:
    """Entries per sample of every array a chunk of ``verify_sar`` can hold at once, all counted as
    if alive together: those of ``_sample_entries``, the rest of the draw row and the Haar step on
    w = d_out kraus_rank (the row's 2 w^2, the Ginibre matrix, LAPACK's copy of it, Q, R and the
    unitaries), the Kraus stack's conjugate, the two copies of its branches and their conjugate
    (4 w d), the products and sums of the CPTP defect (rank d^2 + 2 d^2), the program, and the
    retrieved and expected outputs with K|psi> (4 d_out^2 + w).
    """
    w = d_out * kraus_rank
    kraus = 4 * w * d + kraus_rank * d * d + 2 * d * d
    return _sample_entries(d, k) + 7 * w * w + kraus + (d * d_out) ** 2 + 4 * d_out * d_out + w


def _sar_chunk(
    meas: Measurement, keys: np.ndarray, d_out: int, kraus_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Success probabilities and output deviations of the channels and inputs drawn from the children's ``keys``, together.

    Its arrays are released on return, so no two chunks are alive at once.
    """
    d = meas.d
    width = d_out * kraus_rank
    split = 2 * width * width
    x = seeded_normals(keys, split + 2 * d)
    kraus = _stinespring_kraus(haar_unitaries(ginibres(x[:, :split], width)), d, d_out, kraus_rank)
    psis = unit_rows(gaussian_vectors(x[:, split:], d))
    e = conditioned_elements(meas, psis)  # before the programs, so that their arrays are not alive together
    probs, out = retrievals(e, programs(kraus))
    branches = (kraus @ psis[:, None, :, None])[..., 0]  # K_i |psi>, S x rank x d_out
    expected = np.swapaxes(branches, 1, 2) @ branches.conj()
    return probs, np.linalg.norm(out - expected, axis=(1, 2))


@dataclass(frozen=True)
class SarReport:
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

    Each sample fills one row of 2 w^2 + 2 d standard normals (w = d_out
    kraus_rank) with one draw from its own child of ``SeedSequence(seed)``:
    the real and imaginary parts of its channel's Ginibre matrix, then those
    of its input, the numbers ``random_channel`` and then ``haar_state`` take
    from that child.  The children's generator keys come from ``spawn_keys``
    in one pass, and ``seeded_normals`` seeds one reused generator from each
    chunk's keys.  The samples are then stored, retrieved and compared
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
