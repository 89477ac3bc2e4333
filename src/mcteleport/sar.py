"""Storage and retrieval of quantum programs via multicopy teleportation.

A channel is stored by applying it to half of a maximally entangled pair;
retrieval measures the multicopy success element on k copies of the input
together with the untouched half, leaving the channel output on the final
register with the teleportation probability k / (d (k - 1 + d)), channel
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DEFAULT_ATOL,
    CapacityError,
    Operator,
    StateVector,
    VerificationError,
    as_rng,
    haar_state,
    haar_unitary,
)
from .teleport import (
    Measurement,
    P_FLOOR,
    _check_input,
    build_measurement,
    conditioned_element,
    success_probability_formula,
)


@dataclass(frozen=True)
class Channel:
    """CPTP map as a finite Kraus list of d_out x d_in matrices."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        frozen = []
        for op in self.kraus:
            arr = np.array(op, dtype=complex)
            if arr.shape != (self.d_out, self.d_in):
                raise ValueError(f"Kraus shape {arr.shape} != ({self.d_out}, {self.d_in})")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "kraus", tuple(frozen))

    def cptp_defect(self) -> float:
        acc = sum(op.conj().T @ op for op in self.kraus)
        return float(np.linalg.norm(acc - np.eye(self.d_in)))

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


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed: int | np.random.Generator) -> Channel:
    """Haar-random channel via a Stinespring isometry of the given rank.

    The first d_in columns of a Haar unitary on d_out * kraus_rank form an
    isometry; slicing its rows into kraus_rank blocks yields Kraus operators
    which are exactly trace preserving.
    """
    if kraus_rank < 1:
        raise ValueError("kraus_rank must be at least 1")
    if d_out * kraus_rank < d_in:
        raise ValueError(
            f"no isometry into {d_out} x {kraus_rank} dimensions from {d_in}; "
            "increase kraus_rank"
        )
    rng = as_rng(seed)
    big = haar_unitary(d_out * kraus_rank, rng).mat
    isometry = big[:, :d_in]
    blocks = isometry.reshape(kraus_rank, d_out, d_in)
    return Channel(tuple(blocks[i] for i in range(kraus_rank)), d_in, d_out)


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


def store(channel: Channel, tol: float = DEFAULT_ATOL) -> ProgramState:
    """Apply the channel to the second half of the entangled resource.

    (1 (x) K) sum_i |ii>/sqrt(d) = sum_i |i> (x) K|i>/sqrt(d) is vec(K^T)/sqrt(d),
    so with one such row per Kraus operator stacked in B, rho = B^T conj(B).
    A program over PROGRAM_CAP entries is refused before it is built.
    """
    _check_program(channel.d_in, channel.d_out)
    defect = channel.cptp_defect()
    if defect > tol:
        raise ValueError(f"channel is not trace preserving: defect {defect:.3e}")
    d = channel.d_in
    branches = np.stack([op.T.reshape(-1) for op in channel.kraus]) / math.sqrt(d)
    rho = branches.T @ branches.conj()
    return ProgramState(Operator(rho, (d, channel.d_out)), d, channel.d_out)


def retrieve(
    prog: ProgramState,
    psi: StateVector,
    k: int,
    meas: Measurement | None = None,
) -> tuple[float, Operator]:
    """Measure the success element on k copies of psi plus the stored half.

    Returns the success probability estimate and the conditioned output,
    which reproduces the stored channel acting on |psi><psi|.  The output is
    tr_A[(E (x) 1) rho] for the d x d ``conditioned_element`` E and the
    stored program rho on (A, output).
    """
    _check_input(psi, prog.d)
    if meas is None:
        meas = build_measurement(prog.d, k, form="eigen")
    elif meas.d != prog.d or meas.k != k:
        raise ValueError("measurement does not match the requested (d, k)")
    e = conditioned_element(meas, psi)
    rho = prog.rho.mat.reshape(prog.d, prog.d_out, prog.d, prog.d_out)
    block = np.einsum("ab,bxay->xy", e, rho)
    p_est = float(block.trace().real)
    if p_est < P_FLOOR:
        raise VerificationError(f"success probability {p_est:.3e} below floor", p_est)
    return p_est, Operator(block / p_est, (prog.d_out,))


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
    """Monte-Carlo retrieval check over random channels and Haar inputs, refused first over PROGRAM_CAP."""
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_program(d, d_out)
    meas = build_measurement(d, k, form="eigen")
    p_formula = success_probability_formula(d, k)
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    probs = np.empty(samples)
    worst_p = 0.0
    worst_state = 0.0
    worst_index = 0
    for index, child in enumerate(child_seeds):
        rng = np.random.default_rng(child)
        channel = random_channel(d, d_out, kraus_rank, rng)
        psi = haar_state(d, rng)
        prog = store(channel)
        p_est, out = retrieve(prog, psi, k, meas)
        probs[index] = p_est
        expected = channel.apply(np.outer(psi.vec, psi.vec.conj()))
        p_dev = abs(p_est - p_formula)
        state_dev = float(np.linalg.norm(out.mat - expected))
        if max(p_dev, state_dev) > max(worst_p, worst_state):
            worst_index = index
        worst_p = max(worst_p, p_dev)
        worst_state = max(worst_state, state_dev)
    passed = bool(worst_p <= tol and worst_state <= tol)
    return SarReport(
        d, d_out, k, kraus_rank, samples, seed, p_formula, float(probs.mean()), float(probs.std()),
        worst_p, worst_state, tol, passed, worst_index,
    )
