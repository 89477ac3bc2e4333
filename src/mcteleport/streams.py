"""The PCG64 streams of the children of one ``SeedSequence``, reached without numpy objects per child.

``verify`` and ``sar`` draw sample i of a cell from child i of
``SeedSequence(seed)``.  SeedSequence's hashing (numpy NEP 19) and PCG64's
seeding (O'Neill 2014) are fixed algorithms, so ``spawn_keys`` computes the
children's states in one pass and ``seeded_normals`` sets each on one reused
generator: the numbers are those of ``default_rng(child)``, bit for bit.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .tensor import CapacityError

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: numpy's SeedSequence (NEP 19): pool size in 32-bit words and its hashing constants.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: Multiplier of the 128-bit LCG under PCG64 (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """init mult^j mod 2^32 for j = 0 .. count: the hash constants SeedSequence steps through, in order."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def spawn_keys(seed: int, n: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each child of ``SeedSequence(seed).spawn(n)``, one uint64 row each.

    Child i hashes the seed's 32-bit words, zero-padded to the pool of 4,
    and then its spawn key i.  All but the key is shared, so that part is
    hashed once with Python ints; the key, one word below 2^32 children, is
    mixed in and the 8 output words hashed as uint32 array operations over
    all children at once, which wrap as numpy's C code does.
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
    xor, mult = np.array([next(hashes) for _ in range(_POOL)], dtype=np.uint32).T
    key = (np.arange(n, dtype=np.uint32)[:, None] ^ xor) * mult
    key ^= key >> 16
    pool = np.array([_MIX_L * p & _MASK32 for p in pool], dtype=np.uint32) - key * np.uint32(_MIX_R)  # one per child
    pool ^= pool >> 16
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    xor, mult = np.array([consts[:-1], consts[1:]], dtype=np.uint32).reshape(2, 2, _POOL)  # 8 words: the pool twice
    state = (pool[:, None, :] ^ xor) * mult
    state ^= state >> 16
    return state.reshape(n, 2 * _POOL).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def pcg64_state(key: Sequence[int]) -> dict[str, int]:
    """The ``state`` and ``inc`` that PCG64 seeds from one row of ``spawn_keys``, as its ``state["state"]`` holds them.

    PCG64 takes the key's first and second 128-bit halves as its seed and
    stream, (s, t): inc = 2 t + 1 and, after two steps of the LCG of
    multiplier a from 0, state = (inc + s) a + inc mod 2^128.
    """
    s_hi, s_lo, t_hi, t_lo = key
    inc = (t_hi << 65 | t_lo << 1 | 1) & _MASK128
    return {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}


def seeded_normals(keys: np.ndarray, width: int) -> np.ndarray:
    """One row of ``width`` standard normals per row of ``spawn_keys``: what ``default_rng(child).standard_normal`` draws.

    Each row's ``pcg64_state`` is set on one reused PCG64, and the row is
    filled by one call on one reused Generator, so no SeedSequence, bit
    generator or Generator is made per row.  A Generator yields the same
    numbers in the same order however they are split between calls, so a
    row holds exactly what successive ``ginibre`` and ``gaussian_vector``
    draws from that child would take; ``ginibres`` and ``gaussian_vectors``
    read them back in that layout.
    """
    rows = np.empty((len(keys), width))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).standard_normal
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys.tolist(), rows):
        state["state"] = pcg64_state(key)
        bits.state = state
        draw(out=row)
    return rows
