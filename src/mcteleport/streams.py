"""The PCG64 streams of the children of one ``SeedSequence``, reached without numpy objects per child.

``verify`` and ``sar`` draw sample i of a cell from child i of
``SeedSequence(seed)``.  PCG64's seeding (O'Neill 2014) is a fixed
algorithm, so ``pcg64_state`` turns each child's key from ``core.spawn_keys``
into the state ``default_rng(child)`` starts from, and ``seeded_normals``
sets each on one reused generator: the numbers are those of
``default_rng(child)``, bit for bit.  ``verify`` and ``sar`` load
``numpy.random`` through this module; ``optimality`` imports neither.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK128 = (1 << 128) - 1
#: Multiplier of the 128-bit LCG under PCG64 (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
