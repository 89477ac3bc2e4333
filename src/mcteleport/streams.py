"""The standard normals of each sample, drawn from its child key with numpy array arithmetic alone.

``verify`` and ``sar`` draw sample i of a cell from child i of the cell's
seed: ``core.spawn_keys`` hashes every child's key, one 64-bit word, in one
pass, and ``seeded_normals`` turns each key into one row of standard
normals.  The row is the SplitMix64 stream (Steele, Lea and Flood, OOPSLA
2014) seeded with that word, each output made a uniform as numpy
makes one (``seeded_uniforms``) and each pair of uniforms two normals by
Box–Muller.  A row depends on its key alone, so neither chunking nor
threads can change a report.  The theorem holds for every input and every
channel, so a sample needs only to be generic and reproducible from the
seed; the tests pin the stream to a scalar reference and check its
distribution.  No ``numpy.random`` is loaded.
"""

from __future__ import annotations

import math

import numpy as np

#: SplitMix64's increment, the odd integer nearest 2^64 over the golden ratio.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Multipliers of its finaliser, Stafford's variant 13 of MurmurHash3's.
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def seeded_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uniforms of SplitMix64 from each key s of ``spawn_keys``, one row per key.

    Output j = 1 .. count is z_j = mix(s + j gamma mod 2^64), and
    u_j = (z_j >> 11) 2^-53 is a uniform on [0, 1) as numpy's Generator
    makes one.  Every step is a uint64 array operation over all rows at once
    (uint64 arrays wrap mod 2^64 without a warning); besides the output, a
    uint64 array of it and one shifted copy are alive at once.
    """
    z = keys[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def seeded_normals(keys: np.ndarray, width: int) -> np.ndarray:
    """One row of ``width`` standard normals per key of ``spawn_keys``: Box–Muller on its ``seeded_uniforms``.

    Each pair (u_(2i-1), u_(2i)) of a row's uniforms gives the normals
    sqrt(-2 log(1 - u_(2i-1))) (cos, sin)(2 pi u_(2i)) at places 2i - 1 and
    2i; the last is dropped when width is odd.  Besides its output the draw
    holds at most 3 entries per pair, which the chunk counts of ``verify``
    and ``sar`` include.  ``ginibres`` and ``gaussian_vectors`` read a row in
    the layout successive one-sample draws take it.
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
