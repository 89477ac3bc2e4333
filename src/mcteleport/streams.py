"""The standard normals of each sample, drawn from its child key with numpy array arithmetic alone.

``verify`` and ``sar`` draw sample i of a cell from child i of the cell's
seed: ``core.spawn_keys`` takes every child's key, one 64-bit word, in one
pass, and ``seeded_normals`` turns each key into one row of standard
normals.  The row is ``core.splitmix64``'s stream from that word, the one
construction that turns a seed into numbers, each output made a uniform as
numpy makes one (``seeded_uniforms``) and each pair of uniforms two normals
by Box–Muller.  A row depends on its key alone, so neither chunking nor
threads can change a report, and a one-sample draw reads its seed's row
alone.  The theorem holds for every input and every channel, so a sample
needs only to be generic and reproducible from the seed; the tests pin the
stream to a scalar reference and check its distribution.  No
``numpy.random`` is loaded.
"""

from __future__ import annotations

import math

import numpy as np

from .core import splitmix64


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
