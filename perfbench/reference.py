"""Fixed reference work that gauges the host's speed; it uses no mcteleport code.

Usage: python perfbench/reference.py

``run.py`` runs this in a fresh interpreter before and after every timed
operation and divides each timing by it, so that the host's CPU speed, which
drifts by tens of percent within minutes on a shared host, cancels out.  The mix follows the
CLI's: interpreter start and ``import numpy``, a pure-Python loop over the 8!
permutations (as ``sym_projector`` does), thousands of tiny numpy calls (as
``simulate`` and ``retrieve`` do), a dense Hermitian eigensolve (BLAS/LAPACK)
and a 64 MiB fill and copy (memory bandwidth).  It prints a checksum line that
``run.py`` compares with ``CHECKSUM``, so a broken numpy cannot pass as a fast
host.
"""

from __future__ import annotations

import itertools

import numpy as np

CHECKSUM = "3951360 4194304"


def main() -> None:
    rng = np.random.default_rng(12345)
    loop = 0
    for perm in itertools.permutations(range(8)):
        loop += sum(i * p for i, p in enumerate(perm))
    small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    vec = np.ones(8, dtype=complex)
    for _ in range(3000):
        vec = small @ vec
        vec /= np.linalg.norm(vec)
    dense = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    np.linalg.eigvalsh(dense @ dense.conj().T)
    big = np.ones((1024, 4096), dtype=complex)
    copied = big.copy()
    print(loop, int(copied.real.sum()))


if __name__ == "__main__":
    main()
