"""Dense linear algebra over tensor products of qudit spaces.

Conventions used throughout the package:

* A subsystem layout is a tuple of local dimensions ``dims``; factor 0 is the
  most significant slot of the computational-basis index, consistent with
  row-major reshapes and ``numpy.kron``.
* Basis labels run ``0 .. d-1`` per factor.
* A permutation ``sigma`` acts on basis kets by moving factor contents:
  ``V_sigma |v_0 .. v_{n-1}>`` is the ket whose i-th factor carries
  ``v_{sigma^{-1}(i)}``.  Permutations are applied by index remapping, never
  by materialising permutation matrices inside loops.
* An array's dtype follows its data: float64 for the permutation algebra,
  complex only where Haar states, unitaries and channels enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _sn_iter
from typing import Iterable, Iterator

import numpy as np

from .core import CapacityError, check_seed, gaussian_vectors, ginibres, haar_unitaries, seeded_normals, unit_rows

#: Largest ambient dimension constructed without raising CapacityError.
DIM_CAP = 65536
#: Largest factorial group iterated when assembling group averages.
GROUP_BUDGET = 8


def check_capacity(dim: int) -> None:
    if dim > DIM_CAP:
        raise CapacityError(f"ambient dimension {dim} exceeds cap {DIM_CAP}")


def check_group_budget(n: int) -> None:
    if n > GROUP_BUDGET:
        raise CapacityError(
            f"symmetric group on {n} letters ({math.factorial(n)} elements) "
            f"exceeds budget {GROUP_BUDGET}"
        )


def _validate_dims(dims: tuple[int, ...]) -> None:
    if any((not isinstance(d, (int, np.integer))) or d < 1 for d in dims):
        raise ValueError(f"layout dimensions must be positive integers, got {dims}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    out = np.array(arr, dtype=np.result_type(arr, float), order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Permutation:
    """Bijection on ``{0, .., n-1}``; ``images[i]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on 0..{len(self.images) - 1}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return cls(tuple(images))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return ``self @ other``, acting as other first: (s*o)(i) = s(o(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(tuple(inv))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths (fixed points included), sorted decreasingly."""
        seen = [False] * self.n
        lengths = []
        for start in range(self.n):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """Iterate over S_n in lexicographic image order; checks the budget on the call."""
    check_group_budget(n)
    return (Permutation(images) for images in _sn_iter(range(n)))


@dataclass(frozen=True)
class StateVector:
    """Dense real or complex vector tagged with a subsystem layout."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = _freeze(self.vec)
        if arr.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        _validate_dims(self.dims)
        if arr.size != math.prod(self.dims):
            raise ValueError(f"vector size {arr.size} does not match layout {self.dims}")
        object.__setattr__(self, "vec", arr)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def dim(self) -> int:
        return self.vec.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.vec, other.vec))

    def projector(self) -> "Operator":
        return Operator(np.outer(self.vec, self.vec.conj()), self.dims)


@dataclass(frozen=True)
class Operator:
    """Dense real or complex square matrix tagged with a subsystem layout."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = _freeze(self.mat)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        _validate_dims(self.dims)
        if arr.shape[0] != math.prod(self.dims):
            raise ValueError(f"matrix dim {arr.shape[0]} does not match layout {self.dims}")
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(self.mat.trace())

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.mat - self.mat.conj().T))

    def projector_defect(self) -> float:
        return float(np.linalg.norm(self.mat @ self.mat - self.mat))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def apply(self, state: StateVector) -> StateVector:
        if state.dims != self.dims:
            raise ValueError(f"layout mismatch: {self.dims} vs {state.dims}")
        return StateVector(self.mat @ state.vec, self.dims)


def kron(a: Operator | StateVector, b: Operator | StateVector):
    """Tensor product; the layout is the concatenation of the layouts."""
    dims = a.dims + b.dims
    check_capacity(math.prod(dims))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.mat, b.mat), dims)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.vec, b.vec), dims)
    raise TypeError("kron arguments must both be Operators or both StateVectors")


def _check_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(i) for i in subset)))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"factor indices {idx} out of range for {n} factors")
    return idx


def partial_trace(x: Operator, traced: Iterable[int]) -> Operator:
    """Trace out the given factors; the kept factors preserve their order."""
    traced_idx = _check_subset(traced, len(x.dims))
    if not traced_idx:
        return x
    n = len(x.dims)
    keep = [i for i in range(n) if i not in traced_idx]
    tensor = x.mat.reshape(x.dims + x.dims)
    row_labels = list(range(n))
    col_labels = [i if i in traced_idx else n + i for i in range(n)]
    out_labels = keep + [n + i for i in keep]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    new_dims = tuple(x.dims[i] for i in keep)
    side = math.prod(new_dims)
    return Operator(reduced.reshape(side, side), new_dims)


def partial_transpose(x: Operator, subset: Iterable[int]) -> Operator:
    """Transpose the given factors in the computational basis."""
    idx = _check_subset(subset, len(x.dims))
    if not idx:
        return x
    n = len(x.dims)
    tensor = x.mat.reshape(x.dims + x.dims)
    axes = [n + i if i in idx else i for i in range(n)]
    axes += [i if i in idx else n + i for i in range(n)]
    return Operator(tensor.transpose(axes).reshape(x.mat.shape), x.dims)


def permutation_index_map(sigma: Permutation, dims: tuple[int, ...]) -> np.ndarray:
    """Index map f with ``V_sigma e_j = e_{f[j]}`` on the layout ``dims``.

    All factors permuted together must share a dimension, otherwise the
    remapping would not be an endomorphism of the layout.
    """
    n = len(dims)
    if sigma.n != n:
        raise ValueError(f"permutation on {sigma.n} letters vs {n} factors")
    for i, im in enumerate(sigma.images):
        if dims[i] != dims[im]:
            raise ValueError("permuted factors must have equal dimensions")
    total = math.prod(dims)
    multi = np.array(np.unravel_index(np.arange(total), dims))
    inv = np.array(sigma.inverse().images)
    return np.ravel_multi_index(tuple(multi[inv]), dims)


def permute_state(sigma: Permutation, state: StateVector) -> StateVector:
    """Apply the factor permutation to a state by axis remapping."""
    if not state.dims:
        return state
    if sigma.n != len(state.dims):
        raise ValueError(f"permutation on {sigma.n} letters vs {len(state.dims)} factors")
    axes = sigma.inverse().images
    for i, im in enumerate(sigma.images):
        if state.dims[i] != state.dims[im]:
            raise ValueError("permuted factors must have equal dimensions")
    return StateVector(state.vec.reshape(state.dims).transpose(axes).reshape(-1), state.dims)


def conjugate_by_permutation(sigma: Permutation, x: Operator) -> Operator:
    """V_sigma X V_sigma^dagger via row and column index remapping."""
    f = permutation_index_map(sigma, x.dims)
    finv = np.empty_like(f)
    finv[f] = np.arange(f.size)
    return Operator(x.mat[np.ix_(finv, finv)], x.dims)


def max_entangled_state(d: int) -> StateVector:
    """The two-qudit state with Schmidt-uniform weights 1/sqrt(d) on |ii>."""
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    return StateVector(np.eye(d).reshape(-1) / math.sqrt(d), (d, d))


def haar_unitary(d: int, seed: int) -> Operator:
    """Haar-distributed unitary: ``haar_unitaries`` of the d x d ``ginibres`` of the first 2 d^2 normals
    of ``seeded_normals`` on the one key ``seed``, that 64-bit integer's own SplitMix64 row."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return Operator(haar_unitaries(ginibres(seeded_normals([check_seed(seed)], 2 * d * d), d, d))[0], (d,))


def haar_state(d: int, seed: int) -> StateVector:
    """Haar-uniform pure state: ``unit_rows`` of the ``gaussian_vectors`` of the first 2 d normals of
    ``seeded_normals`` on the one key ``seed``, so ``spawn_keys(cell_seed, n)[i]`` gives sample i's
    input in ``verify_theorem``."""
    return StateVector(unit_rows(gaussian_vectors(seeded_normals([check_seed(seed)], 2 * d), d))[0], (d,))
