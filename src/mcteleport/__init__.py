"""Exact numerics for multicopy qudit teleportation and program retrieval.

The public names and the submodules are bound on first access (PEP 562), so
``import mcteleport`` loads neither numpy nor any submodule, and a CLI run
compiles and imports only the modules its suite calls.  ``core`` holds what
every suite shares, the seeded draws among it; the dense layer, ``tensor``
and ``symgroup`` (every frame computation, the partition type and the
semistandard counts among them), is loaded only by ``lemmas``, by the
one-sample entry points (``simulate``, ``store``, ``retrieve``,
``r_vectors``) and by the names it exports.  ``_EXPORTS`` files each public
name under the one module that defines it.
"""

import importlib

#: Each submodule and the public names it defines.
_EXPORTS = {
    "core": (
        "DEFAULT_ATOL",
        "CapacityError",
        "VerificationError",
        "occupations",
    ),
    "tensor": (
        "DIM_CAP",
        "GROUP_BUDGET",
        "Operator",
        "Permutation",
        "StateVector",
        "conjugate_by_permutation",
        "haar_state",
        "haar_unitary",
        "kron",
        "max_entangled_state",
        "partial_trace",
        "partial_transpose",
        "permute_state",
        "symmetric_group",
    ),
    "symgroup": (
        "Partition",
        "absorption_residual",
        "character",
        "dim_standard",
        "f_projector",
        "mult_semistandard",
        "partitions",
        "removable_boxes",
        "sym_basis",
        "sym_partition",
        "sym_projector",
        "young_projector",
    ),
    "teleport": (
        "Measurement",
        "RVector",
        "build_measurement",
        "conditioned_element",
        "eigendecomposition_residual",
        "gram_residual",
        "r_vectors",
        "simulate",
        "success_probability_formula",
        "verify_theorem",
    ),
    "optimality": (
        "decomposition_coefficients",
        "perturbation_falsifier",
        "reduced_optimum",
    ),
    "sar": (
        "Channel",
        "ProgramState",
        "depolarizing_channel",
        "identity_channel",
        "mix_channels",
        "random_channel",
        "retrieve",
        "store",
        "unitary_channel",
        "verify_sar",
    ),
    "cli": (),
}

#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
