"""Shared test setup.

Lets the CLI tests' child processes import the package from this checkout:
``pythonpath`` in pyproject.toml covers imports inside the pytest process;
``python -m mcteleport`` runs in a child process, which sees only the
environment, so ``src`` is put on its PYTHONPATH as well.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def forbid_dense_builders(monkeypatch):
    """Make every builder of a dense F, Q or symmetriser raise, to prove a cell skips before them."""
    from mcteleport import optimality, symgroup

    def unexpected(*args, **kwargs):
        raise AssertionError("dense operator built on a cell over the group budget")

    for module, name in [(optimality, "_success_projector"), (optimality, "_sym_with_identity"),
                         (optimality, "sym_projector"), (symgroup, "sym_projector")]:
        monkeypatch.setattr(module, name, unexpected)
