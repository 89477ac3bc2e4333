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
    """Make every builder of a d^(k+1)-square operator raise, in every module that binds it.

    These are ``sym_projector``, ``young_projector``, ``f_projector`` and
    ``Measurement.op``, so a test under this fixture proves that it builds none.
    """
    import mcteleport
    from mcteleport import cli, optimality, sar, symgroup, teleport, tensor

    def unexpected(*args, **kwargs):
        raise AssertionError("dense d^(k+1)-square operator built")

    for name in ("sym_projector", "young_projector", "f_projector"):
        for module in (mcteleport, cli, optimality, sar, symgroup, teleport, tensor):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unexpected)
    monkeypatch.setattr(teleport.Measurement, "op", property(unexpected))
