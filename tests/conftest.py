"""Let the CLI tests' child processes import the package from this checkout.

``pythonpath`` in pyproject.toml covers imports inside the pytest process;
``python -m mcteleport`` runs in a child process, which sees only the
environment, so ``src`` is put on its PYTHONPATH as well.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
