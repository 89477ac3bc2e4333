"""README.md's quick start runs as written, and the claims in its comments hold."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_quick_start_runs_and_its_claims_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    psi = namespace["psi"].vec
    rho = np.outer(psi, psi.conj())
    # p is the last one bound, retrieve's, which the theorem puts at 1/3 as it does simulate's
    assert abs(namespace["p"] - 1 / 3) <= 1e-12
    assert np.linalg.norm(namespace["bob"].mat - rho) <= 1e-12
    assert np.linalg.norm(namespace["out"].mat - namespace["channel"].apply(rho)) <= 1e-12
