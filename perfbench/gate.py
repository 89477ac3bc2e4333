"""Correctness gate for one ``mcteleport`` report.

An operation counts only after its report passes: exit code 0, a JSON report
whose config echoes the request and whose cells cover the requested (d, k)
grid in order with exactly the fixed CSV columns (plus ``detail``), every cell
``true`` or ``skipped`` with a detail, ``p_formula`` equal to
k / (d (k - 1 + d)) to 1e-12, and ``|p_mean - p_formula| <= tol`` for the
``verify`` and ``sar`` suites.  A nonzero exit or an unreadable report fails
every requested cell.  The expected values are written out here, not imported
from the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

CSV_COLUMNS = ("d", "k", "p_formula", "p_mean", "p_std", "eig_residual", "c1", "c2", "pass", "seconds")
FORMULA_TOL = 1e-12


def _range_text(values: tuple[int, ...]) -> str:
    """The CLI's range syntax: 'N', 'A..B' when contiguous, else a comma list."""
    if len(values) == 1:
        return str(values[0])
    if list(values) == list(range(values[0], values[-1] + 1)):
        return f"{values[0]}..{values[-1]}"
    return ",".join(map(str, values))


@dataclass(frozen=True)
class Request:
    """One CLI invocation: suite, grid, samples, tolerance and seed."""

    suite: str
    d_values: tuple[int, ...]
    k_values: tuple[int, ...]
    samples: int
    tol: float
    seed: int

    def argv(self) -> list[str]:
        return [
            self.suite,
            "--d", _range_text(self.d_values),
            "--k", _range_text(self.k_values),
            "--samples", str(self.samples),
            "--tol", repr(self.tol),
            "--seed", str(self.seed),
            "--threads", "1",
            "--no-timestamp",
            "--format", "json",
        ]

    def cells(self) -> list[tuple[int, int]]:
        return [(d, k) for d in self.d_values for k in self.k_values]


@dataclass(frozen=True)
class Verdict:
    cells: int
    failed: int
    skipped: int
    reason: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def formula(d: int, k: int) -> float:
    return k / (d * (k - 1 + d))


def _cell_problem(request: Request, cell: dict, d: int, k: int) -> str | None:
    keys = set(cell)
    if keys - {"detail"} != set(CSV_COLUMNS):
        return f"columns {sorted(keys)}"
    if (cell["d"], cell["k"]) != (d, k):
        return f"cell ({cell['d']}, {cell['k']}) where ({d}, {k}) was expected"
    outcome = cell["pass"]
    if outcome == "skipped":
        return None if isinstance(cell.get("detail"), str) and cell["detail"] else "skipped without a detail"
    if outcome != "true":
        return f"pass={outcome!r}: {cell.get('detail', '')}"
    p_formula = cell["p_formula"]
    if not isinstance(p_formula, (int, float)) or abs(p_formula - formula(d, k)) > FORMULA_TOL:
        return f"p_formula {p_formula!r} != {formula(d, k)!r}"
    p_mean = cell["p_mean"]
    # sar reports p_mean empty; the check applies wherever a suite reports it.
    needs_mean = request.suite == "verify" or (request.suite == "sar" and p_mean != "")
    if needs_mean and (not isinstance(p_mean, (int, float)) or abs(p_mean - p_formula) > request.tol):
        return f"p_mean {p_mean!r} off p_formula {p_formula!r} by more than {request.tol}"
    return None


def check(request: Request, returncode: int, stdout: bytes) -> Verdict:
    """Gate one report; every cell of the grid fails if the report is unusable."""
    expected = request.cells()

    def unusable(reason: str) -> Verdict:
        return Verdict(len(expected), len(expected), 0, reason)

    if returncode != 0:
        return unusable(f"exit code {returncode}")
    try:
        payload = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return unusable(f"unparsable report: {exc}")
    if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
        return unusable("report has no cell list")
    config = payload.get("config")
    if not isinstance(config, dict):
        return unusable("report has no config")
    echoed = (config.get("suite"), config.get("d"), config.get("k"), config.get("samples"), config.get("seed"))
    wanted = (request.suite, list(request.d_values), list(request.k_values), request.samples, request.seed)
    if echoed != wanted:
        return unusable(f"config {echoed} does not echo the request {wanted}")
    cells = payload["cells"]
    if len(cells) != len(expected) or not all(isinstance(cell, dict) for cell in cells):
        return unusable(f"{len(cells)} cells where {len(expected)} were expected")
    failed = skipped = 0
    reasons = []
    for cell, (d, k) in zip(cells, expected):
        problem = _cell_problem(request, cell, d, k)
        if problem:
            failed += 1
            reasons.append(f"d={d} k={k}: {problem}")
        elif cell["pass"] == "skipped":
            skipped += 1
    if payload.get("pass") is not True:
        reasons.append(f"overall pass flag {payload.get('pass')!r}")
        failed = max(failed, 1)
    return Verdict(len(expected), failed, skipped, "; ".join(reasons))
