"""Self-tests of the benchmark: the gate, the tracer's coverage, report determinism.

Run from the repository root with ``python -m pytest perfbench``.  The module
fixture runs each workload's grid three times on one CLI seed (two plain
operations and one traced), about 40 s on a 2-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import run
from gate import Request, check
from traced import FORM_ARGUMENT, TARGETS

SEED = 20240917


def deadline() -> float:
    return time.monotonic() + run.RUN_DEADLINE_S


@pytest.fixture(scope="module")
def small_report() -> tuple[Request, bytes]:
    request = Request("verify", (2,), (1, 2, 3), 3, run.TOL, SEED)
    op = run.run_op(request, deadline())
    assert op.verdict.ok, op.verdict.reason
    return request, op.stdout


@pytest.fixture(scope="module")
def workload_ops(tmp_path_factory) -> dict:
    ops = {}
    for workload in run.WORKLOADS:
        request = run.request_for(workload, SEED)
        spans_path = tmp_path_factory.mktemp(workload) / "spans.jsonl"
        first = run.run_op(request, deadline())
        second = run.run_op(request, deadline())
        traced = run.run_op(request, deadline(), spans_path)
        with open(spans_path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        ops[workload] = (first, second, traced, spans)
    return ops


def _doctored(stdout: bytes, edit) -> bytes:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload).encode()


def test_gate_passes_a_real_report(small_report):
    request, stdout = small_report
    verdict = check(request, 0, stdout)
    assert (verdict.cells, verdict.failed, verdict.skipped) == (3, 0, 0)


def test_gate_counts_a_false_cell_as_failed(small_report):
    request, stdout = small_report

    def flip(payload):
        payload["cells"][1]["pass"] = "false"

    verdict = check(request, 0, _doctored(stdout, flip))
    assert verdict.failed == 1 and not verdict.ok


def test_gate_fails_every_cell_of_a_truncated_report(small_report):
    request, stdout = small_report
    verdict = check(request, 0, stdout[: len(stdout) // 2])
    assert verdict.failed == verdict.cells == 3


def test_gate_fails_every_cell_on_a_nonzero_exit(small_report):
    request, stdout = small_report
    assert check(request, 1, stdout).failed == 3


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["cells"][0].update(p_formula=p["cells"][0]["p_formula"] + 1e-9),
        lambda p: p["cells"][2].update(p_mean=p["cells"][2]["p_formula"] + 1e-6),
        lambda p: p["cells"][0].update(pass_="true"),
        lambda p: p["cells"][1].update({"pass": "skipped"}),
        lambda p: p["cells"].pop(),
        lambda p: p["config"].update(seed=p["config"]["seed"] + 1),
    ],
    ids=["p_formula", "p_mean", "extra-column", "skip-without-detail", "missing-cell", "wrong-seed"],
)
def test_gate_rejects_doctored_cells(small_report, edit):
    request, stdout = small_report
    assert not check(request, 0, _doctored(stdout, edit)).ok


def test_gate_accepts_a_skip_with_its_reason(small_report):
    request, stdout = small_report

    def skip(payload):
        payload["cells"][2].update({"pass": "skipped", "detail": "budget", "p_formula": ""})

    verdict = check(request, 0, _doctored(stdout, skip))
    assert verdict.ok and verdict.skipped == 1


def test_reference_program_prints_its_checksum():
    assert run.measure_reference(deadline()) > 0


def test_wrappers_are_bound_in_every_importing_namespace():
    code = (
        "import json, traced, mcteleport.cli as cli;"
        "from mcteleport import optimality, sar, teleport;"
        "traced.Tracer().install();"
        "names = [(sar, 'build_measurement'), (teleport, 'sym_basis'), (teleport, 'sym_projector'),"
        " (optimality, 'haar_unitary'), (optimality, 'conjugate_by_permutation'), (cli, 'run_cell')];"
        "print(json.dumps({m.__name__ + '.' + n: hasattr(getattr(m, n), '__wrapped__') for m, n in names}))"
    )
    env = run.child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(run.BENCH_DIR), env["PYTHONPATH"]])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
    wrapped = json.loads(out.stdout)
    assert all(wrapped.values()), wrapped


def test_every_wrapped_function_is_hit_by_some_workload(workload_ops):
    expected = {target for target in TARGETS if target not in FORM_ARGUMENT}
    expected |= {f"{target}.{form}" for target in FORM_ARGUMENT for form in ("eigen", "projector")}
    hit = {span["name"] for (_, _, _, spans) in workload_ops.values() for span in spans}
    assert expected <= hit, sorted(expected - hit)


def test_every_per_layer_metric_is_computable():
    names = [metric["name"] for metric in run.load_spec()["per_layer"]]
    values = run.layer_metrics([name for name in names if name != "trace.overhead_s"], [], 1.0)
    assert set(values) == set(names) - {"trace.overhead_s"}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_reports_are_byte_identical(workload_ops, workload):
    first, second, traced, _ = workload_ops[workload]
    assert first.verdict.ok and first.verdict.failed == 0, first.verdict.reason
    assert first.stdout == second.stdout
    assert traced.stdout == first.stdout
