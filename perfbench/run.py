"""Seeded benchmark of the ``mcteleport`` verification CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Users run the CLI as a batch: one process, one (d, k) grid, one report.  So a
workload is a closed loop with one client, and one operation is one fresh
``python -m mcteleport <suite> ... --threads 1 --no-timestamp --format json``
process on the workload's grid.  After one untimed warm-up operation,
operations start back to back while the next is expected to end within
``--seconds``; each one's CLI seed is drawn from ``--seed``.
BLAS and OpenMP threads are pinned to 1 in every child, which gives the plain
single-threaded baseline and keeps CLI threads and BLAS threads from
oversubscribing the cores.  Every report goes through ``gate.check`` before
its time counts.

With ``--trace 0`` the run prints the end-to-end metrics listed in
BENCHMARK.json: median wall time and peak RSS of an operation, the median
start-up time of a fresh interpreter importing the package (``setup_s``), and
the shares of attempted cells that passed the gate and that ran rather than
being skipped.  Each operation is bracketed by runs of ``reference.py``, a
fixed program that uses no package code, for at least a quarter of the previous
operation's time, and both timings are reported in reference seconds: measured
time x ``REF_S`` / the reference time around it.  The host's CPU speed drifts by
tens of percent within minutes, and the reference moves with it, so the ratio
stays put while a change to the package still shows in full.  The raw seconds
are in the report.  With ``--trace 1`` it alternates plain operations with
traced ones (``traced.py``) on the same CLI seed, requires their reports to be
byte-identical, and prints the per-layer metrics, medians over the traced
operations, with ``trace.overhead_s`` = traced minus plain median wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(operations), ``failed`` (operations that failed the gate) and ``metrics``;
the lines before it are a report with every sample, the cell counts and the
host record.  Child output and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from gate import Request, Verdict, check
from reference import CHECKSUM
from traced import FORM_ARGUMENT, TARGETS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

TOL = 1e-9
#: Reference seconds: timings are scaled so that ``reference.py`` takes this
#: long, about its median on the 2-vCPU host the benchmark was tuned on.
REF_S = 0.35
#: Reference time before each operation, as a share of the previous operation's.
REF_SHARE = 0.25

#: name -> (suite, d values, k values, samples); see README.md for why each was chosen.
WORKLOADS = {
    "verify-dense": ("verify", range(2, 5), range(1, 6), 25),
    "verify-copies": ("verify", (2,), range(1, 11), 200),
    "sar": ("sar", range(2, 5), range(1, 6), 100),
    "optimality": ("optimality", range(2, 4), range(1, 5), 1),
}

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up samples taken before the first operation and after each timed one, so
#: that they span the whole run as the operations do.
SETUP_FIRST = 4
SETUP_PER_OP = 1
#: Every child is killed once the run is this old, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0

PROBE = (
    "import json, platform, mcteleport, numpy;"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
    "print(json.dumps({'package': mcteleport.__file__, 'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'blas': '%s %s' % (blas.get('name'), blas.get('version'))}))"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def request_for(workload: str, seed: int) -> Request:
    suite, d_values, k_values, samples = WORKLOADS[workload]
    return Request(suite, tuple(d_values), tuple(k_values), samples, TOL, seed)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass(frozen=True)
class Launch:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def launch(argv: list[str], deadline: float, name: str = "op") -> Launch:
    """Run one child to completion; wall time from spawn to exit, RSS from wait4.

    The child is waited for without being reaped first, so the kill timer can
    never hit a recycled pid; then ``wait4`` reaps it and yields its rusage.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.stdout", "w+b") as out, open(OUT / f"{name}.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Launch(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024)


@dataclass(frozen=True)
class Op:
    wall_s: float
    peak_rss_mb: float
    verdict: Verdict
    stdout: bytes


def run_op(request: Request, deadline: float, spans: Path | None = None) -> Op:
    if spans is None:
        argv = [sys.executable, "-m", "mcteleport", *request.argv()]
    else:
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), *request.argv()]
    child = launch(argv, deadline, "traced" if spans else "op")
    verdict = check(request, child.returncode, child.stdout)
    if not verdict.ok and child.stderr:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        verdict = Verdict(verdict.cells, verdict.failed, verdict.skipped, "; ".join([verdict.reason, *tail]))
    return Op(child.wall_s, child.peak_rss_mb, verdict, child.stdout)


def op_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(63)


def probe_host(deadline: float) -> dict:
    """Check the package is the checkout's own and record the host."""
    child = launch([sys.executable, "-c", PROBE], deadline, "probe")
    if child.returncode != 0:
        raise BenchError(f"cannot import mcteleport from {SRC}: {child.stderr.decode(errors='replace').strip()}")
    found = json.loads(child.stdout)
    if Path(found.pop("package")).resolve() != SRC / "mcteleport" / "__init__.py":
        raise BenchError(f"mcteleport resolves outside {SRC}")
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "MemTotal_kB": pages // 1024,
        "machine": platform.machine(),
        **found,
        "pinned": PINNED_THREADS,
    }


def measure_setup(deadline: float, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        child = launch([sys.executable, "-c", "import mcteleport"], deadline, "setup")
        if child.returncode != 0:
            raise BenchError("import mcteleport failed during set-up")
        times.append(child.wall_s)
    return times


def measure_reference(deadline: float) -> float:
    child = launch([sys.executable, str(BENCH_DIR / "reference.py")], deadline, "reference")
    if child.returncode != 0 or child.stdout.decode().strip() != CHECKSUM:
        raise BenchError(f"reference program failed: {child.stderr.decode(errors='replace').strip()}")
    return child.wall_s


def measure_references(deadline: float, op_wall_s: float) -> list[float]:
    """Reference runs before one operation, at least ``REF_SHARE`` of its time.

    One reference run is itself noisy (it samples the host for a third of a
    second), so a long operation gets several, and every workload's ratio
    rests on about the same share of reference time.
    """
    times = [measure_reference(deadline)]
    while sum(times) < REF_SHARE * op_wall_s:
        times.append(measure_reference(deadline))
    return times


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def span_stats(spans: list[dict]) -> dict[str, dict]:
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "misses": 0})
    for span in spans:
        duration = span["end"] - span["start"]
        entry = stats[span["name"]]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
        entry["misses"] += bool(span.get("miss"))
    return stats


def layer_metrics(names: list[str], spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced operation, for the metric names given.

    ``<span>.<stat>`` reads a stat of the named spans; the rest are computed
    from span arguments as documented in README.md.
    """
    stats = span_stats(spans)
    cells = [span for span in spans if span["name"] == "cli.run_cell"]
    falsifier = [span for span in spans if span["name"] == "optimality.perturbation_falsifier"]
    computed = {
        "cli.cells": len(cells),
        "cli.cell_dense_mb.max": max((16 * span["d"] ** (2 * (span["k"] + 1)) / 2**20 for span in cells), default=0),
        "symgroup.group_elements": sum(
            math.factorial(span["n"])
            for span in spans
            if span["name"] in ("symgroup.sym_projector", "symgroup.young_projector") and span["miss"] and span["ok"]
        ),
        "optimality.falsifier_trial_s": (
            stats["optimality.perturbation_falsifier"]["s"] / max(1, sum(span["trials"] for span in falsifier))
        ),
        "trace.wall_s": wall_s,
    }
    values = {}
    for name in names:
        if name in computed:
            values[name] = computed[name]
            continue
        span_name, stat = name.rsplit(".", 1)
        if span_name not in TARGETS and span_name.rsplit(".", 1)[0] not in FORM_ARGUMENT:
            raise BenchError(f"per-layer metric {name} names no traced function")
        entry = stats.get(span_name, {"calls": 0, "s": 0.0, "self_s": 0.0, "misses": 0})
        if stat == "us_per_call":
            values[name] = 1e6 * entry["s"] / entry["calls"] if entry["calls"] else 0.0
        elif stat == "share":
            values[name] = entry["self_s"] / wall_s
        else:
            values[name] = entry[stat]
    return values


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = load_spec()
    if not (SRC / "mcteleport" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}")
    host = probe_host(deadline)
    seeds = op_seeds(workload, seed)
    plain: list[Op] = []
    traced: list[tuple[Op, dict]] = []
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "host": host}

    setup = [] if trace else measure_setup(deadline, SETUP_FIRST)
    refs: list[list[float]] = []
    loop_start = time.monotonic()
    # The first operation fills the page cache and the allocator; it is gated but not timed.
    if not trace:
        measure_reference(deadline)
    warmup = run_op(request_for(workload, next(seeds)), deadline)
    steps = [warmup.wall_s * (2 if trace else 1)]
    # Stop before an operation that would overrun --seconds, so a run lasts what it says.
    while not plain or time.monotonic() - loop_start + statistics.median(steps) <= seconds:
        step_start = time.monotonic()
        request = request_for(workload, next(seeds))
        if not trace:
            refs.append(measure_references(deadline, (plain or [warmup])[-1].wall_s))
        op = run_op(request, deadline)
        plain.append(op)
        if trace:
            spans_path = OUT / f"spans-{workload}.jsonl"
            spans_path.unlink(missing_ok=True)
            spanned = run_op(request, deadline, spans_path)
            if spanned.verdict.ok and spanned.stdout != op.stdout:
                differs = Verdict(spanned.verdict.cells, spanned.verdict.cells, 0, "traced report differs from plain")
                spanned = Op(spanned.wall_s, spanned.peak_rss_mb, differs, spanned.stdout)
            spans = []
            if spans_path.exists():
                with open(spans_path, encoding="utf-8") as handle:
                    spans = [json.loads(line) for line in handle]
            traced.append((spanned, spans))
        else:
            setup += measure_setup(deadline, SETUP_PER_OP)
        steps.append(time.monotonic() - step_start)
        if time.monotonic() > deadline:
            break
    if not trace and time.monotonic() < deadline:
        # Every operation is bracketed by reference runs, the last one too.
        refs.append(measure_references(deadline, plain[-1].wall_s))

    gated = [warmup, *plain]
    ops = gated + [op for op, _ in traced]
    failed_ops = [op for op in ops if not op.verdict.ok]
    report["operations"] = [
        {"wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb, "cells": op.verdict.cells,
         "failed": op.verdict.failed, "skipped": op.verdict.skipped, "reason": op.verdict.reason}
        for op in ops
    ]
    counted = [op for op in plain if op.verdict.ok] or plain
    cells = sum(op.verdict.cells for op in gated)
    cells_failed = sum(op.verdict.failed for op in gated) / cells
    cells_skipped = sum(op.verdict.skipped for op in gated) / cells
    report["cells_failed"] = {"value": cells_failed, "unit": "share"}
    report["cells_skipped"] = {"value": cells_skipped, "unit": "share"}

    if trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        plain_wall = statistics.median(op.wall_s for op in counted)
        usable = [(op, spans) for op, spans in traced if op.verdict.ok] or traced
        per_op_names = [name for name in names if name != "trace.overhead_s"]
        per_op = [layer_metrics(per_op_names, spans, op.wall_s) for op, spans in usable]
        medians = {name: statistics.median(values[name] for values in per_op) for name in per_op_names}
        medians["trace.overhead_s"] = medians["trace.wall_s"] - plain_wall
        metrics = {name: {"value": medians[name], "unit": units[name]} for name in names}
    else:
        wall = summary([op.wall_s for op in counted])
        rss = summary([op.peak_rss_mb for op in counted])
        setup_summary = summary(setup)
        ref_summary = summary([ref for group in refs for ref in group])
        # Each operation over the mean of the reference runs just before and
        # after it, so that the host's speed is read where the operation ran;
        # the median then drops operations or references hit by a stall.
        ratios = summary([
            op.wall_s / statistics.mean([ref for group in refs[i : i + 2] for ref in group])
            for i, op in enumerate(plain)
            if op.verdict.ok or counted is plain
        ])
        wall_ref = REF_S * ratios["median"]
        setup_ref = REF_S * setup_summary["median"] / ref_summary["median"]
        report.update(wall_s_raw=wall, peak_rss_mb=rss, setup_s_raw=setup_summary, reference_s=ref_summary,
                      reference_groups=refs, wall_over_reference=ratios, ref_s=REF_S,
                      wall_s=wall_ref, setup_s=setup_ref)
        measured = {
            "wall_s": wall_ref,
            "peak_rss_mb": rss["median"],
            "setup_s": setup_ref,
            "cells_ok": 1.0 - cells_failed,
            "cells_run": 1.0 - cells_skipped,
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    result = {"correct": not failed_ops, "attempted": len(ops), "failed": len(failed_ops), "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("need --seconds > 0 and --seed >= 0")
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
