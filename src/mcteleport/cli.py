"""Batch verification front end with CSV/JSON reports.

Subcommands run one suite over a (d, k) grid: ``verify`` samples the
protocol against the closed-form probability, ``lemmas`` certifies the
algebraic identities behind it, ``optimality`` runs the reduced optimiser
and the perturbation search, ``sar`` exercises program storage and
retrieval, and ``sweep`` combines verify with the coefficient checks.
Each suite's branch of ``run_cell`` imports the library modules it calls,
so a run compiles and loads no other suite's code, makes one public call
(``sweep`` two), and maps its report's fields to columns.  The report also
carries the checks its cell is judged on, each (name, value, ok) at
``--tol``; ``run_cell`` only names the failed ones.

Exit code 0 means every executed cell passed, 1 flags a verification
failure, 2 a usage error, and 3 a cell that raised any other exception: it
is recorded as ``error`` with the exception in its detail, and the grid
goes on.  With a fixed seed the report is byte-identical across runs once
the timestamp (and with it the wall-time column) is suppressed.

``main(argv)`` is the in-process API: it returns the exit code and never
ends the process (a usage error raises argparse's ``SystemExit(2)``).
``entry()`` is what ``python -m mcteleport`` and the ``mcteleport`` console
script run: it calls ``main``, flushes the report and ends the process with
``os._exit``, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from typing import NamedTuple

from .core import CapacityError, VerificationError, spawn_keys

CSV_COLUMNS = ["d", "k", "p_formula", "p_mean", "p_std", "eig_residual", "c1", "c2", "pass", "seconds"]

SUITES = ("verify", "sweep", "lemmas", "optimality", "sar")


class RunConfig(NamedTuple):
    suite: str
    d_values: tuple[int, ...]
    k_values: tuple[int, ...]
    samples: int
    tol: float
    seed: int
    fmt: str
    threads: int
    timestamp: bool
    d_out: int | None
    kraus_rank: int

    def cells(self) -> list[tuple[int, int]]:
        return [(d, k) for d in self.d_values for k in self.k_values]


def parse_int_range(text: str) -> tuple[int, ...]:
    """Accept '3', '2..4' (inclusive) or '2,3,5'."""
    text = text.strip()
    values: list[int] = []
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        values = list(range(lo, hi + 1))
    elif "," in text:
        values = [int(part) for part in text.split(",") if part.strip()]
    elif text:
        values = [int(text)]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"empty or non-positive range: {text!r}")
    return tuple(values)


def _or_empty(value: float | None) -> float | str:
    """None (a coefficient that does not exist for the cell) reports as an empty field."""
    return "" if value is None else value


def _judge(record: dict, checks: tuple[tuple[str, float, bool], ...], tol: float) -> None:
    """Set the cell's outcome from its report's checks; a cell that ends false names each failed one, and its value."""
    failed = ", ".join(f"{name} = {float(value)}" for name, value, ok in checks if not ok)
    record["pass"] = "false" if failed else "true"
    if failed:
        record["detail"] = f"failed at tol {tol:g}: {failed}"


def run_cell(config: RunConfig, seed: int, d: int, k: int) -> dict:
    record = {column: "" for column in CSV_COLUMNS} | {"d": d, "k": k}
    start = time.perf_counter()
    try:
        if config.suite in ("verify", "sweep"):
            from . import teleport

            if config.suite == "sweep":
                from . import optimality

                # First, so a cell whose occupation table passes FACTOR_CAP skips before sampling.
                coeff = optimality.decomposition_coefficients(d, k, tol=config.tol)
                record.update(c1=coeff.c1, c2=_or_empty(coeff.c2))
            report = teleport.verify_theorem(d, k, config.samples, config.tol, seed)
            record.update(
                p_formula=report.p_formula, p_mean=report.p_mean, p_std=report.p_std, eig_residual=report.eig_residual
            )
        elif config.suite == "lemmas":
            from . import optimality

            report = optimality.verify_lemmas(d, k, config.tol)
            record.update(
                p_formula=report.p_formula, eig_residual=report.eig_residual, c1=report.c1, c2=_or_empty(report.c2)
            )
        elif config.suite == "optimality":
            from . import optimality

            report = optimality.verify_optimality(d, k, config.samples, config.tol, seed)
            record.update(p_formula=report.p_star, p_mean=report.objective_value)
        elif config.suite == "sar":
            from . import sar

            d_out = d if config.d_out is None else config.d_out
            report = sar.verify_sar(d, d_out, k, config.kraus_rank, config.samples, config.tol, seed)
            record.update(p_formula=report.p_formula, p_mean=report.p_mean, p_std=report.p_std)
        else:
            raise ValueError(f"unknown suite {config.suite}")
        _judge(record, report.checks, config.tol)
    except CapacityError as exc:
        record["pass"] = "skipped"
        record["detail"] = str(exc)
    except VerificationError as exc:
        record["pass"] = "false"
        record["detail"] = str(exc)
    except Exception as exc:
        import traceback  # only a cell that errors needs it

        traceback.print_exc()
        record["pass"] = "error"
        record["detail"] = f"error:{type(exc).__name__}: {exc}"
    record["seconds"] = time.perf_counter() - start if config.timestamp else 0.0
    return record


def run(config: RunConfig) -> list[dict]:
    cells = config.cells()
    seeds = spawn_keys(config.seed, len(cells)).tolist()
    if config.threads == 1:
        return [run_cell(config, seed, d, k) for seed, (d, k) in zip(seeds, cells)]
    from concurrent.futures import ThreadPoolExecutor  # imports logging; a one-thread run needs neither

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [pool.submit(run_cell, config, seed, d, k) for seed, (d, k) in zip(seeds, cells)]
        return [f.result() for f in futures]


def _format_value(column: str, value) -> str:
    if value == "" or value is None:
        return ""
    if column in ("d", "k", "pass"):
        return str(value)
    if column == "eig_residual":
        return f"{value:.6e}"
    if column == "seconds":
        return f"{value:.3f}"
    return f"{value:.12g}"


def render_csv(config: RunConfig, records: list[dict]) -> str:
    import csv  # a JSON report needs no csv

    buffer = io.StringIO()
    if config.timestamp:
        buffer.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([_format_value(col, record.get(col, "")) for col in CSV_COLUMNS])
    return buffer.getvalue()


def render_json(config: RunConfig, records: list[dict], all_pass: bool) -> str:
    cells = []
    for record in records:
        cell = {col: record.get(col, "") for col in CSV_COLUMNS}
        if "detail" in record:
            cell["detail"] = record["detail"]
        cells.append(cell)
    payload = {
        "config": {
            "suite": config.suite,
            "d": list(config.d_values),
            "k": list(config.k_values),
            "samples": config.samples,
            "tol": config.tol,
            "seed": config.seed,
        },
        "cells": cells,
        "pass": all_pass,
    }
    if config.timestamp:
        payload["generated"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcteleport",
        description="Verification suites for multicopy teleportation numerics.",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    descriptions = {
        "verify": "sample the protocol against the closed-form probability",
        "sweep": "verify plus decomposition coefficients per cell",
        "lemmas": "certify the algebraic identities behind the optimum",
        "optimality": "reduced-family optimiser and perturbation search",
        "sar": "store random channels and retrieve them on Haar inputs",
    }
    common = argparse.ArgumentParser(add_help=False)  # the options every suite takes, built once
    common.add_argument("--d", default="2", help="d range: N, A..B or comma list")
    common.add_argument("--k", default="1..3", help="k range: N, A..B or comma list")
    common.add_argument("--samples", type=int, default=25, help="samples (or trials) per cell")
    common.add_argument("--tol", type=float, default=1e-9, help="pass tolerance")
    common.add_argument("--seed", type=int, default=0, help="64-bit base seed")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    common.add_argument("--no-timestamp", action="store_true", help="suppress timestamp and wall times")
    parsers = {name: sub.add_parser(name, help=descriptions[name], parents=[common]) for name in SUITES}
    parsers["sar"].add_argument("--dout", type=int, default=None, help="channel output dimension")
    parsers["sar"].add_argument("--rank", type=int, default=2, help="Kraus rank of sampled channels")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        d_values = parse_int_range(args.d)
        k_values = parse_int_range(args.k)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if args.samples < 1 or not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("need samples >= 1 and a finite tol > 0")
    if not 0 <= args.seed < 2**64:
        parser.error("need 0 <= seed < 2^64")
    if args.threads < 1:
        parser.error("need threads >= 1")
    if args.suite == "sar":
        if args.rank < 1 or (args.dout is not None and args.dout < 1):
            parser.error("need --rank >= 1 and --dout >= 1")
        if args.dout is not None and args.dout * args.rank < max(d_values):
            parser.error(
                f"--dout {args.dout} x --rank {args.rank} < d = {max(d_values)}: "
                "no channel has an isometric dilation that small"
            )
    config = RunConfig(
        suite=args.suite,
        d_values=d_values,
        k_values=k_values,
        samples=args.samples,
        tol=args.tol,
        seed=args.seed,
        fmt=args.fmt,
        threads=args.threads,
        timestamp=not args.no_timestamp,
        d_out=getattr(args, "dout", None),
        kraus_rank=getattr(args, "rank", 2),
    )
    try:  # before the first cell, so an unwritable path costs no run
        handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")
    try:
        records = run(config)
        outcomes = {record["pass"] for record in records}
        all_pass = not outcomes & {"false", "error"}
        handle.write(render_csv(config, records) if config.fmt == "csv" else render_json(config, records, all_pass))
    finally:
        if args.out:
            handle.close()
    return 1 if "false" in outcomes else 3 if "error" in outcomes else 0


def entry() -> None:
    """Run ``main`` and end the process with its code as soon as the report is flushed.

    ``python -m mcteleport`` and the ``mcteleport`` console script both end
    here.  ``os._exit`` skips the interpreter's teardown, which frees every
    object and module one by one, a tenth or more of a small grid's run; the
    OS takes the memory back at once.  Nothing is lost by skipping it:

    - ``parser.error``'s ``SystemExit(2)`` and any uncaught exception propagate
      out of ``main`` before ``os._exit`` is reached, so they end the process
      exactly as a normal exit does;
    - an ``--out`` file is closed in ``main``'s ``finally``;
    - with ``--threads`` > 1 the pool is joined by the ``with`` block in ``run``
      before ``main`` returns;
    - the package registers no ``atexit`` handler;
    - if a flush raises (a closed pipe, say), the exception propagates and
      the interpreter exits as it would without this function.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
