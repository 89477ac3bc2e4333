"""Batch verification front end with CSV/JSON reports.

Subcommands run one suite over a (d, k) grid: ``verify`` samples the
protocol against the closed-form probability, ``lemmas`` certifies the
algebraic identities behind it, ``optimality`` runs the reduced optimiser
and the perturbation search, ``sar`` exercises program storage and
retrieval, and ``sweep`` combines verify with the coefficient checks.

Exit code 0 means every executed cell passed, 1 flags a verification
failure, 2 a usage error, and 3 a cell that raised any other exception: it
is recorded as ``error`` with the exception in its detail, and the grid
goes on.  With a fixed seed the report is byte-identical across runs once
the timestamp (and with it the wall-time column) is suppressed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import optimality, sar, symgroup, teleport
from .tensor import CapacityError, VerificationError

CSV_COLUMNS = ["d", "k", "p_formula", "p_mean", "p_std", "eig_residual", "c1", "c2", "pass", "seconds"]

SUITES = ("verify", "sweep", "lemmas", "optimality", "sar")


@dataclass
class RunConfig:
    suite: str
    d_values: tuple[int, ...]
    k_values: tuple[int, ...]
    samples: int
    tol: float
    seed: int
    fmt: str
    out: str | None
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


def _cell_seeds(seed: int, count: int) -> list[int]:
    """One 64-bit seed per cell, each from its own child of one spawn of the base seed."""
    return [int(child.generate_state(1, np.uint64)[0]) for child in np.random.SeedSequence(seed).spawn(count)]


def _empty_record(d: int, k: int) -> dict:
    record = {column: "" for column in CSV_COLUMNS}
    record["d"] = d
    record["k"] = k
    return record


def _or_empty(value: float | None) -> float | str:
    """None (a coefficient that does not exist for the cell) reports as an empty field."""
    return "" if value is None else value


def run_cell(config: RunConfig, seed: int, d: int, k: int) -> dict:
    record = _empty_record(d, k)
    start = time.perf_counter()
    try:
        if config.suite in ("verify", "sweep"):
            if config.suite == "sweep":
                # First, so a cell whose weight-class tables pass CLASS_CAP skips before sampling.
                coeff = optimality.decomposition_coefficients(d, k, tol=config.tol)
                record.update(c1=coeff.c1, c2=_or_empty(coeff.c2))
            report = teleport.verify_theorem(d, k, config.samples, config.tol, seed)
            record.update(
                p_formula=report.p_formula,
                p_mean=report.p_mean,
                p_std=report.p_std,
                eig_residual=report.eig_residual,
            )
            record["pass"] = "true" if report.passed else "false"
        elif config.suite == "lemmas":
            # First, so a cell over the group budget or the dense cap skips before anything is built.
            absorption = symgroup.absorption_residual(d, k)
            coeff = optimality.decomposition_coefficients(d, k, tol=config.tol)
            gram = teleport.gram_residual(d, k)
            eig = teleport.eigendecomposition_residual(d, k)
            record.update(
                p_formula=teleport.success_probability_formula(d, k),
                eig_residual=eig,
                c1=coeff.c1,
                c2=_or_empty(coeff.c2),
            )
            worst = max(gram, eig, absorption, coeff.residual_on_support)
            record["pass"] = "true" if worst <= config.tol else "false"
        elif config.suite == "optimality":
            sdp = optimality.reduced_optimum(d, k)
            optimality.perturbation_falsifier(d, k, trials=config.samples, seed=seed)
            record.update(p_formula=sdp.p_star, p_mean=sdp.grid_p_max)
            record["pass"] = "true"
        elif config.suite == "sar":
            report = sar.verify_sar(
                d,
                d if config.d_out is None else config.d_out,
                k,
                config.kraus_rank,
                config.samples,
                config.tol,
                seed,
            )
            record.update(p_formula=report.p_formula, p_mean=report.p_mean, p_std=report.p_std)
            record["pass"] = "true" if report.passed else "false"
        else:
            raise ValueError(f"unknown suite {config.suite}")
    except CapacityError as exc:
        record["pass"] = "skipped"
        record["detail"] = str(exc)
    except VerificationError as exc:
        record["pass"] = "false"
        record["detail"] = str(exc)
    except Exception as exc:
        traceback.print_exc()
        record["pass"] = "error"
        record["detail"] = f"error:{type(exc).__name__}: {exc}"
    record["seconds"] = time.perf_counter() - start
    return record


def run(config: RunConfig) -> list[dict]:
    cells = config.cells()
    seeds = _cell_seeds(config.seed, len(cells))
    workers = max(1, config.threads)
    if workers == 1:
        return [run_cell(config, seed, d, k) for seed, (d, k) in zip(seeds, cells)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_cell, config, seed, d, k) for seed, (d, k) in zip(seeds, cells)]
        return [f.result() for f in futures]


def _format_value(column: str, value) -> str:
    if value == "" or value is None:
        return ""
    if column in ("d", "k"):
        return str(value)
    if column == "pass":
        return str(value)
    if column in ("eig_residual",):
        return f"{value:.6e}"
    if column == "seconds":
        return f"{value:.3f}"
    return f"{value:.12g}"


def render_csv(config: RunConfig, records: list[dict]) -> str:
    buffer = io.StringIO()
    if config.timestamp:
        buffer.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        row = dict(record)
        if not config.timestamp:
            row["seconds"] = 0.0
        writer.writerow([_format_value(col, row.get(col, "")) for col in CSV_COLUMNS])
    return buffer.getvalue()


def render_json(config: RunConfig, records: list[dict], all_pass: bool) -> str:
    cells = []
    for record in records:
        cell = {col: record.get(col, "") for col in CSV_COLUMNS}
        if not config.timestamp:
            cell["seconds"] = 0.0
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
    for name in SUITES:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--d", default="2", help="d range: N, A..B or comma list")
        p.add_argument("--k", default="1..3", help="k range: N, A..B or comma list")
        p.add_argument("--samples", type=int, default=25, help="samples (or trials) per cell")
        p.add_argument("--tol", type=float, default=1e-9, help="pass tolerance")
        p.add_argument("--seed", type=int, default=0, help="64-bit base seed")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--no-timestamp", action="store_true", help="suppress timestamp and wall times")
        if name == "sar":
            p.add_argument("--dout", type=int, default=None, help="channel output dimension")
            p.add_argument("--rank", type=int, default=2, help="Kraus rank of sampled channels")
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
    if args.seed < 0:
        parser.error("need seed >= 0")
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
        out=args.out,
        threads=args.threads,
        timestamp=not args.no_timestamp,
        d_out=getattr(args, "dout", None),
        kraus_rank=getattr(args, "rank", 2),
    )
    records = run(config)
    outcomes = {record["pass"] for record in records}
    all_pass = not outcomes & {"false", "error"}
    text = render_csv(config, records) if config.fmt == "csv" else render_json(config, records, all_pass)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if "false" in outcomes else 3 if "error" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
