"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; every tolerance is pinned here, nothing is configurable.
"""

import csv
import io
import math
import subprocess
import sys
from itertools import permutations as sn_iter

import numpy as np

from mcteleport import (
    character,
    dim_standard,
    eigendecomposition_residual,
    f_projector,
    decomposition_coefficients,
    mult_semistandard,
    partitions,
    perturbation_falsifier,
    r_vectors,
    reduced_optimum,
    removable_boxes,
    success_probability_formula,
    sym_partition,
    sym_projector,
    verify_sar,
    verify_theorem,
    young_projector,
)
from mcteleport.tensor import Permutation


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_theorem_reproduction():
    worst_p, worst_fid_gap = 0.0, 0.0
    cells = 0
    for d in (2, 3, 4):
        for k in (1, 2, 3, 4, 5):
            if d ** (k + 1) > 4096:
                continue
            cells += 1
            r = verify_theorem(d, k, samples=25, tol=1e-9, seed=1000 + 10 * d + k)
            worst_p = max(worst_p, r.max_probability_deviation)
            worst_fid_gap = max(worst_fid_gap, 1.0 - r.min_fidelity)
            assert r.passed
    report(
        "criterion 1: theorem reproduction over {2,3,4}x{1..5}",
        worst_p <= 1e-9 and worst_fid_gap <= 1e-9,
        f"{cells} cells, worst p deviation {worst_p:.2e}, worst fidelity gap {worst_fid_gap:.2e}",
    )


def test_criterion_2_formula_endpoints():
    ok = True
    for d in (2, 3, 4, 5):
        ok &= abs(success_probability_formula(d, 1) - 1 / d**2) <= 1e-12
        k = np.arange(1, 10**6 + 1, dtype=float)
        p = k / (d * (k - 1 + d))
        ok &= bool(np.all(np.diff(p) > 0))
        ok &= bool(np.all(p < 1 / d))
        ok &= abs(p[-1] - 1 / d) <= 1e-5
    report("criterion 2: endpoints and monotonicity up to k=1e6", ok)


ACCEPTANCE_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4)]


def test_criterion_3_dual_construction():
    worst = max(eigendecomposition_residual(d, k) for d, k in ACCEPTANCE_GRID)
    report(
        "criterion 3: projector form matches eigenbasis form",
        worst <= 1e-10,
        f"worst Frobenius residual {worst:.2e}",
    )


def test_criterion_4_orthonormality():
    worst_gram, worst_const = 0.0, 0.0
    for d, k in ACCEPTANCE_GRID:
        vectors = r_vectors(d, k)
        columns = np.column_stack([r.vector.vec for r in vectors])
        gram = columns.conj().T @ columns
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(len(vectors))).max()))
        for ri in vectors:
            for rj in vectors:
                same = 1.0 if ri.index == rj.index else 0.0
                for a in range(k):
                    for b in range(k):
                        got = ri.constituents[a].overlap(rj.constituents[b])
                        want = same if a == b else same / d
                        worst_const = max(worst_const, abs(got - want))
    report(
        "criterion 4: eigenvector orthonormality and constituent overlaps",
        worst_gram <= 1e-11 and worst_const <= 1e-11,
        f"gram {worst_gram:.2e}, constituents {worst_const:.2e}",
    )


def test_criterion_5_symmetriser_annihilation():
    worst = 0.0
    for d in (2, 3):
        for k in (1, 2, 3, 4):
            big = sym_projector(k + 1, d).mat
            for mu in partitions(k):
                projector = np.kron(young_projector(mu, d).mat, np.eye(d))
                delta = 1.0 if mu == sym_partition(k) else 0.0
                worst = max(worst, float(np.linalg.norm(big @ projector - delta * big)))
    report(
        "criterion 5: (k+1)-symmetriser absorbs only the one-row frame",
        worst <= 1e-10,
        f"worst residual {worst:.2e}",
    )


def test_criterion_6_decomposition_coefficients():
    worst_c, worst_res = 0.0, 0.0
    note_ok = True
    for d in (2, 3):
        for k in (1, 2, 3):
            r = decomposition_coefficients(d, k, tol=1e-10)
            worst_c = max(worst_c, abs(r.c1 - (d + k) / (k + 1)), abs(r.c2 - 1 / (k + 1)))
            worst_res = max(worst_res, r.residual_on_support)
            note_ok &= "(d+k)/k" in r.note and "(d+k)/(k+1)" in r.note
    report(
        "criterion 6: transposed-symmetriser decomposition coefficients",
        worst_c <= 1e-10 and worst_res <= 1e-10 and note_ok,
        f"coefficient error {worst_c:.2e}, support residual {worst_res:.2e}, "
        f"discrepancy noted: {note_ok}",
    )


def test_criterion_7_optimality():
    ok = True
    details = []
    for d, k in ((2, 2), (3, 2)):
        sdp = reduced_optimum(d, k)
        p_star = success_probability_formula(d, k)
        ok &= abs(sdp.p_star - p_star) <= 1e-12
        ok &= abs(sdp.objective_value - p_star) <= 1e-9
        fals = perturbation_falsifier(d, k, trials=200, seed=500 + d)
        ok &= fals.passed and fals.max_objective <= p_star + 1e-7
        details.append(f"(d={d},k={k}): objective gap {abs(sdp.objective_value - p_star):.1e}, "
                       f"falsifier margin {fals.max_objective - p_star:.1e}")
    report("criterion 7: reduced optimum and perturbation search", ok, "; ".join(details))


def test_criterion_8_representation_suite():
    ok = len(partitions(4)) == 5
    worst_trace = 0.0
    for d in (2, 3):
        for k in (1, 2, 3, 4, 5):
            for mu in partitions(k):
                expected = mult_semistandard(mu, d) * dim_standard(mu)
                got = young_projector(mu, d).trace()
                worst_trace = max(worst_trace, abs(got - expected))
    orthogonal = True
    for k in (2, 3, 4, 5):
        frames = partitions(k)
        sigmas = [Permutation(images) for images in sn_iter(range(k))]
        for mu in frames:
            for nu in frames:
                acc = sum(character(mu, s) * character(nu, s) for s in sigmas)
                orthogonal &= acc == (math.factorial(k) if mu == nu else 0)
    worst_f = 0.0
    for d in (2, 3):
        for k in (2, 3):
            pairs = [
                (mu, alpha)
                for mu in partitions(k)
                if mult_semistandard(mu, d) > 0
                for alpha in removable_boxes(mu)
                if mult_semistandard(alpha, d) > 0
            ]
            projectors = {pair: f_projector(*pair, d).mat for pair in pairs}
            for pa, fa in projectors.items():
                expected_trace = mult_semistandard(pa[1], d) * dim_standard(pa[0])
                worst_f = max(worst_f, abs(fa.trace().real - expected_trace))
                for pb, fb in projectors.items():
                    target = fa if pa == pb else np.zeros_like(fa)
                    worst_f = max(worst_f, float(np.linalg.norm(fa @ fb - target)))
    report(
        "criterion 8: partitions, trace rules, characters, algebra projectors",
        ok and worst_trace <= 1e-10 and orthogonal and worst_f <= 1e-10,
        f"trace rule {worst_trace:.2e}, exact orthogonality {orthogonal}, "
        f"algebra projectors {worst_f:.2e}",
    )


def test_criterion_9_storage_and_retrieval():
    worst_p, worst_state = 0.0, 0.0
    for d, d_out in ((2, 2), (2, 3), (3, 2)):
        for k in (1, 2, 3):
            r = verify_sar(d, d_out, k, kraus_rank=2, samples=20, tol=1e-9, seed=700 + d_out)
            assert r.passed
            worst_p = max(worst_p, r.max_probability_deviation)
            worst_state = max(worst_state, r.max_state_deviation)
    report(
        "criterion 9: program storage and retrieval over three shapes",
        worst_p <= 1e-9 and worst_state <= 1e-9,
        f"probability {worst_p:.2e}, state {worst_state:.2e}",
    )


def test_criterion_10_cli_contract(tmp_path):
    base = [sys.executable, "-m", "mcteleport"]
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        run = subprocess.run(
            base + ["verify", "--d", "2", "--k", "1..3", "--samples", "5",
                    "--seed", "42", "--no-timestamp", "--out", str(path)],
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1]

    ok_pass = subprocess.run(
        base + ["verify", "--d", "2", "--k", "1", "--samples", "2", "--no-timestamp"],
        capture_output=True, text=True, timeout=300,
    ).returncode == 0
    ok_fail = subprocess.run(
        base + ["verify", "--d", "3", "--k", "4", "--samples", "2",
                "--tol", "1e-30", "--no-timestamp"],
        capture_output=True, text=True, timeout=300,
    ).returncode == 1
    ok_usage = subprocess.run(
        base + ["sweep", "--d", "2", "--k", ""],
        capture_output=True, text=True, timeout=300,
    ).returncode == 2

    rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
    columns_ok = list(rows[0]) == [
        "d", "k", "p_formula", "p_mean", "p_std", "eig_residual", "c1", "c2", "pass", "seconds"
    ]
    report(
        "criterion 10: CLI determinism and exit-code contract",
        identical and ok_pass and ok_fail and ok_usage and columns_ok,
        f"byte-identical {identical}, exits 0/1/2 {ok_pass}/{ok_fail}/{ok_usage}",
    )
