"""Stacked sampling in ``verify_theorem`` and ``verify_sar``, and the capacity fixes around it.

Both suites fill one row of standard normals per sample from its own child
seed, then form and compute a chunk of samples as stacked arrays.  The
stacked draws must equal, bit for bit, what ``haar_state`` and
``random_channel`` form from that child's key alone; a channel's thin
isometry must be the first columns of the unitary the square draw gives, and match
LAPACK's QR while staying orthonormal on ill-conditioned draws; a ``sar``
run calls no LAPACK routine; the oracles in
``oracles.py`` run the same cells one ``simulate``, or one ``store`` and
``retrieve``, per child seed; the inputs meet the first Haar moment; and a
chunk's arrays, all counted together, bound its memory.
"""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mcteleport import VerificationError, cli, core, haar_state, sar, teleport, verify_sar, verify_theorem
from mcteleport.core import FACTOR_CAP, batch_slices, seeded_normals, spawn_keys

from oracles import haar_isometries_by_qr, verify_sar_by_loop, verify_theorem_by_loop

CELLS = [(d, k) for d in range(1, 5) for k in range(1, 6)] + [(2, 10), (2, 200)]

#: (d, d_out, k, Kraus rank) of channels that change the dimension.
SAR_SHAPES = [(2, 3, 2, 2), (3, 2, 3, 3), (4, 1, 2, 4), (2, 5, 4, 1), (3, 3, 2, 1)]


@pytest.mark.parametrize("d,k", CELLS)
def test_verify_matches_the_per_sample_loop(d, k):
    report = verify_theorem(d, k, samples=25, seed=100 * d + k)
    want = verify_theorem_by_loop(d, k, 25, report.tol, 100 * d + k)
    assert report.passed == want["passed"]
    for field in ("p_mean", "max_probability_deviation", "min_fidelity"):
        assert abs(getattr(report, field) - want[field]) <= 1e-12, field


@pytest.mark.parametrize("d,d_out,k,rank", [(d, d, k, 2) for d, k in CELLS] + SAR_SHAPES)
def test_sar_matches_the_per_sample_loop(d, d_out, k, rank):
    report = verify_sar(d, d_out, k, rank, samples=20, seed=100 * d + k)
    want = verify_sar_by_loop(d, d_out, k, rank, 20, report.tol, 100 * d + k)
    assert report.passed == want["passed"]
    for field in ("p_mean", "max_probability_deviation", "max_state_deviation"):
        assert abs(getattr(report, field) - want[field]) <= 1e-12, field


def test_an_impossible_tolerance_fails_like_the_loop():
    assert not verify_sar(2, 2, 2, 2, samples=10, tol=0.0, seed=3).passed
    assert not verify_sar_by_loop(2, 2, 2, 2, 10, 0.0, 3)["passed"]


@pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (3, 4), (4, 2), (2, 30)])
def test_one_sample_chunks_equal_one_chunk(d, k, monkeypatch):
    whole = [verify_theorem(d, k, samples=30, seed=7), verify_sar(d, d + 1, k, 2, samples=30, seed=7)]
    monkeypatch.setattr(core, "FACTOR_CAP", 1)
    assert len(batch_slices(30, teleport._sample_entries(d, k))) == 30
    chunked = [verify_theorem(d, k, samples=30, seed=7), verify_sar(d, d + 1, k, 2, samples=30, seed=7)]
    for one, many in zip(whole, chunked):
        for field, value in one._asdict().items():
            if isinstance(value, float):
                assert abs(getattr(many, field) - value) <= 1e-15, field
            elif field not in ("worst_sample_index", "worst_channel_index"):  # ties at rounding level
                assert getattr(many, field) == value, field


@pytest.mark.parametrize("cap", [FACTOR_CAP, 1])
@pytest.mark.parametrize("d,k", CELLS)
def test_verify_draws_each_input_as_haar_state_does(d, k, cap, monkeypatch):
    inputs = []

    def capture(v):
        inputs.append(core.unit_rows(v))
        return inputs[-1].copy()

    monkeypatch.setattr(core, "FACTOR_CAP", cap)
    monkeypatch.setattr(teleport, "unit_rows", capture)
    verify_theorem(d, k, samples=6, seed=100 * d + k)
    want = [haar_state(d, key).vec for key in spawn_keys(100 * d + k, 6)]
    assert np.array_equal(np.concatenate(inputs), np.stack(want))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_verify_inputs_meet_the_first_haar_moment(d, monkeypatch):
    # |psi_0|^2 of a Haar state is Beta(1, d - 1), with mean 1/d and variance
    # 2/(d(d+1)) - 1/d^2, giving an exact 3-sigma band for the mean.
    inputs = []

    def capture(v):
        inputs.append(core.unit_rows(v))
        return inputs[-1]

    monkeypatch.setattr(teleport, "unit_rows", capture)
    samples = 100_000
    verify_theorem(d, 1, samples=samples, seed=40 + d)
    values = np.abs(np.concatenate(inputs)[:, 0]) ** 2
    assert len(values) == samples
    variance = 2 / (d * (d + 1)) - 1 / d**2
    assert abs(values.mean() - 1 / d) < 3 * math.sqrt(variance / samples)


@pytest.mark.parametrize("cap", [FACTOR_CAP, 1])
@pytest.mark.parametrize("d,d_out,k,rank", [(d, d, k, 2) for d, k in CELLS] + SAR_SHAPES)
def test_sar_draws_each_channel_and_input_as_the_one_sample_draws_do(d, d_out, k, rank, cap, monkeypatch):
    inputs, stacks = [], []
    stinespring = sar._stinespring_kraus

    def capture_inputs(v):
        inputs.append(core.unit_rows(v))
        return inputs[-1].copy()

    def capture_kraus(isometries, d_out, rank):
        stacks.append(stinespring(isometries, d_out, rank).copy())
        return stacks[-1]

    monkeypatch.setattr(core, "FACTOR_CAP", cap)
    monkeypatch.setattr(sar, "unit_rows", capture_inputs)
    monkeypatch.setattr(sar, "_stinespring_kraus", capture_kraus)
    verify_sar(d, d_out, k, rank, samples=6, seed=100 * d + k)
    monkeypatch.undo()
    head = 2 * d_out * rank * d
    want_stacks, want_inputs = [], []
    for key in spawn_keys(100 * d + k, 6):
        want_stacks.append(np.stack(sar.random_channel(d, d_out, rank, key).kraus))
        want_inputs.append(core.unit_rows(core.gaussian_vectors(seeded_normals([key], head + 2 * d)[0, head:], d)))
    assert np.array_equal(np.concatenate(stacks), np.stack(want_stacks))
    assert np.array_equal(np.concatenate(inputs), np.stack(want_inputs))


#: (d, d_out, Kraus rank) of isometries with w = d_out rank equal to d, so unitaries, and larger than d.
ISOMETRY_SHAPES = [(3, 1, 3), (1, 1, 1), (2, 5, 1), (3, 2, 2), (4, 3, 3)]


@pytest.mark.parametrize("d,d_out,rank", ISOMETRY_SHAPES)
def test_thin_isometries_are_the_first_columns_of_the_square_unitaries(d, d_out, rank):
    w = d_out * rank
    z = core.ginibres(seeded_normals(spawn_keys(10 * d + w, 40), 2 * w * w), w, w)
    thin, square = core.haar_unitaries(z[..., :d]), core.haar_unitaries(z)
    assert thin.shape == (40, w, d)
    assert np.abs(thin - square[..., :d]).max() <= 1e-14
    assert np.abs(np.swapaxes(thin.conj(), 1, 2) @ thin - np.eye(d)).max() <= 1e-14


#: (w, d) of Ginibre stacks: square ones, which give unitaries, and tall ones, up to 16 columns.
GINIBRE_SHAPES = [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (16, 16), (2, 1), (4, 2), (8, 3), (12, 5), (24, 16), (40, 6)]


@pytest.mark.parametrize("w,d", GINIBRE_SHAPES)
def test_gram_schmidt_isometries_match_the_qr_oracle(w, d):
    # Q's sensitivity to rounding grows with Z's condition number, so only well-conditioned draws are compared.
    z = core.ginibres(seeded_normals(spawn_keys(100 * w + d, 200), 2 * w * d), w, d)
    z = z[np.linalg.cond(z) <= 100]
    assert len(z) >= 150
    assert np.abs(core.haar_unitaries(z) - haar_isometries_by_qr(z)).max() <= 1e-13


@pytest.mark.parametrize("w,d", [(2, 2), (4, 4), (8, 8), (16, 16), (24, 16), (40, 6)])
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
def test_gram_schmidt_isometries_stay_orthonormal_on_ill_conditioned_stacks(w, d, kappa):
    # Z = U diag(s) V^dagger, its d singular values spread evenly in log from 1 down to 1/kappa.
    x = seeded_normals(spawn_keys(10 * w + d, 50), 2 * w * d + 2 * d * d)
    u = haar_isometries_by_qr(core.ginibres(x, w, d))
    v = haar_isometries_by_qr(core.ginibres(x[:, 2 * w * d :], d, d))
    z = (u * np.logspace(0, -math.log10(kappa), d)) @ np.swapaxes(v.conj(), 1, 2)
    assert np.allclose(np.linalg.cond(z), kappa, rtol=1e-6)
    q = core.haar_unitaries(z)
    assert np.abs(np.swapaxes(q.conj(), 1, 2) @ q - np.eye(d)).max() <= 1e-14
    assert np.abs(q @ (np.swapaxes(q.conj(), 1, 2) @ z) - z).max() <= 1e-14  # Q spans Z's columns


def test_a_sar_run_calls_no_lapack_routine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in ("qr", "eigh", "eigvalsh", "svd", "cholesky", "inv", "solve", "det", "eig", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    core.occupations.cache_clear()  # so that no table a LAPACK call could have built is reused
    teleport._sqrt_multinomials.cache_clear()
    for d, d_out, k, rank in [(2, 2, 3, 2), (3, 1, 2, 3), (4, 3, 5, 2), (2, 5, 4, 1)]:
        assert verify_sar(d, d_out, k, rank, samples=20, seed=d + k).passed
    entries = sar._sar_sample_entries(3, 2, 3, 3)
    monkeypatch.setattr(core, "FACTOR_CAP", 4 * entries)
    assert len(batch_slices(20, entries)) == 5
    assert verify_sar(3, 2, 3, 3, samples=20, seed=5).passed


@pytest.mark.parametrize("d,d_out,k,rank", [(2, 2, 3, 2), (3, 1, 2, 3)] + SAR_SHAPES)
def test_sar_chunks_of_several_samples_equal_one_chunk(d, d_out, k, rank, monkeypatch):
    whole = verify_sar(d, d_out, k, rank, samples=30, seed=9)
    entries = sar._sar_sample_entries(d, d_out, k, rank)
    monkeypatch.setattr(core, "FACTOR_CAP", 4 * entries + 1)
    assert [len(range(30)[part]) for part in batch_slices(30, entries)] == [4] * 7 + [2]
    assert verify_sar(d, d_out, k, rank, samples=30, seed=9) == whole


@pytest.mark.parametrize("d,d_out,k,rank", [(2, 2, 3, 2), (3, 1, 2, 3), (2, 40, 2, 3), (5, 2, 4, 3)] + SAR_SHAPES)
def test_a_sar_chunk_allocates_within_its_entry_count(d, d_out, k, rank):
    # An entry is at most a complex128, 16 bytes; numpy reports its buffers to tracemalloc.
    meas = teleport.build_measurement(d, k)
    keys = spawn_keys(5, 64)
    tracemalloc.start()
    try:
        sar._sar_chunk(meas, keys, d_out, rank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 64 * sar._sar_sample_entries(d, d_out, k, rank)


@pytest.mark.parametrize("suite", ["verify", "sar"])
def test_working_set_chunks_equal_one_chunk_at_a_thousand_copies(suite, monkeypatch):
    def run():
        return verify_theorem(2, 1000, samples=600, seed=4) if suite == "verify" else verify_sar(2, 2, 1000, 2, samples=600, seed=4)

    assert len(batch_slices(600, teleport._sample_entries(2, 1000))) > 1
    chunked = run()
    monkeypatch.setattr(core, "FACTOR_CAP", 2**40)
    assert chunked == run()


@pytest.mark.parametrize("suite", ["verify", "sar"])
def test_a_cell_of_many_chunks_stays_within_its_memory_bound(suite):
    # At the old count, which sized only the table t, this cell peaked at about 175 MiB,
    # and one sample alone peaks near 38 MiB.  A process's peak RSS counts that of the
    # process it was forked from, so the CLI runs under a small launcher, not under pytest.
    argv = [suite, "--d", "2", "--k", "1000", "--samples", "20000", "--threads", "1", "--format", "json", "--no-timestamp"]
    code = (
        "import json, resource, subprocess, sys\n"
        f"run = subprocess.run([sys.executable, '-m', 'mcteleport'] + {argv!r}, capture_output=True, check=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(json.dumps({'peak_mib': peak, 'cell': json.loads(run.stdout)['cells'][0]}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=300)
    result = json.loads(out.stdout)
    assert result["cell"]["pass"] == "true"
    assert result["peak_mib"] < 80


@pytest.mark.parametrize("count,entries", [(20000, 2002), (200, 197109), (7, 1), (3, FACTOR_CAP + 1)])
def test_chunks_stay_within_the_factor_cap(count, entries):
    parts = batch_slices(count, entries)
    sizes = [len(range(count)[part]) for part in parts]
    assert sum(sizes) == count and min(sizes) >= 1
    assert max(sizes) == 1 or max(sizes) * entries <= FACTOR_CAP


def test_a_draw_that_is_not_trace_preserving_fails_the_batch(monkeypatch):
    def shrink_the_fourth(z):
        unitaries = core.haar_unitaries(z)
        unitaries[3] *= 0.5
        return unitaries

    monkeypatch.setattr(sar, "haar_unitaries", shrink_the_fourth)
    with pytest.raises(ValueError, match="not trace preserving"):
        verify_sar(2, 2, 2, 2, samples=6, seed=1)


@pytest.mark.parametrize("module,suite", [(teleport, "verify"), (sar, "sar")])
def test_an_unnormalised_input_fails_the_batch(module, suite, monkeypatch):
    def stretch_the_third(v):
        rows = core.unit_rows(v)
        rows[2] *= 1.5
        return rows

    monkeypatch.setattr(module, "unit_rows", stretch_the_third)
    with pytest.raises(ValueError, match="normalised"):
        verify_theorem(2, 2, samples=5, seed=1) if suite == "verify" else verify_sar(2, 2, 2, 2, samples=5, seed=1)


@pytest.mark.parametrize("module,suite", [(teleport, "verify"), (sar, "sar")])
def test_a_probability_under_the_floor_fails_the_batch(module, suite, monkeypatch):
    # With the level-1 entries of G zeroed, the input |1> succeeds with probability 0.
    build = teleport.build_measurement

    def level_zero_only(d, k, form="eigen"):
        meas = build(d, k, form)
        values = np.array(meas.values)
        values[:, 1:] = 0.0
        return teleport.Measurement(d, k, meas.rows, values)

    def third_is_level_one(v):
        rows = core.unit_rows(v)
        rows[2] = np.eye(rows.shape[-1])[1]
        return rows

    monkeypatch.setattr(module, "build_measurement", level_zero_only)
    monkeypatch.setattr(module, "unit_rows", third_is_level_one)
    with pytest.raises(VerificationError, match="below floor") as err:
        verify_theorem(2, 1, samples=5, seed=1) if suite == "verify" else verify_sar(2, 2, 1, 2, samples=5, seed=1)
    assert err.value.residual == 0.0


@pytest.mark.parametrize("suite", ["verify", "sar"])
def test_cells_past_the_old_occupation_cap_run(suite, capsys):
    # 65703 occupations of 361 copies over 3 levels: past DIM_CAP as a row count,
    # while the insertion table holds 65341 x 3 x 3 entries
    argv = [suite, "--d", "3", "--k", "361", "--samples", "3", "--threads", "1", "--format", "json", "--no-timestamp"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cells"][0]["pass"] == "true"


#: SHA-256 of each frame's float64 bytes from ``_young_projectors(6, 4)`` when all
#: frames were summed in one array; ``test_symgroup`` checks smaller cells against
#: the group sum of each frame.
FROZEN_DIGESTS_6_4 = {
    "(6,)": "e4bd57626a5f949e8170193054842738aa703023d3cb75e676d1a304e02e5b71",
    "(5, 1)": "503b554163604c57165069edf6c68783ddb0e5ef25588c85fc9727166de9bbf6",
    "(4, 2)": "1def933f85c7ff5cfa8e95b30e634636889bddf9f14c521075931556a202a033",
    "(4, 1, 1)": "78e9819b95d2b2b5fb9d18327dd0fce2ba1cd978dd5327fece2774d482a2ee55",
    "(3, 3)": "fcf4a280198df060b88991d3b7e492dbca5e739352a858a68418ce31c0a19415",
    "(3, 2, 1)": "a28ff76511f531e908f3b1906b240546f625b73733570fbe2cf72fda70319563",
    "(3, 1, 1, 1)": "1d688aca0f98ccc06aa1bdfe4dbbf4b22f9acc9c42753d323906d6640ca60133",
    "(2, 2, 2)": "1797ee9ced843951d12bb9c88d6de64001acdae6e04f2011c227332552be8b41",
    "(2, 2, 1, 1)": "a06bad70bb10adbabfbb1f2bf73cb02e2ce238449ee227a7a9a61900df352da2",
}


def test_young_projectors_at_six_copies_keep_their_bits_within_one_frame_of_the_store():
    # Nine frames of 4096^2 float64 (128 MiB each) make a 1.125 GiB store.  A process's
    # peak RSS counts that of the process it was forked from, so the build runs under a
    # small launcher, not under pytest, and its peak is read as the launcher's child's.
    build = (
        "import hashlib, json\n"
        "from mcteleport import symgroup\n"
        "store = symgroup._young_projectors(6, 4)\n"
        "print(json.dumps({str(mu): hashlib.sha256(op.mat.astype('<f8', copy=False).data).hexdigest() for mu, op in store.items()}))\n"
    )
    code = (
        "import json, resource, subprocess, sys\n"
        f"run = subprocess.run([sys.executable, '-c', {build!r}], capture_output=True, check=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(json.dumps({'peak_mib': peak, 'digests': json.loads(run.stdout)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=600)
    result = json.loads(out.stdout)
    assert result["digests"] == FROZEN_DIGESTS_6_4
    assert result["peak_mib"] <= 1.45 * 1024
