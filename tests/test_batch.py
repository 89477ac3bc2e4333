"""Stacked sampling in ``verify_theorem`` and ``verify_sar``, and the capacity fixes around it.

Both suites fill one row of standard normals per sample with a single draw
from its own child seed, then form and compute a chunk of samples as
stacked arrays.  The draws must equal, bit for bit, what ``haar_state`` and
``ginibre`` take from the same child; the oracles in ``oracles.py`` run the
same cells one ``simulate``, or one ``store`` and ``retrieve``, per child
seed; and a chunk's arrays, all counted together, bound its memory.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from mcteleport import VerificationError, cli, haar_state, sar, teleport, tensor, verify_sar, verify_theorem
from mcteleport.tensor import FACTOR_CAP, batch_slices

from oracles import verify_sar_by_loop, verify_theorem_by_loop

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
    monkeypatch.setattr(tensor, "FACTOR_CAP", 1)
    assert len(batch_slices(30, teleport._sample_entries(d, k))) == 30
    chunked = [verify_theorem(d, k, samples=30, seed=7), verify_sar(d, d + 1, k, 2, samples=30, seed=7)]
    for one, many in zip(whole, chunked):
        for field, value in vars(one).items():
            if isinstance(value, float):
                assert abs(getattr(many, field) - value) <= 1e-15, field
            elif field not in ("worst_sample_index", "worst_channel_index"):  # ties at rounding level
                assert getattr(many, field) == value, field


@pytest.mark.parametrize("cap", [FACTOR_CAP, 1])
@pytest.mark.parametrize("d,k", CELLS)
def test_verify_draws_each_input_as_haar_state_does(d, k, cap, monkeypatch):
    inputs = []

    def capture(v):
        inputs.append(tensor.unit_rows(v))
        return inputs[-1].copy()

    monkeypatch.setattr(tensor, "FACTOR_CAP", cap)
    monkeypatch.setattr(teleport, "unit_rows", capture)
    verify_theorem(d, k, samples=6, seed=100 * d + k)
    want = [haar_state(d, np.random.default_rng(child)).vec for child in np.random.SeedSequence(100 * d + k).spawn(6)]
    assert np.array_equal(np.concatenate(inputs), np.stack(want))


@pytest.mark.parametrize("cap", [FACTOR_CAP, 1])
@pytest.mark.parametrize("d,d_out,k,rank", [(d, d, k, 2) for d, k in CELLS] + SAR_SHAPES)
def test_sar_draws_each_channel_and_input_as_the_one_sample_draws_do(d, d_out, k, rank, cap, monkeypatch):
    inputs, stacks = [], []

    def capture_inputs(v):
        inputs.append(tensor.unit_rows(v))
        return inputs[-1].copy()

    def capture_ginibres(z):
        stacks.append(z.copy())
        return tensor.haar_unitaries(z)

    monkeypatch.setattr(tensor, "FACTOR_CAP", cap)
    monkeypatch.setattr(sar, "unit_rows", capture_inputs)
    monkeypatch.setattr(sar, "haar_unitaries", capture_ginibres)
    verify_sar(d, d_out, k, rank, samples=6, seed=100 * d + k)
    want_stacks, want_inputs = [], []
    for child in np.random.SeedSequence(100 * d + k).spawn(6):
        rng = np.random.default_rng(child)
        want_stacks.append(tensor.ginibre(d_out * rank, rng))
        want_inputs.append(haar_state(d, rng).vec)
    assert np.array_equal(np.concatenate(stacks), np.stack(want_stacks))
    assert np.array_equal(np.concatenate(inputs), np.stack(want_inputs))


@pytest.mark.parametrize("suite", ["verify", "sar"])
def test_working_set_chunks_equal_one_chunk_at_a_thousand_copies(suite, monkeypatch):
    def run():
        return verify_theorem(2, 1000, samples=600, seed=4) if suite == "verify" else verify_sar(2, 2, 1000, 2, samples=600, seed=4)

    assert len(batch_slices(600, teleport._sample_entries(2, 1000))) > 1
    chunked = run()
    monkeypatch.setattr(tensor, "FACTOR_CAP", 2**40)
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
        unitaries = tensor.haar_unitaries(z)
        unitaries[3] *= 0.5
        return unitaries

    monkeypatch.setattr(sar, "haar_unitaries", shrink_the_fourth)
    with pytest.raises(ValueError, match="not trace preserving"):
        verify_sar(2, 2, 2, 2, samples=6, seed=1)


@pytest.mark.parametrize("module,suite", [(teleport, "verify"), (sar, "sar")])
def test_an_unnormalised_input_fails_the_batch(module, suite, monkeypatch):
    def stretch_the_third(v):
        rows = tensor.unit_rows(v)
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
        rows = tensor.unit_rows(v)
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
