import csv
import io
import json
import subprocess
import sys

import pytest

from mcteleport import cli, optimality, teleport
from mcteleport.core import VerificationError, spawn_keys

BASE = [sys.executable, "-m", "mcteleport"]


def run_cli(*args, timeout=300):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=timeout
    )


def parse_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestDeterminism:
    def test_identical_seed_gives_byte_identical_csv(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = run_cli(
                "verify", "--d", "2", "--k", "1..3", "--samples", "5",
                "--seed", "11", "--no-timestamp", "--out", str(path), "--threads", "2",
            )
            assert result.returncode == 0, result.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cell_seeds_come_from_one_spawn(self, monkeypatch):
        # Cell i keeps the seed of child i of a spawn of any longer length,
        # so a report does not depend on how many cells follow it.
        monkeypatch.setattr(cli, "run_cell", lambda config, seed, d, k: seed)
        for base in (0, 7, 2**63 + 5, 2**64 - 1):
            config = cli.RunConfig(
                suite="optimality", d_values=(1, 2, 3, 4), k_values=(1, 2, 3, 4, 5), samples=1, tol=1e-9,
                seed=base, fmt="csv", threads=1, timestamp=False, d_out=None, kraus_rank=2,
            )
            seeds = cli.run(config)
            assert len(seeds) == 20
            for i, seed in enumerate(seeds):
                assert seed == int(spawn_keys(base, i + 1)[i])

    def test_timestamp_header_present_by_default(self):
        result = run_cli("verify", "--d", "2", "--k", "1", "--samples", "2")
        assert result.returncode == 0
        assert result.stdout.startswith("# generated ")

    def test_json_determinism(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            result = run_cli(
                "verify", "--d", "2", "--k", "1,2", "--samples", "3",
                "--seed", "21", "--no-timestamp", "--format", "json", "--out", str(path),
            )
            assert result.returncode == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_pass_exits_zero(self):
        result = run_cli("verify", "--d", "2", "--k", "1..2", "--samples", "3", "--no-timestamp")
        assert result.returncode == 0

    def test_verification_failure_exits_one(self):
        # An impossible tolerance forces every cell to fail.
        result = run_cli(
            "verify", "--d", "2", "--k", "1", "--samples", "3", "--tol", "1e-30",
            "--no-timestamp",
        )
        assert result.returncode == 1
        rows = parse_csv(result.stdout)
        assert rows[0]["pass"] == "false"

    def test_empty_range_exits_two(self):
        result = run_cli("sweep", "--d", "2", "--k", "5..2")
        assert result.returncode == 2

    def test_blank_range_exits_two(self):
        result = run_cli("sweep", "--d", "2", "--k", "")
        assert result.returncode == 2

    def test_unknown_suite_exits_two(self):
        result = run_cli("frobnicate", "--d", "2")
        assert result.returncode == 2

    def test_bad_tolerance_exits_two(self):
        # nan would fail every cell and inf would pass every cell
        for tol in ("0", "nan", "inf", "-inf"):
            result = run_cli("verify", "--d", "2", "--k", "1", "--tol", tol)
            assert result.returncode == 2, tol
            assert "Traceback" not in result.stderr

    def test_negative_seed_exits_two(self):
        result = run_cli("verify", "--d", "2", "--k", "1", "--seed", "-1")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("seed,code", [("18446744073709551616", 2), ("18446744073709551615", 0)])
    def test_only_64_bit_seeds_are_accepted(self, seed, code):
        result = run_cli("verify", "--d", "2", "--k", "1", "--samples", "2", "--seed", seed, "--no-timestamp")
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_two(self, threads):
        result = run_cli("verify", "--d", "2", "--k", "1", "--threads", threads)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("where", [("missing", "x.csv"), ()])
    def test_an_unwritable_out_exits_two_before_any_cell(self, where, tmp_path, monkeypatch):
        # A file in a missing directory, and a directory: each refused before the grid runs.
        ran = []
        monkeypatch.setattr(cli, "run_cell", lambda *args: ran.append(args))
        out = tmp_path.joinpath(*where)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--d", "2", "--k", "1..3", "--threads", "1", "--out", str(out)])
        assert exit_info.value.code == 2
        assert ran == []

    @pytest.mark.parametrize(
        "options",
        [("--dout", "0"), ("--rank", "0"), ("--d", "4", "--dout", "1", "--rank", "2")],
    )
    def test_bad_sar_options_exit_two(self, options):
        result = run_cli("sar", "--k", "1", "--samples", "1", *options)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr


class TestVerifySuite:
    def test_probability_column(self):
        result = run_cli(
            "verify", "--d", "2", "--k", "1..4", "--samples", "25",
            "--seed", "3", "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        probs = [float(row["p_formula"]) for row in rows]
        assert probs == pytest.approx([0.25, 1 / 3, 0.375, 0.4], abs=1e-12)
        assert all(row["pass"] == "true" for row in rows)

    def test_cells_past_eight_copies_run(self):
        result = run_cli("verify", "--d", "2", "--k", "9,10", "--samples", "5", "--no-timestamp")
        assert result.returncode == 0, result.stderr
        assert [row["pass"] for row in parse_csv(result.stdout)] == ["true", "true"]

    @pytest.mark.parametrize("d,k", [("2", "200"), ("6", "5")])
    def test_symmetric_coordinates_reach_past_the_dense_cap(self, d, k, capsys):
        argv = ["verify", "--d", d, "--k", k, "--samples", "5", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true"

    @pytest.mark.parametrize("suite", ["verify", "sar"])
    @pytest.mark.parametrize("d,k", [("16", "7"), ("2", "1100")])
    def test_cells_over_the_factor_cap_skip_unbuilt(self, suite, d, k, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("factor built for a cell over the cap")

        monkeypatch.setattr(teleport, "_insertions", unexpected)
        monkeypatch.setattr(teleport, "_sandwich_rows", unexpected)
        argv = [suite, "--d", d, "--k", k, "--samples", "5", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "exceed" in cell["detail"]

    @pytest.mark.parametrize("suite", ["verify", "sar", "sweep", "optimality"])
    def test_cells_once_over_the_factor_cap_run(self, suite, capsys):
        # a dense factor at (5, 15) has 19380 x 3060 entries; its insertion table has 76500
        argv = [suite, "--d", "5", "--k", "15", "--samples", "3", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    @pytest.mark.parametrize("suite", ["sweep", "optimality"])
    @pytest.mark.parametrize("d,k", [("300", "1"), ("128", "2")])
    def test_wide_cells_under_the_insertion_table_cap_run(self, suite, d, k, capsys):
        # the insertion table fits here, and it bounds every array of the weight classes, though
        # m d x d is 27 M entries at (300, 1) and 135 M at (128, 2)
        argv = [suite, "--d", d, "--k", k, "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        try:
            assert cli.main(argv) == 0
        finally:
            optimality._weight_classes.cache_clear()  # these cells' (width, d, d) stacks
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    def test_sar_over_the_program_cap_skips_unbuilt(self, monkeypatch, capsys):
        # the insertion table and the weight-class tables are not needed; the 90000-square program is too big
        monkeypatch.setattr(teleport, "_insertions", lambda *args: pytest.fail("factor built"))
        argv = ["sar", "--d", "300", "--k", "1", "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "program state of 90000 x 90000" in cell["detail"]

    def test_capacity_cells_are_skipped(self):
        result = run_cli(
            "verify", "--d", "16", "--k", "1,7", "--samples", "2", "--no-timestamp"
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        status = {row["k"]: row["pass"] for row in rows}
        assert status["1"] == "true"
        assert status["7"] == "skipped"


class TestDenseSuites:
    @pytest.mark.parametrize("suite", ["lemmas"])
    def test_cells_over_the_dense_cap_skip(self, suite, capsys):
        # 5^8 = 390625 > 65536 while S_7 is within the group budget, so the
        # skip comes from the layer's own capacity check
        argv = [suite, "--d", "5", "--k", "7", "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "ambient dimension 390625 exceeds cap" in cell["detail"]


class TestSymmetricSuites:
    @pytest.mark.parametrize("suite", ["optimality", "sweep"])
    @pytest.mark.parametrize("d,k", [("4", "7"), ("2", "13"), ("5", "7"), ("2", "14"), ("6", "5"), ("2", "200")])
    def test_cells_past_the_dense_cap_run(self, suite, d, k, capsys):
        # (4, 7) and (2, 13) once ran out of memory on dense d^(k+1)-square operators
        argv = [suite, "--d", d, "--k", k, "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    @pytest.mark.parametrize("suite", ["optimality", "sweep"])
    def test_no_dense_operator_is_built(self, suite, forbid_dense_builders, capsys):
        argv = [suite, "--d", "1..3", "--k", "1..5", "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        assert [cell["pass"] for cell in json.loads(capsys.readouterr().out)["cells"]] == ["true"] * 15


class TestFailureReporting:
    def test_json_failure_cell_carries_detail_and_overall_flag(self):
        result = run_cli(
            "lemmas", "--d", "2", "--k", "2", "--tol", "1e-30",
            "--format", "json", "--no-timestamp",
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["pass"] is False
        cell = payload["cells"][0]
        assert cell["pass"] == "false"
        assert "detail" in cell

    @pytest.mark.parametrize("suite,names", [
        ("verify", ("max_probability_deviation", "min_fidelity")),
        ("sar", ("max_probability_deviation", "max_state_deviation")),
        ("optimality", ("covariance_residual",)),
    ])
    def test_a_cell_that_ends_false_names_what_failed(self, suite, names, capsys):
        # no exception is raised here: the sampled deviations are rounding, far above 1e-300
        argv = [suite, "--d", "2", "--k", "2", "--tol", "1e-300", "--threads", "1", "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 1
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "false"
        assert cell["detail"].startswith("failed at tol 1e-300: ")
        for name in names:
            assert f"{name} = " in cell["detail"]

    def test_a_lemmas_cell_that_ends_false_names_the_residual(self, monkeypatch, capsys):
        monkeypatch.setattr(teleport, "gram_residual", lambda d, k: 0.25)
        argv = ["lemmas", "--d", "2", "--k", "2", "--threads", "1", "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 1
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert (cell["pass"], cell["detail"]) == ("false", "failed at tol 1e-09: gram_residual = 0.25")

    def test_a_passing_cell_has_no_detail(self, capsys):
        assert cli.main(["verify", "--d", "2", "--k", "2", "--samples", "3", "--threads", "1", "--format", "json",
                         "--no-timestamp"]) == 0
        assert "detail" not in json.loads(capsys.readouterr().out)["cells"][0]


class TestErrorContainment:
    ARGV = ["optimality", "--d", "2", "--k", "1,2", "--samples", "1", "--threads", "1",
            "--format", "json", "--no-timestamp"]

    def test_unexpected_error_is_recorded_and_the_grid_goes_on(self, monkeypatch, capsys):
        exact = optimality.reduced_optimum

        def out_of_memory_at_two_copies(d, k):
            if k == 2:
                raise MemoryError("Unable to allocate 32.0 GiB")
            return exact(d, k)

        monkeypatch.setattr(optimality, "reduced_optimum", out_of_memory_at_two_copies)
        assert cli.main(self.ARGV) == 3
        captured = capsys.readouterr()
        assert "Traceback" in captured.err and "MemoryError" in captured.err
        payload = json.loads(captured.out)
        assert payload["pass"] is False
        one, two = payload["cells"]
        assert one["pass"] == "true"
        assert two["pass"] == "error"
        assert two["detail"] == "error:MemoryError: Unable to allocate 32.0 GiB"

    def test_verification_failure_outranks_an_error(self, monkeypatch, capsys):
        def fail_or_raise(d, k, trials, seed):
            if k == 1:
                raise VerificationError("candidate beats the optimum")
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(optimality, "perturbation_falsifier", fail_or_raise)
        assert cli.main(self.ARGV) == 1
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [cell["pass"] for cell in cells] == ["false", "error"]


class TestLemmasSuite:
    def test_coefficients_in_json(self):
        result = run_cli(
            "lemmas", "--d", "2..3", "--k", "1..3", "--format", "json",
            "--no-timestamp",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) == {"config", "cells", "pass"}
        assert payload["pass"] is True
        for cell in payload["cells"]:
            d, k = cell["d"], cell["k"]
            assert cell["c1"] == pytest.approx((d + k) / (k + 1), abs=1e-10)
            assert cell["c2"] == pytest.approx(1 / (k + 1), abs=1e-10)


class TestOtherSuites:
    def test_sweep_csv_has_fixed_columns(self):
        result = run_cli("sweep", "--d", "2", "--k", "2", "--samples", "4", "--no-timestamp")
        assert result.returncode == 0
        header = result.stdout.splitlines()[0]
        assert header == "d,k,p_formula,p_mean,p_std,eig_residual,c1,c2,pass,seconds"

    def test_sweep_skips_over_budget_cell_before_sampling(self, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("verify_theorem ran on a cell that skips")

        monkeypatch.setattr(teleport, "verify_theorem", unexpected)
        argv = ["sweep", "--d", "16", "--k", "7", "--samples", "5", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "insertion table of 54264 x 16 x 16 entries exceeds cap" in cell["detail"]

    def test_sweep_runs_past_the_group_budget(self):
        result = run_cli("sweep", "--d", "2", "--k", "9", "--samples", "5", "--format", "json",
                         "--no-timestamp")
        assert result.returncode == 0, result.stderr
        cell = json.loads(result.stdout)["cells"][0]
        assert cell["pass"] == "true"
        assert cell["c1"] == pytest.approx(11 / 10, abs=1e-10)  # (d + k)/(k + 1)
        assert cell["c2"] == pytest.approx(1 / 10, abs=1e-10)  # 1/(k + 1)

    @pytest.mark.parametrize("suite,k", [("lemmas", 12)])
    def test_group_budget_skips_before_any_dense_operator(self, suite, k, forbid_dense_builders, capsys):
        argv = [suite, "--d", "2", "--k", str(k), "--samples", "1", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert f"symmetric group on {k} letters" in cell["detail"]

    def test_optimality_suite(self):
        result = run_cli(
            "optimality", "--d", "2", "--k", "2", "--samples", "5", "--no-timestamp"
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert rows[0]["pass"] == "true"
        assert float(rows[0]["p_formula"]) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("suite", ["lemmas", "optimality"])
    def test_trivial_local_dimension(self, suite):
        result = run_cli(suite, "--d", "1", "--k", "1..3", "--samples", "2", "--no-timestamp")
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout)
        assert [row["pass"] for row in rows] == ["true"] * 3
        assert all(float(row["p_formula"]) == 1.0 for row in rows)

    def test_sar_suite(self):
        result = run_cli(
            "sar", "--d", "2", "--k", "1,2", "--samples", "5", "--dout", "3",
            "--rank", "2", "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert [row["pass"] for row in rows] == ["true", "true"]
        for row in rows:
            assert float(row["p_mean"]) == pytest.approx(float(row["p_formula"]), abs=1e-9)
