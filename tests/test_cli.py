import ast
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mcteleport import cli, optimality, sar, teleport
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


class TestExitPath:
    """``python -m mcteleport`` and the console script end in ``cli.entry``: report flushed, then ``os._exit``."""

    ARGV = ["verify", "--d", "2", "--k", "1..3", "--format", "json", "--no-timestamp", "--threads", "2"]

    def in_process(self, capsys, argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def test_the_report_is_flushed_and_atexit_handlers_are_skipped(self, capsys):
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
            f"sys.argv = ['mcteleport'] + {self.ARGV!r}\n"
            "runpy.run_module('mcteleport', run_name='__main__', alter_sys=True)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert "atexit ran" not in result.stderr
        assert result.stdout == self.in_process(capsys, self.ARGV)

    def test_an_out_file_holds_the_whole_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        result = run_cli(*self.ARGV, "--out", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        assert path.read_text(encoding="utf-8") == self.in_process(capsys, self.ARGV)

    def test_the_console_script_exits_one_on_a_failed_cell(self):
        # The wrapper pip writes for a [project.scripts] entry: import the target and sys.exit its result.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        (target,) = re.findall(r'^mcteleport = "([\w.]+:\w+)"$', pyproject, flags=re.M)
        assert target == "mcteleport.cli:entry"
        module, name = target.split(":")
        code = f"import sys\nfrom {module} import {name}\nsys.argv[0] = 'mcteleport'\nsys.exit({name}())\n"
        argv = ["verify", "--d", "2", "--k", "1", "--samples", "3", "--tol", "1e-30", "--no-timestamp"]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300)
        assert result.returncode == 1, result.stderr
        assert [row["pass"] for row in parse_csv(result.stdout)] == ["false"]

    def test_entry_is_the_only_caller_of_os_exit(self):
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
            found += [(path.stem, owner.get(id(n))) for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr == "_exit"]
        assert found == [("cli", "entry")]

    def test_cli_reads_no_private_name_of_the_package(self):
        # cli.py only selects cells and formats reports: all it calls of a suite's module is public
        modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        read = [f"{n.value.id}.{n.attr}" for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id in modules and n.attr.startswith("_")]
        read += [f"{n.module}.{alias.name}" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level
                 for alias in n.names if alias.name.startswith("_")]
        assert read == []


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
    @pytest.mark.parametrize("d,k", [("16", "7")])
    def test_cells_over_the_factor_cap_skip_unbuilt(self, suite, d, k, monkeypatch, capsys):
        # the eigen form's layout refuses the cell on its occupation table, before any draw or projector form
        def unexpected(*args, **kwargs):
            raise AssertionError("sample drawn or projector form built for a cell over the cap")

        monkeypatch.setattr(teleport, "seeded_normals", unexpected)
        monkeypatch.setattr(sar, "seeded_normals", unexpected)
        monkeypatch.setattr(teleport, "_sandwich_rows", unexpected)
        argv = [suite, "--d", d, "--k", k, "--samples", "5", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "occupation table of 170544 x 16 entries exceeds cap" in cell["detail"]

    @pytest.mark.parametrize("suite", ["verify", "sar"])
    @pytest.mark.parametrize("d,k", [("2", "1100")])
    def test_cells_past_the_float_range_skip_unsampled(self, suite, d, k, monkeypatch, capsys):
        # the eigen form is built, as it forms no multinomial; the weights are refused before any draw
        def unexpected(*args, **kwargs):
            raise AssertionError("sample drawn or projector form built past the float range")

        monkeypatch.setattr(teleport, "seeded_normals", unexpected)
        monkeypatch.setattr(sar, "seeded_normals", unexpected)
        monkeypatch.setattr(teleport, "_sandwich_rows", unexpected)
        argv = [suite, "--d", d, "--k", k, "--samples", "5", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert "exceed" in cell["detail"]

    @pytest.mark.parametrize("suite", ["verify", "sar", "sweep", "optimality"])
    def test_cells_once_over_the_factor_cap_run(self, suite, capsys):
        # a dense factor at (5, 15) has 19380 x 3060 entries; its occupation table has 3876 x 5
        argv = [suite, "--d", "5", "--k", "15", "--samples", "3", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    @pytest.mark.parametrize("suite", ["sweep", "optimality"])
    @pytest.mark.parametrize("d,k", [("300", "1"), ("128", "2"), ("16", "6"), ("8", "14")])
    def test_wide_cells_whose_occupation_tables_fit_run(self, suite, d, k, capsys):
        # the occupation tables fit here, and they bound every array of the weight classes, though
        # m d x d is 27 M entries at (300, 1) and 135 M at (128, 2), and a (width, d, d) stack passes
        # FACTOR_CAP at (16, 6) and (8, 14)
        argv = [suite, "--d", d, "--k", k, "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    @pytest.mark.parametrize("suite", ["verify", "sar"])
    @pytest.mark.parametrize("d,k", [("16", "6"), ("8", "13")])
    def test_cells_whose_occupation_tables_fit_run(self, suite, d, k, capsys):
        # width x d x d passes FACTOR_CAP here, but no array of that size is built
        argv = [suite, "--d", d, "--k", k, "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_cell_builds_its_weight_classes_once(self, threads, monkeypatch, capsys):
        # both layers of a cell read the classes run_cell hands them, and none is kept for the next cell
        built, exact = [], optimality._weight_classes
        monkeypatch.setattr(optimality, "_weight_classes", lambda d, k: built.append((d, k)) or exact(d, k))
        argv = ["optimality", "--d", "3", "--k", "2..4", "--samples", "2", "--threads", threads,
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        assert sorted(built) == [(3, 2), (3, 3), (3, 4)]
        assert not hasattr(exact, "cache_info")
        assert [cell["pass"] for cell in json.loads(capsys.readouterr().out)["cells"]] == ["true"] * 3

    def test_sar_over_the_program_cap_skips_unbuilt(self, monkeypatch, capsys):
        # the measurement and the weight-class tables are not needed; the 90000-square program is too big
        monkeypatch.setattr(teleport, "occupations", lambda *args: pytest.fail("factor built"))
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

    @pytest.mark.parametrize("d,k,status", [("3", "8", "skipped"), ("4", "7", "skipped"), ("6", "5", "skipped"),
                                            ("4", "6", "true")])
    def test_young_stores_past_the_memory_limit_skip(self, d, k, status):
        # under a 3 GiB address-space limit the first three once stopped on a MemoryError in the
        # Young projector store, (frames + 1) d^(2k) floats; the limit is set in the child alone
        argv = ["lemmas", "--d", d, "--k", k, "--threads", "1", "--format", "json", "--no-timestamp"]
        code = (
            "import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            f"sys.argv = ['mcteleport'] + {argv!r}\n"
            "runpy.run_module('mcteleport', run_name='__main__', alter_sys=True)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        cell = json.loads(result.stdout)["cells"][0]
        assert cell["pass"] == status, cell.get("detail")
        if status == "skipped":
            assert re.fullmatch(r"Young projector store of [\d.]+ GiB, with [\d.]+ GiB already mapped, "
                                r"exceeds the 3\.00 GiB this process gets", cell["detail"])

    @pytest.mark.parametrize("limit", [4 << 30, 17 << 28])  # 4 and 4.25 GiB
    def test_a_young_store_counts_its_chunk_and_the_mapped_space(self, limit):
        # (3, 8)'s frames with one spare are 3.53 GiB, 4.17 GiB with a chunk's keys and repeated weights, and
        # the address space the process already maps counts against the limit too: at either limit the cell
        # once passed the check and then ended error on a MemoryError
        argv = ["lemmas", "--d", "3", "--k", "8", "--threads", "1", "--format", "json", "--no-timestamp"]
        code = (
            "import resource, runpy, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            f"sys.argv = ['mcteleport'] + {argv!r}\n"
            "runpy.run_module('mcteleport', run_name='__main__', alter_sys=True)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        cell = json.loads(result.stdout)["cells"][0]
        assert cell["pass"] == "skipped", cell.get("detail")
        store, mapped, room = re.fullmatch(r"Young projector store of ([\d.]+) GiB, with ([\d.]+) GiB already mapped, "
                                           r"exceeds the ([\d.]+) GiB this process gets", cell["detail"]).groups()
        assert float(room) == limit / 2**30 and float(store) + float(mapped) > float(room)

    @pytest.mark.parametrize("d,k", [("2", "15000"), ("10", "5000")])
    def test_cells_whose_dimension_passes_4300_digits_skip(self, d, k):
        # str() refuses an int of more than 4300 digits, which d^(k+1) is at both cells
        result = run_cli("lemmas", "--d", d, "--k", k, "--threads", "1", "--format", "json", "--no-timestamp")
        assert result.returncode == 0, result.stderr
        cell = json.loads(result.stdout)["cells"][0]
        assert cell["pass"] == "skipped"
        assert re.fullmatch(r"ambient dimension about 10\^\d+ exceeds cap 65536", cell["detail"])


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

    @pytest.mark.parametrize("d,k", [("2", "1100"), ("2", "100000"), ("3", "400")])
    def test_optimality_runs_past_the_float_range(self, d, k, monkeypatch, capsys):
        # no optimality layer forms a multinomial weight, so the float range does not bound them
        monkeypatch.setattr(teleport, "_sqrt_multinomials", lambda *args: pytest.fail("multinomials formed"))
        argv = ["optimality", "--d", d, "--k", k, "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "true", cell.get("detail")

    def test_sweep_keeps_its_coefficients_past_the_float_range(self, capsys):
        argv = ["sweep", "--d", "2", "--k", "1100", "--samples", "2", "--threads", "1",
                "--format", "json", "--no-timestamp"]
        assert cli.main(argv) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "skipped"
        assert cell["detail"] == "multinomial weights of k=1100 copies at d=2 exceed the float range"
        assert cell["c1"] == pytest.approx(1102 / 1101, abs=1e-12)  # (d + k)/(k + 1)
        assert cell["c2"] == pytest.approx(1 / 1101, abs=1e-12)  # 1/(k + 1)
        assert cell["p_mean"] == ""  # nothing was sampled

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

    @pytest.mark.parametrize("suite", ["verify", "sar", "optimality", "sweep", "lemmas"])
    def test_a_shifted_layout_fails_every_suite_that_reads_it(self, suite, monkeypatch, capsys):
        # moving each column's coordinates one row down occupations(k, d) puts the eigen form's values on
        # the wrong coordinates and makes the projector form look up the wrong multinomials: the samples
        # and the residual see it, while optimality, which reads only the eigen form's values, ends true
        exact = teleport._coordinates
        monkeypatch.setattr(teleport, "_coordinates", lambda d, k: (exact(d, k) + d) % (d * math.comb(k + d - 1, k)))
        argv = [suite, "--d", "3", "--k", "2", "--samples", "2", "--threads", "1", "--format", "json", "--no-timestamp"]
        code = cli.main(argv)
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        if suite == "optimality":
            assert (code, cell["pass"]) == (0, "true")
            return
        assert (code, cell["pass"]) == (1, "false")
        assert cell["detail"].startswith("failed at tol 1e-09: ")
        named = re.findall(r"(\w+) = ", cell["detail"])
        assert named and set(named) <= {"max_probability_deviation", "min_fidelity", "max_state_deviation",
                                        "eig_residual"}, cell["detail"]

    def test_a_passing_cell_has_no_detail(self, capsys):
        assert cli.main(["verify", "--d", "2", "--k", "2", "--samples", "3", "--threads", "1", "--format", "json",
                         "--no-timestamp"]) == 0
        assert "detail" not in json.loads(capsys.readouterr().out)["cells"][0]


#: Each suite's library call, as its module and name, and the checks its report carries, in order.
VERDICTS = {
    "verify": (teleport, "verify_theorem", ("max_probability_deviation", "min_fidelity", "eig_residual")),
    "sar": (sar, "verify_sar", ("max_probability_deviation", "max_state_deviation")),
    "optimality": (optimality, "reduced_optimum", ("objective_deviation", "covariance_residual")),
    "lemmas": (
        optimality, "verify_lemmas", ("gram_residual", "eig_residual", "absorption_residual", "residual_on_support")
    ),
}


class TestOneVerdict:
    ARGV = ["--d", "2", "--k", "2", "--samples", "3", "--threads", "1", "--format", "json", "--no-timestamp"]

    @pytest.mark.parametrize(
        "suite,flipped", [(suite, i) for suite, (*_, names) in VERDICTS.items() for i in range(len(names))]
    )
    def test_a_cell_is_judged_on_its_reports_checks_alone(self, suite, flipped, monkeypatch, capsys):
        # the library's real report with one check flipped to not-ok, its passed flag left as it was:
        # the cell ends false naming that check alone, with its value
        module, name, names = VERDICTS[suite]
        real, values = getattr(module, name), []

        def one_check_flipped(*args, **kwargs):
            report = real(*args, **kwargs)
            assert [check[0] for check in report.checks] == list(names)
            assert report.passed and all(ok for *_, ok in report.checks)
            checks = list(report.checks)
            values.append(checks[flipped][1])
            checks[flipped] = (names[flipped], values[-1], False)
            return report._replace(checks=tuple(checks))

        monkeypatch.setattr(module, name, one_check_flipped)
        assert cli.main([suite, *self.ARGV]) == 1
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert (cell["pass"], cell["detail"]) == ("false", f"failed at tol 1e-09: {names[flipped]} = {float(values[0])}")

    def test_an_objective_off_the_closed_form_fails_its_check(self, monkeypatch, capsys):
        # checked once, at --tol, where the report is built, not raised at a tolerance of its own
        exact = optimality.success_probability_formula
        monkeypatch.setattr(optimality, "success_probability_formula", lambda d, k: exact(d, k) + 1e-6)
        assert cli.main(["optimality", *self.ARGV]) == 1
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "false"
        name, value = re.fullmatch(r"failed at tol 1e-09: (\w+) = (\S+)", cell["detail"]).groups()
        assert name == "objective_deviation" and float(value) == pytest.approx(1e-6, rel=1e-6)


class TestErrorContainment:
    ARGV = ["optimality", "--d", "2", "--k", "1,2", "--samples", "1", "--threads", "1",
            "--format", "json", "--no-timestamp"]

    def test_unexpected_error_is_recorded_and_the_grid_goes_on(self, monkeypatch, capsys):
        exact = optimality.reduced_optimum

        def out_of_memory_at_two_copies(d, k, tol, classes):
            if k == 2:
                raise MemoryError("Unable to allocate 32.0 GiB")
            return exact(d, k, tol, classes)

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
        def fail_or_raise(d, k, trials, seed, classes):
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
        assert "occupation table of 170544 x 16 entries exceeds cap" in cell["detail"]

    def test_a_nan_decomposition_fails_the_sweep(self, monkeypatch, capsys):
        # a NaN in one of X's blocks makes c1 and c2 NaN; the decomposition's own check must end the cell false
        exact = optimality._x_blocks

        def with_nan(v, k):
            x = exact(v, k)
            x[-1, 0, 0] = math.nan
            return x

        monkeypatch.setattr(optimality, "_x_blocks", with_nan)
        argv = ["sweep", "--d", "2", "--k", "2", "--samples", "3", "--threads", "1", "--format", "json",
                "--no-timestamp"]
        assert cli.main(argv) == 1
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["pass"] == "false"
        assert cell["detail"].startswith("reduced-family decomposition failed at d=2, k=2: c1=nan, c2=nan")

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
