"""The package binds its names on first access, and a CLI run imports only its suite's modules."""

import ast
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mcteleport

#: The public names of each submodule, by the module that defines them.
PUBLIC = {
    "core": "DEFAULT_ATOL CapacityError VerificationError occupations",
    "tensor": (
        "DIM_CAP GROUP_BUDGET Operator Permutation StateVector conjugate_by_permutation haar_state haar_unitary "
        "kron max_entangled_state partial_trace partial_transpose permute_state symmetric_group"
    ),
    "symgroup": (
        "Partition absorption_residual character dim_standard f_projector mult_semistandard partitions "
        "removable_boxes sym_basis sym_partition sym_projector young_projector"
    ),
    "teleport": (
        "Measurement RVector build_measurement conditioned_element "
        "eigendecomposition_residual gram_residual r_vectors simulate success_probability_formula verify_theorem"
    ),
    "optimality": "decomposition_coefficients perturbation_falsifier reduced_optimum verify_lemmas verify_optimality",
    "sar": (
        "Channel ProgramState depolarizing_channel identity_channel mix_channels random_channel retrieve "
        "store unitary_channel verify_sar"
    ),
}
SUBMODULES = ("cli", "core", "optimality", "sar", "symgroup", "teleport", "tensor")


@pytest.mark.parametrize("module,name", [(module, name) for module, names in PUBLIC.items() for name in names.split()])
def test_a_public_name_resolves_to_its_module_object(module, name):
    assert getattr(mcteleport, name) is getattr(importlib.import_module(f"mcteleport.{module}"), name)
    assert name in dir(mcteleport) and name in mcteleport.__all__


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_resolves_by_attribute(name):
    assert getattr(mcteleport, name) is importlib.import_module(f"mcteleport.{name}")
    assert name in dir(mcteleport)


def test_the_exports_are_exactly_the_public_names():
    assert sorted(mcteleport.__all__) == sorted(name for names in PUBLIC.values() for name in names.split())


def test_every_exported_function_or_class_is_defined_in_the_module_that_files_it():
    """``_EXPORTS`` files a name under the module that defines it, so no module re-exports another's name."""
    checked = 0
    for module, names in mcteleport._EXPORTS.items():
        for name in names:
            value = getattr(importlib.import_module(f"mcteleport.{module}"), name)
            if callable(value) and not isinstance(value, types.GenericAlias):  # a type alias has no module of its own
                assert value.__module__ == f"mcteleport.{module}", (name, value.__module__)
                checked += 1
    assert checked >= 40, checked


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'verify_everything'"):
        mcteleport.verify_everything
    assert not hasattr(mcteleport, "_sandwich_rows")


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``, which prints nothing else to stderr."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys, json; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return set(json.loads(out.stderr.splitlines()[-1]))


def test_importing_the_package_loads_no_numpy():
    loaded = _modules_after("import mcteleport")
    assert "mcteleport" in loaded
    assert "numpy" not in loaded and not any(name.startswith("mcteleport.") for name in loaded)


#: The dense layer: d^(k+1)-square operators, their layouts and the permutation algebra.
DENSE = {"mcteleport.symgroup", "mcteleport.tensor"}
#: ``numpy.random`` and what it loads with it: ``secrets`` and OpenSSL's hashes (``_hashlib``).
RANDOM = {"numpy.random", "secrets", "_hashlib"}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (
            ["verify", "--d", "2", "--k", "1..3"],
            {"mcteleport.optimality", "mcteleport.sar", "concurrent.futures", "dataclasses", *DENSE, *RANDOM},
        ),
        (
            ["sar", "--d", "2", "--k", "1..2"],
            {"mcteleport.optimality", "concurrent.futures", "dataclasses", *DENSE, *RANDOM},
        ),
        (
            ["optimality", "--d", "2..3", "--k", "1..3"],
            {"mcteleport.sar", "numpy.random", "concurrent.futures", "dataclasses", *DENSE},
        ),
        (
            ["sweep", "--d", "1..3", "--k", "1..3"],
            {"mcteleport.sar", "concurrent.futures", "dataclasses", *DENSE, *RANDOM},
        ),
        (
            ["lemmas", "--d", "2", "--k", "1..3"],
            {"mcteleport.sar", "concurrent.futures", *RANDOM},
        ),
    ],
    ids=["verify", "sar", "optimality", "sweep", "lemmas"],
)
def test_a_one_thread_run_imports_only_its_suite(argv, absent):
    argv = argv + ["--samples", "3", "--threads", "1", "--no-timestamp"]
    loaded = _modules_after(f"import mcteleport.cli\nassert mcteleport.cli.main({argv!r}) == 0")
    assert "mcteleport.cli" in loaded and "mcteleport.teleport" in loaded
    assert not absent & loaded, absent & loaded
    # only lemmas loads the dense layer, and DENSE names the module of its operators
    assert mcteleport.Operator.__module__ in DENSE and (DENSE <= loaded) == (argv[0] == "lemmas")


def test_the_one_sample_draws_load_no_numpy_random():
    loaded = _modules_after(
        "import mcteleport as mt\nmt.haar_state(2, 0), mt.haar_unitary(2, 0), mt.random_channel(2, 3, 2, 0)"
    )
    assert "mcteleport.sar" in loaded and not RANDOM & loaded, RANDOM & loaded


def test_random_channel_loads_no_dense_module():
    loaded = _modules_after("from mcteleport import random_channel\nrandom_channel(2, 3, 2, 0)")
    assert "mcteleport.sar" in loaded and not DENSE & loaded, DENSE & loaded


@pytest.mark.parametrize("name", sorted(path.stem for path in Path(mcteleport.__file__).parent.glob("*.py")))
def test_every_module_parses_as_python_3_10(name):
    """pyproject.toml declares requires-python >= 3.10, so no module may use a later grammar."""
    source = (Path(mcteleport.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    ast.parse(source, filename=f"{name}.py", feature_version=(3, 10))


@pytest.mark.parametrize("name", sorted(path.stem for path in Path(mcteleport.__file__).parent.glob("*.py")))
def test_no_module_imports_a_private_name_of_another(name):
    """A name with a leading underscore is used only in the module that defines it: no ``from .x import _name``."""
    source = (Path(mcteleport.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    private = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("name", ["cli", "core", "optimality", "sar", "teleport"])
def test_the_suite_modules_define_no_dataclass(name):
    """Their records are NamedTuples and their validated types plain classes: ``dataclasses`` is neither
    imported nor named, so no suite run generates dataclass code."""
    source = (Path(mcteleport.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(alias.name != "dataclasses" for alias in node.names)
        assert not (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        assert getattr(node, "id", getattr(node, "attr", None)) not in ("dataclass", "dataclasses")


def test_every_traced_target_resolves_on_its_module():
    """perfbench/traced.py wraps each ``module.name`` of its TARGETS by ``getattr`` and raises on a missing one."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "traced.py").read_text(encoding="utf-8")
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for target in targets:
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"mcteleport.{module}"), name)), target
