"""Run the mcteleport CLI with a span recorded around each layer's public functions.

Usage: python perfbench/traced.py SPANS_FILE SUITE [CLI ARGS...]

Every function in ``TARGETS`` is replaced by a timing wrapper in each module
namespace that binds it: the package imports with ``from .x import y``, so
``sar`` holds its own reference to ``build_measurement``, ``teleport`` to
``sym_basis`` and ``sym_projector``, ``optimality`` to ``haar_unitary`` and
``conjugate_by_permutation``.  ``mcteleport.cli.main`` then runs on the
remaining arguments and writes its report to stdout exactly as the plain CLI
does.  Spans stay in memory and are written to SPANS_FILE, one JSON object per
line, when the CLI returns.  A target that no longer exists under its name
raises here instead of reading as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

TARGETS = (
    "cli.run_cell",
    "symgroup.sym_projector",
    "symgroup.sym_basis",
    "symgroup.young_projector",
    "symgroup.f_projector",
    "teleport.build_measurement",
    "teleport.eigendecomposition_residual",
    "teleport.r_vectors",
    "teleport.simulate",
    "sar.store",
    "sar.retrieve",
    "sar.verify_sar",
    "optimality.reduced_optimum",
    "optimality.perturbation_falsifier",
    "tensor.haar_unitary",
    "tensor.conjugate_by_permutation",
)


def _group_order(args: dict) -> dict:
    return {"n": args["n"]}


def _young_order(args: dict) -> dict:
    return {"n": sum(args["mu"])}


def _cell(args: dict) -> dict:
    return {"d": args["d"], "k": args["k"]}


def _trials(args: dict) -> dict:
    return {"trials": args["trials"]}


#: Span fields taken from a call's bound arguments, for the targets that need them.
DESCRIBE = {
    "cli.run_cell": _cell,
    "symgroup.sym_projector": _group_order,
    "symgroup.young_projector": _young_order,
    "optimality.perturbation_falsifier": _trials,
}

#: Targets whose span name carries the value of one argument, as ``name.<value>``.
FORM_ARGUMENT = {"teleport.build_measurement": "form"}


class Tracer:
    """Spans of one process: id, name, start, end, parent span and enclosing cell."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._cell: int | None = None
        self._origin = time.perf_counter()

    def wrap(self, name: str, func):
        signature = inspect.signature(func)
        describe = DESCRIBE.get(name)
        form_argument = FORM_ARGUMENT.get(name)
        cache_info = getattr(func, "cache_info", None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "cell": self._cell,
            }
            if describe or form_argument:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if describe:
                    span.update(describe(bound.arguments))
                if form_argument:
                    span["name"] = f"{name}.{bound.arguments[form_argument]}"
            self.spans.append(span)
            outer_cell = self._cell
            if name == "cli.run_cell":
                self._cell = span["id"]
            misses = cache_info().misses if cache_info else 0
            self._stack.append(span["id"])
            span["ok"] = False
            span["start"] = time.perf_counter() - self._origin
            try:
                result = func(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter() - self._origin
                self._stack.pop()
                self._cell = outer_cell
                if cache_info:
                    span["miss"] = cache_info().misses > misses

        return wrapper

    def install(self, package: str = "mcteleport") -> None:
        """Wrap every target wherever a loaded module of the package binds it."""
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module is not None and (module_name == package or module_name.startswith(package + "."))
        ]
        for target in TARGETS:
            module_name, func_name = target.split(".")
            original = getattr(importlib.import_module(f"{package}.{module_name}"), func_name)
            wrapper = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_FILE SUITE [CLI ARGS...]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    import mcteleport.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = mcteleport.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
