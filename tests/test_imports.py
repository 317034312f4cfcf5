"""The library imports nothing but the standard library and itself, starts
without loading ``dataclasses``, and every name the benchmark's tracer wraps
is one of its functions."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "sweedler"
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_absolute_imports_are_standard_library_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    assert names <= sys.stdlib_module_names, sorted(names - sys.stdlib_module_names)


def test_every_traced_name_is_a_library_function():
    # perfbench/tracing.py rebinds each name of its TRACED table by name, so a
    # renamed function would record nothing; the table is read, not run
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = [f"{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"sweedler.{module}"), name, None))]
    assert traced and not missing, missing


def test_importing_the_cli_loads_no_dataclasses():
    # each @dataclass compiles its methods with exec when its module is imported,
    # which a CLI pays on every start; -S keeps site hooks from loading it first
    code = "import sys, sweedler.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0 and result.stdout == "False\n", result.stderr
