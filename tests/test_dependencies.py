"""The package's third-party imports against its declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import duffing_qubit

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(duffing_qubit.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def imported_modules(path: Path) -> set[str]:
    """The top-level names of every absolute import in ``path``, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    third_party = set().union(*map(imported_modules, PACKAGE.glob("*.py")))
    third_party -= set(sys.stdlib_module_names) | {"__future__", "duffing_qubit"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees imports inside functions
    assert third_party <= declared


def test_import_and_build_parser_leave_orjson_unloaded():
    # orjson is imported by the formatter at the first table: loading it with
    # the CLI would add to every start-up
    code = ("import sys\n"
            "import duffing_qubit.cli\n"
            "duffing_qubit.cli.build_parser()\n"
            "sys.stdout.write(str('orjson' in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert (done.stdout, done.stderr) == ("False", "")
