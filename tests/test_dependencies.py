"""The package's third-party imports are the dependencies pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_modules(path: Path) -> set:
    """The top-level names of the absolute imports in a Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set().union(*map(imported_top_modules, (ROOT / "src" / "sparsebump").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"sparsebump"}
    assert {"numpy", "orjson"} <= third_party
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
