"""The package imports nothing at run time beyond numpy and jsonschema."""

import ast
import sys
from pathlib import Path

import pytest

import mcfs

ALLOWED = {"numpy", "jsonschema", "mcfs"}
SOURCES = sorted(Path(mcfs.__file__).parent.glob("*.py"))


def imported_roots(path: Path) -> set:
    """Top-level module of every absolute import in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_found():
    assert any(p.name == "engine.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_jsonschema(path):
    foreign = {
        root for root in imported_roots(path)
        if root not in sys.stdlib_module_names and root not in ALLOWED
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
