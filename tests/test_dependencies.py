"""The package imports nothing at run time beyond the standard library and
numpy, and ships nothing that only the tests use."""

import ast
import functools
import sys
from pathlib import Path

import pytest

import mcfs

ALLOWED = {"numpy", "mcfs"}
SOURCES = sorted(Path(mcfs.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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
def test_imports_are_stdlib_or_numpy(path):
    foreign = {
        root for root in imported_roots(path)
        if root not in sys.stdlib_module_names and root not in ALLOWED
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def definitions(path: Path) -> list:
    """Top-level functions and classes of ``path``, and their methods not
    named like ``__x__``, as "name" or "Class.method"."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{node.name}.{m.name}" for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return found


@functools.cache
def names_read() -> frozenset:
    """Every name that a module of ``src/`` or of ``bench/`` outside its
    tests reads: variables, attributes, imports, and string constants that
    are identifiers (the bench tracer probes attributes by name)."""
    readers = sorted(ROOT.glob("src/**/*.py")) + [
        p for p in sorted(ROOT.glob("bench/**/*.py"))
        if "tests" not in p.relative_to(ROOT).parts
    ]
    names = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return frozenset(names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_is_named_outside_the_tests(path):
    unnamed = [d for d in definitions(path)
               if d.split(".")[-1] not in names_read()]
    assert not unnamed, (
        f"{path.name} defines {unnamed}, which no module in src/ or bench/ "
        "names; delete it or move it to tests/support.py"
    )
