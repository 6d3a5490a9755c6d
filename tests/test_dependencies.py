"""The package runs on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import pytest

import decaygraph

PACKAGE = Path(decaygraph.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "decaygraph"}


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in ``path``; a relative
    import stays inside the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_imports_only_the_stdlib_numpy_and_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: sorted(imported_roots(path) - ALLOWED) for path in modules}
    assert {name: roots for name, roots in outside.items() if roots} == {}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]
    assert "optional-dependencies" not in project
