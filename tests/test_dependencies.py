"""Declared dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in project["dependencies"]}


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "cwskit").glob("*.py")), ids=lambda p: p.name
)
def test_imports_are_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | _declared()
    assert _absolute_imports(path) <= allowed


def _test_extra() -> set[str]:
    extras = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"
    ]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in extras["test"]}


@pytest.mark.parametrize(
    "path", sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name
)
def test_test_imports_are_declared_for_tests(path):
    # the package, the test modules themselves, and what the `test` extra
    # declares on top of the package's dependencies
    local = {"cwskit"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    allowed = set(sys.stdlib_module_names) | _declared() | _test_extra() | local
    assert _absolute_imports(path) <= allowed


def test_scipy_is_for_tests_only():
    assert "scipy" in _test_extra()
    assert "scipy" not in _declared()
