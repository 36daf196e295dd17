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
