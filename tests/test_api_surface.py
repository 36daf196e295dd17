"""Every public function, class and method of the package has a user.

A user is a Name or Attribute that mentions the definition's name in
``src/``, ``perfbench/``, ``benchmarks/`` or ``tests/test_acceptance.py``,
outside the definition itself.  Unit tests do not count: code that only its
own tests call is dead weight.  Matching is by bare identifier, so a name
collision can only let dead code through, never flag live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cwskit"
USERS = (
    ROOT / "src",
    ROOT / "perfbench",
    ROOT / "benchmarks",
    ROOT / "tests" / "test_acceptance.py",
)

# Kept without a user, each for the reason given.
KEEP = {
    "cl_map": "per-error reference the cl_patterns kernel is tested against",
    "symplectic_product": "definition-level route for certified absence",
    "PauliOp.single": "builds the single-qubit errors of the tests",
    "Graph.permute": "relabelling that the canonical-form tests apply",
    "Graph.has_edge": "adjacency reference for the graph tests",
    "CliqueGraph.has_edge": "adjacency reference for the clique-graph tests",
    "GF2Matrix.identity": "reference matrix for the inversion tests",
    "cws_maxclique": "one-call pipeline the tests compare searches against",
    "compute_sd": "the paper's S_D constraint set, documented in the README",
    "graph_state_amplitudes": "dense graph state the oracle tests check against",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """(qualified name, bare name, path, node) of every public top-level
    function and class, and of every public method of such a class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            yield node.name, node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name, path, item


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Identifier -> (path, line) of each Name or Attribute in the user files."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for user in USERS:
        for path in [user] if user.is_file() else sorted(user.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    ident = node.id
                elif isinstance(node, ast.Attribute):
                    ident = node.attr
                else:
                    continue
                refs.setdefault(ident, []).append((path, node.lineno))
    return refs


def _unused() -> list[str]:
    refs = _references()
    unused = []
    for qualified, name, path, node in _definitions():
        users = [
            (p, line)
            for p, line in refs.get(name, [])
            if not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not users:
            unused.append(qualified)
    return unused


def test_every_public_name_has_a_user():
    unused = [name for name in _unused() if name not in KEEP]
    assert unused == [], "public names nothing uses; delete them or add to KEEP"


def test_keep_list_names_only_existing_definitions():
    defined = {qualified for qualified, _name, _path, _node in _definitions()}
    assert set(KEEP) <= defined
