"""Every public function, class, method, field and default of the package
has a user.

A user is a Name or Attribute that mentions the definition's name in
``src/``, ``perfbench/``, ``benchmarks/`` or ``tests/test_acceptance.py``,
outside the definition itself.  A method's user must be an Attribute
(``.name``), so a local variable of the same name does not count.  A
field's user reads it as an attribute; a defaulted parameter's user is a
call that sets it, by keyword or by position.  A dunder method is called by
syntax (``a @ b``, ``len(x)``, an f-string), which bare identifiers cannot
tie to a class: an operator node would count as a user of every ``__xor__``
while ints are XORed everywhere.  So every dunder but the construction
hooks ``__init__`` and ``__post_init__`` (used wherever their class is)
must be listed in KEEP with the code that calls it.  Unit tests do not
count: code that only its own tests call, read or set is dead weight.  Matching is by bare identifier, so a name collision
can only let dead code through, never flag live code.
"""

import ast
import importlib
import re
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
    "local_complement": "Graph-level reference the mask-level LC closure is tested against",
    "symplectic_product": "definition-level route for certified absence",
    "PauliOp.single": "builds the single-qubit errors of the tests",
    "Graph.permute": "relabelling that the canonical-form tests apply",
    "Graph.has_edge": "adjacency reference for the graph tests",
    "CliqueGraph.has_edge": "adjacency reference for the clique-graph tests",
    "GF2Matrix.identity": "reference matrix for the inversion tests",
    "cws_maxclique": "one-call pipeline the tests compare searches against",
    "compute_sd": "the paper's S_D constraint set, documented in the README",
    "graph_state_amplitudes": "dense graph state the oracle tests check against",
    # dunders, with the code that calls them
    "ErrorSet.__len__": "len(errors) in errormap.setup",
    "BitString.__str__": "codeword text in verify.write_code_file, report_lines and the search CLI",
    "PauliOp.__str__": "witness_error in verify.report_lines",
    "PauliOp.__matmul__": "Pauli products in ac06.regenerate_generators and compute_sd",
}

# Fields kept without a reader, each for the reason given.
KEEP_FIELDS = {
    "AC06Conversion.word_operators": "Paulis realising each codeword; the AC06 tests check them",
    "LCRecord.letters": "local Clifford moves to graph form; the reduction tests check them",
    "SdResult.elements": "the paper's S_D set; the compute_sd tests check it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _dunder(name: str) -> bool:
    return (
        name.startswith("__") and name.endswith("__")
        and name not in ("__init__", "__post_init__")
    )


def _definitions():
    """(qualified name, bare name, path, node) of every public top-level
    function and class, and of every public or dunder method of such a
    class but the construction hooks."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            yield node.name, node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        _public(item.name) or _dunder(item.name)
                    ):
                        yield f"{node.name}.{item.name}", item.name, path, item


def _user_nodes():
    """(path, node) of every AST node in the user files."""
    for user in USERS:
        for path in [user] if user.is_file() else sorted(user.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                yield path, node


def _references() -> dict[str, list[tuple[Path, int, bool]]]:
    """Identifier -> (path, line, is attribute) of each Name or Attribute in
    the user files."""
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, node in _user_nodes():
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        else:
            continue
        refs.setdefault(ident, []).append(
            (path, node.lineno, isinstance(node, ast.Attribute))
        )
    return refs


def _unused() -> list[str]:
    refs = _references()
    unused = []
    for qualified, name, path, node in _definitions():
        method = "." in qualified
        users = [
            (p, line)
            for p, line, attribute in refs.get(name, [])
            if not (p == path and node.lineno <= line <= node.end_lineno)
            and (attribute or not method)
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


def _fields():
    """Qualified name of every annotated public field of a public class."""
    for qualified, _name, _path, node in _definitions():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _public(item.target.id)
                ):
                    yield f"{qualified}.{item.target.id}"


def test_every_public_field_has_a_reader():
    read = {
        node.attr
        for _path, node in _user_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        field
        for field in _fields()
        if field.rsplit(".", 1)[1] not in read and field not in KEEP_FIELDS
    ]
    assert unread == [], "fields nothing reads; delete them or add to KEEP_FIELDS"


def test_keep_fields_names_only_existing_fields():
    assert set(KEEP_FIELDS) <= set(_fields())


def _defaults():
    """(qualified name, parameter, position, path, node) of every defaulted
    parameter of a public function or method; position counts the
    arguments a call passes, so a method's ``self`` or ``cls`` is skipped."""
    for qualified, _name, path, node in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = "." in qualified and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            yield qualified, positional[index].arg, index - bound, path, node
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, arg.arg, None, path, node


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def test_every_default_is_set_by_a_caller():
    calls: dict[str, list[tuple[Path, ast.Call]]] = {}
    for path, node in _user_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            ident = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(ident, []).append((path, node))
    unset = [
        f"{qualified}({param}=)"
        for qualified, param, position, path, node in _defaults()
        if not any(
            _sets(call, param, position)
            for p, call in calls.get(node.name, [])
            if not (p == path and node.lineno <= call.lineno <= node.end_lineno)
        )
    ]
    assert unset == [], "defaults no caller sets; make them constants or drop them"


def test_readme_names_only_existing_helpers():
    # every backticked `module.name` of the package in README.md, with or
    # without `cwskit.`, resolves
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    cited = re.findall(r"`(?:cwskit\.)?((\w+)\.[\w.]+)`", (ROOT / "README.md").read_text())
    names = sorted({name for name, module in cited if module in modules})
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"cwskit.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert names and missing == []


def _imports_kernels(node: ast.AST) -> bool:
    """`from . import kernels`, `from .kernels import ...`, `import
    cwskit.kernels` and their absolute forms."""
    if isinstance(node, ast.Import):
        return any(alias.name == "cwskit.kernels" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("kernels", "cwskit.kernels"):
            return True
        return module in ("", "cwskit") and any(a.name == "kernels" for a in node.names)
    return False


def test_no_module_imports_kernels():
    # each kernel lives in the module whose format it reads; kernels.py
    # only holds the two names perfbench/ reads until it is deleted
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(_imports_kernels(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert importers == []
    # any other statement, an import included, shows up as "?"
    statements = ast.parse((PACKAGE / "kernels.py").read_text()).body[1:]  # after the docstring
    names = [
        node.targets[0].id if isinstance(node, ast.Assign) else getattr(node, "name", "?")
        for node in statements
    ]
    assert names == ["HAVE_NUMBA", "warmup"]
