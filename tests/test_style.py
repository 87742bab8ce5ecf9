"""Style limits that every source file of the package keeps."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 100


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_line_exceeds_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"


def _definitions_and_uses():
    """Each module-level function and class of the package as (file, name),
    each module-level constant (an assignment to one name) likewise, and
    every name the package uses outside that definition's own statement: a
    bare name, an attribute or an imported name."""
    defined, constants, used = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((path.name, owner))
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                owner = targets[0].id
                constants.append((path.name, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != owner:
                    used.append(name)
    return defined, constants, set(used)


def test_every_definition_is_referenced():
    # a definition the package neither calls nor exports is a second route
    # or dead code; the package's __init__ imports count as references
    defined, _, used = _definitions_and_uses()
    unreferenced = [f"{module}:{name}" for module, name in defined if name not in used]
    assert unreferenced == [], f"unreferenced library definitions: {unreferenced}"


def test_every_constant_is_referenced():
    # a constant the package never reads is left behind by a deleted route;
    # the version string is read by the package's installers
    _, constants, used = _definitions_and_uses()
    unreferenced = [f"{module}:{name}" for module, name in constants
                    if name not in used and name != "__version__"]
    assert constants and unreferenced == [], f"unreferenced library constants: {unreferenced}"


def _dataclass_fields():
    """Each field of a dataclass the package declares, as (file, class, field)."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield path.name, node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    # a field nothing reads is state held for nobody; a read is an attribute
    # load of its name anywhere in the package or its tests
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.parent.joinpath("tests").rglob("*.py"))
    read = {node.attr for path in files
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{cls}.{name}" for module, cls, name in _dataclass_fields()
              if name not in read]
    assert unread == [], f"dataclass fields nothing reads: {unread}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # an import its module never names is a leftover of a deleted route; the
    # package's __init__ imports to export, and __future__ imports are flags
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - named) == [], f"{path.name}: unused imports"
