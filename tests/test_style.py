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


# Public functions, methods and properties that nothing in src/ reads, each with
# what keeps it: its README "What it computes" bullet, or the ROADMAP open item
# that is to give it a reader.
UNREAD_PUBLIC = {
    "exact_evolve": "README: exact Heisenberg evolution",
    "dyson_evolve": "README: the truncated power-series evolution with its tail bound",
    "kms_check": "README: the equilibrium (KMS) residual check for Gibbs states",
    "heat_direction_check": "ROADMAP item 5: simulate's record carries every listed check",
    "current_bound_check": "ROADMAP item 5: simulate's record carries every listed check",
    "VolumeOperators.g_norm": "ROADMAP item 6: a backward-error certificate",
    "derivation_growth_bound": "ROADMAP item 7: a rigorous bound on every sweep row",
    "tail_norm": "ROADMAP item 7: a rigorous bound on every sweep row",
}


def _public_definitions_and_reads():
    """Each public module-level function, and each public method or property of a
    module-level class, of the package as (qualified name, name), and every
    name the package reads: a bare name, an attribute or an imported name, outside
    __init__'s imports. A read inside a definition of the same name is not counted,
    so a recursive or self-referring definition is not its own reader."""
    public, reads = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public.append((stmt.name, stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                public += [(f"{stmt.name}.{node.name}", node.name) for node in stmt.body
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owners = {}   # the names of the definitions each node lies in
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    owners.setdefault(id(child), set()).add(node.name)
        for node in ast.walk(tree):
            if path.name == "__init__.py" and isinstance(node, ast.alias):
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None and name not in owners.get(id(node), ()):
                reads.append(name)
    return [(qual, name) for qual, name in public if not name.startswith("_")], set(reads)


def test_every_public_function_is_read():
    # a public function, method or property that no code of the package reads is
    # a feature no command reaches; an export from __init__ is not a reader, so
    # each such name is listed with what keeps it, and leaves the list once read
    public, reads = _public_definitions_and_reads()
    unread = {qual for qual, name in public if name not in reads}
    assert unread == set(UNREAD_PUBLIC), (
        f"unread and not listed: {sorted(unread - set(UNREAD_PUBLIC))}; "
        f"listed but read or gone: {sorted(set(UNREAD_PUBLIC) - unread)}")


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
