"""Static checks on the library's source files."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "totem"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Each name an import statement binds, with the line that binds it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_found():
    assert len(MODULES) >= 8


ROOT = SOURCE.parent.parent
#: Each script and test file, named by its path from the repository root;
#: the benchmark harness is left out.
SCRIPTS = {f"{p.parent.name}/{p.name}": p for d in ("demos", "tests")
           for p in sorted((ROOT / d).glob("*.py"))}


@pytest.mark.parametrize("path", MODULES + list(SCRIPTS.values()),
                         ids=[p.name for p in MODULES] + list(SCRIPTS))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """Each name a module-level function, class or assignment defines, with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCE.glob("*.py")}
    read = set()
    for tree in trees.values():
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        read.update(name for name, _ in _imported_names(tree))
    dead = [f"{module}:{line} {name}" for module, tree in sorted(trees.items())
            for name, line in _private_definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not dead, f"private names that no module reads: {dead}"


#: The files that use the public names: every library module but the
#: package's re-exports, the demos, the benchmark harness and the
#: acceptance criteria.
CALLERS = (sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _used_names(tree):
    """Each name a file reads, reaches as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def _public_names(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_no_public_names_without_callers():
    used = set()
    for path in CALLERS:
        used.update(_used_names(ast.parse(path.read_text(), filename=str(path))))
    unused = [f"{path.name} {name}" for path in MODULES
              for name in _public_names(ast.parse(path.read_text(), filename=str(path)))
              if name not in used]
    assert not unused, f"public names that no module, demo or benchmark uses: {unused}"


def _public_members(tree, classes):
    """Each public method, property and annotated field of the named classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield node.name, name


def test_no_public_members_without_callers():
    read = set()
    for path in CALLERS:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{path.name} {cls}.{name}"
                   for cls, name in _public_members(tree, set(_public_names(tree)))
                   if name not in read]
    assert not unread, f"public class members that no module, demo or benchmark reads: {unread}"


def _imported_modules(tree):
    """Each module an import names, and each name it imports read as a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}".lstrip(".") for alias in node.names)


def test_oracles_import_no_solver():
    # an oracle computed by the solver it checks is no oracle
    path = SOURCE / "closed_forms.py"
    solvers = sorted(m for m in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
                     if m.split(".")[-1] in ("projection", "inference"))
    assert not solvers, f"closed_forms.py imports from the solvers: {solvers}"
