"""Static checks on the library's source files."""

import ast
import sys
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


#: What the library may import besides itself: the standard library and
#: numpy, its one runtime dependency in ``pyproject.toml``.  Anything more
#: is a new dependency, and slows ``import totem``.
_RUNTIME = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [(alias.name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [(node.module, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    foreign = [f"{name} (line {line})" for name, line in imported
               if name.split(".")[0] not in _RUNTIME]
    assert not foreign, f"{path.name} imports beyond the standard library and numpy: {foreign}"


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


_CACHES = ("cache", "lru_cache")


def _cache_uses(node, nested=False):
    """Each ``functools.cache`` or ``functools.lru_cache`` under ``node``:
    ``(name, call or None when applied bare, line, nested)``, where
    ``nested`` says whether it sits inside a function's body."""
    def cache_name(expr):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            name = expr.attr if expr.value.id == "functools" else None
        else:
            name = expr.id if isinstance(expr, ast.Name) else None
        return name if name in _CACHES else None

    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # decorators run where the function is defined, its body inside it
        for decorator in node.decorator_list:
            if cache_name(decorator):
                yield cache_name(decorator), None, decorator.lineno, nested
            else:
                yield from _cache_uses(decorator, nested)
        for statement in node.body:
            yield from _cache_uses(statement, True)
        return
    if isinstance(node, ast.Call) and cache_name(node.func):
        yield cache_name(node.func), node, node.lineno, nested
    for child in ast.iter_child_nodes(node):
        yield from _cache_uses(child, nested)


def _maxsize(call):
    """An ``lru_cache`` call's literal ``maxsize``, or ``None`` unless it is
    a literal whole number."""
    args = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    if len(args) != 1 or not isinstance(args[0], ast.Constant):
        return None
    value = args[0].value
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _unbounded_caches(tree, module):
    """Each cache in ``tree`` that outlives a call and has no explicit bound
    of at most one entry: ``functools.cache`` outside a function body, or
    ``functools.lru_cache`` there without a literal ``maxsize`` of 0 or 1."""
    for name, call, line, nested in _cache_uses(tree):
        where = f"{module}:{line} functools.{name}"
        if name == "cache" and not nested:
            yield f"{where} on a module-level function"
        elif name == "lru_cache" and not nested:
            size = None if call is None else _maxsize(call)
            if size is None or not 0 <= size <= 1:
                yield f"{where} without an explicit maxsize of at most 1"


def test_caches_are_bounded():
    # a module-level cache lives as long as the process and keeps every key
    # it holds alive: elements, distributions and their n-wide arrays
    unbounded = [problem for path in MODULES
                 for problem in _unbounded_caches(ast.parse(path.read_text(), filename=str(path)),
                                                  path.name)]
    assert not unbounded, f"caches that can grow without bound: {unbounded}"


def test_cache_scan_sees_every_form():
    source = """
import functools
from functools import cache, lru_cache
@functools.cache
def a(x): pass
@functools.lru_cache
def b(x): pass
@functools.lru_cache(maxsize=None)
def c(x): pass
@functools.lru_cache(maxsize=1)
def d(x): pass
@lru_cache(1)
def e(x): pass
class F:
    @cache
    def g(self): pass
def h():
    @functools.cache
    def i(): pass
    return functools.lru_cache(maxsize=None)(i)
j = lru_cache(maxsize=2)(d)
k = functools.lru_cache(maxsize=True)(d)
"""
    lines = [int(problem.split(":")[1].split()[0])
             for problem in _unbounded_caches(ast.parse(source), "m")]
    assert lines == [4, 6, 8, 15, 21, 22]


#: Each private name that freezes an eigenvalue array in place rather than
#: a copy, and the only definitions in operators.py that may reach it: the
#: builders, whose arrays are fresh and held nowhere else.
_NO_COPY = {
    "_operator": {"identity_op", "marginal_op", "moment_op", "success_op",
                  "_count_indicator", "product_op"},
    "_freeze": {"CharacteristicOperator", "_operator"},
}


def _references(tree, names):
    """``(name, enclosing module-level definition or None, line)`` for each
    read of ``names`` as a name or an attribute."""
    for node in tree.body:
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for ref in ast.walk(node):
            name = (ref.id if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load)
                    else ref.attr if isinstance(ref, ast.Attribute) else None)
            if name in names:
                yield name, scope, ref.lineno


def test_no_copy_operators_come_from_the_builders():
    # any other caller could hand over an array it still writes to
    paths = MODULES + list(SCRIPTS.values()) + sorted((ROOT / "perfbench").glob("*.py"))
    stray = [f"{path.name}:{line} {name} in {scope}" for path in paths
             for name, scope, line in _references(ast.parse(path.read_text()), _NO_COPY)
             if path.name != "operators.py" or scope not in _NO_COPY[name]]
    assert not stray, f"no-copy operator paths reached outside the builders: {stray}"


def test_no_copy_scan_sees_calls_and_aliases():
    source = """
def identity_op(space):
    return _operator(space, ones, "identity")
def helper(space, values):
    make = _operator
    return make(space, values, "x")
class Sneaky(CharacteristicOperator):
    def __init__(self, space, values):
        self._freeze(space, values, "")
"""
    found = [(name, scope) for name, scope, _ in _references(ast.parse(source), _NO_COPY)]
    assert found == [("_operator", "identity_op"), ("_operator", "helper"),
                     ("_freeze", "Sneaky")]
