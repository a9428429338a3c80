"""No unused module-level imports, and no dead private helpers in the package.

The project runs no linter, so these stdlib `ast` scans stand in for one:
- a name bound by a module-level import must be read somewhere in its module,
  or listed in the module's `__all__` (a re-export);
- a module-level `_private` function, class or assigned name in the package
  must be named somewhere in `src/`, `tests/` or `bench/`: read, imported, or
  given as an attribute or a string (as `monkeypatch.setattr` takes it), so a
  derived table that nothing reads any more fails too;
- every name in a package module's `__all__` must be bound at the module's top
  level, so an entry left behind by a deletion fails here, not on `import *`;
- a module-level `_private` function or class, or a `_private` method, of the
  package must be named in the package itself outside its own definition, so
  a helper that only the tests or its own recursion still call fails too.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "lieq").rglob("*.py"))


def unused_imports(tree):
    """Names bound by the module's top-level imports that the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used - exported_names(tree))


def exported_names(tree):
    """The string entries of the module's top-level `__all__` assignments."""
    return {e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in ast.walk(node.value) if isinstance(e, ast.Constant)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom x import a, b as c\nimport p.q\n__all__ = ['a']\np.r()\n")
    assert unused_imports(tree) == ["c", "os"]


def private_helpers(tree):
    """Names of the module-level `_private` functions, classes and assignments of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_used(tree):
    """Every name a module reads, imports, or gives as an attribute or a string."""
    return set(name_counts(tree))


def name_counts(tree):
    """How often a tree reads, imports, or gives as an attribute or a string each name."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def unused_private_helpers(module, trees):
    """The private helpers of module that no tree in trees names."""
    used = set().union(*map(names_used, trees))
    return sorted(set(private_helpers(module)) - used)


@pytest.fixture(scope="module")
def every_tree():
    paths = SOURCES + sorted((ROOT / "bench").rglob("*.py"))
    return [ast.parse(p.read_text(), str(p)) for p in paths]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_private_helpers(path, every_tree):
    assert unused_private_helpers(ast.parse(path.read_text(), str(path)), every_tree) == []


def test_the_scan_flags_an_unused_private_helper():
    module = ast.parse(
        "def _dead(): pass\nclass _Gone: pass\ndef _called(): pass\n"
        "def _imported(): pass\ndef _patched(): pass\ndef __getattr__(name): pass\n"
        "_DERIVED = {}\n_READ = {}\n_TYPED: dict = {}\n__version__ = '1'\n"
        "def public(): return _called(), _READ\n")
    other = ast.parse("from m import _imported\nmonkeypatch.setattr(m, '_patched', None)\n")
    assert unused_private_helpers(module, [module, other]) == [
        "_DERIVED", "_Gone", "_TYPED", "_dead"]


def private_definitions(tree):
    """The module-level `_private` function and class definitions of a module,
    and the `_private` methods of its classes."""
    defs = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else ()
        for d in [node, *body]:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                defs.append(d)
    return defs


def unreferenced_definitions(module, trees):
    """The private definitions of module that no tree names outside the definition."""
    used = sum(map(name_counts, trees), Counter())
    return sorted(d.name for d in private_definitions(module)
                  if used[d.name] <= name_counts(d)[d.name])


@pytest.fixture(scope="module")
def package_trees():
    return {p: ast.parse(p.read_text(), str(p)) for p in PACKAGE}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_definition_is_used_by_the_package(path, package_trees):
    trees = list(package_trees.values())
    assert unreferenced_definitions(package_trees[path], trees) == []


def test_the_scan_flags_a_private_definition_used_only_by_itself():
    module = ast.parse(
        "def _recursive(n): return _recursive(n - 1)\nclass _Unused: pass\n"
        "class A:\n    def _dead(self): return self._dead()\n"
        "    def _used(self): pass\n    def __len__(self): return 0\n"
        "    def public(self): return self._used(), _called()\n"
        "def _called(): pass\ndef _elsewhere(): pass\n")
    other = ast.parse("from m import _elsewhere\n")
    assert unreferenced_definitions(module, [module, other]) == ["_Unused", "_dead", "_recursive"]


def undefined_exports(tree):
    """Names listed in the module's `__all__` that no top-level statement binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return sorted(exported_names(tree) - bound)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_exported_name_is_defined(path):
    assert undefined_exports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_flags_a_stale_export():
    tree = ast.parse("import os\nfrom x import a\nB = 1\ndef f(): pass\nclass C: pass\n"
                     "__all__ = ['os', 'a', 'B', 'f', 'C', 'GONE']\n")
    assert undefined_exports(tree) == ["GONE"]
