"""Every demo script runs to completion against the current API, no
library module keeps an import it never uses, the library reads every
private name it defines, and no library method lives for the tests alone."""

import ast
import runpy
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_library_modules_read_every_import():
    # the package's own unused-import scan: a name that a module imports but
    # never reads and does not list in __all__ is stale (the package
    # __init__ imports in order to re-export, so it is not scanned)
    stale = []
    for path in sorted((ROOT / "src" / "onofri").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, read, exported = {}, set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        stale += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read | exported]
    assert not stale, f"imported but never used: {', '.join(stale)}"


def test_library_modules_read_every_private_name():
    # a private module-level name (function, class or assignment) that no
    # library module reads, imports or reaches as an attribute is dead code:
    # tests and the bench reading it do not keep it alive
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "onofri").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined.update((n, f"{path.name}:{node.lineno}") for n in names if n.startswith("_") and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = [f"{where} {name}" for name, where in defined.items() if name not in read]
    assert not unread, f"defined but never read: {', '.join(unread)}"


def _read_names(tree):
    return [getattr(n, "attr", None) or n.id for n in ast.walk(tree)
            if isinstance(n, (ast.Attribute, ast.Name)) and isinstance(n.ctx, ast.Load)]


def test_library_methods_have_a_caller():
    # a method of a library class that no library module, bench script or
    # demo reads outside its own definition lives for the tests alone
    trees = {p: ast.parse(p.read_text()) for d in ("src/onofri", "perfbench", "demos") for p in sorted((ROOT / d).glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _read_names(tree))
    uncalled = [f"{p.name}:{fn.lineno} {cls.name}.{fn.name}" for p, tree in trees.items() if p.parent.name == "onofri"
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
                and reads[fn.name] == _read_names(fn).count(fn.name)]
    assert not uncalled, f"defined but read only by tests: {', '.join(uncalled)}"
