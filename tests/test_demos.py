"""Every demo script runs to completion against the current API, and no
library module keeps an import it never uses."""

import ast
import runpy
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
