"""Every name a module of the package imports is read or re-exported.

A name that stays imported after its last use is dead code, and a check
that leans on it would pass for a reason the module no longer has.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fracseries").glob("*.py"))


def _unread_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(ast.parse(path.read_text())) == []


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from math import inf, nan as missing\n__all__ = ['inf']\n")
    assert _unread_imports(tree) == ["os", "missing"]
