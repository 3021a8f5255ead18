"""Every name a module of the package imports is read or re-exported, and
the tests' series reference imports only the standard library.

A name that stays imported after its last use is dead code, and a check
that leans on it would pass for a reason the module no longer has.  A
reference that imported the package would share the code it checks.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fracseries").glob("*.py"))
REFERENCE = Path(__file__).parent / "series_reference.py"


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


def _foreign_imports(tree: ast.Module) -> list[str]:
    """The modules `tree` imports from outside the standard library; a
    relative import keeps its leading dots."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]


def test_the_series_reference_shares_no_code_with_the_package():
    tree = ast.parse(REFERENCE.read_text())
    assert _foreign_imports(tree) == []
    assert _unread_imports(tree) == []


def test_a_foreign_import_is_found():
    tree = ast.parse("import fracseries.solver\nfrom fracseries import solve\n"
                     "from . import field\nimport math, test_golden\nfrom os import path\n")
    assert _foreign_imports(tree) == ["fracseries.solver", "fracseries", ".", "test_golden"]
