"""Every function of the package that reads `gamma`, listed by name.

A Gamma table written out once more shows up here as a diff, beside the
places that already build one: `solver._gamma_table` serves the solver,
`FractionalPolynomial` builds its own per call, and `conformable` reads
single values.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fracseries").glob("*.py"))

GAMMA_READERS = [
    "conformable.caputo_power_value",
    "conformable.conformable_power_derivative",
    "conformable.discrepancy_report",
    "fracpoly.FractionalPolynomial.caputo_derivative",
    "fracpoly.FractionalPolynomial.rl_integral",
    "solver._gamma_table",
]


def _gamma_readers(tree: ast.Module, module: str) -> list[str]:
    """Qualified names of the functions (or `<module>`) that read the bare
    name `gamma`, called or passed on; `math.gamma` is an attribute and
    does not count."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "gamma"
                    and isinstance(child.ctx, ast.Load)):
                found.add(".".join(scope if len(scope) > 1 else (module, "<module>")))
            visit(child, scope)

    visit(tree, (module,))
    return sorted(found)


def test_only_the_listed_functions_read_gamma():
    readers = []
    for path in SOURCES:
        readers += _gamma_readers(ast.parse(path.read_text()), path.stem)
    assert sorted(readers) == GAMMA_READERS


def test_a_new_reader_is_found():
    tree = ast.parse("import math\nfrom .special import gamma\n"
                     "TABLE = [gamma(1.0)]\n"
                     "class P:\n    def f(self):\n        return list(map(gamma, [1.0]))\n"
                     "def g(x):\n    return math.gamma(x)\n")
    assert _gamma_readers(tree, "m") == ["m.<module>", "m.P.f"]
