"""The source each `FieldPlan` writer and the Horner kernel writer emit,
compared verbatim with the files under tests/golden/, so a change to a
generator shows in review as a diff of the code that runs."""

from pathlib import Path

import pytest

from fracseries import Monomial, PolynomialVectorField, sir_field
from fracseries.field import _GENERATED
from fracseries.fracpoly import _horner_source

GOLDEN = Path(__file__).parent / "golden"
# 65 coefficients take one full 64-step statement and one of a single step.
HORNER_SIZES = (3, 65)

FIELDS = {
    "sir": sir_field(0.001, 0.072),
    # Time powers, a repeated factor (x^2 * z) and constant monomials.
    "timed": PolynomialVectorField(
        equations=((Monomial(1.5, (2, 1), 1), Monomial(-0.5, (0, 0), 2)),
                   (Monomial(2.0, (1, 0)), Monomial(0.25, (0, 0)))),
        variable_names=("x", "z"),
    ),
}


@pytest.mark.parametrize("name", _GENERATED)
@pytest.mark.parametrize("key", sorted(FIELDS))
def test_source_matches_golden_file(key, name):
    path = GOLDEN / f"{key}.{name}.py"
    field = FIELDS[key]
    source = "\n".join(getattr(field.plan, f"{name}_source")()) + "\n"
    # A field's repr rebuilds it, so the command needs no file of this suite.
    command = (f"PYTHONPATH=src python -c \"from fracseries import *; "
               f"print(*{field!r}.plan.{name}_source(), sep='\\n')\" > tests/golden/{path.name}")
    assert path.is_file() and path.read_text() == source, (
        f"{path} is not what {name}_source() emits; if the change is meant, "
        f"regenerate it from the repository root with\n{command}"
    )


@pytest.mark.parametrize("n", HORNER_SIZES)
def test_horner_source_matches_golden_file(n):
    path = GOLDEN / f"horner.{n}.py"
    source = "\n".join(_horner_source(n)) + "\n"
    command = (f"PYTHONPATH=src python -c \"from fracseries.fracpoly import _horner_source; "
               f"print(*_horner_source({n}), sep='\\n')\" > tests/golden/{path.name}")
    assert path.is_file() and path.read_text() == source, (
        f"{path} is not what _horner_source({n}) emits; if the change is meant, "
        f"regenerate it from the repository root with\n{command}"
    )


def test_every_golden_file_is_read_by_a_case():
    read = {f"{key}.{name}.py" for key in FIELDS for name in _GENERATED}
    read |= {f"horner.{n}.py" for n in HORNER_SIZES}
    stale = sorted(p.name for p in GOLDEN.glob("*.py") if p.name not in read)
    assert not stale, f"no case reads {stale}: delete the file or add its case"
