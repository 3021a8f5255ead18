"""Mutation tests of the raw oracles: seeded faults in the generated
recursion must be flagged.

Each mutant rewrites `FieldPlan.recurrence_source()` of a golden field and
is compiled by the plan's own `_compile`, with the plan's coefficient
globals.  Every mutant must change at least one coefficient, so none is
equivalent to the original.  Two oracles judge the result:

- `verify_defect_conditions` flags a run whose largest limit is not at most
  THRESHOLD;
- at alpha 1, the exact recursion of `series_reference` flags any
  coefficient farther from the exact one than `solve`'s rounding allows.

The unmutated plan passes both on every case, so the table also guards
against false alarms.  Measured at THRESHOLD 1e-3: on SIR at degree 9 and
40 the unmutated maximum is at most 1.1e-5 and every mutant reads at least
0.9; on the timed field at degree 9 it is at most 5.2e-15 against at least
10.  The timed field at degree 40 is left out: its unmutated raw maximum
reads 2.5e8 at alpha 0.5 and 2.3e26 at alpha 1, while the dropped-term
mutant reads 31 and 1.4e5, so no fixed threshold separates them.  Those
cases, and any mutant that changes a coefficient by a relative 1e-9, need
an oracle scaled to the size of the coefficients.
"""

import re

import pytest

from fracseries import PolynomialVectorField, SeriesProblem, solve, verify_defect_conditions

from series_reference import rounding_misses
from test_golden import FIELDS

THRESHOLD = 1e-3

Y0 = {"sir": (620.0, 10.0, 70.0), "timed": (0.5, 1.0)}

CASES = [(key, degree, alpha) for key, degrees in (("sir", (9, 40)), ("timed", (9,)))
         for degree in degrees for alpha in (0.5, 1.0)]

RATIO = "ratio = g[i - 1] / g[i]"

# Each rewrites the recurrence's source text.
MUTANTS = {
    "ratio inverted": lambda s: s.replace(RATIO, "ratio = g[i] / g[i - 1]"),
    "ratio one index late from i = 2":
        lambda s: s.replace(RATIO, f"{RATIO} if i == 1 else g[i - 2] / g[i - 1]"),
    # A forward sum of P[m] * y[m]: one shared iterator keeps the pairs in
    # step, and the odd step's last product pairs the last slots.
    "convolution not reversed": lambda s: re.sub(
        r"reversed\((y\d+)\)", r"iter(\1)", re.sub(r"\b(y\d+)\[0\]", r"\1[-1]", s)),
    "first term's slot one index late from i = 3":
        lambda s: re.sub(r"(acc \+= c\d+_\d+ \* \w+)\[i - (\d+)\]", r"\1[i - \2 - (i >= 3)]", s,
                         count=1),
    "first term dropped": lambda s: re.sub(r"\n[^\n]*acc \+= c[^\n]*", "", s, count=1),
}


def _run(case, mutant=None):
    """The solution of `case`, from the plan's recurrence or from its
    mutant, and the problem it solves."""
    key, degree, alpha = case
    golden = FIELDS[key]
    source = "\n".join(golden.plan.recurrence_source())
    if mutant is not None:
        source = MUTANTS[mutant](source)
    # A fresh field, so its plan compiles the rewritten source.
    field = PolynomialVectorField(golden.equations, golden.variable_names)
    field.plan.recurrence_source = lambda: source.split("\n")
    problem = SeriesProblem(field=field, y0=Y0[key], alpha=alpha, t0=0.0, degree=degree)
    return solve(problem), problem


def _raw_limits_pass(solution, problem):
    return all(v <= THRESHOLD for v in verify_defect_conditions(solution, problem))


def _bits(solution):
    return [[c.hex() for c in s.coeffs] for s in solution.series]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_unmutated_plan_passes_every_oracle(case):
    solution, problem = _run(case)
    assert _raw_limits_pass(solution, problem)
    if problem.alpha == 1.0:
        assert rounding_misses(problem, solution.series) == []


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("case", CASES, ids=str)
def test_mutant_is_flagged(case, mutant):
    solution, problem = _run(case, mutant)
    assert _bits(solution) != _bits(_run(case)[0]), "equivalent mutant"
    assert not _raw_limits_pass(solution, problem)
    if problem.alpha == 1.0:
        assert rounding_misses(problem, solution.series)
