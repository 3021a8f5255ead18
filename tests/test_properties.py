"""Property tests of `solve` over random polynomial fields.

Fields have dimension <= 4, monomials of total state degree <= 3 with time
powers up to 4, and series degree <= 30.  Examples are derandomized so that
every run checks the same cases.
"""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fracseries import (  # noqa: E402
    Monomial,
    PolynomialVectorField,
    SeriesProblem,
    solve,
)

from exact_reference import rounding_misses  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def monomials(draw, dim, coeffs=finite, max_time_power=4):
    powers = [0] * dim
    for j in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
        powers[j] += 1
    return Monomial(draw(coeffs), tuple(powers), time_power=draw(st.integers(0, max_time_power)))


@st.composite
def problems(draw, conservative=False, max_degree=30):
    """A random problem; with `conservative`, the last equation is minus the
    sum of the others, so the equations sum to zero."""
    dim = draw(st.integers(2 if conservative else 1, 4))
    equations = [
        tuple(draw(st.lists(monomials(dim), max_size=4)))
        for _ in range(dim - 1 if conservative else dim)
    ]
    if conservative:
        equations.append(
            tuple(dataclasses.replace(m, coeff=-m.coeff) for eq in equations for m in eq)
        )
    field = PolynomialVectorField(
        equations=tuple(equations), variable_names=tuple(f"y{j}" for j in range(dim))
    )
    return SeriesProblem(
        field=field,
        y0=tuple(draw(st.floats(-1.5, 1.5)) for _ in range(dim)),
        alpha=draw(st.floats(0.1, 1.0)),
        t0=draw(st.sampled_from([0.0, 1.5])),
        degree=draw(st.integers(0, max_degree)),
    )


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == alone does not.
    return [float(v).hex() for v in values]


@SETTINGS
@given(problems(max_degree=29))
def test_degree_n_solution_is_prefix_of_degree_n_plus_one(problem):
    shorter = solve(problem)
    longer = solve(dataclasses.replace(problem, degree=problem.degree + 1))
    for s, l in zip(shorter.series, longer.series):
        assert _bits(l.coeffs[:-1]) == _bits(s.coeffs)


@SETTINGS
@given(problems(conservative=True))
def test_conservative_fields_keep_coefficient_sums_at_zero(problem):
    # The same problem with every coefficient and initial value replaced by its
    # absolute value majorizes each product and sum that `solve` forms, so
    # its coefficients bound the rounding error of the sums.
    majorant = dataclasses.replace(
        problem,
        field=dataclasses.replace(
            problem.field,
            equations=tuple(
                tuple(dataclasses.replace(m, coeff=abs(m.coeff)) for m in eq)
                for eq in problem.field.equations
            ),
        ),
        y0=tuple(abs(v) for v in problem.y0),
    )
    series = solve(problem).series
    bound = solve(majorant).series
    for i in range(1, problem.degree + 1):
        total = math.fsum(s.coeffs[i] for s in series)
        scale = math.fsum(b.coeffs[i] for b in bound)
        assert abs(total) <= 1e-12 * scale, (i, total, scale)


@st.composite
def integer_problems(draw):
    """A random problem at alpha 1 with integer coefficients and initial
    values and time powers <= 2."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    field = PolynomialVectorField(
        equations=tuple(
            tuple(draw(st.lists(monomials(dim, small, max_time_power=2), max_size=4)))
            for _ in range(dim)
        ),
        variable_names=tuple(f"y{j}" for j in range(dim)),
    )
    y0 = tuple(draw(small) for _ in range(dim))
    return SeriesProblem(field=field, y0=y0, alpha=1.0, t0=0.0, degree=draw(st.integers(0, 30)))


@SETTINGS
@given(integer_problems())
def test_alpha_one_matches_the_exact_recursion(problem):
    assert rounding_misses(problem, solve(problem).series) == []
