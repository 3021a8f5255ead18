"""Series solver for Caputo systems D^alpha y = f(t, y), y(t0) = y0.

The solution ansatz is one fractional polynomial per state variable, all on
the same alpha-grid.  Coefficients are fixed by requiring that the limit at
t0+ of the (i-1)-fold sequential Caputo derivative of every component of the
defect Def(t) = D^alpha P(t) - f(t, P(t)) vanishes, for i = 1..n.

Because f is polynomial, the grid-slot-(i-1) coefficient of f(t, P) depends
only on series coefficients with index < i, which turns each of those limit
conditions into an explicit linear step:

    c_i[j] = Gamma((i-1)*alpha + 1) / Gamma(i*alpha + 1)
             * (slot i-1 coefficient of f(t, P) for equation j).

`solve` runs this recursion in O(n^2) through `FieldPlan.recurrence`, which
is generated once per field; `FieldPlan.recurrence_source` states its bits.
`build_defect` and `verify_defect_conditions` share nothing with it: they
compose the field literally and differentiate the defect (`_defect`), so they
stay an independent check of `solve`.  All three read Gamma values as
`_gamma_table` states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .field import PolynomialVectorField, compose_series
from .fracpoly import (FractionalPolynomial, _caputo_limits, _caputo_step, _check_degree,
                       _check_grid, _check_same_grid, _from_floats)
from .special import gamma


@dataclass(frozen=True)
class SeriesProblem:
    """An initial value problem and its series degree, checked by `fracpoly`'s rules."""

    field: PolynomialVectorField
    y0: tuple[float, ...]
    alpha: float
    t0: float
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "y0", tuple(float(v) for v in self.y0))
        if len(self.y0) != self.field.dimension:
            raise ValueError(
                f"{len(self.y0)} initial values for dimension {self.field.dimension}"
            )
        _check_grid(self.alpha, self.t0)
        _check_degree(self.degree, "degree")


@dataclass(frozen=True)
class SeriesSolution:
    """Series per state variable, together with the problem they solve."""

    series: tuple[FractionalPolynomial, ...]
    problem: SeriesProblem


def build_defect(
    field: PolynomialVectorField,
    candidate: list[FractionalPolynomial] | tuple[FractionalPolynomial, ...],
    max_degree: int,
) -> list[FractionalPolynomial]:
    """Defect D^alpha P - f(t, P) per equation, truncated at max_degree.

    The components are `_defect`'s rows, over a Gamma table sized to the
    longest series; `_defect` states their bits and their errors.
    """
    rows = _defect(field, candidate, max_degree, 0)[0]
    return [_from_floats(p.alpha, p.t0, tuple(row)) for p, row in zip(candidate, rows)]


def solve(problem: SeriesProblem) -> SeriesSolution:
    """Determine the series coefficients of degree `problem.degree`.

    The constant coefficients are the initial values; each further index is
    fixed by the step in the module docstring, all components advancing in
    lockstep over a `_gamma_table` of degree + 1 entries.  Degree 0 returns
    the constant initial values.  No defect is built; `build_defect` and
    `verify_defect_conditions` check the result.

    Raises:
        OverflowError: as `_gamma_table` (at alpha 1, from degree 171 on).
    """
    g = _gamma_table(problem.alpha, problem.degree + 1)
    coeffs = problem.field.plan.recurrence(problem.y0, g)
    series = tuple(_from_floats(problem.alpha, problem.t0, tuple(c)) for c in coeffs)
    return SeriesSolution(series=series, problem=problem)


def verify_defect_conditions(
    solution: SeriesSolution, problem: SeriesProblem
) -> list[float]:
    """Check the limit conditions the coefficients were derived from.

    For each i = 1..degree, takes the limit at t0+ of the (i-1)-fold
    sequential Caputo derivative of every defect component, and returns
    the largest absolute limit over the equations per index (0.0 when there
    is no equation).  This is the independent oracle for the recursion in
    `solve`.  The rows come from `_defect`, and each row's limits from one
    `fracpoly._caputo_limits` call, which states the walk, its bits and the
    NaN rule of the maximum.

    The limits are not scaled: the (i-1)-fold derivative of a slot-i term
    carries a factor Gamma(i*alpha + 1), so a correct solution can read
    large limits at high degree.  SIR at alpha 1 reads a largest limit of
    1.1e-5 at degree 40, 8.8e26 at degree 80 and 1.3e116 at degree 160,
    while its coefficients are right; a fixed threshold serves only at low
    degree.  ROADMAP item 20 proposes the scaled residual.

    Raises:
        GridMismatchError: unless every series shares the problem's alpha and t0.
        OverflowError: as `_gamma_table`.
    """
    n = problem.degree
    for s in solution.series:
        _check_same_grid(s, problem)
    if n == 0:
        return []
    rows, g = _defect(problem.field, solution.series, n - 1, n)
    if not rows:
        return [0.0] * n
    steps = [(g[i], g[i - 1]) for i in range(n - 1, 0, -1)]
    out = []
    for col in zip(*[_caputo_limits(d, n, steps) for d in rows]):
        total = sum(map(abs, col))
        out.append(total if total != total else max(map(abs, col)))
    return out


def _gamma_table(alpha: float, size: int) -> list[float]:
    """g[i] = Gamma(i*alpha + 1) for i < size, one `gamma` call per entry.

    `solve`, `build_defect` and `verify_defect_conditions` each build exactly
    one such table per call and read every Gamma value from it; nothing is
    cached on a polynomial.  `_defect` sizes its table to cover every series'
    derivative and every limit index at once, so a degree-n solve or check
    costs n + 1 calls, whatever the number of equations.

    Raises:
        OverflowError: if an entry is not a finite double; the message names
            the degree size - 1 and alpha as well as the Gamma argument.
    """
    try:
        return [gamma(i * alpha + 1.0) for i in range(size)]
    except OverflowError as exc:
        raise OverflowError(f"series of degree {size - 1} at alpha {alpha} "
                            f"overflowed: {exc}") from exc


def _defect(
    field: PolynomialVectorField,
    series: Sequence[FractionalPolynomial],
    max_degree: int,
    size: int,
) -> tuple[list[list[float]], list[float]]:
    """D^alpha p - f_j per equation as float lists, truncated at max_degree,
    and the Gamma table g they were built from.

    The series are composed first, so `compose_series`'s errors come before
    any Gamma value; a system with no equations gives ([], []).  Otherwise g
    is one `_gamma_table` of max(size, longest series) entries.
    Each derivative is one `fracpoly._caputo_step` on a plain float list, the
    kernel `caputo_derivative` also wraps, and the float operations are those of
    `add_scaled(p.caputo_derivative(), f_j, 1.0, -1.0).truncated(max_degree)`,
    so every bit, NaN signs included, is the same.

    Raises:
        ValueError: as `compose_series`.
        GridMismatchError: as `compose_series`.
        OverflowError: as `_gamma_table`.
    """
    composed = compose_series(field, series, max_degree)
    if not composed:
        return [], []
    g = _gamma_table(series[0].alpha, max([size, *(len(p.coeffs) for p in series)]))
    rows = [
        [1.0 * x + -1.0 * y
         for x, y in zip_longest(_caputo_step(p.coeffs, g), fp.coeffs, fillvalue=0.0)]
        [: max_degree + 1]
        for p, fp in zip(series, composed)
    ]
    return rows, g
