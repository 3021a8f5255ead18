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

`solve` runs this recursion in O(n^2) through a function generated once per
field (`FieldPlan.recurrence`), given the initial values and a Gamma table
whose length fixes n: one loop over i in which each chain of partial
products appends grid slot i-1 to its own float list, then every equation
sums its terms in `compose_series`'s order, so the coefficients are
bit-identical to recomposing the whole field at every step.  A chain's dot
product sums every product without `multiply_truncated`'s test for a zero
slot, and sums again with that test only when the result is NaN: from +0.0
a sum is never -0.0, so a product 0 * finite changes nothing, and 0 * inf
or 0 * NaN leaves the sum NaN, so the bits are the same.  `solve` builds
no defect.  `build_defect` and `verify_defect_conditions` stay on the literal
path (`compose_series`, then repeated Caputo derivatives) and share no
shortcut with `solve`: both take the defect from `_defect`, which states its
bit rule, and all three read Gamma values from `_gamma_table`, which states
the one-table rule.  The oracle reads limit k of each defect component off
its own diagonal through `fracpoly._caputo_limit`, which carries
coefficient k down to slot 0 with the step's operations in the order the
k-fold derivative applies them, so no list or polynomial is built per
derivative, and the check costs O(n^2) arithmetic at most.  A
coefficient that is exactly 0.0 is returned as it is, without a walk: each
step multiplies and divides by finite, positive Gamma values, so a walk
from a signed zero only ever gives that same zero, and the skip keeps its
bits.  Defects are sparse (on the benchmark's problems most of their
coefficients are exactly zero), so most walks are skipped.  Polynomials on
these paths are built from floats the library computed, without
re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .field import PolynomialVectorField, compose_series
from .fracpoly import (FractionalPolynomial, _caputo_limit, _caputo_step, _check_degree,
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
    fixed by the explicit recursion described in the module docstring, all
    components advancing in lockstep over `_gamma_table` of degree + 1 entries.
    Degree 0 returns the constant initial values.  No defect is built;
    `build_defect` and `verify_defect_conditions` check the result.

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

    For each i = 1..degree, applies the Caputo derivative literally i-1 times
    to every defect component and takes the limit at t0+ (the constant term),
    returning max over equations of the absolute limit value per index (NaN
    when any equation's limit is NaN, 0.0 when there is no equation).  All
    entries are ~0 for a correct solution; this is the independent oracle
    for the recursion in `solve`.

    Limit k of a defect component d is `_caputo_limit(d, k, g)`: d[k]
    carried down its diagonal by `x * g[i] / g[i - 1]` for i = k down to 1,
    the operations by which the k-fold `_caputo_step` moves d[k] to slot 0.
    So each limit is bit-identical to `sequential_caputo_limit(k)` on
    `build_defect`'s component, at O(n^2) instead of O(n^3) cost in all,
    and no derivative list or polynomial is built.  A d[k] that is exactly
    0.0 is returned without a walk; the table is finite and positive, so the
    walk would give that same zero, sign included.  The rows and the one
    table g come from `_defect`, with g covering the n limit indices too.

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
    return [_largest_limit([_caputo_limit(d, k, g) for d in rows]) for k in range(n)]


def _gamma_table(alpha: float, size: int) -> list[float]:
    """g[i] = Gamma(i*alpha + 1) for i < size, one `gamma` call per entry.

    `solve`, `build_defect` and `verify_defect_conditions` each build exactly
    one such table per call and read every Gamma value from it; nothing is
    cached on a polynomial.  So a degree-n solve or check costs n + 1 calls.

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
    is one `_gamma_table` of max(size, longest series) entries, which serves
    every series' derivative, so a defect costs one `gamma` call per entry.
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


def _largest_limit(values: Sequence[float]) -> float:
    """max over the components of |limit at t0+|, NaN if any limit is NaN,
    0.0 when there is no component.

    `max` alone drops a NaN that is not first, since every comparison with
    NaN is false.  The absolute limits are non-negative, so their sum is NaN
    exactly when one of them is.
    """
    limits = [abs(x) for x in values]
    total = sum(limits)
    return total if total != total else max(limits, default=0.0)
