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
field (`FieldPlan.recurrence` on `PolynomialVectorField.plan`, written by
`FieldPlan.recurrence_source()`): one loop over i in which each chain of
partial products appends grid slot i-1 to its own float list, then every
equation sums its terms in the order `compose_series` sums them, so the
coefficients are bit-identical to recomposing the whole field at every step.
`solve` stops there and builds no defect.  `build_defect` and
`verify_defect_conditions` stay on the literal path (`compose_series`, then
repeated Caputo derivatives), with no shortcut shared with `solve`.  The
oracle walks one derivative chain per defect component and reads every limit
off it on the way, so it too costs O(n^2) arithmetic rather than O(n^3).
Each chain computes its Gamma values once (every derivative shares its
parent's table), so a degree-n check makes O(n) `gamma` calls per component.
The composition builds each chain's product once per call, at full degree.
Every polynomial on these paths, like the series `solve` returns, is built
from floats the library computed, without re-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import PolynomialVectorField, compose_series
from .fracpoly import FractionalPolynomial, _from_floats, add_scaled
from .special import gamma


@dataclass(frozen=True)
class SeriesProblem:
    """An initial value problem together with the requested series degree."""

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
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if type(self.degree) is not int or self.degree < 0:
            raise ValueError(f"degree must be an int >= 0, got {self.degree!r}")


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
    """Defect D^alpha P - f(t, P) per equation, truncated at max_degree."""
    composed = compose_series(field, candidate, max_degree)
    out = []
    for p, fp in zip(candidate, composed):
        d = add_scaled(p.caputo_derivative(), fp, 1.0, -1.0)
        out.append(d.truncated(max_degree))
    return out


def solve(problem: SeriesProblem) -> SeriesSolution:
    """Determine the series coefficients of degree `problem.degree`.

    The constant coefficients are the initial values; each further index is
    fixed by the explicit recursion described in the module docstring, all
    components advancing in lockstep.  Degree 0 returns the constant initial
    values.  No defect is built; `build_defect` and `verify_defect_conditions`
    check the result.
    """
    n = problem.degree
    a = problem.alpha
    g = [gamma(i * a + 1.0) for i in range(n + 1)]
    coeffs = problem.field.plan.recurrence(n, problem.y0, g)
    series = tuple(_from_floats(a, problem.t0, tuple(c)) for c in coeffs)
    return SeriesSolution(series=series, problem=problem)


def verify_defect_conditions(
    solution: SeriesSolution, problem: SeriesProblem
) -> list[float]:
    """Check the limit conditions the coefficients were derived from.

    For each i = 1..degree, applies the Caputo derivative literally i-1 times
    to every defect component and takes the limit at t0+ (the constant term),
    returning max over equations of the absolute limit value per index.  All
    entries are ~0 for a correct solution; this is the independent oracle for
    the recursion in `solve`.

    Each component's derivatives form one chain, walked once: the k-th
    polynomial on it is the one `sequential_caputo_limit(k)` builds, so the
    result is bit-identical to a per-index rebuild at O(n^2) instead of
    O(n^3) cost.
    """
    n = problem.degree
    if n == 0:
        return []
    defect = build_defect(problem.field, list(solution.series), n - 1)
    out = [max(abs(d.coeffs[0]) for d in defect)]
    for _ in range(n - 1):
        defect = [d.caputo_derivative() for d in defect]
        out.append(max(abs(d.coeffs[0]) for d in defect))
    return out
