"""Polynomial right-hand sides f(t, y) and their composition with series.

A vector field here is a list of equations, one per state variable, each a
sum of monomials

    coeff * ((t - t0)^alpha)^time_power * prod_j y_j^e_j.

Restricting time dependence to integer powers of (t - t0)^alpha keeps the
class closed under substitution of fractional polynomials: composing any
equation with series on the alpha-grid yields another series on that grid,
with no expansion of f itself required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .fracpoly import FractionalPolynomial, add_scaled, multiply_truncated


@dataclass(frozen=True)
class Monomial:
    """One term coeff * ((t-t0)^alpha)^time_power * prod_j y_j^state_powers[j]."""

    coeff: float
    state_powers: tuple[int, ...]
    time_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "state_powers", tuple(int(e) for e in self.state_powers))
        if any(e < 0 for e in self.state_powers):
            raise ValueError(f"state powers must be non-negative, got {self.state_powers}")
        if self.time_power < 0:
            raise ValueError(f"time power must be non-negative, got {self.time_power}")


@dataclass(frozen=True)
class PolynomialVectorField:
    """Right-hand side of a first-order system, one monomial list per variable."""

    equations: tuple[tuple[Monomial, ...], ...]
    variable_names: tuple[str, ...]

    def __post_init__(self) -> None:
        equations = tuple(tuple(terms) for terms in self.equations)
        names = tuple(str(v) for v in self.variable_names)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "variable_names", names)
        if len(equations) != len(names):
            raise ValueError(
                f"{len(names)} variable names for {len(equations)} equations"
            )
        dim = len(names)
        for terms in equations:
            for mono in terms:
                if len(mono.state_powers) != dim:
                    raise ValueError(
                        f"monomial has {len(mono.state_powers)} state powers, "
                        f"system dimension is {dim}"
                    )

    @property
    def dimension(self) -> int:
        return len(self.equations)

    @cached_property
    def plan(self) -> "FieldPlan":
        """This field compiled once, for `solve`, `evaluate_field` and RK4."""
        return FieldPlan(self)


class FieldPlan:
    """A vector field compiled for repeated evaluation.

    `nodes[k] = (parent, j)`: node k is node `parent` times y_j, node 0 is 1.
    A monomial's state factors (in variable order, repeats included) form a
    chain of nodes; chains share prefixes such as SIR's S*I.  Per equation,
    `terms` lists (coeff, time_power, chain's last node) and `points` lists
    (coeff, time_power, ((j, e) for every e > 0)), one entry per monomial.
    """

    def __init__(self, field: PolynomialVectorField) -> None:
        self.nodes, self.terms, self.points = [(-1, -1)], [], []
        index: dict[tuple[int, ...], int] = {(): 0}
        for equation in field.equations:
            self.terms.append([])
            self.points.append([])
            for m in equation:
                chain: tuple[int, ...] = ()
                for j, e in enumerate(m.state_powers):
                    for _ in range(e):
                        parent, chain = index[chain], chain + (j,)
                        if chain not in index:
                            index[chain] = len(self.nodes)
                            self.nodes.append((parent, j))
                factors = tuple((j, e) for j, e in enumerate(m.state_powers) if e)
                self.terms[-1].append((m.coeff, m.time_power, index[chain]))
                self.points[-1].append((m.coeff, m.time_power, factors))

    def evaluate(self, t_shifted_pow_alpha: float, y: Sequence[float]) -> list[float]:
        """`evaluate_field` without its argument checks."""
        out = []
        for terms in self.points:
            acc = 0.0
            for coeff, time_power, factors in terms:
                v = coeff
                if time_power:
                    v *= t_shifted_pow_alpha**time_power
                for j, e in factors:
                    v *= y[j] if e == 1 else y[j] ** e
                acc += v
            out.append(acc)
        return out


def evaluate_field(
    field: PolynomialVectorField, t_shifted_pow_alpha: float, y: Sequence[float]
) -> list[float]:
    """Evaluate every equation at a point.

    `t_shifted_pow_alpha` is the already-computed value of (t - t0)^alpha, so
    the same field serves both the series machinery (fractional alpha) and an
    integer-order integrator (alpha = 1, where it is simply t - t0).

    Raises:
        ValueError: if len(y) != field.dimension or the time value is negative.
    """
    if len(y) != field.dimension:
        raise ValueError(f"state has length {len(y)}, expected {field.dimension}")
    if t_shifted_pow_alpha < 0.0:
        raise ValueError(f"time value must be non-negative, got {t_shifted_pow_alpha}")
    return field.plan.evaluate(t_shifted_pow_alpha, y)


def compose_series(
    field: PolynomialVectorField,
    y_series: Sequence[FractionalPolynomial],
    max_degree: int,
) -> list[FractionalPolynomial]:
    """Substitute series for the state variables, truncating at max_degree.

    Each monomial is expanded with truncated Cauchy products; its time factor
    ((t-t0)^alpha)^p shifts the product by p grid slots.  Component series
    carry at most max_degree + 1 coefficients (fewer when every contribution
    lives below max_degree).

    Raises:
        ValueError: on dimension mismatch.
        GridMismatchError: if the input series do not share alpha and t0.
    """
    if len(y_series) != field.dimension:
        raise ValueError(
            f"{len(y_series)} series for a field of dimension {field.dimension}"
        )
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    alpha = y_series[0].alpha
    t0 = y_series[0].t0
    one = FractionalPolynomial(alpha, t0, (1.0,))
    out = []
    for terms in field.equations:
        acc = FractionalPolynomial(alpha, t0, (0.0,))
        for mono in terms:
            if mono.time_power > max_degree:
                continue
            budget = max_degree - mono.time_power
            prod = one
            for j, e in enumerate(mono.state_powers):
                for _ in range(e):
                    prod = multiply_truncated(prod, y_series[j], budget)
            shifted = (0.0,) * mono.time_power + tuple(
                mono.coeff * c for c in prod.coeffs
            )
            acc = add_scaled(acc, FractionalPolynomial(alpha, t0, shifted), 1.0, 1.0)
        out.append(acc)
    return out
