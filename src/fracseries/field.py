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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .fracpoly import (_MAX_CHAIN, FractionalPolynomial, _check_degree, _check_same_grid,
                       _from_floats, add_scaled, multiply_truncated)


# FieldPlan builds one node per state factor, so a term's state degree is capped.
_MAX_STATE_DEGREE = 10_000


@dataclass(frozen=True)
class Monomial:
    """One term coeff * ((t-t0)^alpha)^time_power * prod_j y_j^state_powers[j].

    The coefficient is stored as a float.  Every power follows
    `fracpoly._check_degree`, and the state powers sum to at most 10000.
    """

    coeff: float
    state_powers: tuple[int, ...]
    time_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "state_powers", tuple(self.state_powers))
        for k, e in enumerate(self.state_powers):
            _check_degree(e, f"state_powers[{k}]")
        _check_degree(self.time_power, "time_power")
        if sum(self.state_powers) > _MAX_STATE_DEGREE:
            raise ValueError(f"state_powers sum to more than {_MAX_STATE_DEGREE}")


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

    @cached_property
    def dimension(self) -> int:
        return len(self.equations)

    @cached_property
    def plan(self) -> "FieldPlan":
        """This field's term table and generated loops, built once."""
        return FieldPlan(self)


_GENERATED = ("recurrence", "rk4")


class FieldPlan:
    """A vector field's term table, and the loops generated from it.

    `nodes[k] = (parent, j)`: node k is node `parent` times y_j, node 0 is 1.
    A monomial's state factors (in variable order, repeats included) form a
    chain of nodes; chains share prefixes such as SIR's S*I.  The one table
    `terms[i][m] = (coeff, time_power, node, factors)` holds monomial m of
    equation i: its chain's last node and (j, e) for every state power e > 0.
    Each name in `_GENERATED` is a loop written by `{name}_source()` and
    compiled by `_compile` on first use, once per field and none from
    another.  Coefficient m of equation i is always the global `c{i}_{m}`, so
    the source holds only names, indices, integer powers and fixed constants.
    """

    def __init__(self, field: PolynomialVectorField) -> None:
        self.nodes, self.terms = [(-1, -1)], []
        index: dict[tuple[int, int], int] = {}  # (parent, j) -> node
        for equation in field.equations:
            self.terms.append([])
            for m in equation:
                node = 0
                for j, e in enumerate(m.state_powers):
                    for _ in range(e):
                        if (node, j) not in index:
                            index[node, j] = len(self.nodes)
                            self.nodes.append((node, j))
                        node = index[node, j]
                factors = tuple((j, e) for j, e in enumerate(m.state_powers) if e)
                self.terms[-1].append((m.coeff, m.time_power, node, factors))

    @cached_property
    def recurrence(self) -> Callable[[Sequence[float], Sequence[float]], list[list[float]]]:
        """`solve`'s coefficient lists, from `recurrence_source`."""
        return self._compile("recurrence")

    @cached_property
    def rk4(self) -> Callable[..., tuple[list[float], list[tuple[float, ...]]]]:
        """`rk4_integrate`'s loop, from `rk4_source`."""
        return self._compile("rk4")

    def _compile(self, name: str) -> Callable:
        """Function `name` from `{name}_source()`, with the coefficients as
        its globals.  No source is kept, here or in `linecache`."""
        coeffs = {f"c{i}_{m}": t[0] for i, ts in enumerate(self.terms) for m, t in enumerate(ts)}
        source, scope = "\n".join(getattr(self, f"{name}_source")()), {}
        exec(compile(source, f"<FieldPlan.{name}>", "exec"), coeffs, scope)
        return scope[name]

    def recurrence_source(self) -> list[str]:
        """Lines of `recurrence(init, g)`: `solve`'s coefficient lists, each
        starting from its initial value in `init`, for degree len(g) - 1.

        With g[i] = Gamma(i*alpha + 1), step i appends g[i-1]/g[i] times slot
        i-1 of f(t, P) to each list, in one loop over i that serves every
        degree and alpha.  Node k keeps its slots in `s{k}`, or is y_j's list
        if its parent is node 0, and sums slot i-1 from 0.0 in
        `multiply_truncated`'s order; each equation sums its terms from 0.0
        in order, as `compose_series` does.

        A node's sum takes two products per loop pass: `zip(a, b, a, b)` over
        one iterator of the parent's list and one of y_j's reversed list, with
        `acc = acc + l0 * r0 + l1 * r1`, which is the two additions of
        `acc += l * r` in the same order.  When step i's node sums run, the
        parent's list and y_j's each hold exactly i slots: y lists grow only
        in the equation phase, and a parent is appended before its children.
        So the pairs cover every product when i is even; when i is odd (`i & 1`)
        zip drops the last one, parent slot i-1 times y_j slot 0, and it is
        added after the loop.

        `multiply_truncated` skips zero parent slots.  The node sum does not
        test each slot: it sums every product, and sums again with the skip
        only when the result is NaN.  The bits are the same.  A sum from
        +0.0 is never -0.0 under round-to-nearest, so a skipped product
        0 * finite = ±0.0 leaves it unchanged.  A zero slot against inf or
        NaN gives NaN, which every later addition keeps, so a sum that is not
        NaN met no such pair; a NaN sum is summed again the skipping way.

        The sums are plain left-to-right loops, never `sum()`: since Python
        3.12 a float `sum()` compensates its rounding, so
        `sum(map(mul, left, reversed(right)))`, much faster under 3.11, would
        change the coefficients' last bits from one interpreter to the next.
        """
        dim = range(len(self.terms))
        lines = ["def recurrence(init, g):", *[f" y{j} = [init[{j}]]" for j in dim]]
        # A child of node 0 (the constant 1) is y_j itself and keeps no list.
        name = [f"y{j}" if parent == 0 else f"s{k}" for k, (parent, j) in enumerate(self.nodes)]
        lines += [f" {s} = []" for s in name[1:] if s[0] == "s"]
        lines += [" for i in range(1, len(g)):", "  ratio = g[i - 1] / g[i]"]
        for k, (parent, j) in enumerate(self.nodes[1:], 1):
            if parent != 0:
                p = name[parent]
                loop = f"for left, right in zip({p}, reversed(y{j})):"
                lines += ["  acc = 0.0", f"  a, b = iter({p}), reversed(y{j})",
                          "  for l0, r0, l1, r1 in zip(a, b, a, b):",
                          "   acc = acc + l0 * r0 + l1 * r1",
                          "  if i & 1:", f"   acc += {p}[-1] * y{j}[0]",
                          "  if acc != acc:", "   acc = 0.0", f"   {loop}",
                          "    if left != 0.0:", "     acc += left * right", f"  s{k}.append(acc)"]
        for j, terms in enumerate(self.terms):
            lines.append("  acc = 0.0")
            for m, (_, p, node, _) in enumerate(terms):
                guard = f"if i == {p + 1}: " if node == 0 else f"if i > {p}: " if p else ""
                # Node 0 is the constant 1.  Slots are absolute: this phase may
                # already have appended slot i to a list y_j.
                slot = "1.0" if node == 0 else f"{name[node]}[i - {1 + p}]"
                lines.append(f"  {guard}acc += c{j}_{m} * {slot}")
            lines.append(f"  y{j}.append(ratio * acc)")
        return lines + [f" return [{', '.join(f'y{j}' for j in dim)}]"]

    def rk4_source(self) -> list[str]:
        """Lines of `rk4(y, t0, h, n_steps, record_every)`: RK4's whole
        fixed-step loop, returning the recorded times and states.

        Each of its four stages inlines `_point_lines` on one local per state
        component and stage value, so its float operations are those of
        `evaluate_field`, in its order, and its trajectories are bit-identical
        to an RK4 loop that calls `evaluate_field` per stage.  All four stages
        are written alike and computed at every step, the first included.  A
        stage state `x{j}` is computed only for a variable that some term has
        as a factor (SIR's R is none)."""
        dim, timed = range(len(self.terms)), any(t[1] for ts in self.terms for t in ts)
        read = sorted({j for ts in self.terms for t in ts for j, _ in t[3]})
        y = "".join(f"y{j}, " for j in dim)
        lines = ["def rk4(y, t0, h, n_steps, record_every):", f" [{y}] = y",
                 " hh, h6 = 0.5 * h, h / 6.0", f" times, states = [t0], [({y})]",
                 " for k in range(1, n_steps + 1):", *["  t = t0 + (k - 1) * h"] * timed,
                 *["  u = t - t0"] * timed, *self._point_lines("  ", "k1_{}", "y{}")]
        for stage, step in ((2, "hh"), (3, "hh"), (4, "h")):
            lines += [f"  u = t + {step} - t0"] * (timed and stage != 3)
            lines += [f"  x{j} = y{j} + {step} * k{stage - 1}_{j}" for j in read]
            lines += self._point_lines("  ", f"k{stage}_{{}}", "x{}")
        lines += [f"  y{j} = y{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
                  for j in dim]
        return lines + ["  if k % record_every == 0:", "   times.append(t0 + k * h)",
                        f"   states.append(({y}))", " return times, states"]

    def _point_lines(self, indent: str, out: str, state: str) -> list[str]:
        """Lines setting `out.format(i)` to equation i at time value u and
        state `state.format(j)`: one `+= c{i}_{m} * u ** p * y_j ** e ...` per
        monomial, summed from 0.0 in table order, with a power of 1 written as
        its bare base."""
        lines = []
        for i, terms in enumerate(self.terms):
            lines.append(f"{indent}{out.format(i)} = 0.0")
            for m, (_, time_power, _, factors) in enumerate(terms):
                powers = [("u", time_power)] if time_power else []
                powers += [(state.format(j), e) for j, e in factors]
                f = [f"c{i}_{m}"] + [b + (f" ** {e}" if e > 1 else "") for b, e in powers]
                while len(f) > _MAX_CHAIN:
                    lines.append(f"{indent}v = {' * '.join(f[:_MAX_CHAIN])}")
                    f = ["v"] + f[_MAX_CHAIN:]
                lines.append(f"{indent}{out.format(i)} += {' * '.join(f)}")
        return lines

    def __getstate__(self) -> dict:
        # Generated functions cannot be pickled; they are rebuilt on first use.
        return {k: v for k, v in vars(self).items() if k not in _GENERATED}


def evaluate_field(
    field: PolynomialVectorField, t_shifted_pow_alpha: float, y: Sequence[float]
) -> list[float]:
    """Evaluate every equation at a point.

    `t_shifted_pow_alpha` is the already-computed value of (t - t0)^alpha, so
    the same field serves both the series machinery (fractional alpha) and an
    integer-order integrator (alpha = 1, where it is simply t - t0).  It walks
    `field.plan.terms`; RK4's stages do its float operations (x ** 1 == x).

    Raises:
        ValueError: if len(y) != field.dimension or the time value is negative,
            NaN or infinite.
        OverflowError: if a finite state or time value raised to a power of
            2 or more exceeds the double range (`**` raises where `*` gives
            inf; an infinite value gives inf).
    """
    if len(y) != field.dimension:
        raise ValueError(f"state has length {len(y)}, expected {field.dimension}")
    if not 0.0 <= t_shifted_pow_alpha < math.inf:
        raise ValueError(f"time value must be non-negative and finite, got {t_shifted_pow_alpha}")
    out = []
    for terms in field.plan.terms:
        acc = 0.0
        for coeff, p, _, factors in terms:
            v = coeff * t_shifted_pow_alpha**p if p else coeff
            for j, e in factors:
                v *= y[j] ** e
            acc += v
        out.append(acc)
    return out


def compose_series(
    field: PolynomialVectorField,
    y_series: Sequence[FractionalPolynomial],
    max_degree: int,
) -> list[FractionalPolynomial]:
    """Substitute series for the state variables, truncating at max_degree.

    Each monomial is expanded with truncated Cauchy products, one state
    factor at a time in variable order; its time factor ((t-t0)^alpha)^p
    shifts the product by p grid slots and keeps its first max_degree - p + 1
    coefficients.  Within one call every partial product is built once at
    max_degree, keyed by its chain of variable factors alone, and shared by
    all monomials that reach it (SIR's S*I serves two equations).  A chain met
    at several time powers is multiplied out once too: the product truncated
    lower is, bit for bit, a prefix of the full one.  Component
    series carry at most max_degree + 1 coefficients (fewer when every
    contribution lives below max_degree).

    Raises:
        ValueError: on dimension mismatch, or as `_check_degree` for max_degree.
        GridMismatchError: if the input series do not share alpha and t0.
    """
    if len(y_series) != field.dimension:
        raise ValueError(
            f"{len(y_series)} series for a field of dimension {field.dimension}"
        )
    _check_degree(max_degree, "max_degree")
    if not y_series:
        return []
    for s in y_series[1:]:
        _check_same_grid(y_series[0], s)
    alpha, t0 = y_series[0].alpha, y_series[0].t0
    # (k, j) names products[k] times y_j: a key stands for a whole chain of
    # factors without hashing the chain itself.
    products = [_from_floats(alpha, t0, (1.0,))]
    index: dict[tuple[int, int], int] = {}
    out = []
    for terms in field.equations:
        acc = _from_floats(alpha, t0, (0.0,))
        for mono in terms:
            if mono.time_power > max_degree:
                continue
            k = 0
            for j, e in enumerate(mono.state_powers):
                for _ in range(e):
                    if (k, j) not in index:
                        index[k, j] = len(products)
                        products.append(multiply_truncated(products[k], y_series[j], max_degree))
                    k = index[k, j]
            kept = products[k].coeffs[: max_degree - mono.time_power + 1]
            shifted = (0.0,) * mono.time_power + tuple([mono.coeff * c for c in kept])
            acc = add_scaled(acc, _from_floats(alpha, t0, shifted), 1.0, 1.0)
        out.append(acc)
    return out
