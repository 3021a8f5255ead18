"""Truncated fractional-polynomial algebra.

A fractional polynomial is a finite series

    p(t) = sum_i  c_i * (t - t0)^(i*alpha),    i = 0..degree,

with all exponents on the common grid {0, alpha, 2*alpha, ...} for a single
order 0 < alpha <= 1.  This grid is closed under the operations the solver
needs: linear combination, truncated (Cauchy) products, the Caputo derivative
of order alpha, and the Riemann-Liouville integral of order alpha.

The Caputo derivative acts term-wise through the power rule

    D^alpha (t - t0)^(i*alpha)
        = Gamma(i*alpha + 1) / Gamma((i-1)*alpha + 1) * (t - t0)^((i-1)*alpha)

for i >= 1, and annihilates the constant term.  Coefficients are stored flat
(no Gamma denominators factored out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Any, Callable, Sequence

from .special import gamma

# Links (factors, Horner steps) per generated statement: bounds compiler recursion.
_MAX_CHAIN = 64


class GridMismatchError(ValueError):
    """Raised when two polynomials do not share the same alpha and t0 grid."""


def _check_grid(alpha: float, t0: float) -> None:
    """The one rule for a grid: 0 < alpha <= 1 and a finite t0, for every
    `FractionalPolynomial`, `SeriesProblem` and model config."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")


def _check_degree(n: object, name: str) -> None:
    """The one rule for a degree or truncation index: an int (not a bool) >= 0.

    It covers `SeriesProblem.degree`, every `max_degree` argument and each
    power of a `Monomial`, so 2.0 and True raise ValueError everywhere.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} must be an int >= 0, got {n!r}")


def _check_same_grid(p: Any, q: Any) -> None:
    """The one rule for two grids: p and q (anything with alpha and t0) agree.

    `compose_series` and `build_defect` check every input series against the
    first, and `verify_defect_conditions` checks each against the problem.
    """
    if p.alpha != q.alpha or p.t0 != q.t0:
        raise GridMismatchError(
            f"grid mismatch: (alpha={p.alpha}, t0={p.t0}) vs (alpha={q.alpha}, t0={q.t0})"
        )


@dataclass(frozen=True)
class FractionalPolynomial:
    """Truncated series sum_i c_i (t - t0)^(i*alpha).

    Values are immutable; every operation returns a new instance.  Trailing
    zero coefficients are kept, so `degree` reflects the stored length, not
    the mathematical degree.

    The public constructor validates alpha, t0 and the coefficient count, and
    coerces the coefficients to a tuple of floats.  Results of the library's
    own operations skip that step: they are built from float tuples the
    library computed on an already validated grid, and hold the same values
    a validated construction would.
    """

    alpha: float
    t0: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_grid(self.alpha, self.t0)
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise ValueError("a polynomial needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> float:
        """Coefficient of (t - t0)^(k*alpha); zero beyond the stored degree."""
        if k < 0:
            raise IndexError(f"negative grid index {k}")
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def evaluate(self, t: float) -> float:
        """Evaluate at t >= t0.

        (t - t0)^0 is taken as 1, including at t = t0, so the value at the
        expansion center is exactly the constant coefficient.  Fractional
        powers of negative bases are rejected.  The sum runs through the
        Horner kernel `_horner(len(coeffs))`.

        Raises:
            ValueError: if t < t0, t is NaN, or t - t0 is infinite.
        """
        u = t - self.t0
        if not 0.0 <= u < math.inf:
            raise ValueError(
                f"evaluation point {t} is not at or after the center t0={self.t0}, "
                "or t - t0 is not finite"
            )
        if u == 0.0:
            return self.coeffs[0]
        c = self.coeffs
        return _horner(len(c))(c, u**self.alpha)

    def truncated(self, max_degree: int) -> "FractionalPolynomial":
        """Drop every term above grid index max_degree."""
        _check_degree(max_degree, "max_degree")
        if max_degree >= self.degree:
            return self
        return _from_floats(self.alpha, self.t0, self.coeffs[: max_degree + 1])

    def caputo_derivative(self) -> "FractionalPolynomial":
        """Caputo derivative of order alpha (the grid order), applied term-wise.

        The constant term is annihilated; term i >= 1 maps to grid slot i - 1
        with coefficient c_i * Gamma(i*alpha + 1) / Gamma((i-1)*alpha + 1).
        The result of differentiating a constant is the zero constant.  Each
        call builds its own Gamma table; nothing is cached on the polynomial.
        """
        a, c = self.alpha, self.coeffs
        g = [gamma(i * a + 1.0) for i in range(len(c))]
        return _from_floats(a, self.t0, tuple(_caputo_step(c, g)))

    def rl_integral(self) -> "FractionalPolynomial":
        """Riemann-Liouville integral of order alpha, applied term-wise.

        Term i maps to grid slot i + 1 with coefficient
        c_i * Gamma(i*alpha + 1) / Gamma((i+1)*alpha + 1); the new constant
        term is zero.  Left inverse partner of `caputo_derivative` on this
        class: differentiating the integral restores the polynomial.
        """
        a, c = self.alpha, self.coeffs
        g = [gamma(i * a + 1.0) for i in range(len(c) + 1)]
        new = (0.0,) + tuple(c[i] * g[i] / g[i + 1] for i in range(len(c)))
        return _from_floats(a, self.t0, new)

    def sequential_caputo_limit(self, k: int) -> float:
        """Limit at t0+ of the k-fold Caputo derivative D^alpha ... D^alpha.

        Computed literally: apply `caputo_derivative` k times and read off the
        constant term.  Analytically this telescopes to
        Gamma(k*alpha + 1) * c_k, which makes the literal computation the
        oracle for any coefficient-matching shortcut built on top of it.

        Raises:
            IndexError: if k exceeds the stored degree.
        """
        if k < 0 or k > self.degree:
            raise IndexError(f"sequential derivative index {k} out of range 0..{self.degree}")
        p = self
        for _ in range(k):
            p = p.caputo_derivative()
        return p.coeffs[0]


def _from_floats(alpha: float, t0: float, coeffs: tuple[float, ...]) -> FractionalPolynomial:
    """A polynomial built without `__post_init__`, for library results only.

    `coeffs` must be a non-empty tuple of floats and (alpha, t0) the grid of
    a validated polynomial or problem, so the instance equals, hashes, prints
    and pickles as `FractionalPolynomial(alpha, t0, coeffs)` would.
    """
    p = object.__new__(FractionalPolynomial)
    vars(p).update(alpha=alpha, t0=t0, coeffs=coeffs)
    return p


def _caputo_step(c: Sequence[float], g: Sequence[float]) -> list[float]:
    """The coefficients of the Caputo derivative of the series with
    coefficients c, from g[i] = Gamma(i*alpha + 1) given for at least every
    index of c: the one place the whole-list step is written.
    `caputo_derivative` wraps the list in a polynomial, and the defect
    check reads it as floats.  `_caputo_limits` applies the same step to one
    entry at a time, down each diagonal; a test pins it to k-fold use of this
    one."""
    return [ci * gi / gp for ci, gi, gp in zip(c[1:], g[1:], g)] or [0.0]


def _caputo_limits(c: Sequence[float], n: int,
                   steps: Sequence[tuple[float, float]]) -> list[float]:
    """Entry 0 of k-fold `_caputo_step` on c, for k = 0..n-1, bit for bit:
    the limits at t0+ of the sequential Caputo derivatives of one series,
    in one call.  steps holds the pairs (g[i], g[i - 1]) of a table
    g[i] = Gamma(i*alpha + 1) for i = m down to 1, for some m of at least
    min(n, len(c)) - 1, so that `steps[-k:]` is the walk for limit k.

    Limit k carries c[k] down to slot 0 by `x = x * gi / gp` over
    `steps[-k:]`, the very operations the k steps apply on that diagonal,
    without building the lists in between.  Past the end of c it is +0.0,
    as the steps' `[0.0]` gives.  g must be finite and positive, as any
    Gamma table that did not overflow is; then a walk from +0.0 or -0.0
    only ever gives that same zero, so a c[k] == 0.0 is returned as it is,
    sign included, without reading steps: the same bits at no cost.

    The defect check calls this once per defect row, over one pair list per
    check, and takes each index's largest absolute limit over the rows
    inline, NaN when any row's limit there is NaN (`max` alone drops a NaN
    that is not first, so a NaN sum of the absolute limits decides).  So a
    check of degree n costs O(n^2) operations at most, where rebuilding each
    derivative would cost O(n^3), and less when the defect is sparse."""
    out = list(c[:n])
    for k in range(1, len(out)):
        x = out[k]
        if x != 0.0:
            for gi, gp in steps[-k:]:
                x = x * gi / gp
            out[k] = x
    return out + [0.0] * (n - len(out))


@lru_cache(maxsize=64)
def _horner(n: int) -> Callable[[tuple[float, ...], float], float]:
    """`horner(c, x)`, the sum of c[i] * x**i over a tuple c of n floats,
    compiled from `_horner_source(n)` on first use for each n, so every
    polynomial of one length shares one kernel, 64 lengths at most.  No
    source is kept, here or in `linecache`.

    The kernel is the loop `acc = 0.0`, then `acc = acc * x + c[i]` for
    i = n-1 down to 0, written out as straight-line statements of at most
    `_MAX_CHAIN` steps each, with the same float operations in the same
    order.  So its results are bit-identical to that loop, which the tests
    keep as the reference; NaN results may differ in their sign bit only."""
    scope: dict = {}
    exec(compile("\n".join(_horner_source(n)), "<horner>", "exec"), {}, scope)
    return scope["horner"]


def _horner_source(n: int) -> list[str]:
    """Lines of `horner(c, x)` for n coefficients, as `_horner` states."""
    lines = ["def horner(c, x):", " acc = 0.0"]
    for top in range(n - 1, -1, -_MAX_CHAIN):
        expr = "acc"
        for i in range(top, max(top - _MAX_CHAIN, -1), -1):
            expr = f"({expr} * x + c[{i}])"
        lines.append(f" acc = {expr[1:-1]}")
    return lines + [" return acc"]


def add_scaled(
    p: FractionalPolynomial, q: FractionalPolynomial, a: float, b: float
) -> FractionalPolynomial:
    """Linear combination a*p + b*q on a shared grid.

    Result degree is max(p.degree, q.degree).  The scales are coerced to
    float, as coefficients are.

    Raises:
        GridMismatchError: if alpha or t0 differ.
    """
    _check_same_grid(p, q)
    a, b = float(a), float(b)
    new = tuple([a * x + b * y for x, y in zip_longest(p.coeffs, q.coeffs, fillvalue=0.0)])
    return _from_floats(p.alpha, p.t0, new)


def multiply_truncated(
    p: FractionalPolynomial, q: FractionalPolynomial, max_degree: int
) -> FractionalPolynomial:
    """Cauchy product truncated at grid index max_degree.

    r_k = sum_{i+j=k} p_i q_j for k <= max_degree; higher terms are discarded.
    Exponents add on the grid (i*alpha + j*alpha = (i+j)*alpha), so the class
    is closed under this product.

    Raises:
        GridMismatchError: if alpha or t0 differ.
        ValueError: as `_check_degree` for max_degree.
    """
    _check_same_grid(p, q)
    _check_degree(max_degree, "max_degree")
    top = min(max_degree, p.degree + q.degree)
    out = [0.0] * (top + 1)
    qc = q.coeffs
    for i, pi in enumerate(p.coeffs[: top + 1]):
        if pi != 0.0:
            for k, qj in enumerate(qc[: top + 1 - i], i):
                out[k] += pi * qj
    return _from_floats(p.alpha, p.t0, tuple(out))

