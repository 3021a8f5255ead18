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
from functools import cached_property
from itertools import zip_longest

from .special import gamma


class GridMismatchError(ValueError):
    """Raised when two polynomials do not share the same alpha and t0 grid."""


def _check_same_grid(p: "FractionalPolynomial", q: "FractionalPolynomial") -> None:
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
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
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
        powers of negative bases are rejected.

        Raises:
            ValueError: if t < t0 or t is NaN.
        """
        u = t - self.t0
        if not u >= 0.0:
            raise ValueError(f"evaluation point {t} is not at or after the center t0={self.t0}")
        if u == 0.0:
            return self.coeffs[0]
        x = u**self.alpha
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncated(self, max_degree: int) -> "FractionalPolynomial":
        """Drop every term above grid index max_degree."""
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        if max_degree >= self.degree:
            return self
        return _from_floats(self.alpha, self.t0, self.coeffs[: max_degree + 1])

    @cached_property
    def _gamma_table(self) -> list[float]:
        """Gamma(i*alpha + 1) for at least every stored grid index i.

        Built on first use with exactly one entry per stored index; a Caputo
        derivative shares its parent's list, which is one entry or more
        longer.  Not a dataclass field, so equality, hashing and repr ignore
        it.
        """
        a = self.alpha
        return [gamma(i * a + 1.0) for i in range(len(self.coeffs))]

    def caputo_derivative(self) -> "FractionalPolynomial":
        """Caputo derivative of order alpha (the grid order), applied term-wise.

        The constant term is annihilated; term i >= 1 maps to grid slot i - 1
        with coefficient c_i * Gamma(i*alpha + 1) / Gamma((i-1)*alpha + 1).
        The result of differentiating a constant is the zero constant.

        The Gamma values come from this polynomial's table, and the result
        shares that table (uncopied), so a chain of n derivatives computes
        each Gamma value once instead of once per link.
        """
        if len(self.coeffs) == 1:
            return _from_floats(self.alpha, self.t0, (0.0,))
        c, g = self.coeffs, self._gamma_table
        new = tuple([ci * gi / gp for ci, gi, gp in zip(c[1:], g[1:], g)])
        out = _from_floats(self.alpha, self.t0, new)
        vars(out)["_gamma_table"] = g
        return out

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
        ValueError: if max_degree < 0.
    """
    _check_same_grid(p, q)
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    top = min(max_degree, p.degree + q.degree)
    out = [0.0] * (top + 1)
    qc = q.coeffs
    for i, pi in enumerate(p.coeffs[: top + 1]):
        if pi != 0.0:
            for k, qj in enumerate(qc[: top + 1 - i], i):
                out[k] += pi * qj
    return _from_floats(p.alpha, p.t0, tuple(out))


def caputo_power_rule(beta_exp: float, alpha: float) -> tuple[float, float] | None:
    """Caputo derivative of order alpha of the power (t - t0)^beta_exp.

    Let m be the smallest integer >= alpha.  Returns None when beta_exp is a
    non-negative integer below m (the derivative is identically zero);
    otherwise returns the pair (coefficient, new_exponent) with

        coefficient = Gamma(beta_exp + 1) / Gamma(beta_exp - alpha + 1)
        new_exponent = beta_exp - alpha.

    Raises:
        ValueError: if alpha is not positive and finite, beta_exp is negative
            or not finite, or beta_exp <= m - 1 for a non-integer beta_exp
            (the Gamma argument would be non-positive).
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"derivative order must be positive and finite, got {alpha}")
    if not 0.0 <= beta_exp < math.inf:
        raise ValueError(f"power exponent must be non-negative and finite, got {beta_exp}")
    m = math.ceil(alpha)
    if beta_exp == math.floor(beta_exp) and beta_exp < m:
        return None
    if not beta_exp > m - 1:
        raise ValueError(
            f"exponent {beta_exp} must exceed m - 1 = {m - 1} for order {alpha}"
        )
    coefficient = gamma(beta_exp + 1.0) / gamma(beta_exp - alpha + 1.0)
    return coefficient, beta_exp - alpha
