"""Independent reference for checking fracseries outputs.

Nothing here imports fracseries.  A field is a plain list of equations, each
a list of ``(coeff, powers, tpower)`` terms (the JSON model schema), and a
series is a Python list of coefficients of ``(t - t0)^(i*alpha)``.

The recursion is Taylor mode: every monomial keeps its chain of partial
products as growing lists, so step i adds one slot per chain in O(i) and a
whole solve costs O(degree^2) instead of the library's O(degree^3).  Step
ratios Gamma((i-1)a+1)/Gamma(ia+1) come from ``math.gamma`` while it is
finite and from an ``lgamma`` difference beyond that, so no Gamma value that
overflows is ever formed.  At alpha = 1 the same recursion runs exactly over
``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# math.gamma is finite up to about 171.62; stay clear of the edge.
_GAMMA_FINITE_BELOW = 171.0


def gamma_ratio(x: float, y: float) -> float:
    """Gamma(x) / Gamma(y) for x, y > 0, never forming an overflowing value."""
    if x < _GAMMA_FINITE_BELOW and y < _GAMMA_FINITE_BELOW:
        return math.gamma(x) / math.gamma(y)
    return math.exp(math.lgamma(x) - math.lgamma(y))


def step_ratios(alpha: float, degree: int) -> list[float]:
    """[0, r_1, ..., r_degree] with r_i = Gamma((i-1)a+1) / Gamma(ia+1)."""
    return [0.0] + [
        gamma_ratio((i - 1) * alpha + 1.0, i * alpha + 1.0) for i in range(1, degree + 1)
    ]


def _recursion(equations, y0, ratios, degree):
    ys = [[v] for v in y0]
    plans = []
    for terms in equations:
        eq = []
        for coeff, powers, tpower in terms:
            factors = [j for j, e in enumerate(powers) for _ in range(e)]
            eq.append((coeff, tpower, factors, [[] for _ in factors]))
        plans.append(eq)
    for i in range(1, degree + 1):
        k = i - 1
        for eq in plans:
            for _, _, factors, chain in eq:
                for r, j in enumerate(factors):
                    y = ys[j]
                    if r == 0:
                        chain[0].append(y[k])
                    else:
                        prev = chain[r - 1]
                        chain[r].append(sum(prev[m] * y[k - m] for m in range(k + 1)))
        slots = []
        for eq in plans:
            acc = 0 * ratios[i]
            for coeff, tpower, factors, chain in eq:
                s = k - tpower
                if s < 0:
                    continue
                if factors:
                    acc += coeff * chain[-1][s]
                elif s == 0:
                    acc += coeff
            slots.append(acc)
        for y, f in zip(ys, slots):
            y.append(ratios[i] * f)
    return ys


def solve_reference(equations, y0, alpha: float, degree: int) -> list[list[float]]:
    """Float series coefficients, one list of degree + 1 values per variable."""
    return _recursion(
        equations, [float(v) for v in y0], step_ratios(alpha, degree), degree
    )


def rounding_scales(equations, ys, alpha: float) -> list[list[float]]:
    """Per-coefficient scale of the rounding error in a computed series.

    Entry i of variable j is r_i * sum_terms |coeff| * (product of |y|)[i-1-tpower],
    the largest partial sum that forms coefficient i from the coefficients
    below it (entry 0 is |y0|).  It bounds |c_i|, and a coefficient that
    cancels to near zero is judged against it instead of against itself.
    """
    degree = len(ys[0]) - 1
    ratios = step_ratios(alpha, degree)
    absy = [[abs(c) for c in y] for y in ys]
    out = []
    for y, terms in zip(absy, equations):
        slot = [0.0] * degree
        for coeff, powers, tpower in terms:
            prod = [1.0] + [0.0] * (degree - 1)
            for j, e in enumerate(powers):
                for _ in range(e):
                    q = absy[j]
                    prod = [sum(prod[m] * q[k - m] for m in range(k + 1)) for k in range(degree)]
            for k in range(tpower, degree):
                slot[k] += abs(coeff) * prod[k - tpower]
        out.append([y[0]] + [ratios[i] * slot[i - 1] for i in range(1, degree + 1)])
    return out


def solve_exact_alpha1(equations, y0, degree: int) -> list[list[Fraction]]:
    """Exact rational coefficients at alpha = 1 (step ratio 1/i).

    Float inputs convert to Fraction exactly, so the result is the exact
    series of the problem the floats describe.
    """
    exact_equations = [
        [(Fraction(c), p, tp) for c, p, tp in terms] for terms in equations
    ]
    ratios = [Fraction(0)] + [Fraction(1, i) for i in range(1, degree + 1)]
    return _recursion(exact_equations, [Fraction(v) for v in y0], ratios, degree)


def horner(coeffs, alpha: float, t0: float, t: float) -> float:
    """sum_i coeffs[i] * (t - t0)^(i*alpha), with (t - t0)^0 = 1."""
    u = t - t0
    if u == 0.0:
        return float(coeffs[0])
    x = u**alpha
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def field_value(equations, tshift: float, y) -> list[float]:
    """Right-hand side at (t - t0) = tshift and state y."""
    out = []
    for terms in equations:
        acc = 0.0
        for coeff, powers, tpower in terms:
            v = coeff * tshift**tpower
            for yj, e in zip(y, powers):
                v *= yj**e
            acc += v
        out.append(acc)
    return out


def rk4_reference(equations, y0, t0: float, h: float, steps: int, record_every: int):
    """Classical RK4 for y' = f(t, y); returns [(t, state), ...] every record_every steps."""
    y = [float(v) for v in y0]
    out = [(t0, list(y))]
    for k in range(1, steps + 1):
        s = (k - 1) * h
        k1 = field_value(equations, s, y)
        k2 = field_value(equations, s + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = field_value(equations, s + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = field_value(equations, s + h, [a + h * b for a, b in zip(y, k3)])
        y = [
            a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        if k % record_every == 0:
            out.append((t0 + k * h, list(y)))
    return out


def within(got: float, want: float, scale: float, rtol: float) -> bool:
    """|got - want| <= rtol * scale, with NaN and infinities never within."""
    return math.isfinite(got) and abs(got - want) <= rtol * scale
