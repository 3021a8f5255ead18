"""Series coefficients at alpha 1 in exact arithmetic, and the coefficients
of a float series that lie farther from them than `solve`'s rounding allows.

Shared by the property tests and the mutant table, which share no code with
the solver's recursion.
"""

import dataclasses
import math
from fractions import Fraction


def exact_coefficients(field, y0, degree):
    """The series coefficients at alpha 1 in exact arithmetic, written from
    the monomials alone: the step ratio Gamma(i)/Gamma(i + 1) is 1/i, so
    c_i = (slot i-1 of f(t, P)) / i.

    Each monomial keeps the slots of its own partial products, the constant
    1 first and then one more state factor each, in variable order.
    """
    c = [[Fraction(v)] for v in y0]
    one = [Fraction(1)] + [Fraction(0)] * degree
    monos = [(j, m, [v for v, e in enumerate(m.state_powers) for _ in range(e)])
             for j, equation in enumerate(field.equations) for m in equation]
    chains = [[one] + [[] for _ in factors] for _, _, factors in monos]
    for i in range(1, degree + 1):
        slots = [Fraction(0)] * len(c)
        for (j, m, factors), chain in zip(monos, chains):
            for r, v in enumerate(factors):
                chain[r + 1].append(sum(chain[r][a] * c[v][i - 1 - a] for a in range(i)))
            if i > m.time_power:
                slots[j] += Fraction(m.coeff) * chain[-1][i - 1 - m.time_power]
        for cj, slot in zip(c, slots):
            cj.append(slot / i)
    return c


def rounding_misses(problem, series):
    """(variable, k, got, exact, majorant) for every coefficient of `series`
    that is not finite or lies more than (k + 1) * 2**-52 * M_k from the
    exact coefficient of the alpha-1 `problem`.

    Every rounding in `solve` is bounded relative to the majorant problem
    (absolute coefficients and initial values), whose exact coefficient M_k
    bounds every product and sum that forms c_k; where M_k is 0, so is the
    exact coefficient, and the float one must be 0.0.
    """
    field, n = problem.field, problem.degree
    exact = exact_coefficients(field, problem.y0, n)
    majorant = exact_coefficients(
        dataclasses.replace(field, equations=tuple(
            tuple(dataclasses.replace(m, coeff=abs(m.coeff)) for m in eq)
            for eq in field.equations
        )),
        [abs(v) for v in problem.y0],
        n,
    )
    return [(j, k, got, e, m)
            for j, (s, want, scale) in enumerate(zip(series, exact, majorant))
            for k, (got, e, m) in enumerate(zip(s.coeffs, want, scale))
            if not math.isfinite(got) or abs(Fraction(got) - e) > (k + 1) * Fraction(1, 2**52) * m]
