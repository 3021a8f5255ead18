"""An independent reference for the series coefficients of `solve`.

It imports only the standard library and reads a field only through
`equations` and each monomial's `coeff`, `state_powers` and `time_power`, so
it shares no code with the solver's recursion.  The solver tests, the
property tests and the mutant table all compare against it.
"""

import dataclasses
import math
from fractions import Fraction


def coefficients(field, y0, degree, ratio, num):
    """The series coefficients c_0..c_degree of every variable, in the number
    type `num`, written from the monomials alone: c_0 = y0 and

        c_i = ratio(i) * (slot i-1 of f(t, P)),

    where P is the series so far, a time power p shifts a monomial's product
    by p slots, and ratio(i) is Gamma((i-1)a+1)/Gamma(ia+1).  At alpha 1 it is
    1/i, so `Fraction` with `Fraction(1, i)` gives the exact coefficients.

    Each monomial keeps the slots of its own partial products, the constant
    1 first and then one more state factor each, in variable order.
    """
    c = [[num(v)] for v in y0]
    one = [num(1)] + [num(0)] * degree
    monos = [(j, num(m.coeff), m.time_power,
              [v for v, e in enumerate(m.state_powers) for _ in range(e)])
             for j, equation in enumerate(field.equations) for m in equation]
    chains = [[one] + [[] for _ in factors] for *_, factors in monos]
    for i in range(1, degree + 1):
        slots = [num(0)] * len(c)
        for (j, coeff, p, factors), chain in zip(monos, chains):
            for r, v in enumerate(factors):
                chain[r + 1].append(sum(chain[r][a] * c[v][i - 1 - a] for a in range(i)))
            if i > p:
                slots[j] += coeff * chain[-1][i - 1 - p]
        step = ratio(i)
        for cj, slot in zip(c, slots):
            cj.append(step * slot)
    return c


def majorant(problem):
    """`problem` with every coefficient and initial value replaced by its
    absolute value.  Its coefficient M_k bounds every product and sum that
    forms coefficient k of `problem`, so it bounds their rounding too."""
    field = problem.field
    return dataclasses.replace(
        problem,
        field=dataclasses.replace(field, equations=tuple(
            tuple(dataclasses.replace(m, coeff=abs(m.coeff)) for m in eq)
            for eq in field.equations
        )),
        y0=tuple(abs(v) for v in problem.y0),
    )


def rounding_misses(problem, series):
    """(variable, k, got, exact, majorant) for every coefficient of `series`
    that is not finite or lies more than (k + 1) * 2**-52 * M_k from the
    exact coefficient of the alpha-1 `problem`.

    Every rounding in `solve` is bounded relative to the majorant's exact
    coefficient M_k; where M_k is 0, so is the exact coefficient, and the
    float one must be 0.0.
    """
    exact, scales = (coefficients(p.field, p.y0, p.degree, lambda i: Fraction(1, i), Fraction)
                     for p in (problem, majorant(problem)))
    return [(j, k, got, e, m)
            for j, (s, want, scale) in enumerate(zip(series, exact, scales))
            for k, (got, e, m) in enumerate(zip(s.coeffs, want, scale))
            if not math.isfinite(got) or abs(Fraction(got) - e) > (k + 1) * Fraction(1, 2**52) * m]
