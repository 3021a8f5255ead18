"""Side-by-side audit of the Caputo and conformable derivatives on powers.

On f(t) = (t - t0)^beta with m the smallest integer >= alpha, the two
operators give

    Caputo:       Gamma(beta + 1) / Gamma(beta - alpha + 1) * (t - t0)^(beta - alpha)
    conformable:  Gamma(beta + 1) / Gamma(beta - m + 1)     * (t - t0)^(beta - alpha)

(the conformable value being (t - t0)^(m - alpha) * f^(m)(t)).  They differ
by the factor Gamma(beta - m + 1) / Gamma(beta - alpha + 1), which is 1
exactly when alpha is an integer.  This module computes both values and the
factor so the disagreement at fractional orders is a checked number rather
than an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fracpoly import caputo_power_rule
from .special import gamma


@dataclass(frozen=True)
class DiscrepancyReport:
    """Both power-rule coefficients plus their ratio for one (alpha, beta)."""

    alpha: float
    beta_exp: float
    m: int
    caputo_coefficient: float
    conformable_coefficient: float
    ratio: float


def _check_exponent(beta_exp: float, alpha: float) -> int:
    if alpha <= 0.0:
        raise ValueError(f"order must be positive, got {alpha}")
    m = math.ceil(alpha)
    if not beta_exp > m - 1:
        raise ValueError(
            f"exponent {beta_exp} must exceed m - 1 = {m - 1} for order {alpha}"
        )
    return m


def _conformable_coefficient(beta_exp: float, m: int) -> float:
    """Gamma(beta_exp + 1) / Gamma(beta_exp - m + 1), the conformable power rule's."""
    return gamma(beta_exp + 1.0) / gamma(beta_exp - m + 1.0)


def conformable_power_derivative(beta_exp: float, alpha: float, t_shift: float) -> float:
    """Conformable derivative of (t - t0)^beta_exp, evaluated at t - t0 = t_shift.

    Value: Gamma(beta_exp + 1) / Gamma(beta_exp - m + 1) * t_shift^(beta_exp - alpha).

    Raises:
        ValueError: if beta_exp <= m - 1, t_shift < 0, or t_shift = 0 with a
            negative result exponent.
    """
    m = _check_exponent(beta_exp, alpha)
    return _conformable_coefficient(beta_exp, m) * _power(t_shift, beta_exp - alpha)


def caputo_power_value(beta_exp: float, alpha: float, t_shift: float) -> float:
    """Caputo derivative of (t - t0)^beta_exp, evaluated at t - t0 = t_shift.

    Value: Gamma(beta_exp + 1) / Gamma(beta_exp - alpha + 1) * t_shift^(beta_exp - alpha).

    Raises:
        ValueError: as for `conformable_power_derivative`.
    """
    # With beta_exp > m - 1 checked, the rule never takes its None branch.
    _check_exponent(beta_exp, alpha)
    coefficient, exponent = caputo_power_rule(beta_exp, alpha)
    return coefficient * _power(t_shift, exponent)


def discrepancy_report(beta_exp: float, alpha: float) -> DiscrepancyReport:
    """Compare the two power-rule coefficients for one (alpha, beta_exp).

    The ratio Gamma(beta_exp - m + 1) / Gamma(beta_exp - alpha + 1) is the
    factor the conformable coefficient is missing relative to the Caputo one:
    caputo = conformable * ratio.
    """
    m = _check_exponent(beta_exp, alpha)
    caputo, _ = caputo_power_rule(beta_exp, alpha)
    conformable = _conformable_coefficient(beta_exp, m)
    ratio = gamma(beta_exp - m + 1.0) / gamma(beta_exp - alpha + 1.0)
    return DiscrepancyReport(
        alpha=alpha,
        beta_exp=beta_exp,
        m=m,
        caputo_coefficient=caputo,
        conformable_coefficient=conformable,
        ratio=ratio,
    )


def _power(t_shift: float, exponent: float) -> float:
    if t_shift < 0.0:
        raise ValueError(f"t_shift must be non-negative, got {t_shift}")
    if t_shift == 0.0:
        if exponent < 0.0:
            raise ValueError("zero t_shift with a negative result exponent diverges")
        return 1.0 if exponent == 0.0 else 0.0
    return t_shift**exponent
