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

Each Gamma argument is rounded once: beta + 1, beta + (1 - alpha) and
beta - (m - 1), where 1 - alpha is exact for alpha >= 1/2 and beta - (m - 1)
is exact near m - 1.  So tiny beta and alpha near 1 keep their digits, and at
integer alpha both arguments are the same double and the ratio is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _gamma_arguments(beta_exp: float, alpha: float) -> tuple[int, float, float, float]:
    """m = ceil(alpha) and the Gamma arguments beta_exp + 1 (both numerators),
    beta_exp - alpha + 1 (Caputo) and beta_exp - m + 1 (conformable), once
    alpha is positive and finite and beta_exp is finite and above m - 1 (else
    a Gamma argument would be non-positive)."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"order must be positive and finite, got {alpha}")
    m = math.ceil(alpha)
    if not m - 1 < beta_exp < math.inf:
        raise ValueError(
            f"exponent {beta_exp} must be finite and exceed m - 1 = {m - 1} for order {alpha}"
        )
    return m, beta_exp + 1.0, beta_exp + (1.0 - alpha), beta_exp - (m - 1)


def conformable_power_derivative(beta_exp: float, alpha: float, t_shift: float) -> float:
    """Conformable derivative of (t - t0)^beta_exp, evaluated at t - t0 = t_shift.

    Value: Gamma(beta_exp + 1) / Gamma(beta_exp - m + 1) * t_shift^(beta_exp - alpha).

    Raises:
        ValueError: if alpha is not positive and finite, beta_exp is not
            finite or beta_exp <= m - 1, t_shift is negative, NaN or infinite, or
            t_shift = 0 with a negative result exponent.
    """
    _, top_arg, _, conformable_arg = _gamma_arguments(beta_exp, alpha)
    return gamma(top_arg) / gamma(conformable_arg) * _power(t_shift, beta_exp - alpha)


def caputo_power_value(beta_exp: float, alpha: float, t_shift: float) -> float:
    """Caputo derivative of (t - t0)^beta_exp, evaluated at t - t0 = t_shift.

    Value: Gamma(beta_exp + 1) / Gamma(beta_exp - alpha + 1) * t_shift^(beta_exp - alpha).

    Raises:
        ValueError: as for `conformable_power_derivative`.
    """
    _, top_arg, caputo_arg, _ = _gamma_arguments(beta_exp, alpha)
    return gamma(top_arg) / gamma(caputo_arg) * _power(t_shift, beta_exp - alpha)


def discrepancy_report(beta_exp: float, alpha: float) -> DiscrepancyReport:
    """Compare the two power-rule coefficients for one (alpha, beta_exp).

    The ratio Gamma(beta_exp - m + 1) / Gamma(beta_exp - alpha + 1) is the
    factor the conformable coefficient is missing relative to the Caputo one:
    caputo = conformable * ratio.  Each of the three Gamma values is computed
    once.

    Raises:
        ValueError: as for `conformable_power_derivative`, t_shift aside.
    """
    m, top_arg, caputo_arg, conformable_arg = _gamma_arguments(beta_exp, alpha)
    top = gamma(top_arg)
    caputo_bottom = gamma(caputo_arg)
    conformable_bottom = gamma(conformable_arg)
    return DiscrepancyReport(
        alpha=alpha,
        beta_exp=beta_exp,
        m=m,
        caputo_coefficient=top / caputo_bottom,
        conformable_coefficient=top / conformable_bottom,
        ratio=conformable_bottom / caputo_bottom,
    )


def _power(t_shift: float, exponent: float) -> float:
    if not 0.0 <= t_shift < math.inf:
        raise ValueError(f"t_shift must be non-negative and finite, got {t_shift}")
    if t_shift == 0.0:
        if exponent < 0.0:
            raise ValueError("zero t_shift with a negative result exponent diverges")
        return 1.0 if exponent == 0.0 else 0.0
    return t_shift**exponent
