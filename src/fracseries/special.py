"""Real-argument Gamma and Beta functions.

Every coefficient formula in this package reduces to ratios of Gamma values,
so the solver's accuracy is bounded by the accuracy of this kernel.  The
implementation is a Lanczos approximation (g = 7, 9 terms) good to roughly
2e-14 relative error on (0, 50] and 1e-13 on (50, 171].  Beyond x ~ 171.6,
where Gamma(x) exceeds the largest double, `gamma` raises OverflowError
instead of returning inf.

Arguments must be strictly positive: no in-scope formula ever needs the
analytic continuation, so a non-positive argument signals a caller bug and
raises immediately instead of silently returning a reflected value.
"""

from __future__ import annotations

import math

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Lanczos coefficients for g = 7 (Godfrey's 9-term set).
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function for real x > 0.

    Raises:
        ValueError: if x <= 0.
        OverflowError: if Gamma(x) exceeds the largest double.
    """
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x}")
    if x < 0.5:
        # One recurrence step moves the argument into the Lanczos sweet spot.
        return gamma(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS[0]
    for k in range(1, 9):
        acc += _LANCZOS[k] / (z + k)
    t = z + 7.5
    try:
        value = _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc
    except OverflowError:
        value = math.inf
    if value == math.inf:
        # t ** (z + 0.5) alone overflows from x ~ 142; splitting the power in
        # halves keeps every intermediate finite wherever Gamma(x) itself is.
        try:
            h = t ** (0.5 * (z + 0.5))
            value = _SQRT_TWO_PI * h * (h * math.exp(-t)) * acc
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise OverflowError(f"gamma({x}) exceeds the largest double")
    return value


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0.

    The formula is symmetric in (x, y) as computed, not just analytically.

    Raises:
        ValueError: if either argument is <= 0.
    """
    if not x > 0.0 or not y > 0.0:
        raise ValueError(f"beta: arguments must be positive, got ({x}, {y})")
    return gamma(x) * gamma(y) / gamma(x + y)
