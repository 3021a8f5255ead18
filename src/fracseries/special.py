"""Real-argument Gamma function.

Every coefficient formula in this package reduces to ratios of Gamma values.
`gamma` wraps `math.gamma` (within about 7e-16 relative on (0, 171.6]) and
raises OverflowError wherever Gamma(x) is not a finite double: x > ~171.62,
x = inf, and subnormal x.  No in-scope formula needs the analytic
continuation, so a non-positive or NaN argument raises ValueError.
"""

from __future__ import annotations

import math


def gamma(x: float) -> float:
    """Gamma function for real x > 0.

    Raises:
        ValueError: if x <= 0 or x is NaN.
        OverflowError: if Gamma(x) is not a finite double.
    """
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x}")
    if x != math.inf:
        try:
            return math.gamma(x)
        except OverflowError:
            pass
    raise OverflowError(f"gamma({x}) exceeds the largest double")

