"""Classical fourth-order Runge-Kutta integration (integer-order baseline).

Only alpha = 1 semantics are supported: a monomial time power p contributes
(t - t0)^p.  This is the reference the series solutions are compared against
on integer-order problems.  The fixed-step loop is generated once per field
(`FieldPlan.rk4`, written by `FieldPlan.rk4_source()`), with the field's
monomials inlined in every stage; its trajectories are bit-identical to
calling `evaluate_field` per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import PolynomialVectorField, evaluate_field


@dataclass(frozen=True)
class Trajectory:
    """States recorded on a uniform time grid."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")


def rk4_integrate(
    field: PolynomialVectorField,
    y0: tuple[float, ...] | list[float],
    t0: float,
    t_end: float,
    h: float,
    record_every: int = 1,
) -> Trajectory:
    """Integrate y' = f(t, y) from t0 to t_end with fixed step h.

    Records the initial point and every record_every-th step.  h must divide
    t_end - t0 to within 1e-12 so the grid lands exactly on t_end.

    Raises:
        ValueError: for a non-finite t0, t_end, h or step count, non-positive
            h or record_every, t_end <= t0, or a step that does not divide
            the interval.
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("h", h)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if record_every <= 0:
        raise ValueError(f"record_every must be positive, got {record_every}")
    if t_end <= t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    span = t_end - t0
    steps = span / h
    if not math.isfinite(steps):
        raise ValueError(f"step count {steps} for step {h} is not finite")
    n_steps = round(steps)
    if n_steps == 0 or abs(n_steps * h - span) > 1e-12:
        raise ValueError(f"step {h} does not divide the interval length {span}")

    y = [float(v) for v in y0]
    # The one state check; its value is the first step's k1.
    k1 = evaluate_field(field, 0.0, y)
    times, states = field.plan.rk4(y, k1, t0, h, n_steps, record_every)
    return Trajectory(times=tuple(times), states=tuple(states))
