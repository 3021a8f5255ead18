"""Classical fourth-order Runge-Kutta integration (integer-order baseline).

Only alpha = 1 semantics are supported: a monomial time power p contributes
(t - t0)^p.  This is the reference the series solutions are compared against
on integer-order problems.  The fixed-step loop is generated once per field
as `FieldPlan.rk4`; `FieldPlan.rk4_source` states its stage rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import PolynomialVectorField, evaluate_field

# The one grid tolerance, for step counts here, `compare`'s step and sample times.
_GRID_TOLERANCE = 1e-12


def _strictly_increasing(times) -> bool:
    """The one rule for a time grid, here and for the CLI's sample times."""
    return all(a < b for a, b in zip(times, times[1:]))


@dataclass(frozen=True)
class Trajectory:
    """States of one width, recorded on a uniform time grid."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if not _strictly_increasing(self.times):
            raise ValueError("times must be strictly increasing")
        if len(set(map(len, self.states))) > 1:
            raise ValueError("states must all have the same width")


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
        ValueError: for a non-finite t0, t_end, h or step count, a
            non-positive h, a record_every that is not a positive int,
            t_end <= t0, or a step that does not divide the interval.
        OverflowError: as `evaluate_field`, when a power in the field
            overflows at the initial state or at some stage (for y' = y^2,
            once a state passes about 1.3e154); the message names RK4, h
            and [t0, t_end].
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("h", h)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if type(record_every) is not int or record_every <= 0:
        raise ValueError(f"record_every must be a positive int, got {record_every!r}")
    if t_end <= t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    span = t_end - t0
    steps = span / h
    if not math.isfinite(steps):
        raise ValueError(f"step count {steps} for step {h} is not finite")
    n_steps = round(steps)
    if n_steps == 0 or abs(n_steps * h - span) > _GRID_TOLERANCE:
        raise ValueError(f"step {h} does not divide the interval length {span}")

    y = [float(v) for v in y0]
    try:
        evaluate_field(field, 0.0, y)  # the one state check, before any compile
        times, states = field.plan.rk4(y, t0, h, n_steps, record_every)
    except OverflowError as exc:
        raise OverflowError(f"RK4 with step h={h} on [{t0}, {t_end}] overflowed: "
                            "a state power exceeds the double range") from exc
    return Trajectory(times=tuple(times), states=tuple(states))
