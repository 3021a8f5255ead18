"""Error tables comparing a reference trajectory against a series solution."""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from .fracpoly import FractionalPolynomial
from .rk4 import _GRID_TOLERANCE, Trajectory


class TableRow(NamedTuple):
    t: float
    reference: float
    approximation: float
    absolute_error: float
    relative_error: float


def default_sample_times(t0: float = 0.0) -> list[float]:
    """The standard comparison grid t0 + i/10, i = 0..10."""
    return [t0 + i / 10 for i in range(11)]


def comparison_table(
    reference: Trajectory,
    series: Sequence[FractionalPolynomial],
    component: int,
    sample_times: Sequence[float],
) -> tuple[TableRow, ...]:
    """One error-table row per sample time for a single state component.

    Every sample time must appear on the trajectory grid (within 1e-12).
    Relative error against a reference of exactly 0 is undefined and is
    reported as nan rather than failing.  Such rows are ordinary: SIR
    started from R(0) = 0 gives one at t0.

    Raises:
        ValueError: if component is not an int index into series, the
            trajectory's states are narrower than series, or a sample time
            is off the grid.
    """
    if type(component) is not int or not 0 <= component < len(series):
        raise ValueError(f"component {component!r} is outside the {len(series)} series")
    if reference.states and len(reference.states[0]) < len(series):
        raise ValueError(f"trajectory states have {len(reference.states[0])} components, "
                         f"fewer than the {len(series)} series")
    rows = []
    for t in sample_times:
        idx = _grid_index(reference.times, t)
        ref = reference.states[idx][component]
        approx = series[component].evaluate(t)
        abs_err = abs(ref - approx)
        rel_err = abs_err / abs(ref) if ref != 0.0 else float("nan")
        rows.append(TableRow(t, ref, approx, abs_err, rel_err))
    return tuple(rows)


def _grid_index(times: tuple[float, ...], t: float) -> int:
    # times[i] - t never decreases (times increase strictly and subtraction
    # is monotone), so the first i at or above -tol is the first match if any.
    i = bisect_left(times, -_GRID_TOLERANCE, key=lambda ti: ti - t)
    if i < len(times) and abs(times[i] - t) <= _GRID_TOLERANCE:
        return i
    raise ValueError(f"sample time {t} is not on the trajectory grid")
