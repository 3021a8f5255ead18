"""Error tables comparing a reference trajectory against a series solution."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .fracpoly import FractionalPolynomial
from .rk4 import Trajectory

_GRID_TOLERANCE = 1e-12


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
    Relative error against a zero reference is reported as nan rather than
    failing; no supported comparison produces such a row.

    Raises:
        ValueError: if a sample time is missing from the trajectory grid.
    """
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
    for i, ti in enumerate(times):
        if abs(ti - t) <= _GRID_TOLERANCE:
            return i
    raise ValueError(f"sample time {t} is not on the trajectory grid")
