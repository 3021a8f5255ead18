import math

import pytest

from fracseries import (
    FractionalPolynomial,
    PolynomialVectorField,
    Trajectory,
    comparison_table,
    default_sample_times,
    rk4_integrate,
)
from fracseries.metrics import _grid_index

from sir_reference import ABS_ERROR_AT_1, COEFFS_DEG9, TABLES


def _published_trajectory():
    """Trajectory carrying the frozen reference-column values."""
    times = tuple(row[0] for row in TABLES["S"])
    states = tuple(
        (TABLES["S"][k][1], TABLES["I"][k][1], TABLES["R"][k][1])
        for k in range(len(times))
    )
    return Trajectory(times=times, states=states)


def _published_series():
    return [FractionalPolynomial(1.0, 0.0, COEFFS_DEG9[v]) for v in ("S", "I", "R")]


def test_identical_inputs_give_zero_errors():
    series = _published_series()
    times = [i / 10 for i in range(11)]
    traj = Trajectory(
        times=tuple(times),
        states=tuple(tuple(s.evaluate(t) for s in series) for t in times),
    )
    table = comparison_table(traj, series, 0, times)
    for row in table:
        assert row.absolute_error == 0.0
        assert row.relative_error == 0.0


def test_susceptible_row_at_tenth_matches_published_errors():
    (row,) = comparison_table(_published_trajectory(), _published_series(), 0, [0.1])
    assert row.reference == 619.3630315796735
    assert row.approximation == pytest.approx(619.3630315791875, abs=1e-9)
    assert row.absolute_error == pytest.approx(4.860112312599085e-10, rel=5e-3)
    assert row.relative_error == pytest.approx(7.846952538002571e-13, rel=5e-3)


def test_infected_row_at_one_matches_published_error():
    (row,) = comparison_table(_published_trajectory(), _published_series(), 1, [1.0])
    assert row.absolute_error == pytest.approx(
        ABS_ERROR_AT_1["I"], rel=5e-3
    )


def test_error_product_identity_and_sign():
    tables = [
        comparison_table(
            _published_trajectory(), _published_series(), j, [i / 10 for i in range(11)]
        )
        for j in range(3)
    ]
    for table in tables:
        for row in table:
            assert row.absolute_error >= 0.0
            assert row.relative_error >= 0.0
            product = row.relative_error * abs(row.reference)
            if row.absolute_error:
                assert product == pytest.approx(row.absolute_error, rel=1e-15)


def test_missing_sample_time_rejected():
    with pytest.raises(ValueError):
        comparison_table(_published_trajectory(), _published_series(), 0, [0.55])


@pytest.mark.parametrize("component", [-1, 3, 4, True, 1.0, None])
def test_component_outside_the_series_rejected(component):
    # -1 once read the last component, True component 1, and 1.0 raised a
    # bare TypeError.
    with pytest.raises(ValueError, match=rf"^component {component!r} is outside the 3 series$"):
        comparison_table(_published_trajectory(), _published_series(), component, [0.1])


def test_trajectory_narrower_than_the_series_rejected():
    # Component 1 of a 1-wide trajectory once raised a bare IndexError.
    narrow = Trajectory(times=(0.0, 0.1), states=((1.0,), (0.9,)))
    with pytest.raises(ValueError, match="^trajectory states have 1 components, fewer than the 3"):
        comparison_table(narrow, _published_series(), 1, [0.1])


def _grid_index_by_scan(times, t):
    """`_grid_index` as first written: the first match from the start."""
    for i, ti in enumerate(times):
        if abs(ti - t) <= 1e-12:
            return i
    return None


def test_grid_index_bisection_matches_linear_scan():
    field = PolynomialVectorField(equations=((),), variable_names=("y",))
    grids = [
        rk4_integrate(field, (1.0,), 0.0, 1.0, 0.01, 1).times,
        rk4_integrate(field, (1.0,), -3.0, 2.0, 1e-3, 7).times,
        (0.0, 1e-12, 2e-12, 3e-12, 1.0),  # several candidates within the tolerance
        (5.0,),
    ]
    for times in grids:
        samples = [math.nan, math.inf, -math.inf, times[0] - 1.0, times[-1] + 1.0]
        for ti in times[:50] + times[-50:]:
            for d in (0.0, 1e-12, -1e-12, 1.0000001e-12, -1.0000001e-12, 5e-13):
                samples.append(ti + d)
        for t in samples:
            want = _grid_index_by_scan(times, t)
            if want is None:
                with pytest.raises(ValueError, match="is not on the trajectory grid"):
                    _grid_index(times, t)
            else:
                assert _grid_index(times, t) == want


def test_zero_reference_reports_nan_relative_error():
    traj = Trajectory(times=(0.0, 1.0), states=((0.0,), (1.0,)))
    series = [FractionalPolynomial(1.0, 0.0, (0.5,))]
    table = comparison_table(traj, series, 0, [0.0, 1.0])
    assert math.isnan(table[0].relative_error)
    assert table[0].absolute_error == 0.5
    assert table[1].relative_error == 0.5


def test_default_sample_times_grid():
    times = default_sample_times()
    assert len(times) == 11
    assert times[0] == 0.0
    assert times[-1] == 1.0
    assert times[3] == 0.3
    shifted = default_sample_times(2.0)
    assert shifted[0] == 2.0
    assert shifted[-1] == pytest.approx(3.0, abs=1e-15)
