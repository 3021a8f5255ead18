import math

import pytest

from fracseries import (
    FractionalPolynomial,
    Trajectory,
    comparison_table,
    default_sample_times,
)

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
