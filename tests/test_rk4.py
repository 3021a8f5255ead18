import math

import pytest

import fracseries.rk4 as rk4_module
from fracseries import (
    Monomial,
    PolynomialVectorField,
    Trajectory,
    evaluate_field,
    rk4_integrate,
    sir_field,
)

EXP_FIELD = PolynomialVectorField(
    equations=((Monomial(1.0, (1,)),),), variable_names=("y",)
)


def test_zero_field_gives_constant_trajectory():
    field = PolynomialVectorField(equations=((),), variable_names=("y",))
    traj = rk4_integrate(field, (4.5,), 0.0, 1.0, 0.1, 1)
    assert all(s == (4.5,) for s in traj.states)
    assert len(traj.times) == 11


def test_exponential_endpoint():
    traj = rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, 1e-3, 1000)
    assert abs(traj.states[-1][0] - math.e) <= 1e-10


def test_fourth_order_convergence():
    errors = []
    for h in (0.1, 0.05, 0.025):
        traj = rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, h, round(1 / h))
        errors.append(abs(traj.states[-1][0] - math.e))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_sir_reference_value_at_tenth(sir_rk_trajectory):
    # Published reference column value; step size of the original run is
    # unknown, so the match is loose.
    assert abs(sir_rk_trajectory.states[1][0] - 619.3630315796735) <= 1e-6


def test_sir_population_is_conserved(sir_rk_trajectory):
    for state in sir_rk_trajectory.states:
        assert abs(sum(state) - 700.0) <= 1e-9


def test_recording_grid(sir_rk_trajectory):
    assert len(sir_rk_trajectory.times) == 11
    for i, t in enumerate(sir_rk_trajectory.times):
        assert abs(t - i / 10) <= 1e-12


def test_record_every_step():
    traj = rk4_integrate(EXP_FIELD, (1.0,), 0.0, 0.5, 0.1, 1)
    assert len(traj.times) == 6


def test_time_dependent_field():
    # y' = 2t with y(0) = 0 integrates exactly (RK4 is exact on cubics).
    field = PolynomialVectorField(
        equations=((Monomial(2.0, (0,), time_power=1),),), variable_names=("y",)
    )
    traj = rk4_integrate(field, (0.0,), 0.0, 1.0, 0.25, 4)
    assert traj.states[-1][0] == pytest.approx(1.0, rel=1e-13)


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, -0.1, 1)
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, 0.0, 1)


def test_non_dividing_step_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, 0.3, 1)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0,), 1.0, 0.0, 0.1, 1)


@pytest.mark.parametrize(
    "t0, t_end, h, message",
    [
        (math.nan, 1.0, 0.1, "t0 must be finite"),
        (0.0, math.inf, 0.1, "t_end must be finite"),
        (0.0, 1.0, math.nan, "h must be finite"),
        (0.0, 1e300, 1e-300, "step count inf"),
        (-1e308, 1e308, 1.0, "step count inf"),
    ],
)
def test_non_finite_grid_rejected(t0, t_end, h, message):
    with pytest.raises(ValueError, match=message):
        rk4_integrate(EXP_FIELD, (1.0,), t0, t_end, h, 1)


def test_nonpositive_record_every_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, 0.1, 0)


# 1.5 once recorded t = 0, 0.3, 0.6, 0.9 with h = 0.1.
@pytest.mark.parametrize("record_every", [1.5, 2.0, True, "2"])
def test_record_every_must_be_an_int(record_every):
    with pytest.raises(ValueError, match=r"^record_every must be a positive int, got "):
        rk4_integrate(EXP_FIELD, (1.0,), 0.0, 1.0, 0.1, record_every)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=(0.0, 1.0), states=((1.0,),))
    with pytest.raises(ValueError):
        Trajectory(times=(0.0, 0.0), states=((1.0,), (1.0,)))
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=(0.0, math.nan, 1.0), states=((1.0,),) * 3)
    with pytest.raises(ValueError, match="same width"):
        Trajectory(times=(0.0, 0.5), states=((1.0, 2.0, 3.0), (2.0,)))


def test_sir_decreasing_susceptibles(sir_rk_trajectory):
    s_values = [state[0] for state in sir_rk_trajectory.states]
    assert all(b < a for a, b in zip(s_values, s_values[1:]))


def _rk4_reference(field, y0, t0, t_end, h):
    """Plain RK4 over the public `evaluate_field`, one state per step."""
    n_steps = round((t_end - t0) / h)
    y = [float(v) for v in y0]
    states = [tuple(y)]
    for k in range(1, n_steps + 1):
        t = t0 + (k - 1) * h
        k1 = evaluate_field(field, t - t0, y)
        k2 = evaluate_field(field, t + 0.5 * h - t0, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = evaluate_field(field, t + 0.5 * h - t0, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = evaluate_field(field, t + h - t0, [a + h * b for a, b in zip(y, k3)])
        y = [
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        states.append(tuple(y))
    return states


TIMED_FIELD = PolynomialVectorField(
    equations=(
        (Monomial(-0.5, (3, 0)), Monomial(0.25, (0, 0), time_power=2)),
        (Monomial(1.0, (1, 2), time_power=1), Monomial(-1.0, (0, 1))),
    ),
    variable_names=("a", "b"),
)
# One monomial of 1 + 1 + 70 factors: longer than the 64 the writer puts in
# one statement.
WIDE_FIELD = PolynomialVectorField(
    equations=((Monomial(-0.01, (1,) * 69 + (2,), time_power=1),),) + ((),) * 69,
    variable_names=tuple(f"w{j}" for j in range(70)),
)


@pytest.mark.parametrize(
    "field,y0,t0,record_every,h",
    [
        (sir_field(0.001, 0.072), (620.0, 10.0, 70.0), 0.0, 1, 1e-3),
        (sir_field(0.001, 0.072), (620.0, 10.0, 70.0), 0.0, 7, 1e-3),
        (TIMED_FIELD, (0.75, -0.0), 1.5, 1, 1e-3),
        (TIMED_FIELD, (0.75, 0.5), -1.25, 3, 1e-3),
        (TIMED_FIELD, (-0.0, 0.5), -0.0, 1, 1e-3),
        (PolynomialVectorField(equations=((),), variable_names=("y",)), (2.5,), 0.0, 1, 1e-3),
        (WIDE_FIELD, tuple(1.0 + j / 1000 for j in range(70)), 0.5, 10, 1e-3),
        (sir_field(0.001, 0.072), (-0.0, math.inf, math.nan), 0.0, 1, 1e-3),
        (TIMED_FIELD, (math.inf, -0.0), 0.25, 1, 1e-3),
        (TIMED_FIELD, (math.nan, 0.5), 0.25, 2, 1e-3),
        # No state at all: the loop has no stage to compute.
        (PolynomialVectorField(equations=(), variable_names=()), (), 0.0, 1, 1e-3),
        # One step: only k = 1 runs, whose first stage sees u = 0.0.
        (TIMED_FIELD, (0.75, 0.5), -0.0, 1, 1.0),
    ],
)
def test_trajectory_bit_identical_to_evaluate_field_loop(field, y0, t0, record_every, h):
    traj = rk4_integrate(field, y0, t0, t0 + 1.0, h, record_every)
    want = _rk4_reference(field, y0, t0, t0 + 1.0, h)[::record_every]
    assert [[v.hex() for v in s] for s in traj.states] == [
        [v.hex() for v in s] for s in want
    ]
    n_steps = round(1.0 / h)
    times = [t0] + [t0 + k * h for k in range(record_every, n_steps + 1, record_every)]
    assert [t.hex() for t in traj.times] == [t.hex() for t in times]


def test_initial_state_length_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(EXP_FIELD, (1.0, 2.0), 0.0, 1.0, 0.1)


def test_state_checked_before_any_step():
    field = PolynomialVectorField(equations=((Monomial(1.0, (1,)),),), variable_names=("y",))
    with pytest.raises(ValueError, match="state has length 2, expected 1"):
        rk4_integrate(field, (1.0, 2.0), 0.0, 1.0, 0.1)
    assert "rk4" not in field.plan.__dict__


def test_one_evaluate_field_call_per_integration(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate_field(*args)

    monkeypatch.setattr(rk4_module, "evaluate_field", counted)
    rk4_integrate(sir_field(0.001, 0.072), (620.0, 10.0, 70.0), 0.0, 1.0, 0.01)
    assert len(calls) == 1
