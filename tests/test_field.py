import random

import pytest

from fracseries import (
    FractionalPolynomial,
    GridMismatchError,
    Monomial,
    PolynomialVectorField,
    compose_series,
    evaluate_field,
    sir_field,
)

from sir_reference import COEFFS_DEG9


IDENTITY_1D = PolynomialVectorField(
    equations=((Monomial(1.0, (1,)),),), variable_names=("y",)
)


class TestValidation:
    def test_negative_state_power_rejected(self):
        with pytest.raises(ValueError):
            Monomial(1.0, (1, -1))

    def test_negative_time_power_rejected(self):
        with pytest.raises(ValueError):
            Monomial(1.0, (1,), time_power=-2)

    def test_mismatched_monomial_width_rejected(self):
        with pytest.raises(ValueError):
            PolynomialVectorField(
                equations=((Monomial(1.0, (1, 0)),),), variable_names=("y",)
            )

    def test_name_count_must_match_equations(self):
        with pytest.raises(ValueError):
            PolynomialVectorField(
                equations=((Monomial(1.0, (1,)),),), variable_names=("a", "b")
            )


class TestEvaluateField:
    def test_sir_at_initial_state(self):
        rhs = evaluate_field(sir_field(0.001, 0.072), 0.0, (620.0, 10.0, 70.0))
        assert rhs == pytest.approx((-6.2, 5.48, 0.72), rel=1e-12)

    def test_zero_field(self):
        field = PolynomialVectorField(
            equations=((), ()), variable_names=("a", "b")
        )
        assert evaluate_field(field, 0.5, (3.0, 4.0)) == [0.0, 0.0]

    def test_identity_field(self):
        assert evaluate_field(IDENTITY_1D, 0.0, (3.0,)) == [3.0]

    def test_time_power_uses_given_value(self):
        field = PolynomialVectorField(
            equations=((Monomial(2.0, (0,), time_power=3),),), variable_names=("y",)
        )
        assert evaluate_field(field, 0.5, (9.0,)) == [2.0 * 0.5**3]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_field(IDENTITY_1D, 0.0, (1.0, 2.0))

    def test_negative_time_value_rejected(self):
        with pytest.raises(ValueError):
            evaluate_field(IDENTITY_1D, -0.1, (1.0,))

    def test_bit_identical_to_monomial_walk(self):
        # Literal reference: coefficient, then time power, then every state
        # power in variable order, monomials summed in order.
        rng = random.Random(3)
        for _ in range(200):
            dim = rng.randint(1, 4)
            field = PolynomialVectorField(
                equations=tuple(
                    tuple(
                        Monomial(
                            rng.uniform(-1.5, 1.5),
                            tuple(rng.choice([0, 1, 2, 3, 4]) for _ in range(dim)),
                            time_power=rng.randint(0, 3),
                        )
                        for _ in range(rng.randint(0, 3))
                    )
                    for _ in range(dim)
                ),
                variable_names=tuple(f"y{j}" for j in range(dim)),
            )
            y = [rng.uniform(-2.0, 2.0) for _ in range(dim)]
            u = rng.uniform(0.0, 3.0)
            want = []
            for terms in field.equations:
                acc = 0.0
                for m in terms:
                    v = m.coeff
                    if m.time_power:
                        v *= u**m.time_power
                    for yj, e in zip(y, m.state_powers):
                        if e:
                            v *= yj if e == 1 else yj**e
                    acc += v
                want.append(acc)
            got = evaluate_field(field, u, y)
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestPlan:
    def test_sir_shares_the_s_times_i_chain(self):
        plan = sir_field(0.001, 0.072).plan
        # constant 1, S, S*I, I: S*I appears in two equations but is built once
        assert plan.nodes == [(-1, -1), (0, 0), (1, 1), (0, 1)]
        assert [[node for _, _, node in terms] for terms in plan.terms] == [[2], [2, 3], [3]]

    def test_repeated_factors_extend_one_chain(self):
        field = PolynomialVectorField(
            equations=((Monomial(1.0, (3, 0)), Monomial(2.0, (2, 1)), Monomial(3.0, (0, 0))),
                       (Monomial(1.0, (1, 0), time_power=2),)),
            variable_names=("x", "z"),
        )
        plan = field.plan
        # x, x^2, x^3, x^2*z: prefixes x and x^2 are shared
        assert plan.nodes == [(-1, -1), (0, 0), (1, 0), (2, 0), (2, 1)]
        assert plan.terms == [[(1.0, 0, 3), (2.0, 0, 4), (3.0, 0, 0)], [(1.0, 2, 1)]]
        assert plan.points[0][1] == (2.0, 0, ((0, 2), (1, 1)))

    def test_built_once_per_field(self):
        field = sir_field(0.001, 0.072)
        assert field.plan is field.plan


class TestComposeSeries:
    def test_sir_with_constant_series(self):
        field = sir_field(0.001, 0.072)
        constants = [
            FractionalPolynomial(0.5, 0.0, (v,)) for v in (620.0, 10.0, 70.0)
        ]
        for max_degree in (0, 3):
            composed = compose_series(field, constants, max_degree)
            values = [p.coefficient(0) for p in composed]
            assert values == pytest.approx((-6.2, 5.48, 0.72), rel=1e-12)
            assert all(
                p.coefficient(k) == 0.0 for p in composed for k in range(1, max_degree + 1)
            )

    def test_identity_field_returns_input(self):
        p = FractionalPolynomial(0.5, 0.0, (1.0, 1.0))
        composed = compose_series(IDENTITY_1D, [p], 3)
        assert composed[0].coeffs[:2] == (1.0, 1.0)
        assert all(c == 0.0 for c in composed[0].coeffs[2:])

    def test_sir_susceptible_equation_linear_slot(self):
        # Slot 1 of -p1*S*I with the degree-9 series: -0.001 * 3335.6.
        field = sir_field(0.001, 0.072)
        series = [
            FractionalPolynomial(1.0, 0.0, COEFFS_DEG9[v]) for v in ("S", "I", "R")
        ]
        composed = compose_series(field, series, 8)
        assert composed[0].coeffs[1] == pytest.approx(-3.3356, rel=1e-12)

    def test_time_power_shifts_grid_slots(self):
        field = PolynomialVectorField(
            equations=((Monomial(5.0, (0,), time_power=2),),), variable_names=("y",)
        )
        composed = compose_series(
            field, [FractionalPolynomial(0.5, 0.0, (1.0,))], 4
        )
        assert composed[0].coeffs == (0.0, 0.0, 5.0)

    def test_time_power_beyond_truncation_vanishes(self):
        field = PolynomialVectorField(
            equations=((Monomial(5.0, (0,), time_power=7),),), variable_names=("y",)
        )
        composed = compose_series(
            field, [FractionalPolynomial(0.5, 0.0, (1.0,))], 4
        )
        assert all(c == 0.0 for c in composed[0].coeffs)

    def test_wrong_series_count_rejected(self):
        with pytest.raises(ValueError):
            compose_series(
                sir_field(0.001, 0.072),
                [FractionalPolynomial(0.5, 0.0, (1.0,))],
                3,
            )

    def test_mixed_grids_rejected(self):
        with pytest.raises(GridMismatchError):
            compose_series(
                sir_field(0.001, 0.072),
                [
                    FractionalPolynomial(0.5, 0.0, (1.0, 1.0)),
                    FractionalPolynomial(0.7, 0.0, (1.0, 1.0)),
                    FractionalPolynomial(0.5, 0.0, (1.0, 1.0)),
                ],
                3,
            )


def _random_field(rng, dim):
    equations = []
    for _ in range(dim):
        terms = []
        for _ in range(rng.randint(1, 3)):
            powers = [0] * dim
            for _ in range(rng.randint(0, 2)):  # up to quadratic in the state
                powers[rng.randrange(dim)] += 1
            terms.append(
                Monomial(
                    rng.uniform(-1.5, 1.5),
                    tuple(powers),
                    time_power=rng.randint(0, 1),
                )
            )
        equations.append(tuple(terms))
    names = tuple(f"y{j}" for j in range(dim))
    return PolynomialVectorField(equations=tuple(equations), variable_names=names)


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
def test_composition_consistent_with_pointwise_evaluation(alpha):
    # With no truncation, composing then evaluating must agree with
    # evaluating the series first and the field afterwards.
    rng = random.Random(int(alpha * 10))
    for _ in range(12):
        dim = rng.randint(1, 3)
        field = _random_field(rng, dim)
        series = [
            FractionalPolynomial(
                alpha, 0.0, tuple(rng.uniform(-1, 1) for _ in range(rng.randint(1, 4)))
            )
            for _ in range(dim)
        ]
        max_input_degree = max(p.degree for p in series)
        max_time_power = max(
            m.time_power for terms in field.equations for m in terms
        )
        safe_degree = 2 * max_input_degree + max_time_power
        composed = compose_series(field, series, max(safe_degree, 4))
        for t in (0.0, 0.2, 0.9):
            y = [p.evaluate(t) for p in series]
            direct = evaluate_field(field, t**alpha, y)
            for j in range(dim):
                assert composed[j].evaluate(t) == pytest.approx(
                    direct[j], rel=1e-10, abs=1e-12
                )
