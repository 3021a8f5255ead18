import ast
import io
import linecache
import math
import pickle
import random
import re
import tokenize
import traceback
from fractions import Fraction

import pytest

from fracseries import (
    FractionalPolynomial,
    GridMismatchError,
    Monomial,
    PolynomialVectorField,
    SeriesProblem,
    add_scaled,
    compose_series,
    evaluate_field,
    multiply_truncated,
    rk4_integrate,
    sir_field,
    solve,
)
from fracseries.field import _GENERATED, FieldPlan

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

    @pytest.mark.parametrize("powers, time_power, name, bad", [
        ((1.5,), 0, "state_powers[0]", 1.5), ((1,), 1.5, "time_power", 1.5),
        ((math.nan,), 0, "state_powers[0]", math.nan), ((1,), math.inf, "time_power", math.inf),
        (("2",), 0, "state_powers[0]", "2"), ((None,), 0, "state_powers[0]", None),
        ((1, True), 0, "state_powers[1]", True), ((1,), False, "time_power", False),
        ((2.0,), 0, "state_powers[0]", 2.0), ((1, 1, -1), 0, "state_powers[2]", -1),
    ])
    def test_non_integer_power_rejected(self, powers, time_power, name, bad):
        # fracpoly's degree rule, so 2.0 and True raise rather than become ints.
        message = rf"^{re.escape(name)} must be an int >= 0, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Monomial(1.0, powers, time_power)

    def test_state_degree_capped_at_construction(self):
        # FieldPlan builds one node per state factor; a huge power must fail
        # here, before any plan exists, not grow memory at `field.plan`.
        assert Monomial(1.0, (9_999, 1), time_power=10**6).state_powers == (9_999, 1)
        for powers in ((10_000, 1), (5_001, 5_000), (10**400, 0)):
            with pytest.raises(ValueError, match=r"^state_powers sum to more than 10000$"):
                Monomial(1.0, powers)

    def test_coefficient_stored_as_float(self):
        # Series built from these coefficients skip the constructor's coercion.
        for given, want in ((2, 2.0), (True, 1.0), (Fraction(1, 3), 1 / 3), (-0.0, -0.0)):
            coeff = Monomial(given, (1,)).coeff
            assert type(coeff) is float and coeff.hex() == want.hex()
        with pytest.raises(TypeError):
            Monomial(1j, (1,))


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
        for t_value in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="time value must be non-negative"):
                evaluate_field(IDENTITY_1D, t_value, (1.0,))

    def test_bit_identical_to_monomial_walk(self):
        rng = random.Random(3)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for _ in range(300):
            dim = rng.randint(1, 4)
            field = PolynomialVectorField(
                equations=tuple(
                    tuple(
                        Monomial(
                            rng.choice(special) if rng.random() < 0.15
                            else rng.uniform(-1.5, 1.5),
                            tuple(rng.choice([0, 1, 2, 3, 4]) for _ in range(dim)),
                            time_power=rng.randint(0, 3),
                        )
                        for _ in range(rng.randint(0, 3))
                    )
                    for _ in range(dim)
                ),
                # Names never reach the generated source.
                variable_names=tuple(f"__import__('os')\n#{j}" for j in range(dim)),
            )
            y = [rng.choice([0.0, -0.0]) if rng.random() < 0.2 else rng.uniform(-2.0, 2.0)
                 for _ in range(dim)]
            u = rng.choice([0.0, rng.uniform(0.0, 3.0)])
            _assert_same_bits(evaluate_field(field, u, y), _walk(field, u, y))

    def test_long_equation_and_wide_monomial(self):
        # Written as one expression, either would nest deeper than the
        # compiler recurses (about 3000 levels) and raise RecursionError.
        rng = random.Random(5)
        long_eq = tuple(
            Monomial(rng.uniform(-1, 1), (k % 3, k % 2), k % 4) for k in range(5000)
        )
        dim = 3200
        wide = Monomial(0.5, tuple(1 + (j % 7 == 0) for j in range(dim)), 1)
        for field in (
            PolynomialVectorField(equations=(long_eq, ()), variable_names=("a", "b")),
            PolynomialVectorField(
                equations=((wide,),) + ((),) * (dim - 1),
                variable_names=tuple(f"y{j}" for j in range(dim)),
            ),
        ):
            y = [rng.uniform(0.99, 1.01) for _ in range(field.dimension)]
            _assert_same_bits(evaluate_field(field, 0.7, y), _walk(field, 0.7, y))


def _walk(field, u, y):
    """Literal reference: coefficient, then time power, then every state
    power in variable order, monomials summed in order from 0.0."""
    out = []
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
        out.append(acc)
    return out


def _assert_same_bits(got, want):
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.fixture
def compiled(monkeypatch):
    """The names `FieldPlan._compile` builds while a test runs, in order."""
    names = []
    build = FieldPlan._compile
    monkeypatch.setattr(FieldPlan, "_compile",
                        lambda plan, name: names.append(name) or build(plan, name))
    return names


class TestPlan:
    def test_sir_shares_the_s_times_i_chain(self):
        plan = sir_field(0.001, 0.072).plan
        # constant 1, S, S*I, I: S*I appears in two equations but is built once
        assert plan.nodes == [(-1, -1), (0, 0), (1, 1), (0, 1)]
        assert [[node for _, _, node, _ in terms] for terms in plan.terms] == [[2], [2, 3], [3]]

    def test_repeated_factors_extend_one_chain(self):
        field = PolynomialVectorField(
            equations=((Monomial(1.0, (3, 0)), Monomial(2.0, (2, 1)), Monomial(3.0, (0, 0))),
                       (Monomial(1.0, (1, 0), time_power=2),)),
            variable_names=("x", "z"),
        )
        plan = field.plan
        # x, x^2, x^3, x^2*z: prefixes x and x^2 are shared
        assert plan.nodes == [(-1, -1), (0, 0), (1, 0), (2, 0), (2, 1)]
        assert plan.terms == [[(1.0, 0, 3, ((0, 3),)), (2.0, 0, 4, ((0, 2), (1, 1))),
                               (3.0, 0, 0, ())], [(1.0, 2, 1, ((0, 1),))]]

    def test_built_once_per_field(self):
        field = sir_field(0.001, 0.072)
        assert field.plan is field.plan

    def test_pickles_after_evaluation(self):
        field = sir_field(0.001, 0.072)
        problem = SeriesProblem(field=field, y0=(620.0, 10.0, 70.0), alpha=0.5, t0=0.0, degree=30)
        want_series = [s.coeffs for s in solve(problem).series]
        want = evaluate_field(field, 0.5, (620.0, 10.0, 70.0))
        copy = pickle.loads(pickle.dumps(field))
        assert "recurrence" not in copy.plan.__dict__
        assert evaluate_field(copy, 0.5, (620.0, 10.0, 70.0)) == want
        solved = solve(SeriesProblem(field=copy, y0=problem.y0, alpha=0.5, t0=0.0, degree=30))
        assert [[c.hex() for c in s.coeffs] for s in solved.series] == [
            [c.hex() for c in coeffs] for coeffs in want_series
        ]

    def test_pickles_after_rk4(self):
        field = sir_field(0.001, 0.072)
        want = rk4_integrate(field, (620.0, 10.0, 70.0), 0.0, 1.0, 0.01, 3)
        copy = pickle.loads(pickle.dumps(field))
        assert "rk4" not in copy.plan.__dict__
        got = rk4_integrate(copy, (620.0, 10.0, 70.0), 0.0, 1.0, 0.01, 3)
        assert [[v.hex() for v in s] for s in got.states] == [
            [v.hex() for v in s] for s in want.states
        ]

    def test_solve_leaves_rk4_unbuilt(self):
        field = sir_field(0.001, 0.072)
        solve(SeriesProblem(field=field, y0=(620.0, 10.0, 70.0), alpha=1.0, t0=0.0, degree=9))
        assert "rk4" not in field.plan.__dict__

    def test_rk4_integrate_leaves_the_recurrence_unbuilt(self):
        field = sir_field(0.001, 0.072)
        rk4_integrate(field, (620.0, 10.0, 70.0), 0.0, 1.0, 0.1)
        assert "recurrence" not in field.plan.__dict__

    def test_rk4_built_once_per_plan(self, compiled):
        field = sir_field(0.001, 0.072)
        for t0, t_end, h, record_every in ((0.0, 1.0, 0.1, 1), (-2.0, 3.0, 0.05, 4),
                                           (1.5, 2.0, 0.125, 2)):
            rk4_integrate(field, (620.0, 10.0, 70.0), t0, t_end, h, record_every)
        assert compiled == ["rk4"]
        assert field.plan.rk4 is field.plan.rk4

    def test_evaluate_field_compiles_nothing(self, compiled):
        field = sir_field(0.001, 0.072)
        for u in (0.0, 0.5, 1.0):
            evaluate_field(field, u, (620.0, 10.0, 70.0))
        assert compiled == []

    def test_recurrence_built_once_per_plan(self, compiled):
        field = sir_field(0.001, 0.072)
        for degree in (0, 9, 40):
            for alpha in (0.5, 1.0):
                solve(SeriesProblem(field=field, y0=(620.0, 10.0, 70.0), alpha=alpha,
                                    t0=0.0, degree=degree))
        assert compiled == ["recurrence"]
        assert field.plan.recurrence is field.plan.recurrence

    @pytest.mark.parametrize("name", _GENERATED)
    def test_source_holds_no_user_value(self, name):
        field = PolynomialVectorField(
            equations=((Monomial(2.5, (1, 2), 3), Monomial(math.nan, (0, 0), 1)),
                       (Monomial(-math.inf, (0, 1)),)),
            variable_names=("__import__('os')", "1e300"),
        )
        source = "\n".join(getattr(field.plan, f"{name}_source")())
        numbers = {t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                   if t.type == tokenize.NUMBER}
        # 0.0 starts every sum; 1.0 is the recurrence's constant node, and
        # 0.5, 2.0 and 6.0 are RK4's own weights.
        constants = {"recurrence": {"1.0"}, "rk4": {"0.5", "2.0", "6.0"}}
        assert all(v.isdigit() or v in {"0.0", *constants[name]} for v in numbers)
        assert not any(text in source for text in ("2.5", "nan", "inf", "os", "1e300"))
        assert callable(getattr(field.plan, name))

    @pytest.mark.parametrize("seed", range(6))
    def test_rk4_reads_every_stage_state_it_assigns(self, seed):
        # SIR's R is no factor of any term, so no stage computes x2; a
        # constant field computes no stage state at all.
        rng = random.Random(seed)
        fields = [sir_field(0.001, 0.072), _random_field(rng, rng.randint(1, 4)),
                  PolynomialVectorField(equations=((Monomial(1.0, (0, 0)),), ()),
                                        variable_names=("a", "b"))]
        assigned = []
        for field in fields:
            loop = ast.parse("\n".join(field.plan.rk4_source())).body[0].body[-2]
            unread, assigned_here = set(), set()
            for statement in loop.body:
                names = [n for n in ast.walk(statement) if isinstance(n, ast.Name)]
                unread -= {n.id for n in names if isinstance(n.ctx, ast.Load)}
                for n in names:
                    if isinstance(n.ctx, ast.Store) and re.fullmatch(r"x\d+", n.id):
                        assert n.id not in unread, (field, n.id)
                        unread.add(n.id)
                        assigned_here.add(n.id)
            assert not unread, (field, unread)
            assigned.append(assigned_here)
        assert (assigned[0], assigned[2]) == ({"x0", "x1"}, set())

    def test_generated_frames_name_their_generator(self):
        plan = sir_field(0.001, 0.072).plan
        with pytest.raises(IndexError) as info:
            plan.recurrence([1.0], [1.0, 1.0])  # SIR needs three initial values
        frame = traceback.extract_tb(info.tb)[-1]
        assert (frame.filename, frame.name) == ("<FieldPlan.recurrence>", "recurrence")

    def test_no_generated_source_is_kept(self):
        plan = sir_field(0.001, 0.072).plan
        assert all(callable(getattr(plan, name)) for name in _GENERATED)
        with pytest.raises(IndexError) as info:
            plan.recurrence([1.0], [1.0, 1.0])
        traceback.format_exception(info.type, info.value, info.tb)  # reads linecache
        assert not [key for key in linecache.cache if "FieldPlan" in key]
        assert set(vars(plan)) == {"nodes", "terms", *_GENERATED}


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


def _compose_reference(field, y_series, max_degree):
    """`compose_series` as first written: every monomial builds its own
    truncated products, factor by factor, and shares none."""
    alpha, t0 = y_series[0].alpha, y_series[0].t0
    one = FractionalPolynomial(alpha, t0, (1.0,))
    out = []
    for terms in field.equations:
        acc = FractionalPolynomial(alpha, t0, (0.0,))
        for mono in terms:
            if mono.time_power > max_degree:
                continue
            budget = max_degree - mono.time_power
            prod = one
            for j, e in enumerate(mono.state_powers):
                for _ in range(e):
                    prod = multiply_truncated(prod, y_series[j], budget)
            shifted = (0.0,) * mono.time_power + tuple(mono.coeff * c for c in prod.coeffs)
            acc = add_scaled(acc, FractionalPolynomial(alpha, t0, shifted), 1.0, 1.0)
        out.append(acc)
    return out


def _chain_sharing_case(rng):
    """A field whose monomials draw from a few state-power tuples (repeated
    chains, and chains that extend one another such as x, x^2, x^2*z) at
    time powers from 0 to past the truncation, with series that mix finite
    values, signed zeros, infinities and NaN."""
    dim = rng.randint(1, 4)
    chains = []
    for _ in range(rng.randint(1, 4)):
        powers = [0] * dim
        for _ in range(rng.randint(0, 3)):
            powers[rng.randrange(dim)] += 1
        chains.append(tuple(powers))
    max_degree = rng.choice([0, 0, 1, 3, 7, 12])
    equations = tuple(
        tuple(
            Monomial(rng.choice([1.0, -0.5, rng.uniform(-2.0, 2.0)]), rng.choice(chains),
                     time_power=rng.choice([0, 0, 1, 2, max_degree, max_degree + 1, 20]))
            for _ in range(rng.randint(0, 6))
        )
        for _ in range(dim)
    )
    field = PolynomialVectorField(equations=equations,
                                  variable_names=tuple(f"y{j}" for j in range(dim)))
    alpha, t0 = rng.choice([0.3, 0.5, 1.0]), rng.choice([0.0, -1.5])
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan] + [rng.uniform(-3.0, 3.0) for _ in range(10)]
    series = [
        FractionalPolynomial(alpha, t0, tuple(rng.choice(pool) for _ in range(rng.randint(1, 9))))
        for _ in range(dim)
    ]
    return field, series, max_degree


def _assert_composes_like_reference(field, series, max_degree):
    got = compose_series(field, series, max_degree)
    want = _compose_reference(field, series, max_degree)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        _assert_same_bits(p.coeffs, q.coeffs)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_compose_series_bit_identical_to_per_monomial_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        _assert_composes_like_reference(*_chain_sharing_case(rng))


def test_compose_series_shares_a_chain_across_time_powers(monkeypatch):
    # x*z at time powers 0 and 1 is one product, truncated at 3, whose first
    # three slots serve the second monomial; x^2*z shares the prefix x.
    field = PolynomialVectorField(
        equations=((Monomial(1.0, (1, 1)), Monomial(1.0, (1, 1), time_power=1)),
                   (Monomial(1.0, (2, 1)),)),
        variable_names=("x", "z"),
    )
    series = [FractionalPolynomial(0.5, 0.0, (1.0, 1.0, 1.0, 1.0))] * 2
    calls = []

    def counted(p, q, max_degree):
        calls.append(max_degree)
        return multiply_truncated(p, q, max_degree)

    monkeypatch.setattr("fracseries.field.multiply_truncated", counted)
    compose_series(field, series, 3)
    assert calls == [3] * 4  # x, x*z, x^2, x^2*z
    monkeypatch.undo()
    got = _assert_composes_like_reference(field, series, 3)
    assert got[0].coeffs == (1.0, 3.0, 5.0, 7.0)


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
