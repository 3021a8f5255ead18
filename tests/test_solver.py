import collections
import dataclasses
import hashlib
import importlib
import math
import pickle
import random
import re
import struct

import pytest

from fracseries import (
    FractionalPolynomial,
    GridMismatchError,
    Monomial,
    PolynomialVectorField,
    SeriesProblem,
    SeriesSolution,
    add_scaled,
    build_defect,
    compose_series,
    gamma,
    multiply_truncated,
    sir_field,
    solve,
    verify_defect_conditions,
)

from series_reference import coefficients
from sir_reference import COEFFS_DEG9, INITIAL

ML_FIELD = PolynomialVectorField(
    equations=((Monomial(1.0, (1,)),),), variable_names=("y",)
)


def _solve_by_defect_limits(field, y0, alpha, t0, degree):
    """Independent solver: extract each coefficient from the literal limit
    conditions instead of the Gamma-ratio recursion.

    For index i, the limit at t0+ of the (i-1)-fold sequential derivative of
    defect component j is affine in the unknown coefficient c_i[j], so two
    trial defects (c_i = 0 and c_i = 1) determine it exactly.
    """
    series = [FractionalPolynomial(alpha, t0, (v,)) for v in y0]
    for i in range(1, degree + 1):
        trial0 = [
            FractionalPolynomial(alpha, t0, p.coeffs + (0.0,)) for p in series
        ]
        trial1 = [
            FractionalPolynomial(alpha, t0, p.coeffs + (1.0,)) for p in series
        ]
        base = [
            d.sequential_caputo_limit(i - 1) for d in build_defect(field, trial0, i - 1)
        ]
        bumped = [
            d.sequential_caputo_limit(i - 1) for d in build_defect(field, trial1, i - 1)
        ]
        series = [
            FractionalPolynomial(alpha, t0, p.coeffs + (-a / (b - a),))
            for p, a, b in zip(series, base, bumped)
        ]
    return series


class TestBuildDefect:
    def test_constants_with_zero_field(self):
        field = PolynomialVectorField(equations=((),), variable_names=("y",))
        candidate = [FractionalPolynomial(0.5, 0.0, (3.0, 0.0, 0.0))]
        defect = build_defect(field, candidate, 2)
        assert all(defect[0].coefficient(k) == 0.0 for k in range(3))

    def test_sir_constant_candidate_leaves_field_residual(self):
        field = sir_field(0.001, 0.072)
        candidate = [
            FractionalPolynomial(1.0, 0.0, (v, 0.0, 0.0, 0.0, 0.0)) for v in INITIAL
        ]
        defect = build_defect(field, candidate, 4)
        assert defect[0].coeffs[0] == pytest.approx(6.2, rel=1e-12)
        assert defect[1].coeffs[0] == pytest.approx(-5.48, rel=1e-12)
        assert defect[2].coeffs[0] == pytest.approx(-0.72, rel=1e-12)

    def test_published_degree9_series_has_vanishing_defect(self):
        field = sir_field(0.001, 0.072)
        series = [
            FractionalPolynomial(1.0, 0.0, COEFFS_DEG9[v]) for v in ("S", "I", "R")
        ]
        defect = build_defect(field, series, 8)
        worst = max(abs(c) for d in defect for c in d.coeffs)
        assert worst <= 1e-9


class TestSolve:
    def test_degree9_alpha1_sir_coefficients(self, sir_spec, sir_solution_deg9):
        for name, series in zip(sir_spec.variable_names, sir_solution_deg9.series):
            for got, want in zip(series.coeffs, COEFFS_DEG9[name]):
                assert got == pytest.approx(want, rel=1e-12)

    def test_initial_condition_is_exact(self, sir_solution_deg9):
        assert tuple(s.coeffs[0] for s in sir_solution_deg9.series) == INITIAL

    def test_defect_diagnostics_vanish(self, sir_spec, sir_solution_deg9):
        for d in build_defect(sir_spec.field(), sir_solution_deg9.series, 8):
            assert d.degree == 8
            assert max(abs(v) for v in d.coeffs) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_general_alpha_low_order_closed_forms(self, sir_spec, alpha):
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=2
        )
        s = solve(problem).series[0]
        assert s.coeffs[0] == 620.0
        assert s.coeffs[1] == pytest.approx(-6.2 / gamma(1 + alpha), rel=1e-12)
        assert s.coeffs[2] == pytest.approx(-3.3356 / gamma(1 + 2 * alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_mittag_leffler_closed_form(self, alpha):
        problem = SeriesProblem(
            field=ML_FIELD, y0=(1.0,), alpha=alpha, t0=0.0, degree=10
        )
        series = solve(problem).series[0]
        for i, c in enumerate(series.coeffs):
            assert c == pytest.approx(1.0 / gamma(i * alpha + 1.0), rel=1e-12)

    def test_degree_zero_returns_constants(self, sir_spec):
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=0.5, t0=0.0, degree=0
        )
        solution = solve(problem)
        assert tuple(s.coeffs for s in solution.series) == ((620.0,), (10.0,), (70.0,))

    def test_nonzero_center_shifts_expansion(self):
        import math

        problem = SeriesProblem(
            field=ML_FIELD, y0=(1.0,), alpha=1.0, t0=2.0, degree=12
        )
        series = solve(problem).series[0]
        assert series.t0 == 2.0
        # exp(t - 2) around t0 = 2; degree-12 truncation is ~2e-14 at t = 2.5
        assert series.evaluate(2.5) == pytest.approx(math.exp(0.5), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_sir_coefficient_sums_vanish(self, sir_spec, alpha):
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=9
        )
        series = solve(problem).series
        for i in range(1, 10):
            values = [s.coeffs[i] for s in series]
            scale = max(*(abs(v) for v in values), 1.0)
            assert abs(sum(values)) <= 1e-12 * scale

    def test_mismatched_initial_length_rejected(self, sir_spec):
        with pytest.raises(ValueError):
            SeriesProblem(
                field=sir_spec.field(), y0=(1.0,), alpha=1.0, t0=0.0, degree=3
            )

    def test_alpha_out_of_range_rejected(self, sir_spec):
        with pytest.raises(ValueError):
            SeriesProblem(
                field=sir_spec.field(), y0=INITIAL, alpha=1.5, t0=0.0, degree=3
            )

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_t0_rejected(self, sir_spec, t0):
        # A NaN t0 used to solve, then fail the grid check against itself.
        with pytest.raises(ValueError, match="t0 must be finite"):
            SeriesProblem(field=sir_spec.field(), y0=INITIAL, alpha=0.5, t0=t0, degree=3)

    @pytest.mark.parametrize("degree", [2.5, 3.0, "3", True, -1])
    def test_degree_must_be_a_non_negative_int(self, sir_spec, degree):
        # A float or bool degree would otherwise construct, then fail inside solve.
        with pytest.raises(ValueError, match="degree must be an int >= 0"):
            SeriesProblem(
                field=sir_spec.field(), y0=INITIAL, alpha=0.5, t0=0.0, degree=degree
            )


class TestVerifyDefectConditions:
    def test_zero_field_constant_problem(self):
        field = PolynomialVectorField(equations=((),), variable_names=("y",))
        problem = SeriesProblem(field=field, y0=(3.0,), alpha=0.5, t0=0.0, degree=4)
        assert verify_defect_conditions(solve(problem), problem) == [0.0] * 4

    def test_sir_degree9_limits_vanish(self, sir_spec, sir_solution_deg9):
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=1.0, t0=0.0, degree=9
        )
        values = verify_defect_conditions(sir_solution_deg9, problem)
        assert len(values) == 9
        assert max(values) <= 1e-9

    def test_nan_limit_is_not_dropped(self):
        # b's series overflows to inf from index 1, so every limit of b's
        # defect is NaN while a's are 0.0, and a comes first.
        field = PolynomialVectorField(
            equations=((Monomial(-1.0, (1, 0)),),
                       (Monomial(1e300, (0, 1)), Monomial(1e300, (0, 2)))),
            variable_names=("a", "b"),
        )
        problem = SeriesProblem(field=field, y0=(1.0, 1e10), alpha=1.0, t0=0.0, degree=6)
        values = verify_defect_conditions(solve(problem), problem)
        assert len(values) == 6 and all(math.isnan(v) for v in values)

    def test_perturbed_coefficient_is_detected(self, sir_spec, sir_solution_deg9):
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=1.0, t0=0.0, degree=9
        )
        s = sir_solution_deg9.series[0]
        bumped = list(s.coeffs)
        bumped[2] += 1.0
        perturbed = dataclasses.replace(
            sir_solution_deg9,
            series=(
                FractionalPolynomial(s.alpha, s.t0, tuple(bumped)),
            ) + sir_solution_deg9.series[1:],
        )
        values = verify_defect_conditions(perturbed, problem)
        # Index 2 reads defect slot 1, which gains Gamma(2*alpha+1) = 2.
        assert values[1] == pytest.approx(gamma(3.0), abs=1e-6)


def _random_field(rng, dim):
    equations = []
    for _ in range(dim):
        terms = []
        for _ in range(rng.randint(1, 3)):
            powers = [0] * dim
            for _ in range(rng.randint(0, 2)):
                powers[rng.randrange(dim)] += 1
            terms.append(
                Monomial(
                    rng.uniform(-1.0, 1.0), tuple(powers), time_power=rng.randint(0, 1)
                )
            )
        equations.append(tuple(terms))
    return PolynomialVectorField(
        equations=tuple(equations),
        variable_names=tuple(f"y{j}" for j in range(dim)),
    )


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
def test_recursion_matches_literal_limit_solver(alpha):
    # Dual route: the production recursion against coefficient extraction
    # from the literal sequential-derivative limit conditions.
    rng = random.Random(int(alpha * 100) + 5)
    for _ in range(8):
        dim = rng.randint(1, 3)
        field = _random_field(rng, dim)
        y0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(dim))
        degree = 6
        problem = SeriesProblem(field=field, y0=y0, alpha=alpha, t0=0.0, degree=degree)
        solution = solve(problem)
        oracle = _solve_by_defect_limits(field, y0, alpha, 0.0, degree)
        for got, want in zip(solution.series, oracle):
            assert got.coeffs == pytest.approx(want.coeffs, rel=1e-11, abs=1e-13)
        residuals = verify_defect_conditions(solution, problem)
        scale = max(
            1.0, max(abs(c) for s in solution.series for c in s.coeffs)
        )
        assert max(residuals) <= 1e-11 * scale


def test_taylor_reduction_tracks_rk4(sir_solution_deg9, sir_rk_trajectory):
    # At alpha = 1 the series is the Taylor polynomial of the true solution.
    for t, state in zip(sir_rk_trajectory.times, sir_rk_trajectory.states):
        if t > 0.5:
            continue
        for j, series in enumerate(sir_solution_deg9.series):
            assert abs(series.evaluate(t) - state[j]) <= 1e-8


def _solve_by_recomposition(problem):
    """The solver's recursion as first written: at every step, compose the
    whole field with the partial series from scratch and read off slot i-1.

    O(n^3) and built only on `compose_series` and `gamma`; `solve` must
    reproduce its coefficients bit for bit.
    """
    a, t0, n = problem.alpha, problem.t0, problem.degree
    partial = [FractionalPolynomial(a, t0, (v,)) for v in problem.y0]
    for i in range(1, n + 1):
        ratio = gamma((i - 1) * a + 1.0) / gamma(i * a + 1.0)
        composed = compose_series(problem.field, partial, i - 1)
        partial = [
            FractionalPolynomial(a, t0, p.coeffs + (ratio * fp.coefficient(i - 1),))
            for p, fp in zip(partial, composed)
        ]
    return partial


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == alone does not.
    return [float(v).hex() for v in values]


def _assert_matches_recomposition(problem):
    solution = solve(problem)
    series = _solve_by_recomposition(problem)
    assert [_bits(s.coeffs) for s in solution.series] == [_bits(s.coeffs) for s in series]


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("degree", [0, 1, 2, 17, 60])
def test_sir_bit_identical_to_recomposition(sir_spec, alpha, degree):
    _assert_matches_recomposition(
        SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=degree
        )
    )


def _rich_random_field(rng, dim):
    # Repeated factors up to y^3, constant monomials, zero coefficients and
    # time powers up to past the solved degree.
    equations = []
    for _ in range(dim):
        terms = []
        for _ in range(rng.randint(0, 4)):
            powers = [0] * dim
            for _ in range(rng.choice([0, 1, 2, 3])):
                powers[rng.randrange(dim)] += 1
            if rng.random() < 0.2:
                powers[rng.randrange(dim)] = 3
            coeff = rng.choice([rng.uniform(-2.0, 2.0), 1.0, 0.0])
            terms.append(
                Monomial(coeff, tuple(powers), time_power=rng.choice([0, 0, 1, 3, 40]))
            )
        equations.append(tuple(terms))
    return PolynomialVectorField(
        equations=tuple(equations),
        variable_names=tuple(f"y{j}" for j in range(dim)),
    )


@pytest.mark.parametrize("seed", range(12))
def test_random_fields_bit_identical_to_recomposition(seed):
    rng = random.Random(1000 + seed)
    for _ in range(6):
        dim = rng.randint(1, 4)
        field = _rich_random_field(rng, dim)
        # Zero and negative-zero initial values exercise the zero-row skip.
        y0 = tuple(rng.choice([rng.uniform(-1.0, 1.0), 0.0, -0.0]) for _ in range(dim))
        problem = SeriesProblem(
            field=field,
            y0=y0,
            alpha=rng.choice([0.3, 0.5, 0.9, 1.0]),
            t0=rng.choice([0.0, 1.5]),
            degree=rng.randint(0, 25),
        )
        _assert_matches_recomposition(problem)


def _interpreted_recurrence(plan, n, y0, g):
    """Literal reference: the node and term loops `solve` interpreted over
    the plan before `FieldPlan.recurrence` was generated from it.

    Every node keeps its grid slots in a list; step i appends slot i-1 of
    each node (zero parent slots skipped) and then of each equation.
    """
    coeffs = [[v] for v in y0]
    slots = [[1.0]] + [[] for _ in plan.nodes[1:]]
    for i in range(1, n + 1):
        ratio = g[i - 1] / g[i]
        reversed_coeffs = [c[::-1] for c in coeffs]
        for (parent, j), out in zip(plan.nodes[1:], slots[1:]):
            acc = 0.0
            for left, right in zip(slots[parent], reversed_coeffs[j]):
                if left != 0.0:
                    acc += left * right
            out.append(acc)
        for c, terms in zip(coeffs, plan.terms):
            acc = 0.0
            for coeff, time_power, node, _ in terms:
                k = i - 1 - time_power
                if 0 <= k < len(slots[node]):
                    acc += coeff * slots[node][k]
            c.append(ratio * acc)
    return coeffs


def _raw(values):
    # The bytes of each double: unlike float.hex, they tell NaNs apart by sign.
    return struct.pack(f"<{len(values)}d", *values)


def _assert_matches_interpreted(problem):
    g = [gamma(i * problem.alpha + 1.0) for i in range(problem.degree + 1)]
    want = _interpreted_recurrence(problem.field.plan, problem.degree, problem.y0, g)
    assert [_raw(s.coeffs) for s in solve(problem).series] == [_raw(c) for c in want]


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]
# With the NaN that 0 * inf and inf - inf return as the only one, every NaN in
# a run has the same bits.  A sum of NaNs of two signs has no fixed sign from
# Python 3.11 on (README): the add keeps one operand's bits or the other's as
# it is or is not specialized yet, so one `solve` can differ between calls.
_ONE_NAN_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.inf - math.inf]


@pytest.mark.parametrize("seed", range(8))
def test_random_fields_bit_identical_to_interpreted_loops(seed):
    # Non-finite coefficients and initial values, which the recomposition
    # tests leave out, and names that are Python source.
    rng = random.Random(2000 + seed)
    for _ in range(10):
        dim = rng.randint(1, 4)
        field = _rich_random_field(rng, dim)
        field = PolynomialVectorField(
            equations=tuple(
                tuple(
                    dataclasses.replace(m, coeff=rng.choice(_ONE_NAN_SPECIAL))
                    if rng.random() < 0.2 else m
                    for m in terms
                )
                for terms in field.equations
            ),
            variable_names=tuple(f"__import__('os')\n#{j}" for j in range(dim)),
        )
        y0 = tuple(rng.choice(_ONE_NAN_SPECIAL) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)
                   for _ in range(dim))
        alpha, degree = rng.choice([0.5, 1.0]), rng.randint(0, 12)
        # Degrees 40 and 41 end on an even and an odd number of node products.
        for n in (degree, 40, 41):
            _assert_matches_interpreted(
                SeriesProblem(field=field, y0=y0, alpha=alpha, t0=0.0, degree=n))


@pytest.mark.parametrize(
    "y0", [(0.0, math.inf), (-0.0, -math.inf), (math.inf, 0.0), (-math.inf, -0.0)]
)
def test_zero_slot_times_infinity_is_skipped(y0):
    # When the slots of x are zero, x*z skips every product with z's
    # infinite coefficients instead of forming nan.
    field = PolynomialVectorField(
        equations=((Monomial(1.0, (1, 1)),), (Monomial(-1.0, (0, 1)),)),
        variable_names=("x", "z"),
    )
    problem = SeriesProblem(field=field, y0=y0, alpha=0.5, t0=0.0, degree=4)
    _assert_matches_interpreted(problem)
    if y0[0] == 0.0:
        assert solve(problem).series[0].coeffs[1:] == (0.0,) * 4


@pytest.mark.parametrize("x0", [math.inf, -math.inf])
@pytest.mark.parametrize("rate", [1.0, -1.0])
def test_infinite_node_sums_without_zero_slots(x0, rate):
    # No slot of x is zero.  At rate 1 every sum of x*z is inf of x0's sign
    # and none is summed again; at rate -1 slot 1 of x*z is inf + -inf, a NaN
    # that is summed again and must keep the skipping loop's bits.
    field = PolynomialVectorField(
        equations=((Monomial(1.0, (1, 1)),), (Monomial(rate, (0, 1)),)),
        variable_names=("x", "z"),
    )
    problem = SeriesProblem(field=field, y0=(x0, 1.0), alpha=0.5, t0=0.0, degree=4)
    _assert_matches_interpreted(problem)
    x = solve(problem).series[0].coeffs
    if rate > 0.0:
        assert x == (x0,) * 5
    else:
        assert x[:2] == (x0, x0) and all(math.isnan(c) for c in x[2:])


def test_signed_zero_sums_start_from_positive_zero():
    # -1 * 0.0 is -0.0, and 0.0 + -0.0 is 0.0: no coefficient may be -0.0.
    field = PolynomialVectorField(
        equations=((Monomial(-1.0, (1, 0)),), (Monomial(-1.0, (1, 1)),)),
        variable_names=("x", "z"),
    )
    for y0 in [(0.0, 1.0), (-0.0, -0.0), (0.0, -2.0)]:
        problem = SeriesProblem(field=field, y0=y0, alpha=0.75, t0=0.0, degree=5)
        _assert_matches_interpreted(problem)
        assert all(math.copysign(1.0, c) == 1.0 for s in solve(problem).series
                   for c in s.coeffs[1:])


@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_constant_monomials_up_to_past_the_degree(degree):
    # Time powers 0..degree+1 on the constant node: each lands in one slot,
    # the last in none.
    constants = tuple(
        Monomial(0.5 + p, (0, 0), time_power=p) for p in range(degree + 2)
    )
    field = PolynomialVectorField(
        equations=(constants + (Monomial(-0.25, (1, 1), time_power=1),), ()),
        variable_names=("a", "b"),
    )
    problem = SeriesProblem(field=field, y0=(1.0, 2.0), alpha=0.5, t0=0.0, degree=degree)
    _assert_matches_interpreted(problem)
    assert solve(problem).series[1].coeffs == (2.0,) + (0.0,) * degree


@pytest.mark.parametrize("degree", [0, 3])
def test_empty_equations(degree):
    for dim in (0, 1, 3):
        field = PolynomialVectorField(equations=((),) * dim, variable_names=("y",) * dim)
        problem = SeriesProblem(field=field, y0=(-0.0,) * dim, alpha=1.0, t0=0.0, degree=degree)
        _assert_matches_interpreted(problem)
        assert [s.coeffs for s in solve(problem).series] == [(-0.0,) + (0.0,) * degree] * dim


def test_long_equation_and_wide_monomial_match_interpreted_loops():
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
        y0 = tuple(rng.uniform(0.99, 1.01) for _ in range(field.dimension))
        _assert_matches_interpreted(
            SeriesProblem(field=field, y0=y0, alpha=0.5, t0=0.0, degree=4)
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_degree_n_solution_is_prefix_of_degree_n_plus_one(sir_spec, alpha):
    rng = random.Random(77)
    fields = [(sir_spec.field(), INITIAL)] + [
        (f, tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)))
        for dim in (1, 2, 3, 4)
        for f in [_rich_random_field(rng, dim)]
    ]
    for field, y0 in fields:
        shorter = solve(SeriesProblem(field=field, y0=y0, alpha=alpha, t0=0.0, degree=20))
        longer = solve(SeriesProblem(field=field, y0=y0, alpha=alpha, t0=0.0, degree=21))
        for s, l in zip(shorter.series, longer.series):
            assert _bits(l.coeffs[:-1]) == _bits(s.coeffs)


# Every binding through which the literal defect path can be reached.
_DEFECT_PATH_SITES = (
    ("fracseries.solver", "build_defect"),
    ("fracseries.solver", "compose_series"),
    ("fracseries.field", "compose_series"),
    ("fracseries.field", "multiply_truncated"),
    ("fracseries.fracpoly", "multiply_truncated"),
)


def _count_defect_path_calls(monkeypatch):
    calls = collections.Counter()
    for module_name, name in _DEFECT_PATH_SITES:
        module = importlib.import_module(module_name)

        def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def _sir_problem(sir_spec, alpha, degree):
    return SeriesProblem(
        field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=degree
    )


def _random_problem(seed, degree):
    rng = random.Random(seed)
    field = _rich_random_field(rng, 3)
    y0 = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
    return SeriesProblem(field=field, y0=y0, alpha=0.5, t0=0.0, degree=degree)


@pytest.mark.parametrize("which", ["sir", "random"])
def test_solve_builds_no_defect(sir_spec, monkeypatch, which):
    problem = _sir_problem(sir_spec, 0.5, 40) if which == "sir" else _random_problem(3, 40)
    calls = _count_defect_path_calls(monkeypatch)
    solution = solve(problem)
    assert calls == {}
    assert solution.problem is problem


def _limits_per_index(problem, series):
    """The oracle as first written: for every index i, rebuild the (i-1)-fold
    derivative chain of each defect component from scratch and take the
    largest absolute limit, NaN if any limit is NaN. O(n^3);
    `verify_defect_conditions` must reproduce it bit for bit."""
    n = problem.degree
    if n == 0:
        return []
    defect = build_defect(problem.field, list(series), n - 1)
    out = []
    for i in range(1, n + 1):
        limits = [abs(d.sequential_caputo_limit(i - 1)) for d in defect]
        out.append(math.nan if any(map(math.isnan, limits)) else max(limits))
    return out


def _assert_oracle_matches_per_index(problem, solution):
    got = verify_defect_conditions(solution, problem)
    assert _bits(got) == _bits(_limits_per_index(problem, solution.series))


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("degree", [0, 1, 2, 9, 40])
def test_sir_oracle_bit_identical_to_per_index_limits(sir_spec, alpha, degree):
    problem = SeriesProblem(
        field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=degree
    )
    _assert_oracle_matches_per_index(problem, solve(problem))


@pytest.mark.parametrize("seed", range(4))
def test_random_fields_oracle_bit_identical_to_per_index_limits(seed):
    rng = random.Random(2000 + seed)
    for _ in range(5):
        dim = rng.randint(1, 4)
        field = _rich_random_field(rng, dim)
        y0 = tuple(rng.choice([rng.uniform(-1.0, 1.0), 0.0, -0.0]) for _ in range(dim))
        problem = SeriesProblem(
            field=field,
            y0=y0,
            alpha=rng.choice([0.3, 0.5, 0.9, 1.0]),
            t0=rng.choice([0.0, 1.5]),
            degree=rng.randint(0, 20),
        )
        _assert_oracle_matches_per_index(problem, solve(problem))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_perturbed_series_oracle_bit_identical_to_per_index_limits(sir_spec, alpha):
    # A non-solution, so that every limit is non-zero and the check compares
    # real values rather than rounding noise.
    problem = SeriesProblem(
        field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=30
    )
    solution = solve(problem)
    rng = random.Random(31)
    perturbed = dataclasses.replace(
        solution,
        series=tuple(
            FractionalPolynomial(
                s.alpha, s.t0, tuple(c + rng.uniform(-1e-3, 1e-3) for c in s.coeffs)
            )
            for s in solution.series
        ),
    )
    limits = verify_defect_conditions(perturbed, problem)
    assert min(limits) > 0.0
    _assert_oracle_matches_per_index(problem, perturbed)


@pytest.mark.parametrize("seed", range(8))
def test_non_finite_series_oracle_bit_identical_to_per_index_limits(sir_spec, seed):
    # inf, NaN and signed zeros spread through the composition and every
    # derivative step as products, quotients and inf - inf.
    rng = random.Random(3000 + seed)
    problem = (_sir_problem(sir_spec, rng.choice([0.5, 1.0]), 12) if seed % 2 == 0
               else _random_problem(seed, 12))
    solution = solve(problem)
    series = [list(s.coeffs) for s in solution.series]
    for _ in range(rng.randint(1, 4)):
        row = rng.choice(series)
        row[rng.randrange(len(row))] = rng.choice(_SPECIAL)
    injected = dataclasses.replace(solution, series=tuple(
        FractionalPolynomial(problem.alpha, problem.t0, c) for c in series
    ))
    _assert_oracle_matches_per_index(problem, injected)


def _defect_by_polynomials(field, series, max_degree):
    """`build_defect` written with one polynomial operation per step, each
    series' derivative building its own Gamma table."""
    composed = compose_series(field, series, max_degree)
    return [add_scaled(p.caputo_derivative(), fp, 1.0, -1.0).truncated(max_degree)
            for p, fp in zip(series, composed)]


@pytest.mark.parametrize("seed", range(8))
def test_build_defect_bit_identical_to_polynomial_operations(sir_spec, seed):
    # Series cut short or run past the solved degree, so that the shared
    # table is sized by the longest one, with inf, NaN of either sign and
    # signed zeros injected, truncated both above and below their degree.
    rng = random.Random(4000 + seed)
    for _ in range(6):
        degree = rng.randint(0, 14)
        if rng.random() < 0.5:
            problem = _sir_problem(sir_spec, rng.choice([0.5, 0.75, 1.0]), degree)
        else:
            dim = rng.randint(1, 4)
            problem = SeriesProblem(
                field=_rich_random_field(rng, dim),
                y0=tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)),
                alpha=rng.choice([0.3, 0.5, 1.0]), t0=rng.choice([0.0, 1.5]), degree=degree,
            )
        series = [list(s.coeffs[: rng.randint(1, degree + 1)])
                  + [rng.uniform(-1.0, 1.0) for _ in range(rng.choice([0, 0, 3]))]
                  for s in solve(problem).series]
        for _ in range(rng.randint(0, 4)):
            row = rng.choice(series)
            row[rng.randrange(len(row))] = rng.choice(_SPECIAL + [-math.nan])
        polys = [FractionalPolynomial(problem.alpha, problem.t0, c) for c in series]
        for max_degree in sorted({0, degree // 2, max(degree - 1, 0), degree, degree + 3}):
            got = build_defect(problem.field, polys, max_degree)
            want = _defect_by_polynomials(problem.field, polys, max_degree)
            assert [(d.alpha, d.t0, _raw(d.coeffs)) for d in got] == [
                (d.alpha, d.t0, _raw(d.coeffs)) for d in want
            ]


# sha256 of the float.hex of `verify_defect_conditions` at degree 40, frozen
# so that a moved bit fails under this interpreter too, not only when two
# interpreters disagree.  The SIR digests are those `SIR_DEG160_HASHES` in
# tests/test_cli.py prints for the oracle.
ORACLE_DEG40_SHA256 = {
    ("sir", 0.5): "84933cb759c225fc0cbf431621af1273b22d2c19ceb77093f204881bec7e59a6",
    ("sir", 1.0): "2fb0452ec522118ca53cdb6de09287b6aba19f47d26d4364f26faa6c518860a0",
    ("random", 0.5): "e1a95514bc8c8a1000dc80e2cbb8e36207fafe16dcf29f83033da37bb70436b7",
}


# sha256 of the float.hex of `solve` on `sir_model()` at degree 160 and t0 0,
# frozen so that the long node sums keep their bits against the past, not
# only across interpreters.
SIR_DEG160_SHA256 = {
    0.5: "fe2cc301f7a8804ea78c1b2fb8c7ec1b9d412051c09c02b5b81c8a9b77691308",
    0.75: "8a9486d1e94bee7fc1ea6449083fdd5ca2e7efb74ab02319a450cd325f9d7689",
    1.0: "3465031add8e32257de9248d6bb6fa57425136e9db846054423bf611ec70e5bc",
}


@pytest.mark.parametrize("alpha", sorted(SIR_DEG160_SHA256))
def test_sir_degree160_keeps_its_frozen_bits(sir_spec, alpha):
    problem = SeriesProblem(
        field=sir_spec.field(), y0=sir_spec.initial, alpha=alpha, t0=0.0, degree=160
    )
    bits = " ".join(c.hex() for s in solve(problem).series for c in s.coeffs)
    assert hashlib.sha256(bits.encode()).hexdigest() == SIR_DEG160_SHA256[alpha]


@pytest.mark.parametrize("which, alpha", sorted(ORACLE_DEG40_SHA256))
def test_oracle_limits_keep_their_frozen_bits(sir_spec, which, alpha):
    problem = _sir_problem(sir_spec, alpha, 40) if which == "sir" else _random_problem(7, 40)
    assert problem.alpha == alpha
    limits = verify_defect_conditions(solve(problem), problem)
    digest = hashlib.sha256(" ".join(v.hex() for v in limits).encode()).hexdigest()
    assert digest == ORACLE_DEG40_SHA256[which, alpha]


def test_oracle_gamma_calls_are_linear(sir_spec, monkeypatch):
    # One table of n + 1 entries per check serves the defect's derivatives
    # and every chain; `build_defect` builds one table sized to its longest
    # series.  Nothing is cached on a polynomial, so a repeated call costs
    # the same.
    import fracseries.fracpoly
    import fracseries.solver

    n = 40
    problem = _sir_problem(sir_spec, 0.5, n)
    solution = solve(problem)
    calls = []

    def counting_gamma(x):
        calls.append(x)
        return gamma(x)

    monkeypatch.setattr(fracseries.fracpoly, "gamma", counting_gamma)
    monkeypatch.setattr(fracseries.solver, "gamma", counting_gamma)
    table = [i * 0.5 + 1.0 for i in range(n + 1)]
    uneven = [FractionalPolynomial(0.5, 0.0, s.coeffs[:m])
              for s, m in zip(solution.series, (3, 7, 5))]
    for _ in range(2):
        calls.clear()
        verify_defect_conditions(solution, problem)
        assert calls == table
        calls.clear()
        build_defect(problem.field, solution.series, n - 1)
        assert calls == table
        calls.clear()
        build_defect(problem.field, uneven, n - 1)
        assert calls == table[:7]


def test_library_results_hold_only_their_fields(sir_spec, monkeypatch):
    # Derivative chains, the defect and the solution carry alpha, t0 and
    # coeffs and nothing else, also after being differentiated, so each
    # equals, hashes and pickles as a fresh construction does.  The oracle's
    # Caputo steps are float lists, one per series for the defect; its
    # limits walk diagonals into one list per defect row.
    import fracseries.solver

    n = 12
    problem = _sir_problem(sir_spec, 0.75, n)
    solution = solve(problem)
    chain = [solution.series[0]]
    for _ in range(n):
        chain.append(chain[-1].caputo_derivative())
    steps = []
    step = fracseries.solver._caputo_step
    monkeypatch.setattr(fracseries.solver, "_caputo_step",
                        lambda *args: steps.append(step(*args)) or steps[-1])
    verify_defect_conditions(solution, problem)
    assert len(steps) == 3
    assert all(type(c) is list and all(type(v) is float for v in c) for c in steps)
    defect = build_defect(problem.field, solution.series, n - 1)
    for p in (*solution.series, *chain, *defect):
        assert set(vars(p)) == {"alpha", "t0", "coeffs"}
        fresh = FractionalPolynomial(p.alpha, p.t0, p.coeffs)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert dataclasses.replace(p) == fresh
        copy = pickle.loads(pickle.dumps(p))
        assert copy == fresh and vars(copy) == vars(fresh)


def test_oracle_rejects_series_on_another_grid(sir_spec):
    # An alpha-1 solution read on the alpha-0.5 grid once passed with limits
    # of at most 2.2e-16.
    at_one = solve(_sir_problem(sir_spec, 1.0, 9))
    with pytest.raises(GridMismatchError, match=r"^grid mismatch: \(alpha=1\.0, t0=0\.0\) vs "
                                                r"\(alpha=0\.5, t0=0\.0\)$"):
        verify_defect_conditions(at_one, _sir_problem(sir_spec, 0.5, 9))
    shifted = SeriesProblem(field=sir_spec.field(), y0=INITIAL, alpha=1.0, t0=1.0, degree=9)
    for degree in (0, 9):
        with pytest.raises(GridMismatchError, match=r"^grid mismatch: \(alpha=1\.0, t0=0\.0\) "
                                                    r"vs \(alpha=1\.0, t0=1\.0\)$"):
            verify_defect_conditions(at_one, dataclasses.replace(shifted, degree=degree))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 40])
def test_empty_system_has_no_defect(degree):
    field = PolynomialVectorField(equations=(), variable_names=())
    problem = SeriesProblem(field=field, y0=(), alpha=0.5, t0=0.0, degree=degree)
    solution = solve(problem)
    assert solution.series == ()
    assert compose_series(field, (), degree) == []
    assert build_defect(field, (), degree) == []
    assert verify_defect_conditions(solution, problem) == [0.0] * degree


@pytest.mark.parametrize("nan", [math.nan, -math.nan])
def test_oracle_reads_nan_only_where_a_later_component_has_one(nan):
    # With no right-hand side the defect is D^alpha P.  Component b's only
    # non-zero coefficient is NaN at slot 2, so its limit 1 alone is NaN,
    # while component a is finite and non-zero there: a `max` over the
    # components would drop the NaN, since it is not first.
    field = PolynomialVectorField(equations=((), ()), variable_names=("a", "b"))
    n = 5
    problem = SeriesProblem(field=field, y0=(1.0, 0.0), alpha=0.5, t0=0.0, degree=n)
    series = (FractionalPolynomial(0.5, 0.0, (1.0, 2.0, 3.0, -4.0, 5.0, 6.0)),
              FractionalPolynomial(0.5, 0.0, (0.0, 0.0, nan, 0.0, 0.0, 0.0)))
    limits = verify_defect_conditions(SeriesSolution(series=series, problem=problem), problem)
    assert [math.isnan(v) for v in limits] == [k == 1 for k in range(n)]
    assert all(v > 0.0 for k, v in enumerate(limits) if k != 1)
    assert _bits(limits) == _bits(_limits_per_index(problem, series))


def test_oracle_builds_no_validated_polynomial_and_shares_work(sir_spec, monkeypatch):
    # On SIR at degree 40: library results skip the constructor's checks, the
    # composition builds 1*S, S*I and 1*I once each (S*I serves two
    # equations).
    import fracseries.field

    n = 40
    problem = _sir_problem(sir_spec, 0.5, n)
    solution = solve(problem)
    post_inits, products = [], []
    post_init = FractionalPolynomial.__post_init__
    monkeypatch.setattr(FractionalPolynomial, "__post_init__",
                        lambda self: post_inits.append(self) or post_init(self))
    verify_defect_conditions(solution, problem)
    assert post_inits == []

    multiply = fracseries.field.multiply_truncated
    monkeypatch.setattr(fracseries.field, "multiply_truncated",
                        lambda *args: products.append(args) or multiply(*args))
    compose_series(problem.field, solution.series, n - 1)
    assert len(products) == 3


# Gamma(172) is the first integer Gamma value beyond the largest double, so
# degree 170 is the deepest the Gamma tables reach at alpha 1.
def test_oracle_at_degree_170_alpha_one(sir_spec):
    problem = _sir_problem(sir_spec, 1.0, 170)
    limits = verify_defect_conditions(solve(problem), problem)
    assert len(limits) == 170
    assert all(math.isfinite(v) for v in limits)


def test_solve_at_degree_171_alpha_one_overflows(sir_spec):
    # `solve`, the oracle and `build_defect` read one Gamma table, so all
    # three name the degree and alpha of the series that overflows it.
    message = (r"^series of degree 171 at alpha 1\.0 overflowed: "
               r"gamma\(172\.0\) exceeds the largest double$")
    problem = _sir_problem(sir_spec, 1.0, 171)
    with pytest.raises(OverflowError, match=message):
        solve(problem)
    series = tuple(FractionalPolynomial(1.0, 0.0, (y,) + (0.0,) * 171) for y in INITIAL)
    with pytest.raises(OverflowError, match=message):
        verify_defect_conditions(SeriesSolution(series=series, problem=problem), problem)
    with pytest.raises(OverflowError, match=message):
        build_defect(problem.field, series, 170)


@pytest.mark.parametrize(
    "alpha, bound", [(0.25, 5e-12), (0.5, 5e-12), (0.75, 1e-14), (1.0, 1e-14)]
)
def test_sir_degree80_matches_mpmath_recursion(sir_spec, alpha, bound):
    # At alpha 0.75 and 1 the Gamma ratios set the error; at 0.25 and 0.5 the
    # recursion's own cancellation does, hence the looser bound there.
    mpmath = pytest.importorskip("mpmath")
    problem = SeriesProblem(
        field=sir_spec.field(), y0=sir_spec.initial, alpha=alpha, t0=0.0, degree=80
    )
    solution = solve(problem)
    # 50-digit coefficients from the exact values of the doubles `solve` receives.
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        exact = coefficients(problem.field, problem.y0, 80,
                             lambda i: mpmath.gamma((i - 1) * a + 1) / mpmath.gamma(i * a + 1),
                             mpmath.mpf)
    err = max(
        abs((c - e) / e)
        for series, ref in zip(solution.series, exact)
        for c, e in zip(series.coeffs, ref)
    )
    assert err <= bound, float(err)


# Every entry point that takes a degree applies the same rule, with one
# message naming the argument.
_SIR = sir_field(0.001, 0.072)
_P = FractionalPolynomial(0.5, 0.0, (1.0, 0.25, -0.5))
_DEGREE_TAKERS = {
    "truncated": ("max_degree", _P.truncated),
    "multiply_truncated": ("max_degree", lambda n: multiply_truncated(_P, _P, n)),
    "compose_series": ("max_degree", lambda n: compose_series(_SIR, [_P] * 3, n)),
    "build_defect": ("max_degree", lambda n: build_defect(_SIR, [_P] * 3, n)),
    "SeriesProblem": (
        "degree",
        lambda n: SeriesProblem(field=_SIR, y0=INITIAL, alpha=0.5, t0=0.0, degree=n),
    ),
}


@pytest.mark.parametrize("value", [-1, 1.5, 2.0, True, None])
@pytest.mark.parametrize("taker", sorted(_DEGREE_TAKERS))
def test_every_degree_input_follows_one_rule(taker, value):
    # A float degree once raised TypeError deep inside a product or a slice,
    # and True once truncated to two coefficients.
    name, call = _DEGREE_TAKERS[taker]
    message = rf"^{name} must be an int >= 0, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("function", [compose_series, build_defect])
def test_a_series_on_another_grid_is_rejected(function):
    # R enters no monomial of SIR, so no product ever met its grid and
    # compose_series once returned three series on S's grid.
    s = FractionalPolynomial(0.5, 0.0, (0.9, 0.1))
    r = FractionalPolynomial(0.75, 3.0, (0.0, 0.2))
    with pytest.raises(GridMismatchError):
        function(_SIR, [s, s, r], 2)
