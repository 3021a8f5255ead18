import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from fracseries import (
    FractionalPolynomial,
    GridMismatchError,
    Monomial,
    PolynomialVectorField,
    SeriesProblem,
    add_scaled,
    caputo_power_rule,
    compose_series,
    gamma,
    multiply_truncated,
    solve,
)

from sir_reference import I_COEFFS_DEG9, S_COEFFS_DEG9

# Frozen from a high-precision Gamma evaluation: Gamma(2)/Gamma(1.5) = 2/sqrt(pi).
TWO_OVER_SQRT_PI = 1.1283791670955126


def fp(alpha, t0, *coeffs):
    return FractionalPolynomial(alpha, t0, tuple(coeffs))


class TestConstruction:
    def test_degree_tracks_length(self):
        assert fp(0.5, 0.0, 1.0, 2.0, 3.0).degree == 2

    def test_trailing_zeros_are_kept(self):
        assert fp(1.0, 0.0, 1.0, 0.0).degree == 1

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            fp(alpha, 0.0, 1.0)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_t0_rejected(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite"):
            fp(0.5, t0, 1.0)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FractionalPolynomial(0.5, 0.0, ())

    def test_coefficient_beyond_degree_is_zero(self):
        assert fp(0.5, 0.0, 3.0).coefficient(7) == 0.0

    def test_coefficients_are_coerced_to_float(self):
        p = fp(0.5, 0.0, 3, True)
        assert p.coeffs == (3.0, 1.0)
        assert all(type(c) is float for c in p.coeffs)
        with pytest.raises(ValueError):
            fp(0.5, 0.0, 1.0, "x")
        with pytest.raises(TypeError):
            fp(0.5, 0.0, None)


class TestEvaluate:
    def test_series_at_center_is_constant_term(self):
        p = fp(0.7, 2.5, 4.25, -1.0, 9.0)
        assert p.evaluate(2.5) == 4.25

    def test_degree9_series_at_zero(self):
        p = FractionalPolynomial(1.0, 0.0, S_COEFFS_DEG9)
        assert p.evaluate(0.0) == 620.0

    def test_degree9_series_at_tenth(self):
        p = FractionalPolynomial(1.0, 0.0, S_COEFFS_DEG9)
        assert p.evaluate(0.1) == pytest.approx(619.3630315791875, abs=1e-9)

    def test_before_center_rejected(self):
        with pytest.raises(ValueError):
            fp(0.5, 1.0, 1.0).evaluate(0.5)

    def test_nan_point_rejected(self):
        # NaN compares False with everything, so only `not u >= 0.0` rejects it.
        with pytest.raises(ValueError, match="not at or after the center"):
            fp(0.5, 0.0, 1.0, 2.0).evaluate(math.nan)

    def test_fractional_power_evaluation(self):
        p = fp(0.5, 0.0, 0.0, 3.0)  # 3 * t^0.5
        assert p.evaluate(4.0) == pytest.approx(6.0, rel=1e-14)


class TestAddScaled:
    def test_self_cancellation(self):
        p = fp(0.5, 0.0, 1.0, -2.0, 3.0)
        z = add_scaled(p, p, 1.0, -1.0)
        assert z.coeffs == (0.0, 0.0, 0.0)

    def test_constants(self):
        r = add_scaled(fp(1.0, 0.0, 1.0), fp(1.0, 0.0, 2.0), 2.0, 3.0)
        assert r.coeffs == (8.0,)

    def test_sir_series_sum_linear_term(self):
        s = FractionalPolynomial(1.0, 0.0, S_COEFFS_DEG9)
        i = FractionalPolynomial(1.0, 0.0, I_COEFFS_DEG9)
        total = add_scaled(s, i, 1.0, 1.0)
        assert total.coeffs[1] == pytest.approx(-0.72, rel=1e-12)

    def test_degree_is_max_of_inputs(self):
        r = add_scaled(fp(0.5, 0.0, 1.0), fp(0.5, 0.0, 1.0, 1.0, 1.0), 1.0, 1.0)
        assert r.degree == 2

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            add_scaled(fp(0.5, 0.0, 1.0), fp(0.6, 0.0, 1.0), 1.0, 1.0)
        with pytest.raises(GridMismatchError):
            add_scaled(fp(0.5, 0.0, 1.0), fp(0.5, 1.0, 1.0), 1.0, 1.0)


class TestMultiplyTruncated:
    def test_binomial_square(self):
        p = fp(0.5, 0.0, 1.0, 1.0)
        assert multiply_truncated(p, p, 2).coeffs == (1.0, 2.0, 1.0)

    def test_constants(self):
        r = multiply_truncated(fp(1.0, 0.0, 620.0), fp(1.0, 0.0, 10.0), 0)
        assert r.coeffs == (6200.0,)

    def test_truncation_drops_high_terms(self):
        p = fp(0.5, 0.0, 1.0, 1.0)
        assert multiply_truncated(p, p, 1).coeffs == (1.0, 2.0)

    def test_sir_product_linear_coefficient(self):
        # Hand convolution: 620 * 5.48 + (-6.2) * 10 = 3335.6.
        s = FractionalPolynomial(1.0, 0.0, S_COEFFS_DEG9)
        i = FractionalPolynomial(1.0, 0.0, I_COEFFS_DEG9)
        prod = multiply_truncated(s, i, 1)
        assert prod.coeffs[1] == pytest.approx(3335.6, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            multiply_truncated(fp(0.5, 0.0, 1.0), fp(1.0, 0.0, 1.0), 3)

    def test_agrees_with_pointwise_product_when_untruncated(self):
        rng = random.Random(7)
        for _ in range(25):
            alpha = rng.choice([0.3, 0.5, 0.9, 1.0])
            p = fp(alpha, 0.0, *(rng.uniform(-2, 2) for _ in range(4)))
            q = fp(alpha, 0.0, *(rng.uniform(-2, 2) for _ in range(3)))
            prod = multiply_truncated(p, q, p.degree + q.degree)
            for t in (0.0, 0.17, 0.6, 1.3):
                want = p.evaluate(t) * q.evaluate(t)
                assert prod.evaluate(t) == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestCaputoPowerRule:
    def test_integer_below_order_is_annihilated(self):
        assert caputo_power_rule(0.0, 0.5) is None

    def test_classical_square(self):
        coeff, exponent = caputo_power_rule(2.0, 1.0)
        assert coeff == pytest.approx(2.0, rel=1e-13)
        assert exponent == 1.0

    def test_half_order_of_linear_power(self):
        coeff, exponent = caputo_power_rule(1.0, 0.5)
        assert coeff == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)
        assert exponent == 0.5

    def test_exponent_below_requirement_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_rule(0.5, 1.5)  # m = 2, needs exponent > 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_rule(-0.5, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
    def test_order_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="order must be positive and finite"):
            caputo_power_rule(0.5, alpha)

    @pytest.mark.parametrize("beta_exp", [math.nan, math.inf])
    def test_exponent_must_be_finite(self, beta_exp):
        with pytest.raises(ValueError, match="exponent must be non-negative and finite"):
            caputo_power_rule(beta_exp, 0.5)


class TestCaputoDerivative:
    def test_constant_is_annihilated(self):
        d = fp(0.5, 0.0, 620.0).caputo_derivative()
        assert d.coeffs == (0.0,)

    def test_linear_fractional_term(self):
        alpha = 0.5
        p = fp(alpha, 0.0, 620.0, -6.2 / gamma(1.0 + alpha))
        d = p.caputo_derivative()
        assert d.degree == 0
        assert d.coeffs[0] == pytest.approx(-6.2, rel=1e-13)

    def test_quadratic_grid_term_half_order(self):
        p = fp(0.5, 0.0, 0.0, 0.0, 1.0)  # t^(2*alpha) = t
        d = p.caputo_derivative()
        assert d.coeffs == pytest.approx((0.0, TWO_OVER_SQRT_PI), rel=1e-12)

    def test_alpha_one_matches_classical_derivative(self):
        rng = random.Random(3)
        coeffs = tuple(rng.uniform(-5, 5) for _ in range(11))
        d = FractionalPolynomial(1.0, 0.0, coeffs).caputo_derivative()
        for i in range(1, 11):
            assert d.coeffs[i - 1] == pytest.approx(i * coeffs[i], rel=1e-13)


def _bits(values):
    return [float(v).hex() for v in values]


def _random_polys(seed):
    rng = random.Random(seed)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for alpha in (0.3, 0.5, 0.75, 0.9, 1.0):
        for degree in (0, 1, 2, 7, 40, 120):
            coeffs = tuple(
                rng.choice([rng.uniform(-5.0, 5.0)] * 5 + special) for _ in range(degree + 1)
            )
            yield FractionalPolynomial(alpha, rng.choice([0.0, 1.5]), coeffs)


def _literal_caputo(a, c):
    """The power rule with two `gamma` calls per term, no table."""
    return tuple(
        c[i] * gamma(i * a + 1.0) / gamma((i - 1) * a + 1.0) for i in range(1, len(c))
    ) or (0.0,)


class TestOneGammaTable:
    """Each Gamma value is computed once per derivative chain, with the same
    arguments and the same left-to-right products as the two-`gamma` power
    rule per term."""

    def test_caputo_derivative_bit_identical_to_literal_formula(self):
        for p in _random_polys(11):
            want = _literal_caputo(p.alpha, p.coeffs)
            assert _bits(p.caputo_derivative().coeffs) == _bits(want)

    def test_derivative_chain_bit_identical_to_repeated_literal_formula(self):
        for p in _random_polys(13):
            d, want = p, p.coeffs
            for _ in range(p.degree + 1):
                d, want = d.caputo_derivative(), _literal_caputo(p.alpha, want)
                assert _bits(d.coeffs) == _bits(want)

    def test_rl_integral_bit_identical_to_literal_formula(self):
        for p in _random_polys(12):
            a, c = p.alpha, p.coeffs
            want = (0.0,) + tuple(
                c[i] * gamma(i * a + 1.0) / gamma((i + 1) * a + 1.0)
                for i in range(len(c))
            )
            assert _bits(p.rl_integral().coeffs) == _bits(want)

    def test_filled_table_leaves_value_semantics_alone(self):
        coeffs = (620.0, -6.2, 0.0, -0.0, 3.5, math.inf, 1e-3)
        p = fp(0.75, 1.5, *coeffs)
        d = p.caputo_derivative()
        chained = d.caputo_derivative()
        assert "_gamma_table" in vars(p) and "_gamma_table" in vars(d)
        for filled, fresh in ((p, fp(0.75, 1.5, *coeffs)), (d, fp(0.75, 1.5, *d.coeffs))):
            assert "_gamma_table" not in vars(fresh)
            assert filled == fresh
            assert hash(filled) == hash(fresh)
            assert repr(filled) == repr(fresh)
            assert dataclasses.replace(filled) == fresh
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d
        assert _bits(copy.caputo_derivative().coeffs) == _bits(chained.coeffs)

    # Gamma(172) is the first integer Gamma value beyond the largest double.
    # A table one entry longer than the polynomial would need it at degree 170.
    def test_degree_170_at_alpha_one_differentiates(self):
        p = FractionalPolynomial(1.0, 0.0, (1.0,) * 171)
        d = p.caputo_derivative()
        assert d.degree == 169
        assert _bits(d.coeffs) == _bits(_literal_caputo(1.0, p.coeffs))
        assert p.sequential_caputo_limit(170) == pytest.approx(gamma(171.0), rel=1e-13)

    def test_degree_171_at_alpha_one_overflows(self):
        p = FractionalPolynomial(1.0, 0.0, (1.0,) * 172)
        with pytest.raises(OverflowError, match=r"^gamma\(172\.0\) exceeds the largest double$"):
            p.caputo_derivative()


def _add_scaled_reference(p, q, a, b):
    """`add_scaled`'s loop as first written, slot by slot through `coefficient`."""
    n = max(len(p.coeffs), len(q.coeffs))
    return tuple(a * p.coefficient(k) + b * q.coefficient(k) for k in range(n))


def _multiply_truncated_reference(p, q, max_degree):
    """`multiply_truncated`'s loop as first written, by index arithmetic."""
    top = min(max_degree, p.degree + q.degree)
    out = [0.0] * (top + 1)
    for i, pi in enumerate(p.coeffs):
        if pi == 0.0 or i > top:
            continue
        jmax = min(q.degree, top - i)
        for j in range(jmax + 1):
            out[i + j] += pi * q.coeffs[j]
    return tuple(out)


def _operand_pairs(seed):
    """Pairs of unequal and equal lengths whose entries mix finite values,
    signed zeros (including whole zero rows), infinities and NaN."""
    rng = random.Random(seed)
    pools = (
        [1.0, -2.5, 0.0, -0.0],
        [0.0, -0.0, math.inf, -math.inf, math.nan, 3.0],
        [rng.uniform(-4.0, 4.0) for _ in range(6)] + [0.0, -0.0],
    )
    for _ in range(150):
        alpha, t0 = rng.choice([0.25, 0.5, 1.0]), rng.choice([0.0, -1.5])
        pool_p, pool_q = rng.choice(pools), rng.choice(pools)
        n_p, n_q = rng.randint(1, 12), rng.choice([rng.randint(1, 12), None])
        p = FractionalPolynomial(alpha, t0, tuple(rng.choice(pool_p) for _ in range(n_p)))
        q = FractionalPolynomial(
            alpha, t0, tuple(rng.choice(pool_q) for _ in range(n_q or n_p))
        )
        yield p, q


class TestLoopsMatchReference:
    SCALES = (1.0, -1.0, 2.0, -0.5, 0.0, -0.0, math.inf)

    def test_add_scaled_bit_identical_to_reference(self):
        for p, q in _operand_pairs(21):
            for a in self.SCALES:
                for b in self.SCALES:
                    for x, y in ((p, q), (q, p)):
                        got = add_scaled(x, y, a, b).coeffs
                        assert _bits(got) == _bits(_add_scaled_reference(x, y, a, b))

    def test_add_scaled_negative_scales_pad_with_negative_zero(self):
        got = add_scaled(fp(0.5, 0.0, 1.0), fp(0.5, 0.0, 1.0, 0.0), -1.0, -1.0).coeffs
        assert _bits(got) == _bits((-2.0, -0.0))

    def test_multiply_truncated_bit_identical_to_reference(self):
        for p, q in _operand_pairs(22):
            full = p.degree + q.degree
            for max_degree in sorted({0, 1, full - 1, full, full + 1, full + 5} - {-1}):
                for x, y in ((p, q), (q, p)):
                    got = multiply_truncated(x, y, max_degree).coeffs
                    want = _multiply_truncated_reference(x, y, max_degree)
                    assert _bits(got) == _bits(want)

    def test_lower_truncation_is_a_prefix_of_a_higher_one(self):
        # compose_series builds a chain of factors once, truncated at its
        # highest budget, and reads every lower truncation off its leading
        # slots: slot k adds the same rows i <= k, in the same order, with the
        # same zero-row skip, whatever the budget.
        rng = random.Random(23)
        pool = [0.0, -0.0, math.inf, -math.inf, math.nan]
        pool += [rng.uniform(-3.0, 3.0) for _ in range(5)]
        for _ in range(150):
            alpha, t0 = rng.choice([0.25, 0.5, 1.0]), rng.choice([0.0, -1.5])
            factors = [
                FractionalPolynomial(alpha, t0, tuple(rng.choices(pool, k=rng.randint(1, 8))))
                for _ in range(rng.choice([2, 3]))
            ]
            chains = []
            for budget in range(sum(f.degree for f in factors) + 3):
                prod = factors[0]
                for f in factors[1:]:
                    prod = multiply_truncated(prod, f, budget)
                chains.append(_bits(prod.coeffs))
            for low, chain in enumerate(chains):
                for high in chains[low + 1:]:
                    assert chain == high[: low + 1]

    def test_multiply_truncated_skips_zero_rows(self):
        # 0 * inf would make NaN: a zero row of p contributes nothing at all.
        for zero in (0.0, -0.0):
            got = multiply_truncated(fp(1.0, 0.0, zero, 2.0), fp(1.0, 0.0, math.inf, 1.0), 2)
            assert _bits(got.coeffs) == _bits((0.0, math.inf, 2.0))


def _assert_like_validated(r):
    """`r` is the value the public constructor builds from r's fields."""
    assert type(r.coeffs) is tuple
    assert all(type(c) is float for c in r.coeffs)
    fresh = FractionalPolynomial(r.alpha, r.t0, r.coeffs)
    assert r == fresh
    assert hash(r) == hash(fresh)
    assert repr(r) == repr(fresh)
    copy = pickle.loads(pickle.dumps(r))
    assert (copy.alpha, copy.t0, _bits(copy.coeffs)) == (r.alpha, r.t0, _bits(r.coeffs))
    assert dataclasses.replace(r) == fresh


# Coefficients that are not floats (2, 1/3) must still give float results.
_MIXED_FIELD = PolynomialVectorField(
    equations=(
        (Monomial(-1.5, (1, 1)), Monomial(2, (0, 1), time_power=1)),
        (Monomial(Fraction(1, 3), (2, 0)), Monomial(0.5, (0, 0), time_power=2)),
    ),
    variable_names=("x", "z"),
)


class TestLibraryResultsLikeValidated:
    """Library results skip `__post_init__` but are indistinguishable from
    polynomials the public constructor validated, -0.0, inf and NaN included."""

    def test_unary_results(self):
        for p in _random_polys(14):
            d = p.caputo_derivative()
            for r in (d, d.caputo_derivative(), p.rl_integral(), p.truncated(p.degree // 2)):
                _assert_like_validated(r)

    def test_binary_results(self):
        for p in _random_polys(15):
            q = FractionalPolynomial(p.alpha, p.t0, p.coeffs[::-1][:9])
            for r in (add_scaled(p, q, 1.0, -0.0), add_scaled(q, p, 2, -1),
                      multiply_truncated(p, q, p.degree), multiply_truncated(q, p, 3)):
                _assert_like_validated(r)

    def test_complex_scale_rejected_as_by_the_constructor(self):
        p = fp(0.5, 0.0, 1.0, 2.0)
        with pytest.raises(TypeError):
            add_scaled(p, p, 1j, 1.0)

    def test_compose_series_and_solve_results(self):
        for p in _random_polys(16):
            q = FractionalPolynomial(p.alpha, p.t0, p.coeffs[::-1][:9])
            for max_degree in (0, 1, p.degree):
                for r in compose_series(_MIXED_FIELD, [p, q], max_degree):
                    _assert_like_validated(r)
            problem = SeriesProblem(field=_MIXED_FIELD, y0=(p.coeffs[0], q.coeffs[0]),
                                    alpha=p.alpha, t0=p.t0, degree=min(p.degree, 12))
            for r in solve(problem).series:
                _assert_like_validated(r)


class TestRlIntegral:
    def test_zero_maps_to_zero(self):
        r = fp(0.5, 0.0, 0.0).rl_integral()
        assert r.coeffs == (0.0, 0.0)

    def test_classical_antiderivative_of_one(self):
        r = fp(1.0, 0.0, 1.0).rl_integral()
        assert r.coeffs[0] == 0.0
        assert r.coeffs[1] == pytest.approx(1.0, rel=1e-13)

    def test_half_order_integral_of_one(self):
        r = fp(0.5, 0.0, 1.0).rl_integral()
        assert r.coeffs == pytest.approx((0.0, TWO_OVER_SQRT_PI), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_derivative_inverts_integral(self, alpha):
        rng = random.Random(int(alpha * 100))
        for _ in range(10):
            degree = rng.randint(0, 10)
            p = fp(alpha, 0.0, *(rng.uniform(-10, 10) for _ in range(degree + 1)))
            back = p.rl_integral().caputo_derivative()
            assert back.coeffs == pytest.approx(p.coeffs, rel=1e-12, abs=1e-15)


def _tanh_sinh_01(f, n=2100, h=0.003):
    """Integrate f(u, 1-u) over (0, 1) with a double-exponential rule.

    f receives u and 1-u separately so endpoint powers can be formed without
    cancellation; the transform clusters nodes at the endpoints, which makes
    it accurate for integrable algebraic endpoint singularities.
    """
    total = 0.0
    half_pi = 0.5 * math.pi
    for k in range(-n, n + 1):
        t = k * h
        s = half_pi * math.sinh(t)
        e = math.exp(-2.0 * abs(s))
        w = half_pi * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2
        near, far = e / (1.0 + e), 1.0 / (1.0 + e)
        u, um1 = (far, near) if s >= 0.0 else (near, far)
        # Beyond this point weights decay double-exponentially; stopping here
        # keeps endpoint powers u**b, (1-u)**a finite for exponents > -1.
        if w == 0.0 or near < 1e-280:
            continue
        total += w * f(u, um1)
    return 0.5 * h * total


def _unit_term(alpha, k, t0=1.5):
    """The grid term (t - t0)^(k*alpha) as a polynomial."""
    return FractionalPolynomial(alpha, t0, (0.0,) * k + (1.0,))


class TestAgainstDefiningIntegrals:
    """The power rules against quadrature of the singular-kernel integrals
    that define the operators, evaluated one unit past the expansion point."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_caputo_derivative_equals_caputo_integral(self, alpha, k):
        # D^a f(t0+1) = 1/Gamma(1-a) * int_0^1 (1-u)^(-a) f'(t0+u) du with
        # f(t) = (t-t0)^b, b = k*a, so f'(t0+u) = b u^(b-1).
        b = k * alpha
        integral = _tanh_sinh_01(lambda u, um1: um1 ** (-alpha) * b * u ** (b - 1.0))
        want = integral / math.gamma(1.0 - alpha)
        p = _unit_term(alpha, k)
        assert p.caputo_derivative().evaluate(p.t0 + 1.0) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_rl_integral_equals_riemann_liouville_integral(self, alpha, k):
        # I^a f(t0+1) = 1/Gamma(a) * int_0^1 (1-u)^(a-1) f(t0+u) du with
        # f(t) = (t-t0)^(k*a).
        b = k * alpha
        integral = _tanh_sinh_01(lambda u, um1: um1 ** (alpha - 1.0) * u**b)
        want = integral / math.gamma(alpha)
        p = _unit_term(alpha, k)
        assert p.rl_integral().evaluate(p.t0 + 1.0) == pytest.approx(want, rel=1e-9)


class TestSequentialLimit:
    def test_zero_applications_read_constant(self):
        assert fp(0.5, 0.0, 4.0, 1.0).sequential_caputo_limit(0) == 4.0

    def test_classical_first_derivative(self):
        assert fp(1.0, 0.0, 2.0, 5.0).sequential_caputo_limit(1) == pytest.approx(
            5.0, rel=1e-13
        )

    def test_two_applications_on_quadratic_grid_term(self):
        p = fp(0.5, 0.0, 0.0, 0.0, 1.0)
        assert p.sequential_caputo_limit(2) == pytest.approx(1.0, rel=1e-12)

    def test_index_past_degree_rejected(self):
        with pytest.raises(IndexError):
            fp(0.5, 0.0, 1.0, 1.0).sequential_caputo_limit(3)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_limit_telescopes_to_gamma_scaled_coefficient(self, alpha):
        rng = random.Random(int(alpha * 1000) + 1)
        p = fp(alpha, 0.0, *(rng.uniform(-3, 3) for _ in range(9)))
        for k in range(p.degree + 1):
            want = gamma(k * alpha + 1.0) * p.coeffs[k]
            assert p.sequential_caputo_limit(k) == pytest.approx(
                want, rel=1e-12, abs=1e-14
            )


def test_truncated_keeps_low_terms():
    p = fp(0.5, 0.0, 1.0, 2.0, 3.0, 4.0)
    assert p.truncated(1).coeffs == (1.0, 2.0)
    assert p.truncated(9).coeffs == p.coeffs


def test_annihilation_of_constants_is_exact():
    for value in (0.0, 1.0, -3.75, 620.0, 1e-9):
        for alpha in (0.25, 0.5, 1.0):
            assert fp(alpha, 0.0, value).caputo_derivative().coeffs == (0.0,)
