import math
import random

import pytest

from fracseries import (
    FractionalPolynomial,
    GridMismatchError,
    add_scaled,
    caputo_power_rule,
    gamma,
    multiply_truncated,
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

    def test_center_does_not_change_coefficient(self):
        assert caputo_power_rule(1.5, 0.5, t0=3.0) == caputo_power_rule(1.5, 0.5)

    def test_exponent_below_requirement_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_rule(0.5, 1.5)  # m = 2, needs exponent > 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_rule(-0.5, 0.5)


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
    for alpha in (0.3, 0.5, 0.75, 0.9, 1.0):
        for degree in (0, 1, 2, 7, 40, 120):
            coeffs = tuple(
                rng.choice([rng.uniform(-5.0, 5.0), 0.0, -0.0]) for _ in range(degree + 1)
            )
            yield FractionalPolynomial(alpha, rng.choice([0.0, 1.5]), coeffs)


class TestOneGammaTable:
    """Each Gamma value is computed once per call, with the same arguments and
    the same left-to-right products as the two-`gamma` power rule per term."""

    def test_caputo_derivative_bit_identical_to_literal_formula(self):
        for p in _random_polys(11):
            a, c = p.alpha, p.coeffs
            want = tuple(
                c[i] * gamma(i * a + 1.0) / gamma((i - 1) * a + 1.0)
                for i in range(1, len(c))
            ) or (0.0,)
            assert _bits(p.caputo_derivative().coeffs) == _bits(want)

    def test_rl_integral_bit_identical_to_literal_formula(self):
        for p in _random_polys(12):
            a, c = p.alpha, p.coeffs
            want = (0.0,) + tuple(
                c[i] * gamma(i * a + 1.0) / gamma((i + 1) * a + 1.0)
                for i in range(len(c))
            )
            assert _bits(p.rl_integral().coeffs) == _bits(want)


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


class TestGammaScaledCoefficients:
    def test_degree2_half_order_sir_series_form(self):
        alpha = 0.5
        p = fp(alpha, 0.0, 620.0, -6.2 / gamma(1 + alpha), -3.3356 / gamma(1 + 2 * alpha))
        assert p.gamma_scaled_coefficients() == pytest.approx(
            (620.0, -6.2, -3.3356), rel=1e-12
        )


def test_truncated_keeps_low_terms():
    p = fp(0.5, 0.0, 1.0, 2.0, 3.0, 4.0)
    assert p.truncated(1).coeffs == (1.0, 2.0)
    assert p.truncated(9).coeffs == p.coeffs


def test_annihilation_of_constants_is_exact():
    for value in (0.0, 1.0, -3.75, 620.0, 1e-9):
        for alpha in (0.25, 0.5, 1.0):
            assert fp(alpha, 0.0, value).caputo_derivative().coeffs == (0.0,)
