import math
import random

import pytest

import fracseries.conformable as conformable_module
from fracseries import (
    caputo_power_value,
    conformable_power_derivative,
    discrepancy_report,
)

# Frozen from a high-precision Gamma evaluation.
ONE_OVER_GAMMA_1_5 = 1.1283791670955126  # 1 / Gamma(1.5) = 2 / sqrt(pi)
GAMMA_1_5 = 0.8862269254527580
SQRT_PI = 1.7724538509055160  # Gamma(0.5)


class TestConformablePowerDerivative:
    def test_integer_order_is_classical(self):
        assert conformable_power_derivative(2.0, 1.0, 3.0) == pytest.approx(
            6.0, rel=1e-13
        )

    def test_half_order_of_linear_power_at_one(self):
        assert conformable_power_derivative(1.0, 0.5, 1.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_half_order_of_linear_power_at_four(self):
        assert conformable_power_derivative(1.0, 0.5, 4.0) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_low_exponent_rejected(self):
        with pytest.raises(ValueError):
            conformable_power_derivative(0.0, 0.5, 1.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            conformable_power_derivative(1.0, 0.5, -1.0)

    def test_zero_shift_with_negative_exponent_rejected(self):
        # beta < alpha makes the result power negative, diverging at 0.
        with pytest.raises(ValueError):
            conformable_power_derivative(0.25, 0.5, 0.0)

    def test_zero_shift_with_positive_exponent_vanishes(self):
        assert conformable_power_derivative(1.0, 0.5, 0.0) == 0.0

    def test_nan_shift_rejected(self):
        for value in (conformable_power_derivative, caputo_power_value):
            for t_shift in (math.nan, math.inf):
                with pytest.raises(ValueError, match="t_shift must be non-negative and finite"):
                    value(1.0, 0.5, t_shift)


class TestCaputoPowerValue:
    def test_integer_order_is_classical(self):
        assert caputo_power_value(2.0, 1.0, 3.0) == pytest.approx(6.0, rel=1e-13)

    def test_half_order_of_linear_power(self):
        assert caputo_power_value(1.0, 0.5, 1.0) == pytest.approx(
            ONE_OVER_GAMMA_1_5, rel=1e-12
        )

    def test_half_order_of_half_power(self):
        assert caputo_power_value(0.5, 0.5, 1.0) == pytest.approx(
            GAMMA_1_5, rel=1e-12
        )


class TestDiscrepancyReport:
    def test_integer_order_ratio_is_one(self):
        # At integer alpha the Caputo and conformable Gamma arguments are the
        # same double, down to beta just above m - 1.
        for m in (1, 2, 3):
            lowest = 1e-17 if m == 1 else math.nextafter(m - 1, math.inf)
            for beta_exp in (lowest, m - 1 + 1e-9, m - 0.5, float(m), m + 1.5):
                assert discrepancy_report(beta_exp, float(m)).ratio == 1.0, beta_exp

    def test_half_order_linear_ratio(self):
        report = discrepancy_report(1.0, 0.5)
        assert report.m == 1
        assert report.ratio == pytest.approx(ONE_OVER_GAMMA_1_5, rel=1e-12)

    def test_half_order_half_power_report(self):
        # caputo = Gamma(1.5)/Gamma(1), conformable = Gamma(1.5)/Gamma(0.5),
        # so the missing factor is Gamma(0.5)/Gamma(1) = sqrt(pi).
        report = discrepancy_report(0.5, 0.5)
        assert report.caputo_coefficient == pytest.approx(GAMMA_1_5, rel=1e-12)
        assert report.conformable_coefficient == pytest.approx(0.5, rel=1e-12)
        assert report.ratio == pytest.approx(SQRT_PI, rel=1e-12)

    def test_fields_are_consistent(self):
        report = discrepancy_report(1.5, 0.7)
        assert report.caputo_coefficient == pytest.approx(
            report.conformable_coefficient * report.ratio, rel=1e-13
        )

    def test_pole_case_rejected(self):
        with pytest.raises(ValueError):
            discrepancy_report(0.0, 0.5)

    @pytest.mark.parametrize(
        "beta_exp, alpha, message",
        [
            (0.5, math.nan, "order must be positive and finite"),
            (1.0, math.inf, "order must be positive and finite"),
            (0.5, 0.0, "order must be positive and finite"),
            (math.nan, 0.5, "must be finite and exceed m - 1"),
            (-0.5, 0.5, "must be finite and exceed m - 1 = 0"),
            (math.inf, 0.5, "must be finite and exceed m - 1"),
            (0.5, 1.5, "must be finite and exceed m - 1 = 1"),
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [
            discrepancy_report,
            lambda b, a: caputo_power_value(b, a, 1.0),
            lambda b, a: conformable_power_derivative(b, a, 1.0),
        ],
        ids=["report", "caputo", "conformable"],
    )
    def test_out_of_domain_inputs_rejected(self, call, beta_exp, alpha, message):
        with pytest.raises(ValueError, match=message):
            call(beta_exp, alpha)

    def test_three_gamma_calls(self, monkeypatch):
        args = []
        real = conformable_module.gamma
        monkeypatch.setattr(conformable_module, "gamma", lambda x: args.append(x) or real(x))
        discrepancy_report(1.5, 0.7)
        assert args == [2.5, 1.5 + (1.0 - 0.7), 1.5]


def _mpmath_grid():
    # Over 2,000 (beta, alpha) pairs: alpha in (0, 3] with 1 - 10^-k among
    # them, beta from 1e-17 to 3 above m - 1 (or the next double above m - 1).
    rng = random.Random(16)
    alphas = [1.0 - 10.0**-k for k in range(1, 16)] + [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    alphas += [3.0 - rng.uniform(0.0, 3.0) for _ in range(120 - len(alphas))]
    pairs = []
    for alpha in alphas:
        m = math.ceil(alpha)
        for _ in range(20):
            beta_exp = m - 1 + 10.0 ** rng.uniform(-17.0, math.log10(3.0))
            pairs.append((max(beta_exp, math.nextafter(m - 1, math.inf)), alpha))
    return pairs


def test_coefficients_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for beta_exp, alpha in _mpmath_grid():
        m = math.ceil(alpha)
        with mpmath.workdps(40):
            beta, order = mpmath.mpf(beta_exp), mpmath.mpf(alpha)
            top = mpmath.gamma(beta + 1)
            caputo_bottom = mpmath.gamma(beta - order + 1)
            conformable_bottom = mpmath.gamma(beta - m + 1)
            caputo = top / caputo_bottom
            conformable = top / conformable_bottom
            ratio = conformable_bottom / caputo_bottom
        report = discrepancy_report(beta_exp, alpha)
        # At t_shift = 1 the power is exactly 1, so the values are the coefficients.
        for got, want in (
            (report.caputo_coefficient, caputo),
            (report.conformable_coefficient, conformable),
            (report.ratio, ratio),
            (caputo_power_value(beta_exp, alpha, 1.0), caputo),
            (conformable_power_derivative(beta_exp, alpha, 1.0), conformable),
        ):
            assert abs(got - want) <= 2e-15 * abs(want), (beta_exp, alpha)


def test_caputo_value_needs_no_conformable_gamma():
    # Gamma(1e-310) overflows, but the Caputo value never asks for it.
    assert caputo_power_value(1e-310, 0.5, 1.0) == 0.5641895835477563


@pytest.mark.parametrize("alpha", [i / 10 for i in range(1, 11)])
@pytest.mark.parametrize("beta_exp", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("t_shift", [0.5, 1.0, 2.0])
def test_factorization_identity(alpha, beta_exp, t_shift):
    # caputo value = conformable value * missing-ratio, across the grid.
    report = discrepancy_report(beta_exp, alpha)
    caputo = caputo_power_value(beta_exp, alpha, t_shift)
    conformable = conformable_power_derivative(beta_exp, alpha, t_shift)
    assert caputo == pytest.approx(conformable * report.ratio, rel=1e-12)


@pytest.mark.parametrize("beta_exp", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_integer_order_operators_agree(beta_exp):
    for t_shift in (0.5, 1.0, 2.0):
        caputo = caputo_power_value(beta_exp, 1.0, t_shift)
        conformable = conformable_power_derivative(beta_exp, 1.0, t_shift)
        assert caputo == pytest.approx(conformable, rel=1e-13)


def test_half_order_disagreement_witness():
    # The executable counterexample: > 10% relative gap at alpha = 0.5, beta = 1.
    caputo = caputo_power_value(1.0, 0.5, 1.0)
    conformable = conformable_power_derivative(1.0, 0.5, 1.0)
    assert abs(caputo - conformable) / abs(caputo) > 0.10
