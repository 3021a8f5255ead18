import math
import random

import pytest

from fracseries import beta, gamma


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)


def test_gamma_at_five():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_at_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_gamma_matches_factorial(n):
    assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.3, 7.7])
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_against_lgamma_sweep():
    # Independent libm oracle over the full in-scope range.
    for i in range(1, 500):
        x = 50.0 * i / 499
        assert gamma(x) == pytest.approx(math.exp(math.lgamma(x)), rel=1e-12), x


def test_gamma_within_1e15_of_mpmath():
    # 40-digit mpmath is the oracle: a seeded uniform sample and a log-uniform
    # sample of small arguments, plus a 0.01 grid over (0, 171.6].
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    xs = [i / 100.0 for i in range(1, 17161)]
    xs += [rng.uniform(0.0, 171.6) for _ in range(2000)]
    xs += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(500)]
    with mpmath.workdps(40):
        for x in xs:
            exact = mpmath.gamma(mpmath.mpf(x))
            err = abs((mpmath.mpf(gamma(x)) - exact) / exact)
            assert err <= 1e-15, (x, float(err))


@pytest.mark.parametrize("x", [171.7, 172.0, 200.0, 1e6, math.inf, 1e-320, 5e-324])
def test_gamma_unrepresentable_raises_overflow(x):
    with pytest.raises(OverflowError):
        gamma(x)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
def test_gamma_rejects_non_positive(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_beta_trivial_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("x,y", [(0.3, 1.7), (2.0, 5.5), (0.5, 0.5), (4.1, 0.2)])
def test_beta_symmetric_as_computed(x, y):
    assert beta(x, y) == beta(y, x)


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
def test_beta_rejects_non_positive(x, y):
    with pytest.raises(ValueError):
        beta(x, y)


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


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("beta_exp", [1.0, 1.5, 2.0, 3.0])
def test_beta_equals_singular_kernel_integral(alpha, beta_exp):
    # B(beta - m + 1, m - alpha) must equal the power-kernel integral
    # int_0^1 u^(beta-m) (1-u)^(m-alpha-1) du; quadrature is the oracle.
    m = math.ceil(alpha)
    a = m - alpha - 1.0
    b = beta_exp - m
    oracle = _tanh_sinh_01(lambda u, um1: u**b * um1**a)
    assert beta(beta_exp - m + 1.0, m - alpha) == pytest.approx(oracle, rel=1e-9)
