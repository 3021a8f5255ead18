import math
import random

import pytest

from fracseries import gamma


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

