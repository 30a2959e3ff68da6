from fractions import Fraction

import pytest

from iterbayes.types import (
    METHOD_BISECTION,
    BetaPrior,
    BinomialObs,
    Characteristic,
    Estimate,
)


def test_binomial_obs_validation():
    BinomialObs(1, 0)
    BinomialObs(5, 5)
    with pytest.raises(ValueError):
        BinomialObs(0, 0)
    with pytest.raises(ValueError):
        BinomialObs(3, 4)
    with pytest.raises(ValueError):
        BinomialObs(3, -1)


def test_beta_prior_validation():
    BetaPrior(0.5, 0.5)
    with pytest.raises(ValueError):
        BetaPrior(0, 1)
    with pytest.raises(ValueError):
        BetaPrior(1, -2)


def test_characteristic_value():
    char = Characteristic(1, 2)
    assert char.value(BetaPrior(2, 3)) == pytest.approx(1 / 3)  # interior mode of Beta(2,3)
    assert Characteristic(0, 0).value(BetaPrior(2, 3)) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        Characteristic(2, 1)
    with pytest.raises(ValueError):
        Characteristic(-1, 0)
    with pytest.raises(ValueError):
        Characteristic(1, 2).value(BetaPrior(1, 1))  # zero denominator


def test_estimate_validation():
    est = Estimate(
        value=0.5,
        method=METHOD_BISECTION,
        iterations=3,
        residual=1e-12,
        bracket=(Fraction(1, 3), Fraction(2, 3)),
        value_exact=Fraction(1, 2),
    )
    assert est.bracket[0] < est.value_exact < est.bracket[1]
    with pytest.raises(ValueError):
        Estimate(value=0.5, method="newton")
    with pytest.raises(ValueError):
        Estimate(value=0.5, method=METHOD_BISECTION, iterations=-1)
    with pytest.raises(ValueError):
        Estimate(value=0.5, method=METHOD_BISECTION, residual=-1.0)
    with pytest.raises(ValueError):
        Estimate(value=0.9, method=METHOD_BISECTION, bracket=(Fraction(1, 3), Fraction(2, 3)))
