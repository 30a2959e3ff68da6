"""Property-based checks of the library's algebraic invariants (exact, no
tolerances except where a float boundary is part of the contract)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from iterbayes.exact import ExactPoly
from iterbayes.triangle import posterior_mean_exact, solve_iterative_bayes
from iterbayes.types import BinomialObs

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=20)
coeff_lists = st.lists(small_rationals, min_size=0, max_size=6)
unit_modes = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                          max_denominator=100)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_rational_stored_in_lowest_terms(a):
    assert a.denominator > 0
    from math import gcd
    assert gcd(a.numerator, a.denominator) == 1


@given(coeff_lists, coeff_lists, small_rationals)
def test_poly_eval_commutes_with_ring_operations(p_coeffs, q_coeffs, a):
    p, q = ExactPoly(p_coeffs), ExactPoly(q_coeffs)
    assert (p + q)(a) == p(a) + q(a)
    assert (p * q)(a) == p(a) * q(a)


@given(coeff_lists, coeff_lists, small_rationals)
def test_poly_compose_matches_pointwise(outer, inner, a):
    p, q = ExactPoly(outer), ExactPoly(inner)
    assert p.compose(q)(a) == p(q(a))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_solution_symmetry_and_bracket(n, data):
    x = data.draw(st.integers(min_value=0, max_value=n))
    est = solve_iterative_bayes(BinomialObs(n, x), tol=1e-12)
    mirror = solve_iterative_bayes(BinomialObs(n, n - x), tol=1e-12)
    assert abs(est.value + mirror.value - 1.0) < 1e-10
    assert Fraction(x + 1, n + 3) < est.value_exact < Fraction(x + 2, n + 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), unit_modes, st.data())
def test_posterior_mean_stays_interior(n, mode, data):
    x = data.draw(st.integers(min_value=0, max_value=n))
    mean = posterior_mean_exact(mode, BinomialObs(n, x))
    assert 0 < mean < 1
