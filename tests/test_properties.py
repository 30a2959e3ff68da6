"""Property-based checks of the library's algebraic invariants (exact, no
tolerances except where a float boundary is part of the contract)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from iterbayes.exact import ExactPoly, bisect_root
from iterbayes.triangle import (
    estimating_polynomial,
    posterior_mean_exact,
    solve_iterative_bayes,
    solver_bracket,
)
from iterbayes.types import BinomialObs

from helpers import reference_bisect_root, reference_estimating_coeffs

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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=150), st.data(),
       st.sampled_from([Fraction(1, 10**6), 1e-12, 1e-30, Fraction(1, 3**50)]))
def test_root_isolation_equals_bisection(n, data, tol):
    x = data.draw(st.integers(min_value=0, max_value=n))
    obs = BinomialObs(n, x)
    coeffs = estimating_polynomial(obs).int_coeffs
    lo, hi = solver_bracket(obs)
    assert bisect_root(coeffs, lo, hi, tol) == reference_bisect_root(coeffs, lo, hi, tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_estimating_polynomial_matches_fraction_reference(n, data):
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    assert estimating_polynomial(obs).int_coeffs == reference_estimating_coeffs(obs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_solution_symmetry_and_bracket(n, data):
    # (n, n - x) is the mirror image of (n, x) about 1/2, bracket and grid
    # included, so the solve reflects exactly.
    x = data.draw(st.integers(min_value=0, max_value=n))
    est = solve_iterative_bayes(BinomialObs(n, x), tol=1e-12)
    mirror = solve_iterative_bayes(BinomialObs(n, n - x), tol=1e-12)
    assert mirror.value_exact == 1 - est.value_exact
    assert mirror.bracket == (1 - est.bracket[1], 1 - est.bracket[0])
    assert mirror.iterations == est.iterations
    assert Fraction(x + 1, n + 3) < est.value_exact < Fraction(x + 2, n + 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), unit_modes, st.data())
def test_posterior_mean_stays_interior(n, mode, data):
    x = data.draw(st.integers(min_value=0, max_value=n))
    mean = posterior_mean_exact(mode, BinomialObs(n, x))
    assert 0 < mean < 1
