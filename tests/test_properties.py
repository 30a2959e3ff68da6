"""Property-based checks of the library's algebraic invariants (exact, no
tolerances except where a float boundary is part of the contract)."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import iterbayes.exact as exact
import iterbayes.triangle as triangle
from iterbayes.exact import ExactPoly, bisect_root, sign_at
from iterbayes.identities import factorization_sides, positive_core_value
from iterbayes.triangle import (
    estimating_polynomial,
    geometric_estimate,
    posterior_mean_exact,
    solve_iterative_bayes,
    solver_bracket,
    triangle_posterior_mean,
)
from iterbayes.types import BinomialObs

from helpers import (
    dense_bisect_root,
    geometric_polynomial,
    reference_bisect_root,
    reference_estimating_coeffs,
    reference_factorization_rhs,
    reference_homogeneous_value,
    reference_mean_ratio,
    reference_positive_core,
    weighted_posterior_mean,
)

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


# Lengths on both sides of the split threshold and of the leaf size, then any.
_lengths = st.one_of(st.sampled_from([1, 32, 33, 64, 65, 66, 129, 400]),
                     st.integers(min_value=1, max_value=400))


# v as any integer, or as w << k, the form of the solver's grid points, whose
# power of two the split applies by shifts (w = 0 and w < 0 included).
_denominators = st.one_of(
    st.integers(min_value=1, max_value=2**70),
    st.builds(lambda w, k: w << k, st.integers(min_value=-2**40, max_value=2**40),
              st.integers(min_value=0, max_value=200)))


@settings(max_examples=60, deadline=None)
@given(_lengths, st.data(), st.integers(min_value=-2**70, max_value=2**70), _denominators)
def test_homogeneous_value_equals_horner(length, data, u, v):
    coeffs = data.draw(st.lists(st.integers(min_value=-2**80, max_value=2**80),
                                min_size=length, max_size=length))
    assert exact._homogeneous_value(coeffs, u, v) == reference_homogeneous_value(coeffs, u, v)
    # The Bernstein call form of posterior_mean_exact and identities.
    assert (exact._homogeneous_value(coeffs, u, v - u)
            == reference_homogeneous_value(coeffs, u, v - u))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=150), st.data(),
       st.sampled_from([Fraction(1, 10**6), 1e-12, 1e-30, Fraction(1, 3**50)]))
def test_root_isolation_equals_bisection(n, data, tol):
    x = data.draw(st.integers(min_value=0, max_value=n))
    obs = BinomialObs(n, x)
    coeffs = estimating_polynomial(obs).int_coeffs
    lo, hi = solver_bracket(obs)
    want = reference_bisect_root(coeffs, lo, hi, tol)
    assert dense_bisect_root(coeffs, lo, hi, tol) == want
    assert solve_iterative_bayes(obs, tol) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data(), st.sampled_from([1e-12, 1e-30, 5e-324]))
def test_hint_never_changes_the_solve(n, data, tol):
    # The hint only places probes; every sign is still exact, so a good, a
    # poor or an unusable hint gives, field for field, the solve without one.
    # One geometric case per example goes through geometric_estimate too.
    x = data.draw(st.integers(min_value=0, max_value=n))
    dense = triangle._estimating_value(BinomialObs(n, x))
    geometric = triangle._estimating_value(BinomialObs(x + 1, x))
    for obs, value in ((BinomialObs(n, x), dense),
                       (BinomialObs(x + 1, x), lambda u, v: geometric(u, v) // -2)):
        lo, hi = solver_bracket(obs)
        want = bisect_root(value, obs.n + 2, lo, hi, tol)
        hint = triangle._root_hint(obs.n, obs.x)
        edge = (hi - lo) / 2**60
        for near in (hint, hint + 2**-30, hint - 2**-30, float(lo + edge), float(hi - edge),
                     float((lo + hi) / 2), math.nan, math.inf, float(lo - 1)):
            assert bisect_root(value, obs.n + 2, lo, hi, tol, near=near) == want, (obs, near)
    assert geometric_estimate(x, tol) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=1029), st.data())
def test_hint_is_within_the_trusted_error(n, data):
    # bisect_root's first pair straddles the hint by at least HINT_ERROR; it
    # encloses the root because J is positive below its one root in the
    # bracket and negative above it, and J's exact signs at hint -/+
    # HINT_ERROR are + and -.
    x = data.draw(st.integers(min_value=0, max_value=n))
    hint = Fraction(triangle._root_hint(n, x))
    lo, hi = solver_bracket(BinomialObs(n, x))
    below, above = hint - exact.HINT_ERROR, hint + exact.HINT_ERROR
    assert lo < below and above < hi
    value = triangle._estimating_value(BinomialObs(n, x))
    assert value(below.numerator, below.denominator) > 0 > value(above.numerator, above.denominator)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=120), st.data(), st.sampled_from([1e-12, 1e-30, 5e-324]),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4))
def test_argument_types_never_change_the_result(n, data, tol, start, width):
    # bisect_root reads lo, hi and tol as exact integer ratios: a float tol
    # and its Fraction, and integer ends given as int, Fraction or float,
    # give the same Estimate.
    x = data.draw(st.integers(min_value=0, max_value=n))
    obs = BinomialObs(n, x)
    value = triangle._estimating_value(obs)
    lo, hi = solver_bracket(obs)
    hint = triangle._root_hint(n, x)
    want = bisect_root(value, n + 2, lo, hi, tol, near=hint)
    assert bisect_root(value, n + 2, lo, hi, Fraction(tol), near=hint) == want
    assert solve_iterative_bayes(obs, Fraction(tol)) == want
    # 3a - (3 start + 1) has its root start + 1/3 in (start, start + width);
    # a^2 + a - 1 has its root (sqrt(5) - 1)/2 in (0, 1).
    for coeffs, a, b in (((-(3 * start + 1), 3), start, start + width), ((-1, 1, 1), 0, 1)):
        want = dense_bisect_root(coeffs, a, b, tol)
        for ends in ((Fraction(a), Fraction(b)), (float(a), float(b)), (a, Fraction(b))):
            assert dense_bisect_root(coeffs, *ends, tol) == want, ends
            assert dense_bisect_root(coeffs, *ends, Fraction(tol)) == want, ends


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=800), st.data(),
       st.integers(min_value=1, max_value=2**40), st.integers(min_value=0, max_value=200))
def test_short_core_evaluator_equals_dense_horner(n, data, w, k):
    # The solvers' evaluator reads min(x, n - x) + 1 core coefficients,
    # mirrored below x = n/2, with v in the grid's form w * 2**k.
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    v = w << k
    assume(v > 1)
    u = data.draw(st.integers(min_value=1, max_value=v - 1))
    value = triangle._estimating_value(obs)
    assert value(u, v) == reference_homogeneous_value(estimating_polynomial(obs).int_coeffs, u, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data(),
       st.integers(min_value=2, max_value=2**40))
def test_positive_core_row_equals_bernstein_weights(n, data, v):
    # The verifier's positive form comes from one row per n and point; each
    # entry must be the sum over the Bernstein weights of its observation.
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    a = Fraction(data.draw(st.integers(min_value=1, max_value=v - 1)), v)
    assert positive_core_value(a, obs) == reference_positive_core(a, obs) > 0


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=40),
       st.fractions(min_value=Fraction(1, 40), max_value=200, max_denominator=40),
       st.one_of(st.fractions(min_value=Fraction(1, 10**20), max_value=10, max_denominator=10**20),
                 st.sampled_from([1e-12, 0.3])),
       st.booleans(), st.integers(min_value=-1, max_value=4), st.data())
def test_exact_root_on_the_refined_grid_equals_bisection(lo, width, tol, odd, extra, data):
    # A linear factor whose root is an even point of the refined grid (one
    # of bisection's own points) or an odd one (the midpoint of a last
    # cell), times a factor with no root when extra >= 0: a^2 + extra + 1.
    hi = lo + width
    fine = (width // Fraction(tol)).bit_length() + 1
    assume(odd or fine > 1)  # with no halving the only inner point is odd
    i = data.draw(st.integers(min_value=0 if odd else 1, max_value=2 ** (fine - 1) - 1))
    root = lo + width * Fraction(2 * i + odd, 2**fine)
    coeffs = (-root.numerator, root.denominator)
    if extra >= 0:
        coeffs = (ExactPoly(coeffs) * ExactPoly([extra + 1, 0, 1])).coeffs
    coeffs = tuple(int(c) for c in coeffs)
    assert dense_bisect_root(coeffs, lo, hi, tol) == reference_bisect_root(coeffs, lo, hi, tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_estimating_polynomial_matches_fraction_reference(n, data):
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    assert estimating_polynomial(obs).int_coeffs == reference_estimating_coeffs(obs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data(), st.sampled_from([1e-12, 1e-30]))
def test_solution_symmetry_and_bracket(n, data, tol):
    # (n, n - x) is the mirror image of (n, x) about 1/2, bracket and grid
    # included, so the solve reflects exactly.  Strict brackets make the
    # estimate strictly increasing in x.
    x = data.draw(st.integers(min_value=0, max_value=n))
    est = solve_iterative_bayes(BinomialObs(n, x), tol=tol)
    mirror = solve_iterative_bayes(BinomialObs(n, n - x), tol=tol)
    assert mirror.value_exact == 1 - est.value_exact
    assert mirror.bracket == (1 - est.bracket[1], 1 - est.bracket[0])
    assert mirror.iterations == est.iterations
    assert Fraction(x + 1, n + 3) < est.value_exact < Fraction(x + 2, n + 3)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1e-12, 1e-30, 5e-324]), st.data())
def test_geometric_estimate_solves_the_geometric_polynomial(tol, data):
    # The package divides J(x + 1, x) by -2; the closed form must give the
    # same solve, residual included, for x = 0 as for every other x.
    x = data.draw(st.integers(min_value=0, max_value=60 if tol == 5e-324 else 300))
    est = geometric_estimate(x, tol)
    ref = dense_bisect_root(geometric_polynomial(x), *solver_bracket(BinomialObs(x + 1, x)), tol)
    assert est == ref


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60), unit_modes, st.data())
def test_posterior_mean_stays_interior(n, mode, data):
    x = data.draw(st.integers(min_value=0, max_value=n))
    mean = posterior_mean_exact(mode, BinomialObs(n, x))
    assert mean == weighted_posterior_mean(mode, n, x)
    assert 0 < mean < 1


@st.composite
def _mean_modes(draw):
    """Modes in (0, 1): any float, the extreme floats, and Fractions with
    denominator 2**100, a large odd one, or an odd one > 1 times 2**k,
    k >= 1."""
    kind = draw(st.sampled_from(["float", "extreme", "pow2", "odd", "mixed"]))
    if kind == "float":
        return draw(st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True))
    if kind == "extreme":
        return draw(st.sampled_from([5e-324, 1 - 2**-53]))
    if kind == "pow2":
        den = 2**100
    elif kind == "odd":
        den = draw(st.integers(10**20, 10**40)) | 1
    else:
        den = (2 * draw(st.integers(1, 10**30)) + 1) << draw(st.integers(1, 200))
    return Fraction(draw(st.integers(1, den - 1)), den)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=300), _mean_modes(), st.data())
def test_mean_ratio_is_the_full_bernstein_pair(n, mode, data):
    # The short-tail construction returns the full sums' integers, not only
    # an equal ratio, at every side of the split.
    x = data.draw(st.one_of(st.sampled_from([0, 1, n // 2, n - 1, n]),
                            st.integers(min_value=0, max_value=n)))
    assert triangle._mean_ratio(mode, BinomialObs(n, x)) == reference_mean_ratio(mode, n, x)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True), st.data())
def test_float_posterior_mean_is_the_exact_one_rounded(n, mode, data):
    # The float view divides the unreduced ratio; that rounds correctly, so
    # it is the exact mean rounded once, bit for bit.
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    assert triangle_posterior_mean(mode, obs) == float(posterior_mean_exact(mode, obs))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=80), st.data())
def test_factorization_right_side_equals_fraction_construction(n, data):
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    lhs, rhs = factorization_sides(obs)
    assert rhs == reference_factorization_rhs(obs) == lhs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_solver_bracket_certified_by_posterior_mean(n, data):
    # The Bayesian definition certifies the solve: the posterior mean lies
    # above the mode at the bracket's lower end and below it at the upper
    # end, or equals the mode at an exact root.
    obs = BinomialObs(n, data.draw(st.integers(min_value=0, max_value=n)))
    est = solve_iterative_bayes(obs, tol=1e-12)
    lo, hi = est.bracket
    if sign_at(estimating_polynomial(obs).int_coeffs, est.value_exact) == 0:
        assert posterior_mean_exact(est.value_exact, obs) == est.value_exact
    else:
        assert posterior_mean_exact(lo, obs) > lo
        assert posterior_mean_exact(hi, obs) < hi
