"""Iterative Bayes estimation under a triangle prior on (0, 1).

The prior is the piecewise-linear density with a single mode m:

    density(p) = 2p/m          for p <= m,
                 2(1-p)/(1-m)  for p >  m.

Replacing the mode with the posterior mean of p (given x successes in n
trials) over and over drives the mode to a fixed point: the iterative Bayes
estimate.  Its defining equation balances the strictly increasing weight

    balance(a) = a^(x+2) * integral_0^1 t^(x+1) (1-t) (1-a t)^(n-x) dt

for (a, x) against (1-a, n-x), which after clearing denominators is a single
integer-coefficient polynomial (the *estimating polynomial*) with exactly one
root in (0, 1).  Each of its coefficients has a closed form, a product of two
binomial coefficients, so it is written directly as a tuple of integers;
``identities`` re-derives it from the balance integrals and checks the two
agree.  The root always lies in the open interval
((x+1)/(n+3), (x+2)/(n+3)), so the authoritative solver isolates it there with
exact rational sign tests, correct unconditionally on floating-point
behaviour.  It returns the bracket plain bisection of that interval would,
found by quadratic interval refinement on bisection's own grid of points
(``exact.bisect_root``) with a dozen exact evaluations instead of forty or
more.  Fixed-point iteration of the posterior-mean map is provided as a
secondary, cross-checking path.

For one success in one trial the estimating polynomial factors as
2(a - 1)(a^2 + a - 1): the estimate is (sqrt(5) - 1)/2, the reciprocal of the
Golden Ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .exact import ExactPoly, binomial, bisect_root, check_tol
from .types import (
    METHOD_BISECTION,
    METHOD_FIXED_POINT,
    BinomialObs,
    BracketFailure,
    Estimate,
    NoConvergence,
)

__all__ = [
    "posterior_mean_exact",
    "triangle_posterior_mean",
    "balance_polynomial",
    "EstimatingPolynomial",
    "estimating_polynomial",
    "solver_bracket",
    "solve_iterative_bayes",
    "FIXED_POINT_TOL",
    "FIXED_POINT_MAX_ITER",
    "fixed_point_iterate",
    "geometric_polynomial",
    "geometric_estimate",
    "negative_binomial_estimate",
]

# One entry per (n, x); bounded so that a long session keeps a fixed
# footprint.  Every (n, x) with n <= 40 is 860 entries.
@lru_cache(maxsize=1024)
def _mean_pieces(n: int, x: int) -> Tuple[ExactPoly, ExactPoly]:
    """Numerator and denominator of the posterior mean as polynomials in the
    mode m, both scaled by m(1-m)/2 to clear the prior's 2/m and 2/(1-m):

        (1-m) * integral_0^m t p(t) dt  +  m * integral_m^1 t q(t) dt   (num)
        (1-m) * integral_0^m p(t) dt    +  m * integral_m^1 q(t) dt     (den)

    with p(t) = t^(x+1) (1-t)^(n-x) and q(t) = t^x (1-t)^(n-x+1), the
    likelihood times the left and right prior branches without their weights.
    """
    t = ExactPoly([0, 1])
    one_minus_t = ExactPoly([1, -1])

    def weighted(left: ExactPoly, right: ExactPoly) -> ExactPoly:
        left_int = left.antiderivative()
        right_int = right.antiderivative()
        return one_minus_t * left_int + t * (right_int(1) - right_int)

    p = t ** (x + 1) * one_minus_t ** (n - x)
    q = t**x * one_minus_t ** (n - x + 1)
    return weighted(t * p, t * q), weighted(p, q)


def posterior_mean_exact(mode: Union[Fraction, float], obs: BinomialObs) -> Fraction:
    """Posterior mean of p under the triangle prior, as an exact rational.

    Both branch integrals are polynomial in the mode, so the mean is the ratio
    of two cached polynomials evaluated at the mode: one exact division.
    Float modes are converted to their exact binary value first.
    """
    m = Fraction(mode)
    if not 0 < m < 1:
        raise ValueError(f"posterior mean: mode must be in (0, 1), got {mode}")
    num, den = _mean_pieces(obs.n, obs.x)
    return num(m) / den(m)


def triangle_posterior_mean(mode: float, obs: BinomialObs) -> float:
    """Float view of :func:`posterior_mean_exact`."""
    return float(posterior_mean_exact(mode, obs))


def balance_polynomial(obs: BinomialObs) -> ExactPoly:
    """The strictly increasing weight a^(x+2) ∫ t^(x+1)(1-t)(1-a t)^(n-x) dt
    as a polynomial in a.

    Built from the exact term-by-term expansion
    a^(x+2) * sum_r C(n-x, r) (-1)^r a^r / ((x+r+2)(x+r+3)).  The iterative
    Bayes estimate is the unique point where this weight for (a, x) equals
    the one for (1-a, n-x).
    """
    n, x = obs.n, obs.x
    coeffs = [Fraction(0)] * (x + 2)
    for r in range(n - x + 1):
        c = Fraction(binomial(n - x, r), (x + r + 2) * (x + r + 3))
        coeffs.append(-c if r % 2 else c)
    return ExactPoly(coeffs)


@dataclass(frozen=True)
class EstimatingPolynomial:
    """Integer-coefficient polynomial whose unique root in (0, 1) is the
    iterative Bayes estimate for the observation."""

    int_coeffs: Tuple[int, ...]

    @property
    def poly(self) -> ExactPoly:
        """The same polynomial as an ExactPoly."""
        return ExactPoly(self.int_coeffs)


def estimating_polynomial(obs: BinomialObs) -> EstimatingPolynomial:
    """Build the estimating polynomial, m = n - x,

        2 a^(x+2) * sum_r (-1)^r C(n+3, m-r) C(x+r, r) a^r - (m+1)(n+3) a + (m+1)(x+1)

    coefficient by coefficient in integers.  The alternating sum (the core)
    is strictly positive on (0, 1); ``identities`` checks it against a
    manifestly positive form.  Positive at the lower bracket end, negative
    at the upper one; degree n+2.
    """
    n, x = obs.n, obs.x
    m = n - x
    coeffs = [(m + 1) * (x + 1), -(m + 1) * (n + 3)] + [0] * x
    for r in range(m + 1):
        c = 2 * binomial(n + 3, m - r) * binomial(x + r, r)
        coeffs.append(-c if r % 2 else c)
    return EstimatingPolynomial(tuple(coeffs))


def solver_bracket(obs: BinomialObs) -> Tuple[Fraction, Fraction]:
    """Interval ((x+1)/(n+3), (x+2)/(n+3)) with a guaranteed sign change."""
    return Fraction(obs.x + 1, obs.n + 3), Fraction(obs.x + 2, obs.n + 3)


def _bisect_estimate(
    coeffs: Tuple[int, ...], obs: BinomialObs, tol: Fraction, label: str
) -> Estimate:
    """Bisect ``coeffs`` on the solver bracket of ``obs``; an absent sign
    change raises BracketFailure naming ``label``."""
    lo, hi = solver_bracket(obs)
    try:
        result = bisect_root(coeffs, lo, hi, tol=tol)
    except ValueError as exc:
        raise BracketFailure(f"no sign change over {lo}..{hi} for {label}: {exc}") from exc
    return Estimate(
        value=float(result.value),
        method=METHOD_BISECTION,
        iterations=result.iterations,
        residual=float(result.residual),
        bracket=(result.lo, result.hi),
        value_exact=result.value,
    )


def solve_iterative_bayes(obs: BinomialObs, tol: Union[float, Fraction] = 1e-12) -> Estimate:
    """Authoritative solver: exact-sign root isolation on the guaranteed
    bracket, with the result plain bisection would give.

    The bracket is never widened; an absent sign change would contradict the
    uniqueness of the root and raises BracketFailure.  ``tol`` (positive and
    finite, else ValueError) bounds the final bracket width, and with it the
    residual: the reported point is the bracket's midpoint, and the exact
    value of the estimating polynomial there is returned as the residual.
    """
    tol = check_tol(tol, str(obs))
    coeffs = estimating_polynomial(obs).int_coeffs
    return _bisect_estimate(coeffs, obs, tol, str(obs))


# Stopping step and step limit of fixed_point_iterate.  Every (n, x) with
# n <= 40 stops within 19 steps from the default start.
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 500


def fixed_point_iterate(obs: BinomialObs, mode0: float = 0.5) -> Estimate:
    """Secondary path: iterate mode <- posterior_mean(mode), starting from
    the prior mode ``mode0``, until |step| < FIXED_POINT_TOL.

    Convergence of the map is observed, not proven, so hitting
    FIXED_POINT_MAX_ITER raises NoConvergence carrying the last iterate, a
    reportable outcome rather than a bug.  Never the authoritative answer;
    agreement with the bisection root is asserted in tests.
    """
    if not 0 < mode0 < 1:
        raise ValueError(f"fixed_point_iterate: mode0 must be in (0, 1), got {mode0}")
    mode = float(mode0)
    delta = math.inf
    for step in range(1, FIXED_POINT_MAX_ITER + 1):
        new = triangle_posterior_mean(mode, obs)
        delta = abs(new - mode)
        mode = new
        if delta < FIXED_POINT_TOL:
            return Estimate(
                value=mode,
                method=METHOD_FIXED_POINT,
                iterations=step,
                residual=delta,
            )
    raise NoConvergence(
        f"fixed point not reached after {FIXED_POINT_MAX_ITER} iterations for {obs}",
        last_value=mode,
        residual=delta,
        iterations=FIXED_POINT_MAX_ITER,
    )


def geometric_polynomial(x: int) -> Tuple[int, ...]:
    """Estimating polynomial for the geometric model (x successes before the
    first failure), valid for x >= 1, as integer coefficients lowest degree
    first:

        (x+1) a^(x+3) - (x+4) a^(x+2) + (x+4) a - (x+1).

    Equal to -1/2 times the binomial estimating polynomial for (n, x) = (x+1, x).
    """
    if x < 1:
        raise ValueError("geometric_polynomial: defined for x >= 1")
    coeffs = [0] * (x + 4)
    coeffs[0] = -(x + 1)
    coeffs[1] = x + 4
    coeffs[x + 2] = -(x + 4)
    coeffs[x + 3] = x + 1
    return tuple(coeffs)


def geometric_estimate(x: int, tol: Union[float, Fraction] = 1e-12) -> Estimate:
    """Iterative Bayes estimate for the geometric model.

    For x >= 1 the dedicated polynomial is solved on the binomial bracket with
    n = x + 1; x = 0 goes through the negative-binomial reduction (r = 1),
    whose polynomial form starts at x = 1.  Either way the value equals the
    binomial solve for observation x from n = x + 1 trials.
    """
    if x < 0:
        raise ValueError("geometric_estimate: x must be >= 0")
    if x == 0:
        return negative_binomial_estimate(1, 0, tol=tol)
    label = f"geometric x={x}"
    tol = check_tol(tol, label)
    return _bisect_estimate(geometric_polynomial(x), BinomialObs(x + 1, x), tol, label)


def negative_binomial_estimate(r: int, x: int, tol: Union[float, Fraction] = 1e-12) -> Estimate:
    """Estimate for x successes observed before the r-th failure.

    The likelihood in p is proportional to the binomial one for x successes
    in x + r trials, so the triangle-prior estimate coincides with the
    binomial solve at (n, x) = (x + r, x).
    """
    if r < 1:
        raise ValueError("negative_binomial_estimate: r must be >= 1")
    if x < 0:
        raise ValueError("negative_binomial_estimate: x must be >= 0")
    return solve_iterative_bayes(BinomialObs(n=x + r, x=x), tol=tol)
