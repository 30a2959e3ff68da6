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
more.  Each evaluation is exact in big integers (``exact._homogeneous_value``):
a Horner loop for n <= 61, and above that a balanced split whose large
products run in Karatsuba time.  Fixed-point iteration of the posterior-mean
map is provided as a secondary, cross-checking path; the posterior mean it
iterates is evaluated like the solver's signs, in big integers, from positive
Bernstein weights.

For one success in one trial the estimating polynomial factors as
2(a - 1)(a^2 + a - 1): the estimate is (sqrt(5) - 1)/2, the reciprocal of the
Golden Ratio.

The geometric model (x successes before the first failure) is the binomial
one at n = x + 1: its estimate solves that estimating polynomial divided by
-2, (x+1) a^(x+3) - (x+4) a^(x+2) + (x+4) a - (x+1), and reports its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .exact import ExactPoly, _homogeneous_value, bisect_root, check_tol
from .types import (
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
    "mirrored_values",
    "FIXED_POINT_TOL",
    "FIXED_POINT_MAX_ITER",
    "fixed_point_iterate",
    "geometric_estimate",
    "negative_binomial_estimate",
]

# One entry per (n, x); bounded so that a long session keeps a fixed
# footprint.  Every (n, x) with n <= 40 is 860 entries.
@lru_cache(maxsize=1024)
def _mean_pieces(n: int, x: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Numerator and denominator of the posterior mean as integer weights of
    the Bernstein basis m^j (1-m)^(d-j) in the mode m.  Scaled by m(1-m)/2 to
    clear the prior's 2/m and 2/(1-m), they are

        (1-m) * integral_0^m t p(t) dt  +  m * integral_m^1 t q(t) dt   (num)
        (1-m) * integral_0^m p(t) dt    +  m * integral_m^1 q(t) dt     (den)

    with p(t) = t^(x+1) (1-t)^(n-x) and q(t) = t^x (1-t)^(n-x+1).  Each branch
    is a binomial tail sum of positive terms, integral_0^m t^a (1-t)^b dt =
    a! b!/(a+b+1)! sum_{j>a} C(a+b+1, j) m^j (1-m)^(a+b+1-j).  The common
    factor m(1-m) and the constants, whose ratio (x+1)/(n+3) the caller
    applies, are left out.
    """
    r = n - x + 1
    row2 = _binomial_row(n + 2)
    row3 = [a + b for a, b in zip(row2 + [0], [0] + row2)]  # Pascal's rule
    num = tuple(r * row3[j] if j <= x + 1 else (x + 2) * row3[j + 1] for j in range(n + 3))
    den = tuple(r * row2[j] if j <= x else (x + 1) * row2[j + 1] for j in range(n + 2))
    return num, den


def _binomial_row(big: int) -> list:
    """C(big, 0), ..., C(big, big), each from the last by
    C(N, k+1) = C(N, k) (N-k)/(k+1): one short product and exact division a
    term instead of a factorial quotient; the second half by symmetry."""
    row = [1] * (big + 1)
    c = 1
    for k in range(big // 2):
        c = c * (big - k) // (k + 1)
        row[k + 1] = row[big - k - 1] = c
    return row


def posterior_mean_exact(mode: Union[Fraction, float], obs: BinomialObs) -> Fraction:
    """Posterior mean of p under the triangle prior, as an exact rational.

    Both branch integrals are polynomial in the mode, so the mean is the ratio
    of two cached polynomials, evaluated at the mode in big integers: one
    exact division.  Float modes are converted to their exact binary value.
    """
    m = Fraction(mode)
    if not 0 < m < 1:
        raise ValueError(f"posterior mean: mode must be in (0, 1), got {mode}")
    n, x = obs.n, obs.x
    num, den = _mean_pieces(n, x)
    p, q = m.numerator, m.denominator
    return Fraction((x + 1) * _homogeneous_value(num, p, q - p),
                    (n + 3) * q * _homogeneous_value(den, p, q - p))


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
        c = Fraction(math.comb(n - x, r), (x + r + 2) * (x + r + 3))
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
    c = 2 * math.comb(n + 3, m)
    for r in range(m + 1):
        coeffs.append(-c if r % 2 else c)
        # Both binomials step by their ratios: C(n+3, m-r-1) = C(n+3, m-r)
        # (m-r)/(x+r+4) and C(x+r+1, r+1) = C(x+r, r) (x+r+1)/(r+1).
        c = c * (m - r) * (x + r + 1) // ((x + r + 4) * (r + 1))
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
        return bisect_root(coeffs, lo, hi, tol=tol)
    except ValueError as exc:
        raise BracketFailure(f"no sign change over {lo}..{hi} for {label}: {exc}") from exc


def solve_iterative_bayes(obs: BinomialObs, tol: Union[float, Fraction] = 1e-12) -> Estimate:
    """Authoritative solver: exact-sign root isolation on the guaranteed
    bracket, with the result plain bisection would give.

    The bracket is never widened; an absent sign change would contradict the
    uniqueness of the root and raises BracketFailure.  ``tol`` (positive and
    finite, else ValueError) bounds the final bracket width, not the
    residual: that is |J| at the bracket's midpoint, the reported point, as a
    float, and at most (tol/2) max |J'| over the bracket.
    """
    tol = check_tol(tol, str(obs))
    coeffs = estimating_polynomial(obs).int_coeffs
    return _bisect_estimate(coeffs, obs, tol, str(obs))


def mirrored_values(n: int, tol: Union[float, Fraction]) -> Tuple[float, ...]:
    """The floats ``solve_iterative_bayes(BinomialObs(n, x), tol=tol).value``
    for x = 0..n, solving only x <= n/2.

    The estimate reflects: the triangle prior and the solver bracket are
    symmetric about 1/2, and bisection's cells reflect with them, so the exact
    value at (n, n - x) is 1 minus the one at (n, x).  That difference, rounded
    once, is the float a direct solve at (n, n - x) returns.  x = n/2, whose
    exact root 1/2 is a bisection grid point, is solved directly.
    """
    lower = [solve_iterative_bayes(BinomialObs(n, x), tol=tol) for x in range(n // 2 + 1)]
    upper = [float(1 - est.value_exact) for est in reversed(lower[: (n + 1) // 2])]
    return tuple(est.value for est in lower) + tuple(upper)


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


def geometric_estimate(x: int, tol: Union[float, Fraction] = 1e-12) -> Estimate:
    """Iterative Bayes estimate for the geometric model: x >= 0 successes
    before the first failure, the binomial likelihood of x + 1 trials.

    That estimating polynomial J = 2(x+1) - 2(x+4) a + 2(x+4) a^(x+2) -
    2(x+1) a^(x+3) is solved divided by -2, exactly: the geometric polynomial
    (x+1) a^(x+3) - (x+4) a^(x+2) + (x+4) a - (x+1), with J's root, bracket
    and iterations.  The division stays because the geometric estimate
    prints the residual on this scale, half of J's.
    """
    if x < 0:
        raise ValueError("geometric_estimate: x must be >= 0")
    label = f"geometric x={x}"
    tol = check_tol(tol, label)
    obs = BinomialObs(x + 1, x)
    coeffs = tuple(c // -2 for c in estimating_polynomial(obs).int_coeffs)
    return _bisect_estimate(coeffs, obs, tol, label)


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
