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
root in (0, 1).  That root always lies in the open interval
((x+1)/(n+3), (x+2)/(n+3)), so the authoritative solver is plain bisection on
that bracket with exact rational sign tests, correct unconditionally on
floating-point behaviour.  Fixed-point iteration of the posterior-mean map is
provided as a secondary, cross-checking path.

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

from .exact import ExactPoly, binomial, bisect_root
from .types import (
    METHOD_BISECTION,
    METHOD_FIXED_POINT,
    BinomialObs,
    BracketFailure,
    Estimate,
    NoConvergence,
)

__all__ = [
    "GOLDEN_RATIO",
    "GOLDEN_RATIO_RECIPROCAL",
    "posterior_mean_one_success",
    "posterior_mean_exact",
    "triangle_posterior_mean",
    "balance_polynomial",
    "EstimatingPolynomial",
    "alternating_core",
    "estimating_polynomial",
    "solver_bracket",
    "solve_iterative_bayes",
    "fixed_point_iterate",
    "geometric_polynomial",
    "geometric_estimate",
    "negative_binomial_estimate",
]

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
GOLDEN_RATIO_RECIPROCAL = (math.sqrt(5) - 1) / 2


def posterior_mean_one_success(mode):
    """Closed-form posterior mean for one success in one trial:
    (1 + m + m^2) / (2(1 + m)).  Exact for Fraction input."""
    return (1 + mode + mode * mode) / (2 * (1 + mode))


@lru_cache(maxsize=None)
def _mean_pieces(n: int, x: int):
    # Antiderivatives of the four polynomial integrands of the posterior-mean
    # ratio, plus the right-hand pieces' full integrals over (0, 1).
    t = ExactPoly([0, 1])
    one_minus_t = ExactPoly([1, -1])
    num_left = (t ** (x + 2) * one_minus_t ** (n - x)).antiderivative()
    num_right = (t ** (x + 1) * one_minus_t ** (n - x + 1)).antiderivative()
    den_left = (t ** (x + 1) * one_minus_t ** (n - x)).antiderivative()
    den_right = (t**x * one_minus_t ** (n - x + 1)).antiderivative()
    return num_left, num_right, den_left, den_right, num_right(Fraction(1)), den_right(Fraction(1))


def posterior_mean_exact(mode: Union[Fraction, float], obs: BinomialObs) -> Fraction:
    """Posterior mean of p under the triangle prior, as an exact rational.

    Both branch integrals are polynomial, so each is expanded and integrated
    term by term over (0, mode) and (mode, 1); the result is one exact
    division.  Float modes are converted to their exact binary value first.
    """
    m = Fraction(mode)
    if not 0 < m < 1:
        raise ValueError(f"posterior mean: mode must be in (0, 1), got {mode}")
    num_left, num_right, den_left, den_right, num_right_full, den_right_full = _mean_pieces(
        obs.n, obs.x
    )
    w_left = 2 / m
    w_right = 2 / (1 - m)
    num = w_left * num_left(m) + w_right * (num_right_full - num_right(m))
    den = w_left * den_left(m) + w_right * (den_right_full - den_right(m))
    return num / den


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


def alternating_core(obs: BinomialObs) -> ExactPoly:
    """Core polynomial of the estimating polynomial (alternating-sum form):
    sum_r C(n+3, n-x-r) C(x+r, r) (-1)^r a^r.  Strictly positive on (0, 1)."""
    n, x = obs.n, obs.x
    coeffs = []
    for r in range(n - x + 1):
        c = binomial(n + 3, n - x - r) * binomial(x + r, r)
        coeffs.append(-c if r % 2 else c)
    return ExactPoly(coeffs)


@dataclass(frozen=True)
class EstimatingPolynomial:
    """Integer-coefficient polynomial whose unique root in (0, 1) is the
    iterative Bayes estimate for the observation."""

    obs: BinomialObs
    poly: ExactPoly

    @property
    def int_coeffs(self) -> Tuple[int, ...]:
        return tuple(int(c) for c in self.poly.coeffs)


def estimating_polynomial(obs: BinomialObs) -> EstimatingPolynomial:
    """Build the estimating polynomial

        2 a^(x+2) * core(a) - (n-x+1)(n+3) a + (n-x+1)(x+1)

    with ``core`` the alternating-sum core.  Positive at the lower bracket
    end, negative at the upper one; degree n+2, all coefficients integers.
    """
    n, x = obs.n, obs.x
    head = ExactPoly.monomial(x + 2, 2) * alternating_core(obs)
    tail = ExactPoly([(n - x + 1) * (x + 1), -(n - x + 1) * (n + 3)])
    return EstimatingPolynomial(obs, head + tail)


def solver_bracket(obs: BinomialObs) -> Tuple[Fraction, Fraction]:
    """Interval ((x+1)/(n+3), (x+2)/(n+3)) with a guaranteed sign change."""
    return Fraction(obs.x + 1, obs.n + 3), Fraction(obs.x + 2, obs.n + 3)


def _bisect_estimate(
    coeffs: Tuple[int, ...],
    obs: BinomialObs,
    tol: Union[float, Fraction],
    max_residual: Union[float, Fraction, None],
    label: str,
) -> Estimate:
    """Bisect ``coeffs`` on the solver bracket of ``obs``; an absent sign
    change raises BracketFailure naming ``label``."""
    lo, hi = solver_bracket(obs)
    try:
        result = bisect_root(coeffs, lo, hi, tol=tol, max_residual=max_residual)
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


def solve_iterative_bayes(
    obs: BinomialObs,
    tol: Union[float, Fraction] = 1e-12,
    max_residual: Union[float, Fraction, None] = None,
) -> Estimate:
    """Authoritative solver: exact-sign bisection on the guaranteed bracket.

    The bracket is never widened; an absent sign change would contradict the
    uniqueness of the root and raises BracketFailure.  ``tol`` bounds the
    final bracket width; ``max_residual`` optionally refines further until
    the exact value of the estimating polynomial at the reported point is at
    most that magnitude (extended-precision refinement; the bracket stays an
    exact rational interval throughout).
    """
    coeffs = estimating_polynomial(obs).int_coeffs
    return _bisect_estimate(coeffs, obs, tol, max_residual, str(obs))


def fixed_point_iterate(
    obs: BinomialObs,
    mode0: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 500,
    damping: float = 1.0,
) -> Estimate:
    """Secondary path: iterate mode <- posterior_mean(mode) until |step| < tol.

    Plain iteration (damping 1.0) is the default; a damping factor in (0, 1]
    shortens the step.  Convergence of the plain map is observed, not proven,
    so hitting ``max_iter`` raises NoConvergence carrying the last iterate,
    a reportable outcome rather than a bug.  Never the authoritative answer;
    agreement with the bisection root is asserted in tests.
    """
    if not 0 < mode0 < 1:
        raise ValueError(f"fixed_point_iterate: mode0 must be in (0, 1), got {mode0}")
    if not 0 < damping <= 1:
        raise ValueError(f"fixed_point_iterate: damping must be in (0, 1], got {damping}")
    if tol <= 0:
        raise ValueError("fixed_point_iterate: tol must be positive")
    mode = float(mode0)
    delta = math.inf
    for step in range(1, max_iter + 1):
        target = triangle_posterior_mean(mode, obs)
        new = mode + damping * (target - mode)
        delta = abs(new - mode)
        mode = new
        if delta < tol:
            return Estimate(
                value=mode,
                method=METHOD_FIXED_POINT,
                iterations=step,
                residual=delta,
            )
    raise NoConvergence(
        f"fixed point not reached after {max_iter} iterations for {obs}",
        last_value=mode,
        residual=delta,
        iterations=max_iter,
    )


def geometric_polynomial(x: int) -> ExactPoly:
    """Estimating polynomial for the geometric model (x successes before the
    first failure), valid for x >= 1:

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
    return ExactPoly(coeffs)


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
    coeffs = tuple(int(c) for c in geometric_polynomial(x).coeffs)
    return _bisect_estimate(coeffs, BinomialObs(x + 1, x), tol, None, f"geometric x={x}")


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
