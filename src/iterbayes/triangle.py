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
found by quadratic interval refinement on bisection's grid refined once
(``exact.bisect_root``).  A float Newton estimate of the root (``_root_hint``)
chooses where that search starts, but never decides a sign, so a solve takes
at most 4 exact evaluations at tol 1e-12 and 1e-13 (8 at 1e-30, n <= 120),
residual included, instead of forty or more.  Each
evaluation is exact in big integers and reads only the polynomial's short
side: the core of (n, max(x, n - x)), min(x, n - x) + 1 coefficients, for
x < n/2 through the mirror identity a J_{n,x}(a) = -(1-a) J_{n,n-x}(1-a).
The core goes through ``exact._homogeneous_value``: a Horner loop up to 64
coefficients, and above that a balanced split whose large products run in
Karatsuba time, with the grid's power of two applied by shifts.
Fixed-point iteration of the posterior-mean map is provided as a secondary,
cross-checking path; the posterior mean it iterates is evaluated like the
solver's signs, in big integers and on the short side: one binomial tail
sum of min(x + 1, n + 1 - x) positive terms.

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
from typing import Callable, Optional, Tuple, Union

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

# One entry: every caller works on one (n, x) at a time (a fixed-point run,
# both ends of one bracket), and an entry is up to 1.2 MiB at n = 5000
# (x = n/2), so a cache of many could hold gigabytes.
@lru_cache(maxsize=1)
def _mean_pieces(n: int, x: int) -> Tuple[Tuple[int, ...], bool, int, int]:
    """The short side of the binomial row N = n + 2 that the posterior mean
    at (n, x) reads: C(N, 0..x) if ``lower`` (x + 1 <= n + 1 - x), else
    C(N, x+2..N); then C(N, x+1) and C(N, x+2).

    Scaled by m(1-m)/2 to clear the prior's 2/m and 2/(1-m), the mean's
    numerator and denominator are

        (1-m) * integral_0^m t p(t) dt  +  m * integral_m^1 t q(t) dt   (num)
        (1-m) * integral_0^m p(t) dt    +  m * integral_m^1 q(t) dt     (den)

    with p(t) = t^(x+1) (1-t)^(n-x) and q(t) = t^x (1-t)^(n-x+1).  Each branch
    is a binomial tail sum of positive terms, integral_0^m t^a (1-t)^b dt =
    a! b!/(a+b+1)! sum_{j>a} C(a+b+1, j) m^j (1-m)^(a+b+1-j), so their
    Bernstein weights are the rows C(N, .) and C(N+1, .) split at x + 1.
    By the binomial theorem those pieces are tails of (p + w)^N, and Pascal's
    rule writes the row N + 1 ones through row N's: see :func:`_mean_ratio`.
    """
    big = n + 2
    lower = 2 * x <= n
    row = [1]
    for k in range(x if lower else n - x):
        row.append(row[-1] * (big - k) // (k + 1))
    if not lower:
        row.reverse()  # C(N, N-k) = C(N, k): the upper tail from x + 2
    return tuple(row), lower, math.comb(big, x + 1), math.comb(big, x + 2)


def _mean_ratio(mode: Union[Fraction, float], obs: BinomialObs) -> Tuple[int, int]:
    """Numerator and denominator of the posterior mean at ``mode``, unreduced.

    The mode is p/q, read exactly for floats, and w = q - p.  With N = n + 2
    and r = n - x + 1, the terms C(N, i) p^i w^(N-i) of q^N = (p + w)^N split
    into the lower tail T (i <= x), the middle term M1 (i = x + 1) and the
    upper tail U (i >= x + 2).  The Bernstein sums of :func:`_mean_pieces`,
    q^(n+2) times the numerator at the mode and q^(n+1) times the
    denominator, are

        den = r T/w + (x+1) U/p
        num = r (q T/w + M1) + (x+2) (q U/p - C(N, x+2) p^(x+1) w^(n+1-x)),

    the second from Pascal's rule C(N+1, i) = C(N, i) + C(N, i-1), in which
    C(N, x+2) = C(N+1, x+2) - C(N, x+1).  Only the shorter tail is summed,
    one ``_homogeneous_value`` call on min(x + 1, n + 1 - x) coefficients;
    the other follows from T + M1 + U = q^N by one exact division, by p or
    by w.  The result is the same integer pair as the full sums',
    ((x+1) num, (n+3) q den), whose ratio is the mean.  Written as
    q = odd * 2**k with an odd factor ``odd``, q's power of two enters by
    shifts in q^(n+2), q T/w, q U/p and (n+3) q den; a float mode has
    odd = 1.

    The cost grows with n times the bit length of q, and no ceiling bounds
    it: 5e-324 is 1/2**1074, and one mean at n = 5000 takes 0.6 s there at
    x = 1 and 1.5 s at x = n/2 (2-vCPU Linux host), against 2 ms at 0.5.
    """
    if not 0 < mode < 1:
        raise ValueError(f"posterior mean: mode must be in (0, 1), got {mode}")
    p, q = mode.as_integer_ratio()
    w = q - p
    k = (q & -q).bit_length() - 1
    odd = q >> k
    n, x = obs.n, obs.x
    row, lower, mid, above = _mean_pieces(n, x)
    head, tail = p ** (x + 1), w ** (n + 1 - x)
    edge = head * tail
    rest = (odd ** (n + 2) << k * (n + 2)) - mid * edge  # T + U
    if lower:
        low = tail * _homogeneous_value(row, p, w)  # T/w
        high = (rest - w * low) // p  # U/p
    else:
        high = head * _homogeneous_value(row, p, w)  # U/p
        low = (rest - p * high) // w  # T/w
    r = n - x + 1
    num = r * ((odd * low << k) + mid * edge) + (x + 2) * ((odd * high << k) - above * edge)
    den = r * low + (x + 1) * high
    return (x + 1) * num, (n + 3) * odd * den << k


def posterior_mean_exact(mode: Union[Fraction, float], obs: BinomialObs) -> Fraction:
    """Posterior mean of p under the triangle prior, as an exact rational:
    the ratio :func:`_mean_ratio` builds from one short binomial tail.
    Float modes are converted to their exact binary value.

    The cost grows with n times the bit length of the mode's denominator,
    and reducing the Fraction costs about its square: at n = 5000 and mode
    5e-324 (1/2**1074) the ratio takes 0.6-1.5 s and its gcd 27-43 s more
    on a 2-vCPU Linux host.  :func:`triangle_posterior_mean` skips that
    gcd."""
    return Fraction(*_mean_ratio(mode, obs))


def triangle_posterior_mean(mode: float, obs: BinomialObs) -> float:
    """Float view of :func:`posterior_mean_exact`: the same ratio divided
    without reducing it first, since int true division rounds correctly.
    The cost grows with n times the bit length of the mode's denominator:
    0.6-1.5 s at n = 5000 and mode 5e-324 (1/2**1074)."""
    num, den = _mean_ratio(mode, obs)
    return num / den


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


def _estimating_value(obs: BinomialObs) -> Callable[[int, int], int]:
    """The homogeneous evaluator (u, v) -> v**(n+2) J(u/v) of the estimating
    polynomial J of ``obs``, exact for integers u and v > 0, with u != 0
    when x < n/2.

    J(a) = c0 + c1 a + a^(x+2) core(a), and the core has n - x + 1
    coefficients, so

        v**(n+2) J(u/v) = (c0 v + c1 u) v**(n+1) + u**(x+2) H_core(u, v),

    H_core the core's own homogeneous value.  Below x = n/2 that core is the
    longer part of J, and the mirror identity a J_{n,x}(a) = -(1-a) J_{n,n-x}(1-a)
    (from the factorization ``identities`` checks, whose scale is symmetric
    in x and n - x) gives J from the polynomial of (n, n - x) at 1 - a:

        v**(n+2) J(u/v) = -(v - u) H_{n,n-x}(v - u, v) / u,

    an exact division.  Either way one evaluation runs ``_homogeneous_value``
    once, on min(x, n - x) + 1 coefficients instead of n + 3.  As in that
    evaluator's split, v's power of two is applied to v**(n+1) by a shift.
    Every grid point of one solve has the odd part of n + 3, so the power
    of the odd part is kept in a one-entry memo, an (odd, odd**(n+1)) pair
    replaced whole, and computed again only when the odd part changes.
    """
    n, x = obs.n, obs.x
    big = max(x, n - x)
    coeffs = estimating_polynomial(BinomialObs(n, big)).int_coeffs
    c0, c1, core = coeffs[0], coeffs[1], coeffs[big + 2:]

    memo = (1, 1)  # (odd, odd ** (n + 1))

    def value(u: int, v: int) -> int:
        nonlocal memo
        k = (v & -v).bit_length() - 1
        odd = v >> k
        memo_odd, power = memo
        if memo_odd != odd:
            power = odd ** (n + 1)
            memo = odd, power
        head = (c0 * v + c1 * u) * power << k * (n + 1)
        return head + u ** (big + 2) * _homogeneous_value(core, u, v)

    if big == x:
        return value
    return lambda u, v: -(v - u) * value(v - u, v) // u


_LOG_1E200 = 200 * math.log(10)


def _root_hint(n: int, x: int) -> Optional[float]:
    """A float estimate of J's root in the solver bracket of (n, x), or None,
    for ``bisect_root`` to start its exact search from; it decides no sign.

    Newton's method in floats on the log of the balance equation
    2 a^(x+2) pos(a) = (m+1) ((n+3) a - (x+1)), m = n - x, with pos the
    positive core form sum_k C(n+3, k) C(m-k+2, 2) a^(m-k) (1-a)^k, summed as
    a^m sum_k w_k r^k at r = (1-a)/a.  Each term comes from the last by
    w_(k+1)/w_k = (n+3-k)(m-k) / ((k+1)(m-k+2)), a ratio independent of a and
    so computed once per hint, not once per step, and the sums are rescaled by
    1e-200 whenever a term passes 1e200.  It works on the short side,
    x >= n/2, and mirrors below it as the exact evaluator does.  Each step
    is clamped halfway to a bracket end it would pass; the loop stops after
    a step below 1e-9 a, when the next one would be below double precision.
    """
    if 2 * x < n:
        hint = _root_hint(n, n - x)
        return None if hint is None else 1.0 - hint
    m = n - x
    lo, hi = (x + 1) / (n + 3), (x + 2) / (n + 3)
    ratios = [(n + 3 - k) * (m - k) / ((k + 1) * (m - k + 2)) for k in range(m)]
    a = (x + 1.5) / (n + 3)
    for _ in range(8):
        gap = (n + 3) * a - (x + 1)
        if not gap > 0:
            return None
        r = (1.0 - a) / a
        term = total = (m + 2) * (m + 1) / 2
        moment = 0.0
        scale = 0
        for k, ratio in enumerate(ratios):
            term *= r * ratio
            if term > 1e200:
                term, total, moment = term * 1e-200, total * 1e-200, moment * 1e-200
                scale += 1
            total += term
            moment += (k + 1) * term
        f = math.log(2 * total / ((m + 1) * gap)) + (n + 2) * math.log(a) + scale * _LOG_1E200
        slope = (n + 2) / a - moment / (total * a * (1.0 - a)) - (n + 3) / gap
        if not slope:
            return a
        step = f / slope
        a = min(max(a - step, (a + lo) / 2), (a + hi) / 2)
        if abs(step) < 1e-9 * a:
            break
    return a


def _bisect_estimate(
    value: Callable[[int, int], int], obs: BinomialObs, tol: Union[float, Fraction], label: object
) -> Estimate:
    """Bisect the degree-(n+2) polynomial whose homogeneous evaluator is
    ``value`` on the solver bracket of ``obs``; an absent sign change raises
    BracketFailure naming ``label``, formatted only then."""
    lo, hi = solver_bracket(obs)
    try:
        return bisect_root(value, obs.n + 2, lo, hi, tol=tol, near=_root_hint(obs.n, obs.x))
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
    check_tol(tol, obs)
    return _bisect_estimate(_estimating_value(obs), obs, tol, obs)


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
    agreement with the bisection root is asserted in tests.  A step costs
    one :func:`triangle_posterior_mean`, which grows with n times the bit
    length of the mode's denominator: from ``mode0`` 5e-324 (1/2**1074) at
    n = 5000, x = 2500 the first step takes 1.4 s and the run 2 s.
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
    check_tol(tol, label)
    obs = BinomialObs(x + 1, x)
    value = _estimating_value(obs)
    return _bisect_estimate(lambda u, v: value(u, v) // -2, obs, tol, label)


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
