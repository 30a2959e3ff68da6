"""Iterative Bayes estimation under a triangle prior on (0, 1).

The prior is the piecewise-linear density with a single mode m:

    density(p) = 2p/m          for p <= m,
                 2(1-p)/(1-m)  for p >  m.

Replacing the mode with the posterior mean of p (given x successes in n
trials) over and over drives the mode to a fixed point: the iterative Bayes
estimate.  Its defining equation balances the strictly increasing weight

    balance(a) = a^(x+2) * integral_0^1 t^(x+1) (1-t) (1-a t)^(n-x) dt

for (a, x) against (1-a, n-x), which after clearing denominators is a single
integer-coefficient polynomial J (the *estimating polynomial*) with exactly
one root in (0, 1).  Each of its coefficients has a closed form, a product of
two binomial coefficients, so it is written directly as a tuple of integers;
``identities`` re-derives it from the balance integrals and checks the two
agree.

That root is unique by Descartes' rule of signs in the Bernstein basis
(Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*, ch. 10).
With d = n + 2, m = n - x and J = sum_i w_i a^i (1-a)^(d-i), each weight
has a closed form,

    d w_i = 2d C(n+3, d-i) C(i-x, 2) + (m+1) ((x+1)d - (n+3)i) C(d, i),

with C(i-x, 2) = 0 for i <= x + 1.  There only the linear part enters, and
(x+1)d/(n+3) lies strictly between x and x + 1: w_i > 0 for i <= x and
w_(x+1) < 0.  For x + 2 <= i <= n + 1 (none if x = n), C(n+3, d-i) =
(n+3) C(d, i)/(i+1) gives w_i = -C(d, i) D(i) / ((i+1) d), where

    D(i) = (i+1)(m+1)((n+3)i - (x+1)d) - d(n+3)(i-x)(i-x-1)

is concave in i (its i^2 coefficient is -(n+3)(x+1)), D(n+1) =
d(m+1)(x+1) > 0 and D(x+2) = (x+3)(m+1)(n+x+4) - 2d(n+3) > 0, because
(x+3)(m+1) >= 2d for 0 <= x <= n - 1 (concave in x, and true at both
ends).  So w_i < 0 there too, and w_d = J(1) = 0.  J/(1 - a) has the
weights w_0 .. w_(d-1) in degree d - 1: one sign change, so J has exactly
one root in (0, 1), a simple one.  The tests hold the closed form to
``estimating_polynomial`` for n <= 100 and the sign pattern up to
n = 10,000.

The root always lies in the open interval ((x+1)/(n+3), (x+2)/(n+3)), where
J falls from positive to negative, so the authoritative solver isolates it
there with sign tests that are exact, or proven by a directed-rounding
enclosure (below), correct unconditionally on floating-point behaviour.  It
returns the bracket plain bisection of that interval would, found by
quadratic interval refinement on bisection's grid refined once
(``exact.bisect_root``), which isolates exactly such a falling sign change,
so it evaluates a bracket end only when a secant or the final cell needs it,
and checks its sign then: the cell it returns is still certified by two
exact or proven signs, and by the lemma above it holds the one root.  A
float Newton estimate of the root (``_root_hint``) chooses where that search
starts, but never decides a sign, so a solve takes at most 2 exact
evaluations at tol 1e-12 and 1e-13, residual included, instead of forty or
more (3 at x = n/2, where the first probe meets the root 1/2 and both
bracket ends are checked).  At finer tols a large enough solve refines that
estimate by secant steps in a local decimal context (``_refine``) to under
half of bisection's last cell, and again takes 2; smaller ones keep the
float estimate (at most 6 evaluations at 1e-30 for n <= 120).  Above a
crossover in n, tol and the core's length (``_certify_bits``), the two
probes are decided without exact evaluation: ``_enclosure`` bounds J between
two Decimals, computed on the cancellation-free positive core form in one
pass rounded toward +inf, the lower bound from an a-priori count of its
roundings (``_bounds``), and its sign is the bounds' when they exclude 0,
its residual their common float.
Only an exact root or a near-tie falls back to exact evaluation, so no sign
rests on rounding.  Each exact evaluation is exact in big integers and reads
only the polynomial's short side: the core of (n, max(x, n - x)),
min(x, n - x) + 1 coefficients, for x < n/2 through the mirror identity
a J_{n,x}(a) = -(1-a) J_{n,n-x}(1-a).  The core goes through ``exact._homogeneous_value``: a Horner loop up to 64
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
2, (x+1) - (x+4) a + (x+4) a^(x+2) - (x+1) a^(x+3), which falls through
the root like J, and reports its residual.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

from .exact import ExactPoly, _homogeneous_value, bisect_depth, bisect_root, check_tol
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
    "HINT_ERROR",
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
    replaced whole, and computed again only when the odd part changes.  The
    polynomial is built on the first evaluation, not before: a solve whose
    probes are all certified by :func:`_enclosure` builds none.
    """
    n, x = obs.n, obs.x
    big = max(x, n - x)
    parts = None  # (c0, c1, core), built on the first evaluation
    memo = (1, 1)  # (odd, odd ** (n + 1))

    def value(u: int, v: int) -> int:
        nonlocal parts, memo
        if parts is None:
            coeffs = estimating_polynomial(BinomialObs(n, big)).int_coeffs
            parts = coeffs[0], coeffs[1], coeffs[big + 2:]
        c0, c1, core = parts
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

# The absolute error trusted in the float hint of _root_hint: 64 units in the
# last place at 1.0.  On grids whose fine cell is narrower, large enough
# solves refine the hint in decimal (_refine).
HINT_ERROR = Fraction(1, 2**46)

# The least n * fine (fine the depth of bisect_root's grid, about 43, 95,
# 330 and 1,075 levels at tol 1e-15, 1e-30, 1e-100 and 5e-324 for n near
# 100) at which a solve refines its hint.  Below it the pairs a refined hint
# saves are cheaper than the refinement.  Refining every solve, against the
# float hint (all x of one n, both in one process, medians of 7, 2-vCPU
# Linux host), broke even at n ~ 220 at 1e-15 (n * fine ~ 9,500), n ~ 85 at
# 1e-30 (~8,000), n ~ 18 at 1e-100 (~6,000) and n ~ 12 at 5e-324 (~13,000),
# and took 1.12 times as long at n = 9, 5e-324.
_REFINE_MIN = 12_000

# Traps of _refine's and _bounds' decimal contexts: any of them abandons the
# refinement or the enclosure.
_TRAPS = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]

# Formats the enclosure's bounds for float(): a Decimal's own str reads the
# thread's context.
_CONVERT = decimal.Context(capitals=1)


def _root_hint(n: int, x: int, bits: int = 0) -> Tuple[Union[float, decimal.Decimal, None],
                                                       Union[Fraction, decimal.Decimal]]:
    """An estimate of J's root in the solver bracket of (n, x) and a bound on
    its error, for ``bisect_root`` to start its exact search from; it decides
    no sign.  The estimate is None when there is none.

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
    That float comes with the error HINT_ERROR.

    Given ``bits`` > 0, :func:`_refine` carries a hint whose loop stopped on
    a small step to within 2**-bits of the root, starting with its last
    float slope, and its (hint, error) pair is returned unless it fails.
    """
    big = max(x, n - x)
    m = n - big
    lo, hi = (big + 1) / (n + 3), (big + 2) / (n + 3)
    ratios = [(n + 3 - k) * (m - k) / ((k + 1) * (m - k + 2)) for k in range(m)]
    a = (big + 1.5) / (n + 3)
    for _ in range(8):
        gap = (n + 3) * a - (big + 1)
        if not gap > 0:
            return None, HINT_ERROR
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
            break
        step = f / slope
        a = min(max(a - step, (a + lo) / 2), (a + hi) / 2)
        if abs(step) < 1e-9 * a:
            if bits:
                refined = _refine(n, big, a, slope, bits, big != x)
                if refined is not None:
                    return refined
            break
    return (a if big == x else 1.0 - a), HINT_ERROR


def _core_weights(ctx: decimal.Context, n: int, m: int) -> Tuple[decimal.Decimal, list]:
    """The weights 2 w_0 .. 2 w_m of the positive core form
    S(r) = sum_k w_k r^k of (n, n - m), w_0 = C(m+2, 2), made in ``ctx`` by
    the ratio recurrence w_(k+1)/w_k = (n+3-k)(m-k) / ((k+1)(m-k+2)), two
    roundings a step: 2 w_m and the rest from 2 w_(m-1) down, in the order
    Horner's rule reads them."""
    mul, div = ctx.multiply, ctx.divide
    weight = ctx.create_decimal((m + 2) * (m + 1))
    weights = [weight]
    for k in range(m):
        weight = div(mul(weight, (n + 3 - k) * (m - k)), (k + 1) * (m - k + 2))
        weights.append(weight)
    top = weights.pop()
    weights.reverse()
    return top, weights


def _refine(n: int, x: int, hint: float, slope: float, bits: int,
            mirror: bool) -> Optional[Tuple[decimal.Decimal, decimal.Decimal]]:
    """The float hint of the short side x >= n/2, carried to within 2**-bits
    of J's root, and a bound on its error; both are Decimals, the hint
    mirrored to 1 - hint when ``mirror``.  None if the iteration leaves the
    solver bracket, stops shrinking its steps, runs out of steps or hits a
    decimal trap.

    The root is the zero of t(a) = 2 a^(n+2) S(r) / ((m+1) gap) - 1, the
    balance equation as a ratio, with gap = (n+3) a - (x+1) and
    S(r) = sum_k w_k r^k the core form :func:`_root_hint` sums.  The
    iteration runs on d = (m+1) gap t = 2 a^(n+2) S(r) - (m+1) gap, which is
    J itself through the positive core form: the same zero, one division
    fewer.  Every operation runs in one local decimal context of ``digits``
    digits, never in the thread's: its precision follows ``bits``, not the
    caller's context (whose 28 default digits would stop the iteration near
    2**-93).  The weights 2 w_k are made once by the ratio recurrence, S by
    Horner's rule with one fused multiply-add per weight.  The first step
    divides d by (m+1) gap times the float ``slope``, the derivative of
    log(2 a^(n+2) S / ((m+1) gap)) and so of t at its zero; then secant
    steps run until one is below 2**-bits.  The secant converges with order
    1.6 from the float hint's 2**-46, so bit_length(bits) steps suffice.

    A value of d is rounded at most about 5m + 8 times, relative to either
    side, so the root it gives moves by under (8m + 16) units of
    10**(1 - digits) over |t'|, which is 3.6 at n = 1 and about 2n above.
    ``noise`` is ten times that bound and at most a tenth of 2**-bits.  The
    reported error is the last step plus ``noise``: the secant's new point
    is far closer to the root than the step that reached it.  Comparisons
    between Decimals are exact and round nothing.
    """
    m = n - x
    spent = len(str(8 * m + 16))
    digits = bits * 30103 // 100000 + spent + 4
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN,
                          Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                          capitals=1, clamp=0, flags=[], traps=_TRAPS)
    mul, div, sub, fma = ctx.multiply, ctx.divide, ctx.subtract, ctx.fma
    try:
        top, weights = _core_weights(ctx, n, m)

        def balance(a: decimal.Decimal) -> Tuple[decimal.Decimal, decimal.Decimal]:
            """(m+1) gap and d at a; ValueError if a is outside the
            bracket, where the sign of the fused gap is exact."""
            gap = fma(a, n + 3, -(x + 1))
            if not 0 < gap < 1:
                raise ValueError
            r = div(sub(1, a), a)
            s = top
            for w in weights:
                s = fma(s, r, w)
            side = mul(gap, m + 1)
            return side, fma(ctx.power(a, n + 2), s, ctx.minus(side))

        prev = decimal.Decimal.from_float(hint)
        side, d_prev = balance(prev)
        near = sub(prev, div(d_prev, mul(side, ctx.create_decimal_from_float(slope))))
        step = ctx.abs(sub(near, prev))
        limit = div(1, 1 << bits)
        for _ in range(bits.bit_length()):
            if step < limit:
                gap = fma(near, n + 3, -(x + 1))
                if not 0 < gap < 1:
                    return None
                noise = ctx.scaleb(1, spent + 2 - digits)
                # near has at most ``digits`` digits after the point and
                # exceeds 0.1, so 1 - near is exact.
                return (sub(1, near) if mirror else near), ctx.add(step, noise)
            d_near = balance(near)[1]
            new = sub(near, div(mul(d_near, sub(near, prev)), sub(d_near, d_prev)))
            new_step = ctx.abs(sub(new, near))
            if not new_step < step:
                return None
            prev, d_prev, near, step = near, d_near, new, new_step
        return None
    except (decimal.DecimalException, ValueError):
        return None


def _hint_bits(n: int, x: int, tol_ratio: Tuple[int, int]) -> int:
    """The bits to which a solve of (n, x) at the tol whose integer ratio is
    ``tol_ratio`` refines its hint; 0 for the float hint alone.

    ``bisect_root``'s grid on the solver bracket, of width 1/(n+3), has
    fine = K + 1 levels, so its fine cell is 1/((n+3) 2**fine) wide; within
    2**-bits, bits = fine + bit_length(n + 3) + 1, a hint is under half
    that cell, and the first pair around it encloses the root.  The hint is
    refined only where n * fine reaches _REFINE_MIN, that cell is narrower
    than HINT_ERROR and x != n/2: there the root 1/2 is the bracket's
    midpoint, on every level, and the float hint's first probe meets it.
    """
    tol_num, tol_den = tol_ratio
    hint_den = HINT_ERROR.denominator  # HINT_ERROR is 1/hint_den
    # The fine cell is at least tol/4 wide (on a bracket wider than tol), so
    # a tol of 4 HINT_ERROR or more refines nothing: a test that needs no
    # grid depth.
    if tol_num * hint_den >= tol_den << 2 or 2 * x == n:
        return 0
    fine = bisect_depth(1, n + 3, tol_num, tol_den) + 1
    if n * fine < _REFINE_MIN or (n + 3) << fine <= hint_den:
        return 0
    return fine + (n + 3).bit_length() + 1


# The crossover of _certify_bits: a solve decides its probes by the
# enclosure where n * bits + _CERTIFY_PER_TERM * min(x, n - x) reaches
# _CERTIFY_MIN.
_CERTIFY_MIN = 7_000
_CERTIFY_PER_TERM = 32


def _certify_bits(n: int, x: int, tol_ratio: Tuple[int, int], hint_bits: int) -> int:
    """The bit length of the fine grid's denominator (n+3) 2**fine, on which
    a solve of (n, x) at the tol whose integer ratio is ``tol_ratio`` decides
    its probes by :func:`_enclosure`; 0 where it evaluates them exactly.
    ``hint_bits`` is :func:`_hint_bits`'s for the same solve.

    The enclosure costs a solve about 4 Decimal operations per core
    coefficient, min(x, n - x) + 1 of them: 2 to build the weights once,
    rounded up, and one fused step per probe, for the two probes a solve
    makes (about 0.35 us each at 50-70 digits, 2-vCPU Linux host), plus
    about 0.05 ms for the contexts, the powers and the divisions.  The
    exact pair grows with n times bits, the size of its big products, and
    with the core's length, and builds the polynomial first.  Timed per
    solve (n 12-350, x from n/2 to n, tol 1e-12, 1e-13, 1e-15, 1e-30,
    1e-100 and 5e-324; best of 7, the two ways alternating), the enclosure
    won where

        n * bits + _CERTIFY_PER_TERM * min(x, n - x) >= _CERTIFY_MIN,

    by up to 11 times at 1e-100 and 3 times at 1e-30 (n = 300), and 1.1-1.7
    times at 1e-12 from n = 200 to 350, and lost by up to 1.6 times at
    1e-12 with n <= 100, below it; the losses above it, up to 12% at n = 12-16, x = n and
    5e-324, are at the rule's edge, where the core has one coefficient.  A
    solve counts only where its first pair is expected to end the search,
    so that no secant needs exact values: where the float hint is fine
    enough or the hint is refined, and never at x = n/2, whose root 1/2 the
    enclosure cannot decide.  A first test on ``tol``'s denominator alone,
    of which bits is at most the bit length plus 2, with min(x, n - x) at
    most n/2, keeps the solves far below the rule, every one at n <= 60 and
    1e-12, from any further work.
    """
    tol_num, tol_den = tol_ratio
    if n * (tol_den.bit_length() + 2) + _CERTIFY_PER_TERM * min(x, n - x) < _CERTIFY_MIN or 2 * x == n:
        return 0
    if not hint_bits and tol_num * HINT_ERROR.denominator < tol_den << 2:
        return 0
    bits = ((n + 3) << bisect_depth(1, n + 3, tol_num, tol_den) + 1).bit_length()
    return bits if n * bits + _CERTIFY_PER_TERM * min(x, n - x) >= _CERTIFY_MIN else 0


def _first_term_roundings(n: int, m: int) -> int:
    """E = 4m + 2n + 4: the most roundings, counted with multiplicity, that
    the first term of :func:`_bounds` on the core of length m + 1 passes
    through."""
    return 4 * m + 2 * n + 4


def _bounds(n: int, x: int, bits: int) -> Callable[[int, int], Tuple[decimal.Decimal, decimal.Decimal]]:
    """Directed-rounding bounds of J for (n, x): (u, v) -> (lo, hi) with
    lo <= J(u/v) <= hi, for u/v in the solver bracket and v of at most
    ``bits`` bits.  A decimal trap, here or in the evaluator, raises its
    DecimalException.

    On the short side x >= n/2, with m = n - x, r = (v - u)/u and
    G = (n+3)u - (x+1)v,

        J(u/v) = T - (m+1) G/v,   T = 2 a^(n+2) S(r),   a = u/v,

    S(r) = sum_k w_k r^k the positive core form that :func:`_root_hint` and
    :func:`_refine` sum.  Every factor of T is positive, so every operation
    on it is monotone, and one pass in a context that rounds toward +inf
    gives T_hi >= T.  The weights 2 w_k come from :func:`_core_weights`,
    once per solve; a^(n+2) is taken by square-and-multiply, each product
    rounded up, since a context's power is not guaranteed to round so.

    A lower bound of T follows from T_hi by an a-priori bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.1).  A
    result rounded up to ``digits`` digits is y (1 + d) with 0 <= d < eps,
    eps = 10**(1 - digits), for every positive y above the context's Emin,
    which no value here nears: a > 1/3 on the short side, so a^(n+2) >
    3**-(n+2).  Counted with multiplicity,
    so that a product adds its factors' counts and one more,
    T_hi <= T (1 + eps)**E with E = :func:`_first_term_roundings`:

    - 2 w_k by the recurrence takes 2k roundings (2 w_0 is an integer of
      far fewer than ``digits`` digits, exact), r^k takes k, and Horner's
      rule adds k + 1 to the term of w_k (m to that of w_m, which starts
      it), so a term of S takes at most 4k + 1 <= 4m - 3 for k < m, and
      4m for k = m: S takes at most 4m;
    - the power takes 2(n+2) - 1: a takes 1 = 2 * 1 - 1; a square of a^j
      within 2j - 1 takes 2(2j - 1) + 1 = 2(2j) - 1, each squaring doubling
      the count before it, and a product by a 2j - 1 + 1 + 1 = 2(j+1) - 1;
    - the product of the two takes 1.

    So E = 4m + 2(n+2) - 1 + 1 = 4m + 2n + 4 <= 4n + 4, as m <= n/2.  As
    E eps <= 1 and exp(t) <= 1 + 2t for 0 <= t <= 1, (1 + eps)**E <= 1 +
    2 E eps, and T_lo = T_hi / (1 + 2 E eps), rounded down, is at most T.
    The factor is made exactly from its digits, and divided in the
    context that rounds down: nothing here reads the thread's context.
    Then lo = T_lo - (m+1) G/v and hi = T_hi - (m+1) G/v, with (m+1) G/v
    rounded up in lo and down in hi, each difference rounded in its
    bound's direction.  Below n/2 the mirror identity gives
    J(u/v) = -(u'/u) J_{n,n-x}(u'/v) with u' = v - u, and the bounds of
    J_{n,n-x} are multiplied by -u'/u as an interval.  Both contexts are
    local, with _refine's exponent range and traps; negation is
    ``copy_negate``, which rounds nothing.

    Precision.  T_hi - T_lo is at most (2E + 1) eps T_hi, and the
    linear term's two roundings and the subtractions' add about 4 eps T
    more, so the bounds are under (8n + 16) eps times T apart, and T is
    about (m+1) G/v, below m + 1.  Next to the root, on a grid of
    denominator v, |J| is about |J'| / v at least, and |J'| is above
    m + 1, so the bounds exclude 0 once 10**digits exceeds (8n + 16) 10 v,
    and give |J|'s float, which needs 53 bits of |J| more, once it exceeds
    (8n + 16) 10 v 2**53.  ``digits`` carries bits + 93 bits, bits the bit
    length of v, plus the digits of 8n + 16 and 4 more: 40 bits beyond that
    need.  Two passes, one rounded each way, give a narrower interval, as a
    directed rounding's own error averages about a fifth of eps: this one
    is 4 to 30 times as wide (about 8 times in the median at n 100-3000),
    and spends 2 to 5 of those 40 bits.
    """
    big = max(x, n - x)
    m = n - big
    digits = (bits + 93) * 30103 // 100000 + len(str(8 * n + 16)) + 4
    low, high = (decimal.Context(prec=digits, rounding=rounding,
                                 Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                                 capitals=1, clamp=0, flags=[], traps=_TRAPS)
                 for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING))
    top, weights = _core_weights(high, n, m)
    # 1 + 2 E 10**(1 - digits), exact.
    scale = 10 ** (digits - 1) + 2 * _first_term_roundings(n, m)
    inflation = decimal.Decimal((0, tuple(map(int, str(scale))), 1 - digits))
    exponent = bin(n + 2)[3:]
    mul, div, fma = high.multiply, high.divide, high.fma
    mirror = big != x

    def bounds(u: int, v: int) -> Tuple[decimal.Decimal, decimal.Decimal]:
        if mirror:
            u = v - u
        r = div(v - u, u)
        s = top
        for w in weights:
            s = fma(s, r, w)
        a = div(u, v)
        power = a
        for bit in exponent:
            power = mul(power, power)
            if bit == "1":
                power = mul(power, a)
        term = mul(power, s)
        linear = (m + 1) * ((n + 3) * u - (big + 1) * v)
        lo = low.subtract(low.divide(term, inflation), high.divide(linear, v))
        hi = high.subtract(term, low.divide(linear, v))
        if mirror:
            return (high.divide(high.multiply(hi, u), v - u).copy_negate(),
                    low.divide(low.multiply(lo, u), v - u).copy_negate())
        return lo, hi

    return bounds


def _enclosure(n: int, x: int,
               bits: int) -> Optional[Callable[[int, int], Optional[Tuple[int, float]]]]:
    """A certified sign evaluator of J for (n, x), for ``bisect_root``'s
    ``certify``: (u, v) -> (sign, residual) of J at u/v from
    :func:`_bounds`, or None when those cannot decide them.

    The sign is the bounds' when they exclude 0; the residual |J| rounded
    to a float is float(|lo|) when that equals float(|hi|), since rounding
    to nearest is monotone.  Otherwise, at an exact root or a near-tie, the
    result is None and the caller evaluates J exactly; by the precision of
    :func:`_bounds` a near-tie is |J| within about 2**-40 of the grid
    cell's scale, or of a rounding boundary of the float.  A decimal trap
    gives None too, and while the weights are built, None for the evaluator
    itself: the solve then evaluates every probe exactly.
    """
    try:
        bounds = _bounds(n, x, bits)
    except decimal.DecimalException:
        return None

    def certify(u: int, v: int) -> Optional[Tuple[int, float]]:
        try:
            lo, hi = bounds(u, v)
        except decimal.DecimalException:
            return None
        if not (lo.is_signed() or lo.is_zero()):
            sign = 1
        elif hi.is_signed() and not hi.is_zero():
            sign = -1
        else:
            return None
        residual = float(_CONVERT.to_sci_string(lo.copy_abs()))
        if residual != float(_CONVERT.to_sci_string(hi.copy_abs())):
            return None
        return sign, residual

    return certify


def _bisect_estimate(value: Callable[[int, int], int], obs: BinomialObs,
                     tol: Union[float, Fraction], tol_ratio: Tuple[int, int],
                     label: object, certified: bool = False) -> Estimate:
    """Bisect the degree-(n+2) polynomial whose homogeneous evaluator is
    ``value`` on the solver bracket of ``obs``, from the hint of
    :func:`_root_hint`; ``tol_ratio`` is ``tol``'s integer ratio, as
    ``check_tol`` returned it.  The polynomial must fall through its root
    there, as J does, so that ``bisect_root`` evaluates the bracket ends
    only when it needs them.  If it is J itself and ``certified``, probes
    above the crossover of :func:`_certify_bits` are decided by
    :func:`_enclosure` first.  An absent sign change raises BracketFailure
    naming ``label``, formatted only then."""
    lo, hi = solver_bracket(obs)
    n, x = obs.n, obs.x
    hint_bits = _hint_bits(n, x, tol_ratio)
    near, error = _root_hint(n, x, hint_bits)
    try:
        # The first test of _certify_bits, inline and with min(x, n - x) at
        # most n/2: small solves make no call.
        if (certified
                and n * (tol_ratio[1].bit_length() + 2 + _CERTIFY_PER_TERM // 2) >= _CERTIFY_MIN
                and (bits := _certify_bits(n, x, tol_ratio, hint_bits))):
            return bisect_root(value, n + 2, lo, hi, tol=tol, near=near, near_error=error,
                               certify=_enclosure(n, x, bits))
        return bisect_root(value, n + 2, lo, hi, tol=tol, near=near, near_error=error)
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
    tol_ratio = check_tol(tol, obs)
    return _bisect_estimate(_estimating_value(obs), obs, tol, tol_ratio, obs, True)


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
    2(x+1) a^(x+3) is solved divided by 2, exactly: the geometric polynomial
    (x+1) - (x+4) a + (x+4) a^(x+2) - (x+1) a^(x+3), with J's root, bracket,
    iterations and orientation.  The division stays because the geometric
    estimate prints the residual on this scale, half of J's.
    """
    if x < 0:
        raise ValueError("geometric_estimate: x must be >= 0")
    label = f"geometric x={x}"
    tol_ratio = check_tol(tol, label)
    obs = BinomialObs(x + 1, x)
    value = _estimating_value(obs)
    return _bisect_estimate(lambda u, v: value(u, v) // 2, obs, tol, tol_ratio, label)


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
