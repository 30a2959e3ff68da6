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
there with sign tests that are exact, or proven by a fixed-point integer
enclosure (below), correct unconditionally on floating-point behaviour.  It
returns the bracket plain bisection of that interval would, found by
quadratic interval refinement on bisection's grid refined once
(``exact.bisect_root``), which isolates exactly such a falling sign change,
so it evaluates a bracket end only when a secant or the final cell needs it,
and checks its sign then: the cell it returns is still certified by two
exact or proven signs, and by the lemma above it holds the one root.  A
float Newton estimate of the root (``_float_hint``) chooses where that search
starts, but never decides a sign, so a solve takes at most 2 exact
evaluations at tol 1e-12 and 1e-13, residual included, instead of forty or
more (3 at x = n/2, where the first probe meets the root 1/2 and both
bracket ends are checked).  At finer tols a large enough solve refines that
estimate by secant steps in integers (``_refine``) to under half of
bisection's last cell, and again takes 2; smaller ones keep the float
estimate (at most 6 evaluations at 1e-30 for n <= 120).  Above a crossover
in n, tol and the core's length (``_certify_bits``), the two probes are
decided without exact evaluation: ``_enclosure`` bounds J between two
integers on one scale, computed on the cancellation-free positive core form
in one pass of floors, the upper bound from an a-priori bound on their
error (``_bounds``), and its sign is the bounds' when they exclude 0, its
residual their common float.  The refinement and the enclosure share that
evaluator, built once per solve at the float estimate.
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

# The absolute error trusted in the float hint of _float_hint: 64 units in
# the last place at 1.0.  On grids whose fine cell is narrower, large enough
# solves refine the hint in integers (_refine).
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

# The evaluator of _bounds: (u, v) -> (lo, hi, shift) or None.
_Bounds = Callable[[int, int], Optional[Tuple[int, int, int]]]


def _float_hint(n: int, x: int) -> Tuple[Optional[float], float]:
    """An estimate of J's root in the solver bracket of (n, x), trusted to
    within HINT_ERROR, for ``bisect_root`` to start its exact search from;
    it decides no sign.  Returns (hint, slope): the hint is None when there
    is none, and the slope is the short side's last float slope where the
    loop stopped on a small step, where :func:`_refine` may start, else 0.

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
    big = max(x, n - x)
    m = n - big
    lo, hi = (big + 1) / (n + 3), (big + 2) / (n + 3)
    ratios = [(n + 3 - k) * (m - k) / ((k + 1) * (m - k + 2)) for k in range(m)]
    a = (big + 1.5) / (n + 3)
    for _ in range(8):
        gap = (n + 3) * a - (big + 1)
        if not gap > 0:
            return None, 0.0
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
            return (a if big == x else 1.0 - a), slope
    return (a if big == x else 1.0 - a), 0.0


def _core_weights(n: int, m: int, r0: int, point: int, prec: int) -> Tuple[list, int]:
    """The weights W_k = 2 w_k (r0/2**point)**k, k = m down to 0, of the
    positive core form S(r) = sum_k w_k r^k of (n, n - m) folded at
    r0/2**point, w_0 = C(m+2, 2), in the order Horner's rule reads them, as
    integers on one scale 2**sigma: (weights, sigma), each at most W_k.

    W_(k+1) = W_k r0 (n+3-k)(m-k) / ((k+1)(m-k+2) 2**point), the ratio
    recurrence, runs on mantissa and exponent pairs: each step takes one
    floor, a mantissa of prec or prec + 1 bits, so a relative error below
    2**(1 - prec) (2 w_0 is exact); a short r0 keeps its products short.
    On the scale of the largest exponent plus 1 the largest weight's
    integer has prec - 1 or prec bits, and the alignment floors once more.
    """
    mantissa = (m + 2) * (m + 1)
    exponent = mantissa.bit_length() - prec
    mantissa <<= -exponent
    mantissas, exponents = [mantissa], [exponent]
    for k in range(m):
        t = mantissa * ((n + 3 - k) * (m - k)) * r0
        d = (k + 1) * (m - k + 2)
        drop = t.bit_length() - d.bit_length() - prec
        mantissa = (t >> drop if drop >= 0 else t << -drop) // d
        exponent += drop - point
        mantissas.append(mantissa)
        exponents.append(exponent)
    sigma = max(exponents) + 1
    return [w >> sigma - e for w, e in zip(reversed(mantissas), reversed(exponents))], sigma


def _ulps(n: int, m: int, total: int, prec: int) -> int:
    """E, the a-priori bound in units in the last place on how far
    :func:`_bounds`' first term falls below T, for the core of length m + 1
    whose aligned weights sum to ``total`` at ``prec`` bits; :func:`_bounds`
    derives it."""
    most = total + m + 1
    most += -(-4 * m * most >> prec)  # Sum >= (total + m + 1) / (1 - m delta)
    horner = 8 * (-(-3 * m * most >> prec) + 2 * m + 1)
    power = 2 * (2 * (n + 2) - 1) + 1
    return horner - (-power * (8 * most + horner) >> prec) + 1


def _bounds(n: int, x: int, hint: float, bits: int) -> _Bounds:
    """Fixed-point integer bounds of J on the short side x >= n/2, folded
    at the float ``hint`` of its root, a0: (u, v) -> (lo, hi, shift) with
    lo <= 2**shift J(u/v) <= hi, for u/v in the solver bracket, decided
    next to the root for v of at most ``bits`` bits; None where rho, below,
    is too far above 1.

    With m = n - x, r = (v - u)/u and a = u/v,

        J(u/v) = T + L,   T = a^(n+2) sum_k W_k rho^k,   L = (m+1)((x+1)v - (n+3)u)/v,

    where W_k = 2 w_k r0^k are the positive core form's weights, the ones
    :func:`_float_hint` sums, folded at r0 = R0/2**j, the hint's r rounded
    down to 30 bits, exact, and rho = r/r0 is near 1 at the probes; every
    mantissa carries P = bits + 96 + 2 bit_length(n+3) bits.  The weights
    are made once (:func:`_core_weights`); a probe makes one Horner pass
    s <- floor(s rho'/2**P) + W'_k with rho' = floor(2**P rho), takes
    a^(n+2) by square-and-multiply on mantissas renormalized to P bits by a
    floor, and T' = floor(p s/2**P),
    p the power's mantissa and e its exponent: T in units U = 2**-shift,
    shift = -(e + sigma + P).  Every rounding is the floor of a positive
    value, so each value is at most the true one, and T' <= T/U.  An
    a-priori bound E (:func:`_ulps`) gives T/U <= T' + E, and L/U is
    floored in lo and ceiled in hi by exact integer division:
    lo = T' + floor(L/U), hi = T' + E + ceil(L/U).

    E.  Let delta = 2**(1-P), under which every floor to a mantissa of at
    least 2**(P-1) falls relatively, and take weights in units 2**sigma.

    - W_k takes k floors of the recurrence and the alignment's, so
      W_k - W'_k < k delta W_k + 1, and the true weights sum to at most
      Sum = (total + m + 1)/(1 - m delta), total that of the W'_k.
    - A probe with rho' m > (m+2) 2**P is refused, so rho^i < (1 + 2/m +
      2**-P)^m < e^2 < 8 for i <= m (every probe of the solver bracket
      passes when a0 is in it), and the sum S is at most 8 Sum.
    - The Horner step from s_(k+1) to s_k floors once (under 1), and rho'
      is 2**-P under rho, so S - s_k <= rho (S_(k+1) - s_(k+1)) +
      s_(k+1) 2**-P + 1 + (W_k - W'_k).  Unrolled, with s_(k+1) rho^k at
      most 8 Sum and the k delta W_k rho^k summing to at most m delta 8 Sum,
      S - s <= 8 (3m Sum/2**P + 2m + 1) = H: 2m of the 3m are the weights'
      relative floors, m the m uses of rho', and 2m + 1 the m + 1 alignment
      floors and the m Horner floors.
    - a is floored once to P or P + 1 bits, and every product of
      square-and-multiply once to P bits.  Counted with multiplicity, a
      product adding its factors' counts and one, a takes 1, a squaring of
      a count c takes 2c + 1 and a product by a c + 2: a^(n+2) takes
      2(n+2) - 1 = 2n + 3 (one count per operation, 2 log2(n) or so, would
      undercount it, and the bounds miss J far from the root).  So
      p >= p*(1 - (2n+3) delta), p* the true mantissa, and p* - p <=
      2(2n+3) + 1 = C, as (2n+3)(4n+7) delta is far below 1.
    - With p < 2**P and s <= 8 Sum, p* S <= (p + C)(s + H) <= p s + 2**P H +
      C (8 Sum + H), and T/U = p* S/2**P < T' + 1 + H + C (8 Sum + H)/2**P
      <= T' + E.

    Precision.  Near the root rho is about 1, s about Sum >= 2**(P-2) and
    T' about s/2 or more, so E/T' is under (152n + 176)/2**P, and T is
    about -L, below m + 1.  There |J| exceeds about (m+1)/v, as |J'| is
    above m + 1, so the bounds exclude 0, and give |J|'s float, which needs
    53 bits of |J| more, with about 35 + bit_length(n+3) bits to spare.
    Near the root, e + sigma + P is negative; a probe where it is not, far
    outside the bracket, is refused too.
    """
    m = n - x
    prec = bits + 96 + 2 * (n + 3).bit_length()
    p, q = hint.as_integer_ratio()
    point = 30 + p.bit_length() - (q - p).bit_length()
    r0 = ((q - p) << point) // p
    weights, sigma = _core_weights(n, m, r0, point, prec)
    error = _ulps(n, m, sum(weights), prec)
    top, rest = weights[0], weights[1:]
    limit = (m + 2) << prec
    exponent = bin(n + 2)[3:]

    def bounds(u: int, v: int) -> Optional[Tuple[int, int, int]]:
        rho = ((v - u) << prec + point) // (u * r0)
        if m * rho > limit:
            return None
        s = top
        for w in rest:
            s = (s * rho >> prec) + w
        k = prec + v.bit_length() - u.bit_length()
        a = (u << k) // v
        power, e = a, -k
        for bit in exponent:
            power *= power
            drop = power.bit_length() - prec
            power >>= drop
            e = 2 * e + drop
            if bit == "1":
                power *= a
                drop = power.bit_length() - prec
                power >>= drop
                e += drop - k
        shift = -(e + sigma + prec)
        if shift < 0:
            return None
        t = power * s >> prec
        linear = (m + 1) * ((x + 1) * v - (n + 3) * u) << shift
        return t + linear // v, t + error - (-linear // v), shift

    return bounds


def _refine(n: int, x: int, bounds: _Bounds, hint: float, slope: float,
            bits: int) -> Optional[Tuple[Fraction, Fraction]]:
    """The float ``hint`` of the short side of (n, x) carried to within
    2**-bits of J's root, and a bound on its error, both Fractions, the
    hint mirrored to 1 - hint below x = n/2; None if the iteration leaves
    the solver bracket, stops shrinking its steps, runs out of steps or
    ``bounds``, the short side's :func:`_bounds`, refuses a point.

    It runs in integers, on dyadic points A/2**K with K = bits + 10, and
    takes J at each as the lower end of ``bounds``, brought to one shift
    where two values meet.  The first step is Newton's: J over (m+1) gap
    times the float ``slope``, the derivative of log(2 a^(n+2) S / ((m+1)
    gap)), gap = (n+3) a - (x+1).  Then secant steps run until one is below
    2**-bits; from the float hint's 2**-46, at order 1.6, bit_length(bits)
    steps suffice.  A point's floor moves it by under 2**-K, and the bounds'
    width moves J's zero by under that width over |J'|, above m + 1:
    ``noise``, ten times their sum, is about a hundredth of 2**-bits.  The
    reported error is the last step plus ``noise``: the secant's new point
    is far closer to the root than the step that reached it.
    """
    big = max(x, n - x)
    m = n - big
    prec = bits + 10
    one = 1 << prec
    num, den = hint.as_integer_ratio()
    prev = (num << prec) // den

    def value(a: int) -> Optional[Tuple[int, int, int]]:
        """The bounds of J at a/2**prec; None outside the bracket."""
        return bounds(a, one) if 0 < (n + 3) * a - (big + 1) * one < one else None

    got = value(prev)
    if got is None:
        return None
    d_prev, _, shift_prev = got
    num, den = slope.as_integer_ratio()
    gap = (n + 3) * prev - (big + 1) * one
    near = prev - (d_prev * den << 2 * prec) // ((m + 1) * gap * num << shift_prev)
    step = abs(near - prev)
    for _ in range(bits.bit_length()):
        if not step >> prec - bits:
            if not 0 < (n + 3) * near - (big + 1) * one < one:
                return None
            lo, hi, shift = got
            noise = 10 * (1 + ((hi - lo) << prec >> shift) // (m + 1))
            return Fraction(near if big == x else one - near, one), Fraction(step + noise, one)
        got = value(near)
        if got is None:
            return None
        d_near, _, shift = got
        top = max(shift, shift_prev)
        d_near, d_prev = d_near << top - shift, d_prev << top - shift_prev
        if d_near == d_prev:
            return None
        new = near - d_near * (near - prev) // (d_near - d_prev)
        new_step = abs(new - near)
        if not new_step < step:
            return None
        prev, d_prev, shift_prev, near, step = near, d_near, top, new, new_step
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

    The enclosure costs a solve, per core coefficient, min(x, n - x) + 1
    of them, one step of the weights' recurrence (about 0.45 us) and one
    integer Horner step per probe (about 0.15 us at 160-230 bits, 1.9 us at
    1,200; 2-vCPU Linux host), plus the powers and divisions.  The exact
    pair grows with n times bits, the size of its big products, and with
    the core's length, and builds the polynomial first.  Timed per solve
    with the Decimal enclosure this replaced (n 12-350, x from n/2 to n,
    tol 1e-12 to 5e-324; best of 7, alternating), the enclosure won where

        n * bits + _CERTIFY_PER_TERM * min(x, n - x) >= _CERTIFY_MIN,

    by up to 11 times at 1e-100 and 3 times at 1e-30 (n = 300) and 1.1-1.7
    times at 1e-12 (n = 200-350), and lost by up to 1.6 times at 1e-12 with
    n <= 100, below it, and by up to 12% at the rule's edge, x = n at
    5e-324 for n = 12-16, where the core has one coefficient.  The integer
    enclosure takes 0.79-0.92 of the exact pair's time there (n = 12-18)
    and 0.60-0.66 at n = 200-300, 1e-12; a lower crossover would reach
    solves at n <= 60 and 1e-12, so the rule stays.  A solve
    counts only where its first pair is expected to end the search, so
    that no secant needs exact values: where the float hint is fine enough
    or the hint is refined, and never at x = n/2, whose root 1/2 the
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


def _enclosure(n: int, x: int, bounds: _Bounds) -> Callable[[int, int], Optional[Tuple[int, float]]]:
    """A certified sign evaluator of J for (n, x), for ``bisect_root``'s
    ``certify``: (u, v) -> (sign, residual) of J at u/v from ``bounds``, the
    short side's :func:`_bounds`, or None when those cannot decide them.

    The sign is the bounds' when they exclude 0.  The residual |J| rounded
    to a float is |lo| 2**-shift rounded when that equals |hi| 2**-shift
    rounded, each rounded once by int true division, since rounding to
    nearest is monotone.  Below n/2 the mirror identity
    J(u/v) = -(u'/u) J_{n,n-x}(u'/v), u' = v - u, negates the sign and
    scales both ends by u'/u inside that division.  Otherwise, at an exact
    root or a near-tie, or where ``bounds`` refuses the point, the result
    is None and the caller evaluates J exactly; by the precision of
    :func:`_bounds` a near-tie is |J| within about 2**-35 of the grid
    cell's scale, or of a rounding boundary of the float.
    """
    mirror = 2 * x < n

    def certify(u: int, v: int) -> Optional[Tuple[int, float]]:
        num, den = (v - u, u) if mirror else (1, 1)
        got = bounds(v - u if mirror else u, v)
        if got is None:
            return None
        lo, hi, shift = got
        if lo > 0:
            sign = 1
        elif hi < 0:
            sign, lo, hi = -1, -hi, -lo
        else:
            return None
        den <<= shift
        residual = lo * num / den
        if residual != hi * num / den:
            return None
        return (-sign if mirror else sign), residual

    return certify


def _bisect_estimate(value: Callable[[int, int], int], obs: BinomialObs,
                     tol: Union[float, Fraction], tol_ratio: Tuple[int, int],
                     label: object, certified: bool = False) -> Estimate:
    """Bisect the degree-(n+2) polynomial whose homogeneous evaluator is
    ``value`` on the solver bracket of ``obs``, from the hint of
    :func:`_float_hint`, refined by :func:`_refine` where :func:`_hint_bits`
    asks; ``tol_ratio`` is ``tol``'s integer ratio, as ``check_tol``
    returned it.  The polynomial must fall through its root there, as J
    does, so that ``bisect_root`` evaluates the bracket ends only when it
    needs them.  If it is J itself and ``certified``, probes above the
    crossover of :func:`_certify_bits` are decided by :func:`_enclosure`
    first.  The refinement and the enclosure share one :func:`_bounds`,
    built from the float hint only where either runs.  An absent sign
    change raises BracketFailure naming ``label``, formatted only then."""
    lo, hi = solver_bracket(obs)
    n, x = obs.n, obs.x
    hint_bits = _hint_bits(n, x, tol_ratio)
    # The first test of _certify_bits, inline and with min(x, n - x) at
    # most n/2: small solves make no call.
    bits = (certified
            and n * (tol_ratio[1].bit_length() + 2 + _CERTIFY_PER_TERM // 2) >= _CERTIFY_MIN
            and _certify_bits(n, x, tol_ratio, hint_bits))
    near, slope = _float_hint(n, x)
    error, certify = HINT_ERROR, None
    if near is not None and (bits or hint_bits and slope):
        big = max(x, n - x)
        # The short side's hint, exact: near or, below n/2, 1 - near, a float
        # above 1/2 (x != n/2 here) whose complement is a float too.
        a = near if big == x else 1.0 - near
        bounds = _bounds(n, big, a, max(bits, hint_bits))
        if hint_bits and slope:
            near, error = _refine(n, x, bounds, a, slope, hint_bits) or (near, error)
        if bits:
            certify = _enclosure(n, x, bounds)
    try:
        return bisect_root(value, n + 2, lo, hi, tol=tol, near=near, near_error=error,
                           certify=certify)
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
