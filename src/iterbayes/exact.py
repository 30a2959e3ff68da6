"""Exact arithmetic foundation: the one evaluator of integer polynomials at
rationals, exact root bracketing, and ``ExactPoly``, dense polynomials over
the rationals that the tests use as reference arithmetic (the package's own
checks run in integers).

That evaluator, ``_homogeneous_value``, runs a Horner loop on up to 64
coefficients and splits longer polynomials into balanced halves, so that they
cost a few large balanced products instead of d growing ones.  The split
applies the power of two in v by shifts, where it combines halves and in
each leaf term: on ``bisect_root``'s grid for n <= 800, v is (n+3)·2**k
with k up to 32-39 at tol 1e-12 and 92-99 at 1e-30, so most of each power
of v is a power of two.
``bisect_root`` works on bisection's grid refined once, so its residual is a
value the search has already computed.  One rule chooses its probes: each
pair that encloses the root doubles the grid levels the bracket holds, and a
float estimate of the root, when the caller has one, only sets where and on
which level the first pair falls; it decides no sign.  It takes the
polynomial as a homogeneous evaluator, value(u, v) = v**degree * P(u/v), so
that a caller can evaluate a sparse or mirrored form of it.  ``sign_at`` and
``eval_rational`` take the dense coefficient tuple; no package code calls
them.  The benchmark tracer wraps both by name, the tests use both, and
``bench/workloads.py`` calls ``sign_at`` to check that an estimate reported
with zero residual is an exact root.

Everything in this module is computed without rounding but the float residual
of ``bisect_root``, rounded once from an exact integer quotient.  Scalars are
``fractions.Fraction`` at the API boundary (arbitrary precision, always in
lowest terms with a positive denominator), so identity checks elsewhere in
the package can assert equality instead of closeness.  Inside ``bisect_root``
they are integers: it builds Fractions only for the Estimate it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from .types import METHOD_BISECTION, Estimate

Rational = Union[int, Fraction]

__all__ = [
    "Rational",
    "ExactPoly",
    "sign_at",
    "eval_rational",
    "MAX_ITER",
    "HINT_ERROR",
    "check_tol",
    "bisect_root",
]


class ExactPoly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` multiplies the i-th power of the variable; trailing zero
    coefficients are stripped, so the leading coefficient of a nonzero
    polynomial is nonzero and the zero polynomial has an empty tuple.
    Instances are immutable; evaluation (Horner) is exact at a rational point.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExactPoly({list(self.coeffs)!r})"

    def __call__(self, point):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-c for c in self.coeffs])

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            c = Fraction(other)
            return ExactPoly([c * a for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return ExactPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def compose(self, inner: "ExactPoly") -> "ExactPoly":
        """Substitute ``inner`` for the variable (Horner composition)."""
        result = ExactPoly()
        for c in reversed(self.coeffs):
            result = result * inner + ExactPoly([c])
        return result


# Up to _SPLIT_ABOVE coefficients one Horner loop is as fast as the split or
# faster; longer inputs split down to segments of at most _LEAF coefficients.
_SPLIT_ABOVE = 64
_LEAF = 32


def _homogeneous_value(coeffs: Sequence[int], u: int, v: int) -> int:
    """v**d * p(u/v) for integer coefficients; exact big-integer arithmetic.
    Passed v - u for v, it is v**d times sum_i coeffs[i] a^i (1-a)^(d-i) at
    a = u/v: the polynomial with Bernstein weights ``coeffs``.

    Up to _SPLIT_ABOVE coefficients this is one Horner loop, whose
    accumulator grows by the size of u at every step: O(d^2 b) for b-bit
    operands.  Longer inputs split in two balanced halves,

        H(c) = H(c_lo) * v**len(c_hi) + u**len(c_lo) * H(c_hi),

    recursively, so the large products are few, of balanced operands, and
    run in CPython's Karatsuba multiplication (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 2010, ch. 1).  There v = w * 2**k with w odd (k = 0
    at v = 0), and v**len(c_hi) is applied as w**len(c_hi) and a shift by
    k * len(c_hi), so a grid point's power of two costs no multiplication.
    The leaves do the same: the term c_i v**j is c_i w**j shifted by k * j.
    The split runs on long inputs, where c_i is large (the solver's core
    coefficients are products of two binomials, about 1,000 bits at
    n = 800), so the product with the odd part is the leaf's cost.  The
    short loop keeps plain powers of v: its products are small, and a shift
    there only adds interpreter work.  Each power of u and w is computed
    once per call.
    """
    d = len(coeffs) - 1
    if d < _SPLIT_ABOVE:
        acc = coeffs[d]
        vpow = 1
        for i in range(d - 1, -1, -1):
            vpow *= v
            acc = acc * u + coeffs[i] * vpow
        return acc
    k = (v & -v).bit_length() - 1 if v else 0
    w = v >> k
    leaf_wpows = [1]
    for _ in range(_LEAF):
        leaf_wpows.append(leaf_wpows[-1] * w)
    return _split_value(coeffs, 0, d + 1, u, w, k, leaf_wpows, {}, {})


def _split_value(coeffs: Sequence[int], start: int, stop: int, u: int, w: int, k: int,
                 leaf_wpows: list, upows: dict, wpows: dict) -> int:
    """H(coeffs[start:stop]) of :func:`_homogeneous_value` at v = w * 2**k,
    given w**0 .. w**_LEAF in ``leaf_wpows``; ``upows`` and ``wpows`` hold the
    powers of u and w made so far.  It recurses here, not through the module
    attribute, so that an evaluation is one call of _homogeneous_value."""
    length = stop - start
    if length <= _LEAF:
        acc = coeffs[stop - 1]
        for j, i in enumerate(range(stop - 2, start - 1, -1), 1):
            acc = acc * u + (coeffs[i] * leaf_wpows[j] << k * j)
        return acc
    half = length // 2
    rest = length - half
    if half not in upows:
        upows[half] = u ** half
    if rest not in wpows:
        wpows[rest] = w ** rest
    low = _split_value(coeffs, start, start + half, u, w, k, leaf_wpows, upows, wpows)
    high = _split_value(coeffs, start + half, stop, u, w, k, leaf_wpows, upows, wpows)
    return (low * wpows[rest] << k * rest) + upows[half] * high


def sign_at(coeffs: Sequence[int], point: Rational) -> int:
    """Exact sign (-1, 0, +1) of an integer-coefficient polynomial at a rational.

    Clears denominators and works purely in big integers, so the result is
    unconditional on floating-point behaviour.
    """
    if not coeffs:
        return 0
    q = Fraction(point)
    val = _homogeneous_value(coeffs, q.numerator, q.denominator)
    return (val > 0) - (val < 0)


def eval_rational(coeffs: Sequence[int], point: Rational) -> Fraction:
    """Exact value of an integer-coefficient polynomial at a rational point."""
    if not coeffs:
        return Fraction(0)
    q = Fraction(point)
    d = len(coeffs) - 1
    return Fraction(_homogeneous_value(coeffs, q.numerator, q.denominator),
                    q.denominator ** d)


# Depth limit of bisect_root's grid.  A tol at or below 2**-MAX_ITER times
# the starting width needs more than MAX_ITER halvings and raises
# RuntimeError before any evaluation.
MAX_ITER = 10_000

# The absolute error trusted in bisect_root's float hint ``near``: 64 units
# in the last place at 1.0.  Its first probe is on the coarsest of the grid
# levels fine, ceil(fine / 2), ... whose cell is at least this wide.
HINT_ERROR = Fraction(1, 2**46)


def check_tol(tol: Union[Rational, float], where: object) -> Tuple[int, int]:
    """``tol`` as its exact integer ratio; ValueError, led by ``where`` (only
    then formatted), unless ``tol`` is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{where}: tol must be positive and finite, got {tol}")
    return tol.as_integer_ratio()


def bisect_root(
    value: Callable[[int, int], int],
    degree: int,
    lo: Rational,
    hi: Rational,
    tol: Union[Rational, float] = Fraction(1, 10**12),
    *,
    near: Optional[float] = None,
) -> Estimate:
    """Isolate the sign change of a polynomial P of degree ``degree`` in
    (lo, hi), given as its homogeneous evaluator: ``value(u, v)`` is the
    integer v**degree * P(u/v) for integers u and v > 0.

    The endpoints must evaluate to nonzero values of opposite sign (ValueError
    otherwise).  The result is what bisection with exact rational midpoints
    gives when it halves the interval until it is narrower than ``tol``:
    after K halvings, the cell of width (hi - lo) / 2**K that holds the
    root as the Estimate's ``bracket``, its midpoint p/q as ``value_exact``,
    ``iterations`` K + 1 and the ``residual`` |P(p/q)| of the polynomial P:
    the integer |q**degree P(p/q)| over q**degree, rounded once by int true
    division, with no gcd to reduce the fraction.  A grid point that is an exact root
    comes back as bisection meets it: with zero residual, and with the
    strict-sign interval bisection holds at that step as the bracket.

    The cell is found by quadratic interval refinement (Abbott, 2006) on
    bisection's grid refined once, with fine = K + 1 halvings, instead of by
    K halvings.  A bracket [a, b] of grid indices is kept with the exact
    values of the polynomial at both ends, and a gain e.  With span the
    largest power of two at most (b - a) / 2**e, the multiple of span nearest
    a guess is probed, then its neighbour on the root's side; their exact
    signs narrow the bracket whether or not they enclose the root.  When they
    do, the bracket is narrower than two cells of grid level L = fine + 1 -
    bit_length(b - a), and e becomes L, so the next span is a cell of level
    2L: the bits known double per pair.  Otherwise e halves and the bracket
    is halved once.  The guess is the zero of the secant through the
    bracket's values, except for the first pair when ``near`` is given.  No
    guess decides a sign, so every bracket is certified by exact signs; with
    one root in (lo, hi) the final cell, and so every field, is bisection's.
    The search ends in a unit cell of the refined grid; its odd end is the
    midpoint of bisection's cell, whose value it already holds, so the
    residual costs no evaluation.

    ``lo``, ``hi`` and ``tol`` may each be an int, a float or a Fraction;
    each is read once as its exact integer ratio, so equal values of any
    types give the same result.  The search runs in integers and builds
    Fractions only for the returned Estimate.

    ``near``, a float estimate of the root, chooses where the search
    starts.  Inside (lo, hi) the first guess is the grid point nearest it,
    and e starts at the coarsest of the grid levels fine, ceil(fine / 2), ...
    whose cell is at least HINT_ERROR; without it e starts at 2.  A ``near``
    that is None, NaN or outside (lo, hi) is ignored.  For n <= 120 a solve
    of the package, which passes its float hint, takes at most 4 exact
    evaluations at tol 1e-12 and 8 at 1e-30 (14 and 16 without the hint)
    where bisection takes K + 3, K being about 40 and 100 there; early
    probes, on multiples of a large span, are evaluated on a coarse grid with
    short integers.  Each exact evaluation is one call of ``value``.
    """
    tol_num, tol_den = check_tol(tol, "bisect_root")
    lo_num, lo_den = lo.as_integer_ratio()
    hi_num, hi_den = hi.as_integer_ratio()
    # lo and hi are lo_u / lcm and hi_u / lcm.
    lcm = math.lcm(lo_den, hi_den)
    lo_u, hi_u = lo_num * (lcm // lo_den), hi_num * (lcm // hi_den)
    if not lo_u < hi_u:
        raise ValueError(f"bisect_root: need lo < hi, got {Fraction(lo)} >= {Fraction(hi)}")
    levels = ((hi_u - lo_u) * tol_den // (lcm * tol_num)).bit_length()
    if levels > MAX_ITER:
        raise RuntimeError("bisect_root: iteration limit exceeded")

    # Grid point i is (base + i * step) / den, on bisection's grid of K =
    # levels halvings refined once, so the midpoint of its last cell is a grid
    # point.  Values are the polynomial times den**degree, one positive factor
    # for all, so secants are exact; each is computed on the coarsest grid
    # that holds the point.
    fine = levels + 1
    base = lo_u << fine
    step = hi_u - lo_u
    den = lcm << fine

    def grid_value(i: int) -> int:
        u = base + i * step
        shift = min((u & -u).bit_length() - 1, fine) if u else fine
        return value(u >> shift, den >> shift) << shift * degree

    def point(i: int) -> Fraction:
        return Fraction(base + i * step, den)

    a, b = 0, 1 << fine
    fa, fb = grid_value(a), grid_value(b)
    if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
        raise ValueError(
            f"bisect_root: no strict sign change over ({Fraction(lo)}, {Fraction(hi)}): "
            f"signs ({(fa > 0) - (fa < 0)}, {(fb > 0) - (fb < 0)})"
        )
    rising = fb > 0

    def cut(i: int) -> bool:
        """Narrow [a, b] to the side of grid point i that holds the root;
        True if the polynomial vanishes at i."""
        nonlocal a, b, fa, fb
        if a < i < b:
            fi = grid_value(i)
            if fi == 0:
                return True
            if (fi > 0) == rising:
                b, fb = i, fi
            else:
                a, fa = i, fi
        return False

    def estimate(m: int, residual: float = 0.0) -> Estimate:
        # Bisection meets m at step fine - v, v the 2-adic order of m; an odd
        # m is the midpoint of its last cell, met at step K + 1.
        half, mid = m & -m, point(m)
        return Estimate(value=float(mid), method=METHOD_BISECTION,
                        iterations=fine - half.bit_length() + 1, residual=residual,
                        bracket=(point(m - half), point(m + half)), value_exact=mid)

    e, guess = 2, None
    if near is not None and math.isfinite(near):
        num, denom = near.as_integer_ratio()
        if lo_u * denom < num * lcm < hi_u * denom:
            # The coarsest of the levels fine, ceil(fine / 2), ... whose cell,
            # (hi - lo) / 2**e, is at least HINT_ERROR, and the grid index
            # nearest the hint.
            e = fine
            while (e > 1 and step * HINT_ERROR.denominator
                   < HINT_ERROR.numerator * lcm << e):
                e = -(-e // 2)
            guess = (2 * (num * den - base * denom) + denom * step) // (2 * denom * step)

    while b - a > 1:
        width = b - a
        span = 1 << max(0, width.bit_length() - 1 - e)
        if guess is None:
            guess = a + fa * width // (fa - fb)
        p = (guess + span // 2) // span * span
        guess = None
        if cut(p):
            return estimate(p)
        q = p - span if p >= b else p + span
        if cut(q):
            return estimate(q)
        if b - a <= span:
            # The bracket is under two cells of grid level e, the next span a
            # cell of level 2e.
            e = fine + 1 - (b - a).bit_length()
            continue
        e = max(1, e // 2)
        mid = (a + b) // 2
        if cut(mid):
            return estimate(mid)
    # The odd end of the unit cell [a, b] is the midpoint of bisection's last
    # cell, and its value is already known.  den**degree is lcm**degree
    # shifted: a power of den itself would square its zero bits too.
    m, fm = (a, fa) if a & 1 else (b, fb)
    return estimate(m, abs(fm) / (lcm**degree << fine * degree))
