"""Exact arithmetic foundation: big-integer binomial coefficients, dense
univariate polynomials over rationals, and exact root bracketing.

Everything in this module is computed without rounding.  Scalars are
``fractions.Fraction`` (arbitrary precision, always in lowest terms with a
positive denominator), so identity checks elsewhere in the package can assert
equality instead of closeness.  The only approximations in the whole package
happen when a caller converts a final result to ``float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "Rational",
    "binomial",
    "ExactPoly",
    "sign_at",
    "eval_rational",
    "MAX_ITER",
    "check_tol",
    "RootBracket",
    "bisect_root",
]


def binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k) as an exact big integer.

    Out-of-range ``k`` (negative or above ``m``) yields 0, which keeps
    combinatorial sums free of explicit range guards.  ``m`` must be >= 0.
    """
    if m < 0:
        raise ValueError(f"binomial: m must be >= 0, got {m}")
    if k < 0 or k > m:
        return 0
    return math.comb(m, k)


class ExactPoly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` multiplies the i-th power of the variable; trailing zero
    coefficients are stripped, so the leading coefficient of a nonzero
    polynomial is nonzero and the zero polynomial has an empty tuple.
    Instances are immutable and hashable.  Evaluation at a Fraction (or int)
    point is exact; evaluation at a float runs the same Horner loop in float
    arithmetic.
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

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ExactPoly({list(self.coeffs)!r})"

    def __call__(self, point):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly([other])
        return self + (-other)

    def __rsub__(self, other) -> "ExactPoly":
        return (-self) + other

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

    def __pow__(self, exponent: int) -> "ExactPoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ExactPoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def compose(self, inner: "ExactPoly") -> "ExactPoly":
        """Substitute ``inner`` for the variable (Horner composition)."""
        result = ExactPoly()
        for c in reversed(self.coeffs):
            result = result * inner + ExactPoly([c])
        return result

    def antiderivative(self) -> "ExactPoly":
        """Antiderivative with zero constant term."""
        return ExactPoly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])


def _homogeneous_value(coeffs: Sequence[int], u: int, v: int) -> int:
    """v**d * p(u/v) for integer coefficients; exact big-integer arithmetic."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    vpow = 1
    for i in range(d - 1, -1, -1):
        vpow *= v
        acc = acc * u + coeffs[i] * vpow
    return acc


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


def check_tol(tol: Union[Rational, float], where: str) -> Fraction:
    """``tol`` as an exact Fraction; ValueError unless it is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{where}: tol must be positive and finite, got {tol}")
    return Fraction(tol)


@dataclass(frozen=True)
class RootBracket:
    """Result of exact bisection: the reported point, its enclosing interval
    with opposite polynomial signs at the ends, and the exact residual there
    (zero when the point is an exact rational root)."""

    value: Fraction
    lo: Fraction
    hi: Fraction
    iterations: int
    residual: Fraction


def bisect_root(
    coeffs: Sequence[int],
    lo: Rational,
    hi: Rational,
    tol: Union[Rational, float] = Fraction(1, 10**12),
) -> RootBracket:
    """Isolate the sign change of an integer-coefficient polynomial in (lo, hi).

    The endpoints must evaluate to nonzero values of opposite sign (ValueError
    otherwise).  The result is what bisection with exact rational midpoints
    gives when it halves the interval until it is narrower than ``tol``:
    after K halvings, the cell of width (hi - lo) / 2**K that holds the
    root, its midpoint with the exact residual there, and ``iterations``
    K + 1.  A grid point that is an exact root comes back as bisection meets
    it: with zero residual, and with the strict-sign interval bisection holds
    at that step as the bracket.

    The cell is found by quadratic interval refinement (Abbott, 2006) on
    the same grid instead of by K halvings.  A bracket [a, b] of grid
    indices is kept with the exact values of the polynomial at both ends.
    With span the largest power of two at most (b - a) / 2**e, the multiple
    of span nearest the zero of the secant through those values is probed,
    then its neighbour on the root's side; their exact signs narrow the
    bracket whether or not they enclose the root.  When they do, e doubles;
    otherwise e halves and the bracket is halved once.  The secant only
    chooses where to look, so every bracket is certified by exact signs; with
    one root in (lo, hi) the final cell, and so every field, is bisection's.
    For n <= 120 a solve of the package takes at most 15 exact evaluations
    (about 12 at tol 1e-12, 14 at 1e-30) where bisection takes K + 3, K
    being about 40 and 100 there; early probes, on multiples of a large
    span, are evaluated on a coarse grid with short integers.
    """
    tol = check_tol(tol, "bisect_root")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"bisect_root: need lo < hi, got {lo} >= {hi}")
    levels = ((hi - lo) // tol).bit_length()
    if levels > MAX_ITER:
        raise RuntimeError("bisect_root: iteration limit exceeded")

    # Grid point i is (base + i * step) / den.  Values are the polynomial
    # times den**degree, one positive factor for all, so secants are exact;
    # each is computed on the coarsest grid that holds the point.
    den = math.lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (den // lo.denominator) << levels
    step = hi.numerator * (den // hi.denominator) - (base >> levels)
    den <<= levels
    degree = len(coeffs) - 1

    def value(i: int) -> int:
        u = base + i * step
        shift = min((u & -u).bit_length() - 1, levels) if u else levels
        return _homogeneous_value(coeffs, u >> shift, den >> shift) << shift * degree

    def point(i: int) -> Fraction:
        return Fraction(base + i * step, den)

    a, b = 0, 1 << levels
    fa, fb = (value(a), value(b)) if coeffs else (0, 0)
    if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
        raise ValueError(
            f"bisect_root: no strict sign change over ({lo}, {hi}): "
            f"signs ({(fa > 0) - (fa < 0)}, {(fb > 0) - (fb < 0)})"
        )
    rising = fb > 0

    def cut(i: int) -> bool:
        """Narrow [a, b] to the side of grid point i that holds the root;
        True if the polynomial vanishes at i."""
        nonlocal a, b, fa, fb
        if a < i < b:
            fi = value(i)
            if fi == 0:
                return True
            if (fi > 0) == rising:
                b, fb = i, fi
            else:
                a, fa = i, fi
        return False

    def exact_root(m: int) -> RootBracket:
        # Bisection meets m after K - v halvings, v = 2-adic order of m.
        half = m & -m
        return RootBracket(point(m), point(m - half), point(m + half),
                           levels - half.bit_length() + 1, Fraction(0))

    e = 2
    while b - a > 1:
        width = b - a
        span = 1 << max(0, width.bit_length() - 1 - e)
        guess = a + fa * width // (fa - fb)
        p = (guess + span // 2) // span * span
        if cut(p):
            return exact_root(p)
        q = p - span if p >= b else p + span
        if cut(q):
            return exact_root(q)
        if b - a <= span:
            e *= 2
            continue
        e = max(1, e // 2)
        mid = (a + b) // 2
        if cut(mid):
            return exact_root(mid)
    mid = (point(a) + point(b)) / 2
    return RootBracket(mid, point(a), point(b), levels + 1,
                       abs(eval_rational(coeffs, mid)))
