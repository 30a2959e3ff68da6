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

    @classmethod
    def monomial(cls, power: int, coeff: Rational = 1) -> "ExactPoly":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls([0] * power + [coeff])

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

    def derivative(self) -> "ExactPoly":
        return ExactPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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


@dataclass(frozen=True)
class RootBracket:
    """Result of exact bisection: the reported point, its enclosing interval
    with opposite polynomial signs at the ends, the exact residual there, and
    whether the point is an exact rational root."""

    value: Fraction
    lo: Fraction
    hi: Fraction
    iterations: int
    residual: Fraction
    exact: bool


def bisect_root(
    coeffs: Sequence[int],
    lo: Rational,
    hi: Rational,
    tol: Union[Rational, float] = Fraction(1, 10**12),
    max_residual: Union[Rational, float, None] = None,
    max_iter: int = 10_000,
) -> RootBracket:
    """Isolate the sign change of an integer-coefficient polynomial in (lo, hi).

    The endpoints must evaluate to nonzero values of opposite sign (ValueError
    otherwise).  Bisection proceeds with exact rational midpoints and exact
    big-integer sign tests until the interval is narrower than ``tol``; when
    ``max_residual`` is given, refinement continues until the exact value of
    the polynomial at the reported midpoint is no larger in magnitude.  A
    midpoint that is an exact root is returned as such, with zero residual and
    the last strict-sign interval as the bracket.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"bisect_root: need lo < hi, got {lo} >= {hi}")
    s_lo = sign_at(coeffs, lo)
    s_hi = sign_at(coeffs, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError(
            f"bisect_root: no strict sign change over ({lo}, {hi}): "
            f"signs ({s_lo}, {s_hi})"
        )
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("bisect_root: tol must be positive")
    res_limit = None if max_residual is None else Fraction(max_residual)

    iterations = 0
    while hi - lo >= tol:
        iterations += 1
        if iterations > max_iter:
            raise RuntimeError("bisect_root: iteration limit exceeded")
        mid = (lo + hi) / 2
        s = sign_at(coeffs, mid)
        if s == 0:
            return RootBracket(mid, lo, hi, iterations, Fraction(0), True)
        if s == s_lo:
            lo = mid
        else:
            hi = mid

    # Width target met; now pin the residual at the reported midpoint, using
    # each exact evaluation to keep shrinking if a residual target was asked.
    while True:
        iterations += 1
        if iterations > max_iter:
            raise RuntimeError("bisect_root: iteration limit exceeded")
        mid = (lo + hi) / 2
        val = eval_rational(coeffs, mid)
        if val == 0:
            return RootBracket(mid, lo, hi, iterations, Fraction(0), True)
        if res_limit is None or abs(val) <= res_limit:
            return RootBracket(mid, lo, hi, iterations, abs(val), False)
        if (val > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
