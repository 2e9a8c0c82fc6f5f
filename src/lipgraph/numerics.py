"""Exact rational arithmetic and rational-endpoint interval arithmetic.

Everything downstream reduces numeric truth to two primitives:

* exact order tests between a rational and the square root of a rational,
  decided by integer cross multiplication (`cmp_abs_sq`), and
* certified enclosures of square roots, produced from `math.isqrt` at a
  caller-chosen width (`sqrt_enclose`).  A quotient by a root divides
  each endpoint of the numerator by one endpoint of that enclosure: a
  nonnegative lower end by the root's upper end, a negative one by its
  lower end, and the other way round for the upper end
  (`selfsim._root_quotient`).

No floating point enters any verdict.  Floats appear only in display
helpers and performance heuristics elsewhere in the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[Fraction, int]


class NegativeInput(ValueError):
    """A square root of a negative rational was requested."""


class Ordering(enum.Enum):
    """Result of an exact three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def cmp_abs_sq(a: RationalLike, b: RationalLike) -> Ordering:
    """Exact order of ``a**2`` versus ``abs(b)``.

    Equivalently, the order of ``abs(a)`` versus ``abs(b) ** (1/2)``,
    decided without ever forming the root.  Both arguments are rationals;
    the comparison cross-multiplies integers and is always conclusive.
    """
    if type(a) is not Fraction:
        a = Fraction(a)
    if type(b) is not Fraction:
        b = Fraction(b)
    lhs = a.numerator * a.numerator * b.denominator
    rhs = abs(b.numerator) * a.denominator * a.denominator
    if lhs < rhs:
        return Ordering.LESS
    if lhs == rhs:
        return Ordering.EQUAL
    return Ordering.GREATER


_ZERO = Fraction(0)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints.

    An Interval produced by any operation in this package is a sound
    enclosure: the true real value is guaranteed to lie inside it.
    Degenerate intervals (``lo == hi``) represent exactly known values.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = Fraction(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
            object.__setattr__(self, "hi", hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")

    @classmethod
    def point(cls, q: RationalLike) -> "Interval":
        if type(q) is not Fraction:
            q = Fraction(q)
        return cls(q, q)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def intersects(self, other: "Interval") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def inside_ball(self, center: RationalLike, tol: RationalLike) -> bool:
        """Certified ``|self - center| <= tol`` (true for every point of self)."""
        center = Fraction(center)
        tol = Fraction(tol)
        return center - tol <= self.lo and self.hi <= center + tol

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def _coerce(self, other: Union["Interval", RationalLike]) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other: Union["Interval", RationalLike]) -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, other: Union["Interval", RationalLike]) -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def scale(self, q: RationalLike) -> "Interval":
        q = Fraction(q)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def abs(self) -> "Interval":
        lo, hi = self.lo, self.hi
        if lo.numerator >= 0:
            return self
        if hi.numerator <= 0:
            return Interval(-hi, -lo)
        return Interval(_ZERO, max(-lo, hi))

    @staticmethod
    def max_of(a: "Interval", b: "Interval") -> "Interval":
        # An operand that dominates at both ends is the result itself.
        if a.lo >= b.lo:
            return a if a.hi >= b.hi else Interval(a.lo, b.hi)
        return b if b.hi >= a.hi else Interval(b.lo, a.hi)

    @staticmethod
    def min_of(a: "Interval", b: "Interval") -> "Interval":
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def sqrt_enclose(x: RationalLike, width: RationalLike = Fraction(1, 2**30)) -> Interval:
    """Enclosure of ``x ** (1/2)`` of width at most ``width``.

    Exact (degenerate) whenever x is the square of a rational; sound
    outward enclosure otherwise.  The root of p/q is computed as
    isqrt(p*q*4**k) / (2**k * q), with k chosen so the unit step of the
    integer square root is at most width/2.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    if type(width) is not Fraction:
        width = Fraction(width)
    p, q = x.numerator, x.denominator
    if p < 0:
        raise NegativeInput(f"sqrt of negative rational {x}")
    if width.numerator <= 0:
        raise ValueError("width must be positive")
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Interval.point(Fraction(rp, rq))
    m = p * q
    t = _ceil_div(2 * width.denominator, width.numerator * q)
    k = (t - 1).bit_length() if t > 1 else 0
    s = isqrt(m << (2 * k))
    den = (1 << k) * q
    if s * s == m << (2 * k):
        return Interval.point(Fraction(s, den))
    return Interval(Fraction(s, den), Fraction(s + 1, den))
