"""Exact rational arithmetic and rational-endpoint interval arithmetic.

Everything downstream reduces numeric truth to two primitives:

* exact order tests, of two rationals or of a rational and the square
  root of one, decided by cross-multiplying (and squaring) integer
  numerators and denominators.  An Interval keeps its ends as integer
  ratios, ``ends = (ln, ld, hn, hd)`` with positive denominators that
  need not be reduced, and reduces an end to a Fraction only when it is
  read as ``lo`` or ``hi``; the hot paths read ``ends``, build results
  with `Interval.of_ratios`, and read a Fraction's pair with one
  `as_integer_ratio()` call (`abs_diff_ends` gives the ends of an
  interval difference as such integers), and
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

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[Fraction, int]


class NegativeInput(ValueError):
    """A square root of a negative rational was requested."""


_ZERO = Fraction(0)


class Interval:
    """Closed interval with exact rational endpoints.

    An Interval produced by any operation in this package is a sound
    enclosure: the true real value is guaranteed to lie inside it.
    Degenerate intervals (``lo == hi``) represent exactly known values.

    The one representation is ``ends = (ln, ld, hn, hd)``: the interval
    [ln/ld, hn/hd], four ints with positive denominators that need not
    be reduced.  ``lo`` and ``hi`` are the reduced Fractions, built on
    their first read and kept.  Equality is by value, the hash is that
    of (lo, hi), and assignment raises FrozenInstanceError.
    """

    __slots__ = ("ends", "_lo", "_hi")

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        object.__setattr__(self, "ends", lo.as_integer_ratio() + hi.as_integer_ratio())
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        self.__post_init__()

    @classmethod
    def of_ratios(cls, ln: int, ld: int, hn: int, hd: int) -> "Interval":
        """The interval [ln/ld, hn/hd] of four ints, ld and hd positive, with no Fraction built."""
        self = object.__new__(cls)
        object.__setattr__(self, "ends", (ln, ld, hn, hd))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        # Every construction runs this once; bench/tracer.py counts Intervals by wrapping it.
        ln, ld, hn, hd = self.ends
        if ld <= 0 or hd <= 0:
            raise ValueError(f"non-positive denominator: ends={self.ends}")
        if ln * hd > hn * ld:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def lo(self) -> Fraction:
        """The lower end as a reduced Fraction, built on the first read and kept."""
        try:
            return self._lo
        except AttributeError:
            object.__setattr__(self, "_lo", Fraction(self.ends[0], self.ends[1]))
            return self._lo

    @property
    def hi(self) -> Fraction:
        """The upper end as a reduced Fraction, built on the first read and kept."""
        try:
            return self._hi
        except AttributeError:
            object.__setattr__(self, "_hi", Fraction(self.ends[2], self.ends[3]))
            return self._hi

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        ln, ld, hn, hd = self.ends
        on, od, pn, pd = other.ends
        return ln * od == on * ld and hn * pd == pn * hd

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return Interval.of_ratios, self.ends

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
        ln, ld, hn, hd = self.ends
        return ln * hd == hn * ld

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
        # An operand that dominates at both ends is the result itself; the order tests read ends.
        aln, ald, ahn, ahd = a.ends
        bln, bld, bhn, bhd = b.ends
        if aln * bld >= bln * ald:
            return a if ahn * bhd >= bhn * ahd else Interval.of_ratios(aln, ald, bhn, bhd)
        return b if bhn * ahd >= ahn * bhd else Interval.of_ratios(bln, bld, ahn, ahd)

    @staticmethod
    def min_of(a: "Interval", b: "Interval") -> "Interval":
        aln, ald, ahn, ahd = a.ends
        bln, bld, bhn, bhd = b.ends
        lo = (aln, ald) if aln * bld <= bln * ald else (bln, bld)
        hi = (ahn, ahd) if ahn * bhd <= bhn * ahd else (bhn, bhd)
        return Interval.of_ratios(*lo, *hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def abs_diff_ends(a: Interval, b: Interval) -> tuple[int, int, int, int]:
    """The ends of ``(b - a).abs()`` as unreduced integer ratios (ln, ld, hn, hd), ld and hd positive.

    ``b - a = [b.lo - a.hi, b.hi - a.lo]``; each end is cross-multiplied
    from the `ends` of two endpoints, and the ends of its absolute value
    are picked by their signs as `Interval.abs` picks them, so no
    Fraction is built.
    """
    aln, ald, ahn, ahd = a.ends
    bln, bld, bhn, bhd = b.ends
    dln, dld = bln * ahd - ahn * bld, bld * ahd
    dhn, dhd = bhn * ald - aln * bhd, bhd * ald
    if dln >= 0:
        return dln, dld, dhn, dhd
    if dhn <= 0:
        return -dhn, dhd, -dln, dld
    if -dln * dhd >= dhn * dld:
        return 0, 1, -dln, dld
    return 0, 1, dhn, dhd


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
    p, q = x.as_integer_ratio()
    if p < 0:
        raise NegativeInput(f"sqrt of negative rational {x}")
    wn, wd = width.as_integer_ratio()
    if wn <= 0:
        raise ValueError("width must be positive")
    rp = isqrt(p)
    if rp * rp == p:
        rq = isqrt(q)
        if rq * rq == q:
            return Interval.of_ratios(rp, rq, rp, rq)
    # p/q is in lowest terms, so p*q*4**k is a square only if p and q are
    m = p * q
    t = -(-2 * wd // (wn * q))  # ceil(2 * wd / (wn * q))
    k = (t - 1).bit_length() if t > 1 else 0
    s = isqrt(m << (2 * k))
    den = (1 << k) * q
    return Interval.of_ratios(s, den, s + 1, den)
