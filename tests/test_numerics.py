"""Exactness and soundness of the rational/interval arithmetic layer."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph.numerics import (
    Interval,
    NegativeInput,
    Ordering,
    cmp_abs_sq,
    sqrt_enclose,
)
from lipgraph.selfsim import _root_quotient


def inside(enc, q):
    """Whether the exact value q lies in the enclosure enc."""
    return enc.lo <= q <= enc.hi


ZERO = Interval.point(0)


def rand_rational(rng, den=720, span=4):
    return F(rng.randrange(-span * den, span * den + 1), den)


class TestCmpAbsSq:
    def test_frozen_cases(self):
        assert cmp_abs_sq(F(1, 3), F(1, 9)) is Ordering.EQUAL
        assert cmp_abs_sq(F(1, 2), F(1, 3)) is Ordering.LESS
        assert cmp_abs_sq(F(3, 5), F(1, 3)) is Ordering.GREATER
        assert cmp_abs_sq(F(2, 3), F(4, 9)) is Ordering.EQUAL
        assert cmp_abs_sq(0, 0) is Ordering.EQUAL
        assert cmp_abs_sq(0, F(1, 100)) is Ordering.LESS

    def test_sign_insensitive(self):
        assert cmp_abs_sq(F(-1, 3), F(1, 9)) is Ordering.EQUAL
        assert cmp_abs_sq(F(1, 3), F(-1, 9)) is Ordering.EQUAL
        assert cmp_abs_sq(F(-2, 3), F(-4, 9)) is Ordering.EQUAL

    def test_matches_integer_cross_multiplication(self):
        rng = random.Random(101)
        for _ in range(500):
            a = rand_rational(rng)
            b = rand_rational(rng)
            lhs = a.numerator**2 * b.denominator
            rhs = abs(b.numerator) * a.denominator**2
            expect = (
                Ordering.LESS if lhs < rhs else Ordering.EQUAL if lhs == rhs else Ordering.GREATER
            )
            assert cmp_abs_sq(a, b) is expect

    def test_matches_float_sqrt_away_from_ties(self):
        rng = random.Random(202)
        for _ in range(300):
            a = rand_rational(rng)
            b = rand_rational(rng)
            fa, fb = abs(float(a)), math.sqrt(abs(float(b)))
            if abs(fa - fb) < 1e-9:
                continue
            expect = Ordering.LESS if fa < fb else Ordering.GREATER
            assert cmp_abs_sq(a, b) is expect


class TestSqrtEnclose:
    def test_exact_on_rational_squares(self):
        assert sqrt_enclose(F(4, 9)) == Interval.point(F(2, 3))
        assert sqrt_enclose(0) == Interval.point(0)
        assert sqrt_enclose(F(49, 4), F(1, 10)) == Interval.point(F(7, 2))
        assert sqrt_enclose(25) == Interval.point(5)

    def test_sqrt2_tight(self):
        e = sqrt_enclose(2, F(1, 10**12))
        assert e.width() <= F(1, 10**12)
        assert e.lo * e.lo <= 2 <= e.hi * e.hi
        assert abs(float(e.lo) - math.sqrt(2)) < 1e-11

    def test_errors(self):
        with pytest.raises(NegativeInput):
            sqrt_enclose(-1)
        with pytest.raises(ValueError):
            sqrt_enclose(2, 0)

    def test_soundness_random(self):
        rng = random.Random(303)
        for _ in range(300):
            x = abs(rand_rational(rng, den=997)) + F(rng.randrange(0, 3))
            width = F(1, 10 ** rng.randrange(3, 10))
            e = sqrt_enclose(x, width)
            assert e.lo >= 0
            assert e.lo * e.lo <= x <= e.hi * e.hi
            assert e.width() <= width


def root_quotient(num, denom_sq, width=F(1, 2**30)):
    """num / denom_sq ** (1/2) by four-candidate division through a root enclosure of width width * denom_sq.

    sqrt_enclose's root enclosure [r0, r1] has r1 - r0 <= width * denom_sq / 2, so while
    width <= denom_sq ** (-1/2) also r0 * r1 >= denom_sq / 2, and the quotient is at most
    |num| * width wide.  quotient_gap_floor divides by its roots this way.
    """
    return ref_truediv(Interval.point(num), sqrt_enclose(denom_sq, F(width) * denom_sq))


class TestQuotientEnclose:
    def test_exact_on_rational_roots(self):
        assert root_quotient(F(-1, 3), F(1, 9)) == Interval.point(-1)
        assert root_quotient(1, F(4, 9)) == Interval.point(F(3, 2))
        assert root_quotient(0, 7) == Interval.point(0)

    def test_inverse_root_five(self):
        e = root_quotient(1, 5, F(1, 10**9))
        # encloses 5 ** (-1/2): equivalent to 5 * lo**2 <= 1 <= 5 * hi**2
        assert 5 * e.lo**2 <= 1 <= 5 * e.hi**2
        assert e.width() <= F(1, 10**9)
        assert abs(float(e.lo) - 1 / math.sqrt(5)) < 1e-8

    def test_errors(self):
        with pytest.raises(NegativeInput):
            root_quotient(1, -4)

    def test_soundness_random(self):
        rng = random.Random(404)
        for _ in range(200):
            num = rand_rational(rng, den=991)
            den = abs(rand_rational(rng, den=983)) + F(1, 7)
            width = F(1, 10 ** rng.randrange(2, 8))
            e = root_quotient(num, den, width)
            assert e.width() <= abs(num) * width
            true = float(num) / math.sqrt(float(den))
            assert float(e.lo) - 1e-9 <= true <= float(e.hi) + 1e-9


class TestInterval:
    def test_validation_and_basics(self):
        with pytest.raises(ValueError):
            Interval(1, 0)
        i = Interval(F(1, 3), F(1, 2))
        assert i.width() == F(1, 6)
        assert i.midpoint() == F(5, 12)
        assert Interval.point(3).is_point()

    def test_arithmetic_frozen(self):
        a = Interval(F(1), F(2))
        b = Interval(F(-1), F(3))
        assert a + b == Interval(0, 5)
        assert a - b == Interval(-2, 3)
        assert -a == Interval(-2, -1)
        assert a + F(1, 2) == Interval(F(3, 2), F(5, 2))
        assert a.scale(F(-2)) == Interval(-4, -2)
        assert b.abs() == Interval(0, 3)

    def test_inside_ball(self):
        assert Interval(F(9, 10), F(11, 10)).inside_ball(1, F(1, 10))
        assert not Interval(F(9, 10), F(12, 10)).inside_ball(1, F(1, 10))

    def test_set_predicates(self):
        a = Interval(0, 2)
        assert a.intersects(Interval(2, 3))
        assert not a.intersects(Interval(F(5, 2), 3))

    def test_sound_under_sampling(self):
        rng = random.Random(505)
        for _ in range(200):
            a1, a2 = sorted(rand_rational(rng) for _ in range(2))
            b1, b2 = sorted(rand_rational(rng) for _ in range(2))
            a, b = Interval(a1, a2), Interval(b1, b2)
            for x in (a.lo, a.midpoint(), a.hi):
                for y in (b.lo, b.midpoint(), b.hi):
                    assert inside(a + b, x + y)
                    assert inside(a - b, x - y)
                    assert inside(Interval.max_of(a, b), max(x, y))
                    assert inside(Interval.min_of(a, b), min(x, y))
                    assert inside(a.abs(), abs(x))
                    q = rand_rational(rng, den=13)
                    assert inside(a.scale(q), x * q)
                    if b.lo > 0:
                        assert inside(_root_quotient(a, ZERO, b), x / y)


# ----------------------------------------------------------------------
# Reference bodies of Interval construction and of division by a positive
# Interval: Interval and `_root_quotient`, the package's one division by a
# root, must match them value for value and exception for exception.


def ref_interval(lo, hi):
    """(lo, hi) as Interval.__post_init__ stores them, by coercion and Fraction order."""
    lo, hi = F(lo), F(hi)
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    return lo, hi


def ref_truediv(x, other):
    """Division by a strictly positive interval as min/max of the four endpoint quotients."""
    if not isinstance(other, Interval):
        other = Interval.point(other)
    if other.lo <= 0:
        raise ZeroDivisionError(f"interval division needs a strictly positive denominator, got {other}")
    cands = (x.lo / other.lo, x.lo / other.hi, x.hi / other.lo, x.hi / other.hi)
    return Interval(min(cands), max(cands))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


class _Sub(F):
    pass


ENDPOINTS = [F(-7, 3), -2, F(-1, 9), 0, F(0), False, True, F(1, 3), _Sub(1, 3), 1, F(5, 2), 0.5, "2/7"]


def _stored(lo, hi):
    i = Interval(lo, hi)
    assert type(i.lo) is F and type(i.hi) is F
    return i.lo, i.hi


class TestIntervalReference:
    def test_construction(self):
        for lo in ENDPOINTS + [float("nan")]:
            for hi in ENDPOINTS:
                assert outcome(_stored, lo, hi) == outcome(ref_interval, lo, hi)

    def test_division(self):
        points = [F(-5, 2), F(-1, 3), 0, F(1, 7), F(4, 3)]
        xs = [Interval(a, b) for a in points for b in points if a <= b]
        divisors = [d for d in xs if d.lo > 0] + [Interval.point(F(2, 3)), Interval.point(3)]
        for x in xs:
            for y in (ZERO, Interval.point(F(-1, 3)), Interval(F(1, 7), F(4, 3))):
                for d in divisors:
                    assert _root_quotient(x, y, d) == ref_truediv(x - y, d)


rationals = st.fractions(-100, 100, max_denominator=10**6)


class TestIntervalProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=rationals, b=rationals, c=rationals.filter(lambda q: q > 0), d=rationals.filter(lambda q: q > 0))
    def test_division_is_min_max_of_four_quotients(self, a, b, c, d):
        x, y = Interval(min(a, b), max(a, b)), Interval(min(c, d), max(c, d))
        assert _root_quotient(x, ZERO, y) == ref_truediv(x, y)

    @settings(max_examples=300, deadline=None)
    @given(
        num=rationals,
        denom_sq=st.fractions(0, 100, max_denominator=10**6).filter(bool),
        width=st.sampled_from([F(1, 10), F(1, 10**6), F(1, 2**30), F(1, 10**12)]),
    )
    def test_quotient_enclose_contains_float_quotient(self, num, denom_sq, width):
        e = root_quotient(num, denom_sq, width)
        assert e.width() <= abs(num) * width
        # float(num) / sqrt(float(denom_sq)) takes four roundings, each within 2**-53 relative
        f = F(float(num) / math.sqrt(float(denom_sq)))
        slack = abs(f) * F(1, 2**50)
        assert e.lo - slack <= f <= e.hi + slack


# ----------------------------------------------------------------------
# Reference bodies of cmp_abs_sq, sqrt_enclose, Interval.point, abs and
# max_of, which coerce every argument and compare Fractions: the fast
# paths must match them value for value and exception for exception.


def ref_cmp_abs_sq(a, b):
    a, b = F(a), F(b)
    lhs = a.numerator * a.numerator * b.denominator
    rhs = abs(b.numerator) * a.denominator * a.denominator
    if lhs < rhs:
        return Ordering.LESS
    if lhs == rhs:
        return Ordering.EQUAL
    return Ordering.GREATER


def ref_sqrt_enclose(x, width=F(1, 2**30)):
    x, width = F(x), F(width)
    if x < 0:
        raise NegativeInput(f"sqrt of negative rational {x}")
    if width <= 0:
        raise ValueError("width must be positive")
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Interval.point(F(rp, rq))
    m = p * q
    t = -((-2 * width.denominator) // (width.numerator * q))
    k = (t - 1).bit_length() if t > 1 else 0
    s = math.isqrt(m << (2 * k))
    den = (1 << k) * q
    if s * s == m << (2 * k):
        return Interval.point(F(s, den))
    return Interval(F(s, den), F(s + 1, den))


def ref_point(q):
    q = F(q)
    return Interval(q, q)


def ref_abs(i):
    if i.lo >= 0:
        return i
    if i.hi <= 0:
        return Interval(-i.hi, -i.lo)
    return Interval(F(0), max(-i.lo, i.hi))


def ref_max_of(a, b):
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def exact(value):
    """A result with the type of every rational in it, so 1 and Fraction(1) differ."""
    if isinstance(value, Interval):
        return Interval, type(value.lo), value.lo, type(value.hi), value.hi
    return value


SCALARS = [F(-7, 3), -2, F(-1, 9), 0, F(0), False, True, F(1, 3), _Sub(1, 3), _Sub(4, 9), 1, F(4, 9), 2, F(5, 2),
           9, 0.5, 0.1, -0.25, float("nan"), "2/7", "9/4", None]
WIDTHS = [F(1, 2**30), F(1, 10), 1, F(3, 2), 0, F(0), -1, F(-1, 3), 0.25, "1/1000", _Sub(1, 8), True, False, None]


class TestFastPathReference:
    def test_cmp_abs_sq(self):
        for a in SCALARS:
            for b in SCALARS:
                assert outcome(cmp_abs_sq, a, b) == outcome(ref_cmp_abs_sq, a, b)

    def test_sqrt_enclose(self):
        xs = SCALARS + [F(2), F(77, 81), F(10**30 + 1, 7**20), F(1, 10**40)]
        for x in xs:
            for width in WIDTHS:
                got = outcome(sqrt_enclose, x, width)
                assert exact(got) == exact(outcome(ref_sqrt_enclose, x, width))
        for x in xs:
            assert exact(outcome(sqrt_enclose, x)) == exact(outcome(ref_sqrt_enclose, x))

    def test_point(self):
        for q in SCALARS:
            assert exact(outcome(Interval.point, q)) == exact(outcome(ref_point, q))

    def test_abs_and_max_of(self):
        ends = [F(-5, 2), F(-1, 3), 0, F(1, 7), F(4, 3)]
        xs = [Interval(a, b) for a in ends for b in ends if a <= b]
        for x in xs:
            assert exact(x.abs()) == exact(ref_abs(x))
            for y in xs:
                assert exact(Interval.max_of(x, y)) == exact(ref_max_of(x, y))

    @settings(max_examples=300, deadline=None)
    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_max_of_and_abs_properties(self, a, b, c, d):
        x, y = Interval(min(a, b), max(a, b)), Interval(min(c, d), max(c, d))
        assert Interval.max_of(x, y) == ref_max_of(x, y) == Interval.max_of(y, x)
        assert x.abs() == ref_abs(x)
