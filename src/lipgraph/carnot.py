"""Exponential-coordinate arithmetic for the first Heisenberg group times a line.

Points of H¹ × ℝ carry four scalar coordinates (x, y, t, r), with x, y
and t in Q and r an Interval; the group law is

    (x, y, t, r) * (x', y', t', r')
        = (x + x', y + y', t + t' + (x y' - y x') / 2, r + r')

so r is a central coordinate and inversion negates everything.  The
homogeneous dilation scales t quadratically, and the max norm

    |(x, y, t, r)| = max(|x|, |y|, |t| ** (1/2), |r|)

is used throughout; under it the cone constant is 1 (see `cone_gap`).

The vertical subgroup W is {x = 0, r = 0} and the horizontal line V is
spanned by the unit r direction.  A point of W is named by its t
coordinate through `beta`, and the intrinsic graph of the rough profile
from `selfsim` sends w to w * (u(beta(w)) * v0), which in coordinates
just fills the r slot with an enclosure of u.

A `GroupPoint` is a named tuple of the four coordinates, cheap to build
in bulk.  Its fields are read-only and equal points hash alike; the
tuple's concatenation, repetition and ordering are turned off, so
`p + q` raises TypeError.

The r coordinate is an Interval rather than a rational because graph
points carry certified enclosures of the profile; group operations
propagate those enclosures soundly and exactly cancel the rational
coordinates, which is what makes the blow-up sampler rigorous.

On graph points x = 0, so the twist x y' - y x' of a product of graph
points vanishes; `mul` skips a twist product with a zero factor and does
not add an x of 0, `inv` does not negate one, and `hnorm` takes |y|
exactly (and |x| only when x is not 0).  Points of W carry the module's
one shared zero r slot: `inv` does not negate it, `mul` returns the
other factor's Interval r unchanged when one r slot is that zero (and
the zero itself when both are), `hnorm` does not take the max with it,
and `beta` tests it by identity before it compares.  Other r slots
equal to 0 take the general path.  So the cone campaign does no
arithmetic on terms that are 0 and roots only |t|; `cone_gap` reads the
v part from the integer numerators and denominators of the four r
endpoints and takes its norm width (2/3)**depth from a per-depth
cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Sequence

from .numerics import Interval, RationalLike, abs_diff_ends, sqrt_enclose
from .selfsim import UNIT_CURVE, reduce_domain

_FZERO = Fraction(0)
_ZERO = Interval.point(_FZERO)
_TWO_THIRDS = Fraction(2, 3)
_BISECTION_STEPS = 200


class NotInW(ValueError):
    """Point is not in the vertical subgroup {x = 0, r = 0}."""


class NotGraphPoints(ValueError):
    """Operation requires points with vanishing x part."""


class NonPositiveLambda(ValueError):
    """Dilations require a strictly positive factor."""


class NotBracketed(ValueError):
    """Quotient equation endpoints do not straddle the target."""


class TolTooTight(ValueError):
    """No quotient enclosure or rational blow-up scale meets tol within QUOTIENT_MAX_DEPTH."""


# Deepest descent _quotient_within takes to meet a requested width.
QUOTIENT_MAX_DEPTH = 256


class GroupPoint(NamedTuple):
    """Group element in exponential coordinates; see module docstring."""

    x: Fraction
    y: Fraction
    t: Fraction
    r: Interval

    # A point is no sequence: p + q, p * n and p < q raise TypeError, not act on the tuple.
    __add__ = __mul__ = __rmul__ = None
    __lt__ = __le__ = __gt__ = __ge__ = None


def mul(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    px, py, qx, qy = p.x, p.y, q.x, q.y
    t = p.t + q.t
    twist = (px * qy if px and qy else 0) - (py * qx if py and qx else 0)
    if twist:
        t += twist / 2
    # Adding a Fraction 0 to a Fraction is skipped; other types add, for the sum's type.
    x = px if type(px) is type(qx) is Fraction and not qx else px + qx
    # Adding the shared zero r slot to an Interval is skipped; other slots add, for the sum's type.
    pr, qr = p.r, q.r
    if qr is _ZERO and type(pr) is Interval:
        r = pr
    elif pr is _ZERO and type(qr) is Interval:
        r = qr
    else:
        r = pr + qr
    return GroupPoint(x, py + qy, t, r)


def inv(p: GroupPoint) -> GroupPoint:
    x, r = p.x, p.r
    return GroupPoint(x if type(x) is Fraction and not x else -x, -p.y, -p.t, r if r is _ZERO else -r)


def dilate(lam: RationalLike, p: GroupPoint) -> GroupPoint:
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"dilation factor must be positive, got {lam}")
    return GroupPoint(lam * p.x, lam * p.y, lam * lam * p.t, p.r.scale(lam))


def hnorm(p: GroupPoint, width: RationalLike = Fraction(1, 2**30)) -> Interval:
    """Enclosure of the homogeneous max norm of p.

    |x| and |y| are exact; only the root of |t| is enclosed, with width
    at most width, and it is exact whenever |t| is a rational square.
    """
    if type(width) is not Fraction:
        width = Fraction(width)
    if width.numerator <= 0:
        raise ValueError("width must be positive")
    x, y = p.x, p.y
    nxy = abs(y) if type(x) is Fraction and not x else max(abs(x), abs(y))
    if type(nxy) is not Fraction:
        nxy = Fraction(nxy)
    nt = sqrt_enclose(abs(p.t), width)
    # Interval.max_of(Interval.point(nxy), nt), building only the result
    if nxy < nt.lo:
        norm = nt
    elif nxy < nt.hi:
        norm = Interval(nxy, nt.hi)
    else:
        norm = Interval(nxy, nxy)
    r = p.r
    return norm if r is _ZERO else Interval.max_of(norm, r.abs())


def beta(w: GroupPoint) -> Fraction:
    """The t coordinate of a vertical-subgroup point, its profile argument."""
    r = w.r
    if w.x or (r is not _ZERO and r != _ZERO):
        raise NotInW(f"point has x={w.x}, r={w.r}")
    return w.t


def w_point(y: RationalLike = 0, t: RationalLike = 0) -> GroupPoint:
    """Convenience constructor for vertical-subgroup points."""
    if type(y) is not Fraction:
        y = Fraction(y)
    if type(t) is not Fraction:
        t = Fraction(t)
    return GroupPoint(_FZERO, y, t, _ZERO)


def graph_point(w: GroupPoint, depth: int) -> GroupPoint:
    """Intrinsic graph point over w: fill the r slot with an enclosure of u(beta(w)).

    The profile argument is folded into [0, 1] by the even, 2-periodic
    extension, so w may sit anywhere on the vertical subgroup.
    """
    return GroupPoint(w.x, w.y, w.t, UNIT_CURVE.eval_limit(reduce_domain(beta(w)), depth))


def cone_gap(p: GroupPoint, q: GroupPoint, depth: int) -> Interval:
    """Enclosure of |w-part| - |v-part| for p**(-1) * q, graph points p, q.

    Nonnegativity of this gap for all pairs of graph points is the cone
    condition with constant 1 under the max norm: the vertical part of
    the displacement never exceeds its horizontal part.  The enclosure
    width is controlled by depth through the norm width (2/3)**depth and
    by the widths the points' r slots already carry.

    r is central, so the w part of p**(-1) * q is the product of the w
    parts of p and q, whose r slots are the shared zero: `inv` and `mul`
    do no arithmetic on them and `hnorm` does not read them.  The v part
    |q.r - p.r| is read from integer cross-multiples of the four
    endpoints of the Interval r slots (`numerics.abs_diff_ends`), and
    each end of the gap is one Fraction.
    """
    if p.x or q.x:
        raise NotGraphPoints("cone gap is defined for graph points, which have x = 0")
    wp, wq = GroupPoint(p.x, p.y, p.t, _ZERO), GroupPoint(q.x, q.y, q.t, _ZERO)
    norm = hnorm(mul(inv(wp), wq), _norm_width(depth))
    # |q.r - p.r| = [an / ad, bn / bd]
    an, ad, bn, bd = abs_diff_ends(p.r, q.r)
    lo, hi = norm.lo, norm.hi
    return Interval(
        Fraction(lo.numerator * bd - bn * lo.denominator, lo.denominator * bd),
        Fraction(hi.numerator * ad - an * hi.denominator, hi.denominator * ad),
    )


@lru_cache(maxsize=16, typed=True)
def _norm_width(depth: int) -> Fraction:
    """The norm width (2/3)**max(depth, 1) of cone_gap, computed once per depth (and per type of depth)."""
    return _TWO_THIRDS ** max(depth, 1)


def blowup_profile(
    t_hat: RationalLike,
    lam: RationalLike,
    h: RationalLike,
    depth: int,
) -> Interval:
    """Enclosure of the rescaled profile lam * (u(t_hat + h / lam**2) - u(t_hat)).

    This is the r coordinate of the blown-up graph over the offset
    h * w0, equal to sgn(h) * |h| ** (1/2) * q(t_hat + h / lam**2, t_hat).
    """
    t_hat = Fraction(t_hat)
    lam = Fraction(lam)
    h = Fraction(h)
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    us = UNIT_CURVE.eval_limit(reduce_domain(t_hat + h / (lam * lam)), depth)
    ut = UNIT_CURVE.eval_limit(reduce_domain(t_hat), depth)
    return (us - ut).scale(lam)


def blowup_graph_sample(
    p_hat: GroupPoint,
    lam: RationalLike,
    grid: Sequence[GroupPoint],
    depth: int,
) -> list[GroupPoint]:
    """Sample the graph blown up at p_hat with factor lam over a W grid.

    Each grid point w maps to dilate(lam, p_hat**(-1) * G(w_hat * dilate(1/lam, w)))
    where G is the graph map and w_hat the vertical part of p_hat.  The
    rational coordinates cancel exactly, so the result carries the grid
    point's own W coordinates and an enclosure of the rescaled profile
    in the r slot.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    if p_hat.x:
        raise NotGraphPoints("blow-up base point must be a graph point")
    w_hat = GroupPoint(p_hat.x, p_hat.y, p_hat.t, _ZERO)
    p_inv = inv(p_hat)
    inv_lam = 1 / lam
    out = []
    for w in grid:
        beta(w)
        base = mul(w_hat, dilate(inv_lam, w))
        g = graph_point(base, depth)
        out.append(dilate(lam, mul(p_inv, g)))
    return out


def _quotient_within(t_hat: Fraction, s: Fraction, width: Fraction) -> Interval:
    """Enclosure of q(t_hat + s, t_hat) no wider than width, doubling the depth from 16.

    Past QUOTIENT_MAX_DEPTH the last, overwide enclosure is returned.
    """
    depth = 16
    best = UNIT_CURVE.diff_quotient(t_hat + s, t_hat, depth)
    while best.width() > width and depth < QUOTIENT_MAX_DEPTH:
        depth *= 2
        best = UNIT_CURVE.diff_quotient(t_hat + s, t_hat, depth)
    return best


def solve_quotient(
    t_hat: RationalLike,
    target: RationalLike,
    bracket: tuple[RationalLike, RationalLike],
    tol: RationalLike,
) -> Fraction:
    """Positive offset s with certified |q(t_hat + s, t_hat) - target| <= tol.

    The bracket holds two positive offsets.  Endpoints are tried first,
    then certified bisection runs on enclosures of width at most tol / 2,
    so every branch decision and the final acceptance are interval-sound.
    Raises NotBracketed when neither endpoint qualifies and their
    enclosures do not straddle the target; raises TolTooTight when
    QUOTIENT_MAX_DEPTH cannot deliver the needed enclosure width.
    """
    t_hat = Fraction(t_hat)
    target = Fraction(target)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    if a > b:
        a, b = b, a
    if a == b:
        raise NotBracketed("bracket endpoints coincide")
    if a <= 0:
        raise NotBracketed(f"bracket {bracket} is not strictly positive")

    def enclose(s: Fraction) -> Interval:
        enc = _quotient_within(t_hat, s, tol / 2)
        if enc.width() > tol / 2:
            raise TolTooTight(f"cannot reach quotient width {tol}/2 within depth {QUOTIENT_MAX_DEPTH}")
        return enc

    ea = enclose(a)
    if ea.inside_ball(target, tol):
        return a
    eb = enclose(b)
    if eb.inside_ball(target, tol):
        return b
    # lo is the end whose quotient lies below the target, hi the other
    if ea.hi < target < eb.lo:
        lo, hi = a, b
    elif eb.hi < target < ea.lo:
        lo, hi = b, a
    else:
        raise NotBracketed(
            f"target {target} not straddled: endpoints enclose {ea} and {eb}"
        )
    for _ in range(_BISECTION_STEPS):
        m = (lo + hi) / 2
        em = enclose(m)
        if em.inside_ball(target, tol):
            return m
        # em is at most tol/2 wide, so had it met the target it would lie
        # in the tol-ball: here it lies wholly above or below.
        if em.hi < target:
            lo = m
        else:
            hi = m
    raise TolTooTight(f"no certified solution within {_BISECTION_STEPS} bisection steps")


def rationalized_scale(
    t_hat: Fraction, s: Fraction, target: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction, Interval]:
    """Rational dilation factor lam close to |s| ** (-1/2), recertified.

    Returns (lam, s_real, enclosure) with s_real = sign(s) / lam**2 and
    the enclosure of q(t_hat + s_real, t_hat) certified inside the ball
    of radius 2 * tol around the target.  Exact when 1/|s| is a rational
    square, so the canonical offsets 4/9 and 1 rationalise losslessly.
    Eight candidates are tried, each denominator 2**8 times finer.
    """
    sigma = 1 if s > 0 else -1
    inv_abs = 1 / abs(s)
    p, q = inv_abs.numerator, inv_abs.denominator
    rp, rq = isqrt(p), isqrt(q)
    exact = rp * rp == p and rq * rq == q
    den = 2**32
    for _ in range(8):
        if exact:
            lam = Fraction(rp, rq)
            exact = False
        else:
            enc_root = sqrt_enclose(inv_abs, Fraction(1, den))
            lam = enc_root.midpoint().limit_denominator(den)
            if lam <= 0:
                lam = enc_root.hi
            den <<= 8
        s_real = Fraction(sigma) / (lam * lam)
        enc = _quotient_within(t_hat, s_real, tol / 2)
        if enc.inside_ball(target, 2 * tol):
            return lam, s_real, enc
    raise TolTooTight(f"could not rationalise a dilation for target {target}")
