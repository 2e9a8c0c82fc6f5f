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

The r coordinate is an Interval rather than a rational because graph
points carry certified enclosures of the profile; group operations
propagate those enclosures soundly and exactly cancel the rational
coordinates, which is what makes the blow-up sampler rigorous.

On graph points x = 0, so the twist x y' - y x' of a product of graph
points vanishes; `mul` skips a twist product with a zero factor, and
`hnorm` takes |x| and |y| exactly, so the cone campaign does no
arithmetic on terms that are 0 and roots only |t|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numerics import Interval, RationalLike, sqrt_enclose
from .selfsim import QUOTIENT_MAX_DEPTH, UNIT_CURVE, reduce_domain

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
    """Requested tolerance unreachable within QUOTIENT_MAX_DEPTH."""


@dataclass(frozen=True)
class GroupPoint:
    """Group element in exponential coordinates; see module docstring."""

    x: Fraction
    y: Fraction
    t: Fraction
    r: Interval


def mul(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    px, py, qx, qy = p.x, p.y, q.x, q.y
    t = p.t + q.t
    twist = (px * qy if px and qy else 0) - (py * qx if py and qx else 0)
    if twist:
        t += twist / 2
    return GroupPoint(px + qx, py + qy, t, p.r + q.r)


def inv(p: GroupPoint) -> GroupPoint:
    return GroupPoint(-p.x, -p.y, -p.t, -p.r)


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
    nxy = Interval.point(max(abs(p.x), abs(p.y)))
    nt = sqrt_enclose(abs(p.t), width)
    return Interval.max_of(Interval.max_of(nxy, nt), p.r.abs())


def beta(w: GroupPoint) -> Fraction:
    """The t coordinate of a vertical-subgroup point, its profile argument."""
    if w.x or w.r != _ZERO:
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
    enc = UNIT_CURVE.eval_limit(reduce_domain(beta(w)), depth)
    return GroupPoint(w.x, w.y, w.t, enc)


def cone_gap(p: GroupPoint, q: GroupPoint, depth: int) -> Interval:
    """Enclosure of |w-part| - |v-part| for p**(-1) * q, graph points p, q.

    Nonnegativity of this gap for all pairs of graph points is the cone
    condition with constant 1 under the max norm: the vertical part of
    the displacement never exceeds its horizontal part.  The enclosure
    width is controlled by depth through the norm width (2/3)**depth and
    by the widths the points' r slots already carry.
    """
    if p.x or q.x:
        raise NotGraphPoints("cone gap is defined for graph points, which have x = 0")
    d = mul(inv(p), q)
    w_part = GroupPoint(d.x, d.y, d.t, _ZERO)
    return hnorm(w_part, _TWO_THIRDS ** max(depth, 1)) - d.r.abs()


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


def solve_quotient(
    t_hat: RationalLike,
    target: RationalLike,
    side: int,
    bracket: tuple[RationalLike, RationalLike],
    tol: RationalLike,
) -> Fraction:
    """Offset s with certified |q(t_hat + s, t_hat) - target| <= tol.

    side fixes the sign of every admissible offset; the bracket holds
    two offsets of that sign.  Endpoints are tried first, then certified
    bisection runs on enclosures of width at most tol / 2, so every
    branch decision and the final acceptance are interval-sound.
    Raises NotBracketed when neither endpoint qualifies and their
    enclosures do not straddle the target; raises TolTooTight when the
    evaluation depth cap cannot deliver the needed enclosure width.
    """
    t_hat = Fraction(t_hat)
    target = Fraction(target)
    tol = Fraction(tol)
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    if a > b:
        a, b = b, a
    if a == b:
        raise NotBracketed("bracket endpoints coincide")
    if not (a * side > 0 and b * side > 0):
        raise NotBracketed(f"bracket {bracket} is not strictly of sign {side}")

    def enclose(s: Fraction) -> Interval:
        enc = UNIT_CURVE.diff_quotient_within(t_hat + s, t_hat, tol / 2)
        if enc.width() > tol / 2:
            raise TolTooTight(
                f"cannot reach quotient width {tol}/2 within depth {QUOTIENT_MAX_DEPTH}"
            )
        return enc

    ea = enclose(a)
    if ea.inside_ball(target, tol):
        return a
    eb = enclose(b)
    if eb.inside_ball(target, tol):
        return b
    if ea.hi < target < eb.lo:
        increasing = True
    elif eb.hi < target < ea.lo:
        increasing = False
    else:
        raise NotBracketed(
            f"target {target} not straddled: endpoints enclose {ea} and {eb}"
        )
    lo, hi = a, b
    for _ in range(_BISECTION_STEPS):
        m = (lo + hi) / 2
        em = enclose(m)
        if em.inside_ball(target, tol):
            return m
        if em.hi < target:
            lo, hi = (m, hi) if increasing else (lo, m)
        elif em.lo > target:
            lo, hi = (lo, m) if increasing else (m, hi)
        else:
            # Enclosure width is at most tol/2, so containing the target
            # implies acceptance above; reaching here means tol is
            # unreachable after all.
            raise TolTooTight("enclosure straddles target without meeting tol")
    raise TolTooTight(f"no certified solution within {_BISECTION_STEPS} bisection steps")
