"""The self-similar square-root-Hölder function and its certified analysis.

The function u : [0,1] -> [0,1] is the uniform limit of piecewise linear
iterates.  Starting from u_0(t) = t, each step replaces the graph over
[0,1] with three affine copies of itself, one per branch of a small
iterated function system:

    left   covers [0, 4/9]   with vertical factor  2/3
    mid    covers [4/9, 5/9] with vertical factor -1/3
    right  covers [5/9, 1]   with vertical factor  2/3

Every branch satisfies y_scale**2 == x_scale, which is exactly the
relation that makes the limit 1/2-Hölder with constant 1 and produces
difference quotients

    q(s, t) = (u(s) - u(t)) / (sgn(s - t) * |s - t| ** (1/2))

that are invariant, up to the sign of the branch, under pushing both
arguments through a branch.  The mid branch flips the quotient's sign;
descending into a subcell therefore reproduces the full unit-scale
oscillation at every scale, which is what the witness constructions
below certify.

All evaluation is exact.  Each Curve clears the denominators of its
branch constants once: every x constant becomes an integer numerator
over a common denominator dx, every y constant one over ey.  A descent
then keeps the point as an integer pair t = p/q and the composed maps
as integer numerators over powers of dx and ey, so a step is a few
integer products with no gcd; a Fraction is built only for the
result.  A step takes L = 3 levels at once through a table of
composed depth-L cells indexed by the slot floor(t * dx**L): every
cell endpoint down to level L is an integer over dx**L, so the
leftmost L-level path is the same for every t strictly inside a slot.
Each slot's row is composed on its first use, from the row of its
parent slot one level up, held the same way.  The one-level step, a
scan of the branch rows, still runs for points on the dx**L grid, for
slots no path covers, for the last levels when fewer than L remain,
and for every step of a system with dx > 9, which has no table.  An
iterate is held as integer numerators over dx**n and ey**n.  The limit
u is never materialised: `eval_limit` returns an Interval whose width
contracts like (2/3)**depth, and each
Curve keeps that Interval beside the descent that built it, so asking
again for a point at the same depth builds nothing.  The store is the
one cache of a campaign, and lives for one: every campaign in `verify`
empties the store of the standard curve, and of every Curve its caller
passed, with `Curve.forget` on every exit, return or raise.  A
quotient enclosure divides the difference of two such Intervals through
a certified root enclosure from `numerics`, each endpoint one unreduced
ratio of cross-multiplied integers (`_root_quotient`); the order of the two
abscissas and their distance come from cross-multiplied numerators too.
A witness gap is the one Fraction that bounds the distance of two
quotients from below, formed from the numerators of the two endpoints
that are apart.

A scan over shrinking scales at one point walks one chain of nested
cells: `locate_cell` continues from the cell it returned for the scale
before.  A located cell is a `Cell`, one named record of the integers
its descent computed: the point's state, the cell map
x -> (xa*x + xb) / dx**k and the composed vertical map.  It builds no
Fraction, and `window_witnesses` builds a window from the cell alone:
each probe cell(b) is one Fraction of those integers.  On a branch
system that passes `continuous_tiling`, u(cell(b)) = Y_cell(u(b)), so
the descent of a window probe cell(b) starts at the cell instead of at
the top.
Descent work then grows linearly in the number of scales, not
quadratically.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import index
from typing import Iterable, Optional

from .numerics import Interval, RationalLike, sqrt_enclose

MAX_LEVEL = 12

# Deepest descent eval_limit takes.  Cells of length delta need about
# 4.4 * log_9(1/delta) levels, so a window at delta = 9**-400 asks
# for up to about 1 900 (its start depth plus five retries of 24);
# past the cap a call is refused before any step is taken.
MAX_DEPTH = 4096

# Witness offsets live at distance between UNIT_MIN_OFFSET and 1 from the
# base point at unit scale; after descending to a cell of length ell the
# distances rescale to [ell/18, ell], and ell >= delta/9 for the first
# cell of length <= delta, giving the ratio 1/162 against delta itself.
UNIT_MIN_OFFSET = Fraction(1, 18)
WINDOW_OFFSET_RATIO = Fraction(1, 162)

# Descents each Curve keeps for eval_limit to resume, each with the
# enclosure it returned, which a repeated call gets back as it is; only
# eval_limit reads the bound, and clears the store when a new point finds
# it full.  Every campaign empties the store of the curves it ran on, on
# every exit, return or raise.  The bound fits one cone campaign, whose
# profile arguments fold onto the 1 001 points k/1000 of [0, 1] plus the
# breakpoints 4/9 and 5/9: 1 003 points, so each is descended once (715
# of them at 600 pairs, all 1 003 at 10**4).  A claim2 base point needs
# 3 live points; its campaign keeps one per base point beside the probes
# (603 at 601 points) and clears when full.  An oscillation scan keeps
# u(t) and the two probes of each window, which window_witnesses seeds
# at its cell even into a full store: at most 1 + 2 * scales points (121
# at 64 scales) until the scan ends.
_DESCENTS_KEPT = 1024

# Levels one descent step takes through a slot table: a system with
# dx <= 9, such as the standard one, steps 3 levels over at most
# 9**3 = 729 slots, and a system with dx > 9 has no table.
_SPAN = 3

_ZERO = Fraction(0)
_RIGHT_PROBES = (Fraction(5, 9), Fraction(1), 1)
_LEFT_PROBES = (_ZERO, Fraction(4, 9), -1)


class OutOfDomain(ValueError):
    """Argument outside the interval the operation is defined on."""


class DepthTooLarge(ValueError):
    """Requested iterate level, descent depth, scale count, or pair (holder, cone), claim2 base point, claim3 sample or blow-up offset pair count (verify.MAX_PAIRS) exceeds its cap."""


class CoincidentPoints(ValueError):
    """A difference quotient needs two distinct abscissas."""


class UncoveredPoint(ValueError):
    """No branch cell contains the point (possible for perturbed systems)."""


class InvalidCurve(ValueError):
    """A polyline violating the curve invariants was constructed."""


class BranchTag(enum.Enum):
    LEFT = "left"
    MID = "mid"
    RIGHT = "right"


@dataclass(frozen=True)
class Branch:
    """One affine branch: t -> x_scale*t + x_offset, v -> y_scale*v + y_offset."""

    tag: BranchTag
    x_scale: Fraction
    x_offset: Fraction
    y_scale: Fraction
    y_offset: Fraction

    def __post_init__(self) -> None:
        for name in ("x_scale", "x_offset", "y_scale", "y_offset"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def x_lo(self) -> Fraction:
        return self.x_offset

    @property
    def x_hi(self) -> Fraction:
        return self.x_offset + self.x_scale


BRANCHES: tuple[Branch, ...] = (
    Branch(BranchTag.LEFT, Fraction(4, 9), Fraction(0), Fraction(2, 3), Fraction(0)),
    Branch(BranchTag.MID, Fraction(1, 9), Fraction(4, 9), Fraction(-1, 3), Fraction(2, 3)),
    Branch(BranchTag.RIGHT, Fraction(4, 9), Fraction(5, 9), Fraction(2, 3), Fraction(1, 3)),
)


class Cell(namedtuple("Cell", "curve t delta p q k dk xa xb ya yb")):
    """The first nested cell of curve's descent of t whose length is at most delta.

    t and delta are Fractions, the fields after them ints.  After k steps t
    sits at p/q in the cell's coordinates.  The cell map
    x -> (xa*x + xb) / dk, with dk = dx**k, sends [0, 1] onto the cell,
    and the composed vertical map is y -> (ya*y + yb) / ey**k.  A record
    of what Curve.locate_cell computed, for the next locate_cell to
    continue and for window_witnesses to read; it cannot be called.
    """

    __slots__ = ()


@dataclass(frozen=True)
class QuotientWitness:
    """Two probe abscissas with a certified gap between their quotients.

    s1 and s2 lie on the same side of the base point the witness was
    built for, and gap_lower_bound is a certified lower bound on
    |q(s1, t0) - q(s2, t0)|.  Certification succeeds when it clears the
    curve's guaranteed gap floor.
    """

    s1: Fraction
    s2: Fraction
    gap_lower_bound: Fraction
    side: int


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise linear curve through strictly increasing breakpoints, held as its integer grid.

    Each breakpoint (t, v) is (T/dt, V/dv) for the integer pair (T, V) in
    points, with dt, dv > 0.  Instances represent iterates of the
    construction, so the invariants are structural: abscissas strictly
    increase, the first breakpoint is (0, 0) and the last is (1, 1).
    Violations raise InvalidCurve, which is how perturbed branch systems
    announce that they no longer build a curve at all.  The checks run
    on the integers; a Fraction is built only for the message of the one
    that fails.
    """

    dt: int
    dv: int
    points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pts, dt, dv = self.points, self.dt, self.dv
        if len(pts) < 2:
            raise InvalidCurve("need at least two breakpoints")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t0 >= t1:
                raise InvalidCurve(f"abscissas not strictly increasing at t={Fraction(t0, dt)}")
        (t, v), (t1, v1) = pts[0], pts[-1]
        if t or v:
            raise InvalidCurve(f"curve must start at (0, 0), got {(Fraction(t, dt), Fraction(v, dv))}")
        if t1 != dt or v1 != dv:
            raise InvalidCurve(f"curve must end at (1, 1), got {(Fraction(t1, dt), Fraction(v1, dv))}")

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The breakpoints (t, v) as Fractions, built on each call."""
        dt, dv = self.dt, self.dv
        return tuple((Fraction(t, dt), Fraction(v, dv)) for t, v in self.points)


def reduce_domain(t: RationalLike) -> Fraction:
    """Fold t into [0, 1] using evenness about 0 and period 2.

    The limit extends from [0, 1] to the line by u(-t) = u(t) and
    u(t + 2) = u(t); the extension keeps both the Hölder bound and the
    oscillation behaviour, so every evaluation funnels through this
    fold.
    """
    if type(t) is not Fraction:
        t = Fraction(t)
    p, q = t.as_integer_ratio()
    if 0 <= p <= q:
        return t
    # p/q mod 2 is (p mod 2q)/q, still in lowest terms; so is its reflection.
    r = p % (2 * q)
    return Fraction(r if r <= q else 2 * q - r, q)


def check_level(n: int) -> None:
    """Refuse an iterate level outside 0..MAX_LEVEL, as Curve.iterate does before any work."""
    if n < 0:
        raise OutOfDomain("level must be nonnegative")
    if n > MAX_LEVEL:
        raise DepthTooLarge(f"level {n} exceeds cap {MAX_LEVEL}")


def continuous_tiling(branches: tuple[Branch, ...]) -> bool:
    """Whether the branches glue into one continuous graph from (0, 0) to (1, 1).

    Exact checks on the constants:

    - the x cells tile [0, 1] in order with positive scales: the first
      starts at 0, each starts where the one before ends, the last ends
      at 1;
    - adjacent y maps agree at every seam: each sends 1 where the next
      sends 0;
    - the first y map fixes 0 and the last fixes 1.

    Then u(0) = 0, u(1) = 1, and for every nested cell X with composed
    vertical map Y, u(X(b)) = Y(u(b)) for every b in [0, 1]: the leftmost
    descent of X(b) follows the cell's branches, and where it leaves them
    at a seam, the seam agreement and the fixed ends give the same value.
    Seams alone are not enough: right.y_scale + 1/100 keeps them but
    moves u(1).  No single-constant drift of the standard system passes.
    """
    if not branches:
        return False
    first, last = branches[0], branches[-1]
    return (
        all(br.x_scale > 0 for br in branches)
        and first.x_lo == 0
        and last.x_hi == 1
        and first.y_offset == 0
        and last.y_scale + last.y_offset == 1
        and all(
            l.x_hi == r.x_lo and l.y_scale + l.y_offset == r.y_offset
            for l, r in zip(branches, branches[1:])
        )
    )


@dataclass(frozen=True)
class Curve:
    """A branch system together with evaluation and witness machinery.

    The default instance is the standard three-branch system above.
    Alternative branch tuples exist to serve the perturbation harness;
    they share all the machinery and are allowed to fail loudly
    (InvalidCurve, UncoveredPoint) when a perturbation destroys the
    structure the standard system has.

    On construction the branch constants are cleared to integers, read
    with as_integer_ratio(): dx is
    the least common denominator of every x_scale and x_offset, ey that
    of every y_scale and y_offset, and each branch becomes one row
    (x_lo, x_hi, x_scale, x_offset, y_scale, y_offset, x_lift, y_den, n)
    of numerators over dx (the first four) and y_den = ey (the next two)
    for n = 1 level, with x_lift = 1.  The slot tables hold rows of the
    same shape for the composed cells of n = 1 .. L levels, over dx**n
    and ey**n, with x_lift = dx**(n-1).  Every descent below runs on
    these rows.
    """

    branches: tuple[Branch, ...] = BRANCHES

    def __post_init__(self) -> None:
        xr = [(br.x_scale.as_integer_ratio(), br.x_offset.as_integer_ratio()) for br in self.branches]
        yr = [(br.y_scale.as_integer_ratio(), br.y_offset.as_integer_ratio()) for br in self.branches]
        dx = math.lcm(*(d for pair in xr for _, d in pair))
        ey = math.lcm(*(d for pair in yr for _, d in pair))
        rows = []
        for ((sn, sd), (on, od)), ((yn, yd), (zn, zd)) in zip(xr, yr):
            xs, xo = sn * (dx // sd), on * (dx // od)
            rows.append((xo, xo + xs, xs, xo, yn * (ey // yd), zn * (ey // zd), 1, ey, 1))
        rows = tuple(rows)
        span = _SPAN if dx <= 9 else 0
        object.__setattr__(self, "_dx", dx)
        object.__setattr__(self, "_ey", ey)
        object.__setattr__(self, "_rows", rows)
        # _tables[n - 1][s]: row of the leftmost n-level path through the
        # open slot (s, s+1) / dx**n, () if none covers it, None until
        # first used.  Steps read the last table; no tables if span is 0.
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_tables", [[None] * dx**n for n in range(1, span + 1)])
        object.__setattr__(self, "_lift", dx ** (span - 1) if span else 0)
        object.__setattr__(self, "_tiled", continuous_tiling(self.branches))
        # (t.numerator, t.denominator) -> last eval_limit state of t, keyed
        # by ints because hashing a Fraction costs a modular inverse.
        object.__setattr__(self, "_descents", {})

    # ------------------------------------------------------------------
    # branch geometry

    def locate_branch(self, pd: int, q: int, levels: int) -> tuple:
        """Row of the next step, of at most `levels` levels, of the leftmost descent of t = p/q.

        The point comes as the integers (p*dx, q) with 0 <= p <= q and
        q > 0.  If levels is at least the span L of the Curve's slot
        table and t lies strictly inside the slot (s, s+1) / dx**L, the
        row is that slot's composed L-level cell, unless no path covers
        the slot.  Otherwise it is the row of the leftmost branch whose
        x-cell contains t, one level: the test x_lo <= t <= x_hi reads
        lo*q <= p*dx <= hi*q on numerators over dx.  Every descent step,
        of one level or of L, makes exactly one call.
        """
        span = self._span
        if 0 < span <= levels:
            table = self._tables[-1]
            s, r = divmod(pd * self._lift, q)
            if r:
                row = table[s]
                if row is None:
                    row = table[s] = self._slot_row(span, s)
                if row:
                    return row
        for row in self._rows:
            if row[0] * q <= pd <= row[1] * q:
                return row
        raise UncoveredPoint(f"no branch cell contains t={Fraction(pd, q * self._dx)}")

    def _slot_row(self, n: int, s: int) -> tuple:
        """Row of the leftmost n-level path through the open slot (s, s+1) / dx**n, or () if none covers it.

        Every level-j cell endpoint, j <= n, is an integer over dx**j and
        so over dx**n, so every point of the open slot takes the same
        path: it meets no zero-length cell and never reaches 0 or 1.  The path is the
        (n-1)-level path of the slot's parent s // dx, read from its
        table, then the leftmost branch containing the slot's midpoint
        (2s + 1) / (2 * dx**n) in the parent cell's coordinates.  The
        cell map x -> (xs*x + xo) / dx**j and the vertical map
        y -> (ys*y + yo) / ey**j compose one level at a time.
        """
        dx, ey = self._dx, self._ey
        xs, xo, ys, yo = 1, 0, 1, 0
        if n > 1:
            parents = self._tables[n - 2]
            parent = parents[s // dx]
            if parent is None:
                parent = parents[s // dx] = self._slot_row(n - 1, s // dx)
            if not parent:
                return ()
            _, _, xs, xo, ys, yo, _, _, _ = parent
        # the midpoint sits at pd / (q * dx) in the parent cell
        pd, q = 2 * s + 1 - 2 * dx * xo, 2 * xs
        for row in self._rows:
            if row[0] * q <= pd <= row[1] * q:
                break
        else:
            return ()
        _, _, bxs, bxo, bys, byo, _, _, _ = row
        xs, xo = xs * bxs, xo * dx + xs * bxo
        return (xo, xo + xs, xs, xo, ys * bys, yo * ey + ys * byo, dx ** (n - 1), ey**n, n)

    def _descend(
        self, state: tuple[int, int, int, int, int], depth: int
    ) -> tuple[int, int, int, int, int]:
        """Continue a descent from state (p, q, a, b, k) until k reaches depth.

        After k levels the point has moved to p/q in [0, 1] and the
        composed vertical map is y -> (a*y + b) / ey**k; a descent from t
        starts at (t.numerator, t.denominator, 1, 0, 0).  A step through
        a row of n levels maps p/q to (p*dx**n - x_offset*q) / (q*x_scale),
        which keeps q > 0 since only cells with x_lo <= x_hi can contain
        a point.  `locate_branch` gives an L-level row from the slot table
        while at least L levels remain, and a one-level row otherwise;
        both give the state the one-level steps would, integer for
        integer.  The descent stops early once the point is 0 or 1, where
        the value is exact.
        """
        dx = self._dx
        locate = self.locate_branch
        p, q, a, b, k = state
        while k < depth and 0 < p < q:
            pd = p * dx
            _, _, xs, xo, ys, yo, xl, yd, n = locate(pd, q, depth - k)
            if not xs:
                # A zero-length cell holds only t = x_offset, so its row is
                # a one-level row; inverting its map is the division
                # (t - x_offset) / x_scale by zero, done in Fractions so it
                # raises the running interpreter's error.
                Fraction(pd - xo * q, q * dx) / Fraction(xs, dx)
            p, q = pd * xl - xo * q, q * xs
            a, b = a * ys, a * yo + b * yd
            k += n
        return p, q, a, b, k

    # ------------------------------------------------------------------
    # iterates

    def iterate(self, n: int) -> PiecewiseLinear:
        """The n-th piecewise linear iterate, with 3**n + 1 breakpoints.

        Level 0 is the diagonal.  Each level maps the previous polyline
        through every branch and concatenates; seam points shared by
        adjacent branches are deduplicated exactly: a branch whose x and
        y scales are both nonzero keeps consecutive points apart, so only
        its first image is compared with the point before, and a
        degenerate branch compares each image.  Level k keeps its
        points as integer numerators over dx**k and ey**k, and the
        iterate is that grid at level n: a broken system raises
        InvalidCurve, and a valid one builds no Fraction.
        """
        check_level(n)
        dx, ey = self._dx, self._ey
        pts: list[tuple[int, int]] = [(0, 0), (1, 1)]
        xd = yd = 1  # dx**k and ey**k at level k
        for _ in range(n):
            nxt: list[tuple[int, int]] = []
            for _, _, xs, xo, ys, yo, _, _, _ in self._rows:
                x0, y0 = xo * xd, yo * yd
                if xs and ys:
                    # an injective map keeps consecutive points apart: only the seam repeats
                    img = [(xs * t + x0, ys * v + y0) for t, v in pts]
                    nxt += img[1:] if nxt and nxt[-1] == img[0] else img
                    continue
                for t, v in pts:
                    pt = (xs * t + x0, ys * v + y0)
                    if nxt and nxt[-1] == pt:
                        continue
                    nxt.append(pt)
            pts = nxt
            xd *= dx
            yd *= ey
        return PiecewiseLinear(xd, yd, tuple(pts))

    # ------------------------------------------------------------------
    # the limit

    def eval_limit(self, t: RationalLike, depth: int) -> Interval:
        """Certified enclosure of the limit value u(t).

        Descends through branch cells with `_descend`, composing the
        vertical affine maps as integer numerators over a power of ey;
        the enclosure keeps those ratios as its ends, unreduced.  The composed
        vertical image of [0, 1] is the enclosure;
        its width is the product of |y_scale| factors, at most
        (2/3)**depth for the standard system.  If the descent reaches an
        endpoint of [0, 1] the value is exact and the enclosure
        degenerates to a point, whatever the requested depth.  A depth
        above MAX_DEPTH raises DepthTooLarge.

        The Curve keeps the last descent of each point together with the
        Interval it returned.  A call at the same depth returns that
        Interval, with no step and no Fraction built (for an int depth
        before the checks above, which the kept point and depth passed
        when they were kept), and so does any
        deeper call once the kept descent sits at 0 or 1, where the value
        is exact.  Any other deeper call resumes where the kept descent
        stopped, and only a shallower call starts again from t.  Probes
        that `window_witnesses` seeds carry a descent state but no
        Interval until their first call.  A descent that raises keeps
        nothing, and `forget` drops every kept descent.
        """
        if type(t) is not Fraction:
            t = Fraction(t)
        p, q = t.as_integer_ratio()
        kept = self._descents
        key = (p, q)
        st = kept.get(key)
        if st is not None and type(depth) is int and st[4] == depth and st[5] is not None:
            return st[5]  # every kept point and depth passed the checks below
        if p < 0 or p > q:
            raise OutOfDomain(f"t={t} outside [0, 1]")
        if depth < 0:
            raise OutOfDomain("depth must be nonnegative")
        depth = index(depth)
        if depth > MAX_DEPTH:
            raise DepthTooLarge(f"depth {depth} exceeds cap {MAX_DEPTH}")
        if st is None or st[4] > depth:
            if st is None and len(kept) >= _DESCENTS_KEPT:
                kept.clear()
            st = (p, q, 1, 0, 0, None)
        elif st[5] is not None and (st[4] == depth or st[0] == 0 or st[0] == st[1]):
            return st[5]
        p, q, a, b, k, _ = st
        if k != depth:
            p, q, a, b, k = self._descend((p, q, a, b, k), depth)
        if p == 0:
            lo = hi = b
        elif p == q:
            lo = hi = a + b
        else:
            lo, hi = (b, a + b) if a >= 0 else (a + b, b)
        den = self._ey**k
        enc = Interval.of_ratios(lo, den, hi, den)
        kept[key] = (p, q, a, b, k, enc)
        return enc

    def forget(self) -> None:
        """Drop every kept descent, as the end of each campaign does."""
        self._descents.clear()

    # ------------------------------------------------------------------
    # difference quotients

    def diff_quotient(self, s: RationalLike, t: RationalLike, depth: int) -> Interval:
        """Enclosure of q(s, t) = (u(s) - u(t)) / (sgn(s-t) |s-t|**(1/2)).

        Arguments may be anywhere on the line; one outside [0, 1] is
        folded into it (`reduce_domain`) for evaluation, while the gap
        |s - t| is taken between the original abscissas.  Whether s and t
        coincide, their order and the gap come from the cross-multiplied
        integers of s and t, each read once; the gap is the one Fraction
        built here.  Its root is enclosed to width
        min(gap, 1) * (2/3)**depth, as tight as the numerator, and each
        quotient endpoint is one integer ratio (`_root_quotient`).
        """
        if type(s) is not Fraction:
            s = Fraction(s)
        if type(t) is not Fraction:
            t = Fraction(t)
        sn, sd = s.as_integer_ratio()
        tn, td = t.as_integer_ratio()
        n = sn * td - tn * sd  # (s - t) * sd * td
        if not n:
            raise CoincidentPoints("difference quotient needs s != t")
        us = self.eval_limit(s if 0 <= sn <= sd else reduce_domain(s), depth)
        ut = self.eval_limit(t if 0 <= tn <= td else reduce_domain(t), depth)
        if n < 0:  # q(s, t) = q(t, s): divide by the positive root, with no sign flip
            n, us, ut = -n, ut, us
        gap = Fraction(n, sd * td)
        (gn, gd), depth = gap.as_integer_ratio(), index(depth)
        return _root_quotient(us, ut, sqrt_enclose(gap, Fraction(min(gn, gd) << depth, gd * 3**depth)))

    # ------------------------------------------------------------------
    # cell location

    def locate_cell(self, t: RationalLike, delta: RationalLike, resume: Optional[Cell] = None) -> Cell:
        """First nested cell containing t whose length is at most delta, as a `Cell`.

        Ties at cell boundaries resolve to the leftmost containing cell.
        Cell length shrinks by at least 4/9 per step, so the length lands
        in [delta/9, delta] for the standard system.

        The descent is the one of `eval_limit`, stopped by cell length
        instead of a step count.  A step through a branch with x_scale
        >= 1 would not shrink the cell, so it raises UncoveredPoint;
        every other step shrinks it, so the descent ends at any delta.

        The cell holds the descent's integers, its vertical map built as
        in `_descend`; no Fraction is built.  If resume is a cell this
        Curve returned for the same t at some delta' >= delta, the descent
        continues from it: every cell above it is longer than
        delta' >= delta.  Any other resume starts from t, so the result
        always equals locate_cell(t, delta).
        """
        if type(t) is not Fraction:
            t = Fraction(t)
        if type(delta) is not Fraction:
            delta = Fraction(delta)
        p0, q0 = t.as_integer_ratio()
        if not 0 <= p0 <= q0:
            raise OutOfDomain(f"t={t} outside [0, 1]")
        dn, dd = delta.as_integer_ratio()
        if not 0 < dn <= dd:
            raise OutOfDomain(f"delta={delta} outside (0, 1]")
        dx, ey = self._dx, self._ey
        locate = self.locate_branch
        p, q, k, dk, ya, yb = p0, q0, 0, 1, 1, 0
        if resume is not None and resume.curve is self and resume.t.as_integer_ratio() == (p0, q0):
            kn, kd = resume.delta.as_integer_ratio()
            if dn * kd <= kn * dd:  # delta at most the kept delta
                p, q, k, dk, ya, yb = resume.p, resume.q, resume.k, resume.dk, resume.ya, resume.yb
        # After k steps p/q = (t*dk - xb) / xa, and q is a multiple of q0,
        # so xa = q/q0 and xb = (p0*dk - p)/q0, both exact; the length
        # test xa/dk > delta reads q*dd > delta.numerator*q0*dk = dn*dk.
        dn *= q0
        while q * dd > dn * dk:
            pd = p * dx
            _, _, xs, xo, ys, yo, _, _, _ = locate(pd, q, 1)
            if xs >= dx:
                raise UncoveredPoint("descent does not contract; branch system broken")
            p, q = pd - xo * q, q * xs
            ya, yb = ya * ys, ya * yo + yb * ey
            dk *= dx
            k += 1
        return Cell(self, t, delta, p, q, k, dk, q // q0, (p0 * dk - p) // q0, ya, yb)

    # ------------------------------------------------------------------
    # witnesses

    @staticmethod
    def _unit_probe(p: int, q: int) -> tuple[Fraction, Fraction, int]:
        """Unit-scale probe pair for the base point t0 = p/q in [0, 1], q > 0.

        For t0 in the left half both probes sit to the right at 5/9 and
        1; otherwise to the left at 0 and 4/9.  Distances from t0 are
        then pinned to [1/18, 1] and all probe values are exact
        breakpoint values, so only u(t0) needs an enclosure.
        """
        return _RIGHT_PROBES if 2 * p <= q else _LEFT_PROBES

    def _deepen(
        self, s1: Fraction, s2: Fraction, t: Fraction, side: int, depths: Iterable[int]
    ) -> QuotientWitness:
        """Witness for the probes s1, s2 at t at the first of depths whose gap clears the floor.

        If none does, the last gap is returned for the caller to judge.
        The gap is max(q1.lo - q2.hi, q2.lo - q1.hi, 0) for the quotient
        enclosures q1, q2: the lower end of |q1 - q2| in interval
        arithmetic.  Each difference is read from the quotients' `ends`
        as a numerator over the product of two denominators, compared
        with the floor by cross-multiplying, and the returned gap is one
        Fraction of the positive one (0 if neither is).
        """
        _, _, fn, fd = quotient_gap_floor().ends
        for depth in depths:
            l1, d1, h1, e1 = self.diff_quotient(s1, t, depth).ends
            l2, d2, h2, e2 = self.diff_quotient(s2, t, depth).ends
            # At most one of q1.lo - q2.hi and q2.lo - q1.hi is positive;
            # the gap is n/d for that one, or 0.
            n, d = l1 * e2 - h2 * d1, d1 * e2
            if n <= 0:
                n, d = l2 * e1 - h1 * d2, d2 * e1
            if n * fd >= fn * d:
                break
        return QuotientWitness(s1, s2, Fraction(n, d) if n > 0 else _ZERO, side)

    def unit_witnesses(self, t0: RationalLike) -> QuotientWitness:
        """Probe pair at unit scale with a certified quotient gap.

        The returned gap_lower_bound bounds |q(s1,t0) - q(s2,t0)| from
        below.  Depth runs through 16, 24, 32, 48, 64 and 96 until it
        clears the guaranteed gap floor.
        """
        if type(t0) is not Fraction:
            t0 = Fraction(t0)
        p, q = t0.as_integer_ratio()
        if p < 0 or p > q:
            raise OutOfDomain(f"t0={t0} outside [0, 1]")
        s1, s2, side = self._unit_probe(p, q)
        return self._deepen(s1, s2, t0, side, (16, 24, 32, 48, 64, 96))

    def window_witnesses(self, cell: Cell) -> QuotientWitness:
        """Probe pair in a located cell with a certified quotient gap.

        Replays the unit-scale probe construction inside the cell this
        Curve's locate_cell returned for (t, delta), reading t, p/q =
        cell^-1(t) (which picks the probe side), the cell map and the
        vertical map from the cell's fields.  Probe distances from t lie
        in [delta/162, delta].  A cell another Curve located raises
        ValueError: the probe descents below start from its integer
        state, which only this Curve's rows composed.

        Each probe cell(b), b = bn/bd, is the one Fraction (xa*bn +
        xb*bd) / (dk*bd) of the cell map's integers.  If the branches
        pass `continuous_tiling`, the descent of each probe starts at the
        cell: its first k steps follow the cell's branches, so the store
        is seeded with (bn, bd, ya, yb, k) for it, and eval_limit resumes
        from there.  The probes stay in the store
        until the campaign's end empties it (`forget`).  Any other Curve
        descends the probes from the top.
        """
        if cell.curve is not self:
            raise ValueError("window_witnesses needs a cell this curve located")
        xa, xb, dk = cell.xa, cell.xb, cell.dk
        b1, b2, side = self._unit_probe(cell.p, cell.q)
        ratios = b1.as_integer_ratio(), b2.as_integer_ratio()
        s1, s2 = (Fraction(xa * bn + xb * bd, dk * bd) for bn, bd in ratios)
        if self._tiled:
            for s, (bn, bd) in zip((s1, s2), ratios):
                self._descents[s.as_integer_ratio()] = (bn, bd, cell.ya, cell.yb, cell.k, None)
        start = cell_start_depth(cell)
        return self._deepen(s1, s2, cell.t, side, range(start, start + 6 * 24, 24))


def window_start_depth(log3_inv_a: float) -> int:
    """First depth window_witnesses tries in a cell of length a, given log_3(1/a).

    A window at delta has a cell of length a <= delta, so it starts at
    window_start_depth(log_3(1/delta)) or deeper.
    """
    return 16 + max(0, int(2.2 * log3_inv_a))


def cell_start_depth(cell: Cell) -> int:
    """First depth window_witnesses tries in cell.

    Probe values are exact breakpoint images, so enclosure width is
    driven by u(t) alone; the depth is sized to the cell scale.  The
    scale log_3(1/a) comes from the integers of the cell length
    a = xa/dk in lowest terms, so it is finite however short the cell
    (1/a overflows a float once a < 5.6e-309).
    """
    g = math.gcd(cell.xa, cell.dk)
    return window_start_depth(math.log(cell.dk // g, 3) - math.log(cell.xa // g, 3))


UNIT_CURVE = Curve()


def _root_quotient(a: Interval, b: Interval, root: Interval) -> Interval:
    """(a - b) / root for root.lo > 0: the one way the package divides by a root.

    The lower end is a.lo - b.hi over root.hi if nonnegative, else over
    root.lo; the upper end is a.hi - b.lo over root.lo if nonnegative,
    else over root.hi: the least and greatest of the four endpoint
    quotients.  Each end is one ratio of cross-multiplied `ends`.
    """
    aln, ald, ahn, ahd = a.ends
    bln, bld, bhn, bhd = b.ends
    rln, rld, rhn, rhd = root.ends
    n = aln * bhd - bhn * ald
    lo = (n * rhd, ald * bhd * rhn) if n >= 0 else (n * rld, ald * bhd * rln)
    n = ahn * bld - bln * ahd
    hi = (n * rld, ahd * bld * rln) if n >= 0 else (n * rhd, ahd * bld * rhn)
    return Interval.of_ratios(*lo, *hi)


@lru_cache(maxsize=None)
def quotient_gap_floor() -> Interval:
    """Certified enclosure of the guaranteed witness gap constant.

    The constant is the minimum of three closed-form terms:

        (1/3) * ((1 - 4/81) ** (-1/2) - 1),   7/9 - 3/5,   5 ** (-1/2)

    The first and third are irrational, so the minimum is returned as an
    enclosure; its value is about 0.0085484 and the first term attains
    the minimum.  Each root term 1 / d ** (1/2) is the `_root_quotient`
    of 1 - 0 by a root enclosure of width 10**-12 * d, so its own width
    is about 10**-12.
    """
    width = Fraction(1, 10**12)
    d1, d3 = Fraction(77, 81), Fraction(5)
    one, zero = Interval.point(1), Interval.point(0)
    t1 = (_root_quotient(one, zero, sqrt_enclose(d1, width * d1)) - 1).scale(Fraction(1, 3))
    t2 = Interval.point(Fraction(7, 9) - Fraction(3, 5))
    t3 = _root_quotient(one, zero, sqrt_enclose(d3, width * d3))
    return reduce(Interval.min_of, (t1, t2, t3))
