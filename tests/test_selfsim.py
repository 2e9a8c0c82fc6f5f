"""Construction, evaluation, and witness machinery for the self-similar curve."""

import math
import random
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipgraph.numerics import Interval, sqrt_enclose
from lipgraph.selfsim import (
    _DESCENTS_KEPT,
    BRANCHES,
    MAX_DEPTH,
    MAX_LEVEL,
    UNIT_CURVE,
    UNIT_MIN_OFFSET,
    WINDOW_OFFSET_RATIO,
    AffineMap1D,
    Branch,
    BranchTag,
    CoincidentPoints,
    Curve,
    DepthTooLarge,
    InvalidCurve,
    OutOfDomain,
    PiecewiseLinear,
    QuotientWitness,
    UncoveredPoint,
    cell_start_depth,
    continuous_tiling,
    quotient_gap_floor,
    reduce_domain,
    window_start_depth,
)
import lipgraph.verify as verify
from lipgraph.verify import MAX_SCALES, MUTABLE_FIELDS, oscillation_scan, perturbed_branches


def inside(enc, q):
    """Whether the exact value q lies in the enclosure enc."""
    return enc.lo <= q <= enc.hi


def u_float(t, iters=80):
    """Independent oracle for the limit function: exact descent, float values."""
    a, b = 1.0, 0.0
    t = F(t)
    for _ in range(iters):
        if t == 0 or t == 1:
            return a * float(t) + b
        if t < F(4, 9):
            t = t * F(9, 4)
            a *= 2 / 3
        elif t <= F(5, 9):
            t = (t - F(4, 9)) * 9
            b += a * (2 / 3)
            a *= -1 / 3
        else:
            t = (t - F(5, 9)) * F(9, 4)
            b += a * (1 / 3)
            a *= 2 / 3
    return b + a * 0.5


class TestBranches:
    def test_frozen_maps(self):
        by_tag = {b.tag: b for b in BRANCHES}
        left, mid, right = by_tag[BranchTag.LEFT], by_tag[BranchTag.MID], by_tag[BranchTag.RIGHT]
        assert (left.x_scale, left.x_offset) == (F(4, 9), 0)
        assert (left.y_scale, left.y_offset) == (F(2, 3), 0)
        assert (mid.x_scale, mid.x_offset) == (F(1, 9), F(4, 9))
        assert (mid.y_scale, mid.y_offset) == (F(-1, 3), F(2, 3))
        assert (right.x_scale, right.x_offset) == (F(4, 9), F(5, 9))
        assert (right.y_scale, right.y_offset) == (F(2, 3), F(1, 3))

    def test_scaling_invariant(self):
        # the vertical contraction is the square root of the horizontal one
        for b in BRANCHES:
            assert b.y_scale**2 == b.x_scale

    def test_intervals_tile_the_domain(self):
        assert [(b.x_lo, b.x_hi) for b in BRANCHES] == [
            (0, F(4, 9)),
            (F(4, 9), F(5, 9)),
            (F(5, 9), 1),
        ]


def ref_breakpoints(breakpoints):
    """Breakpoints coerced to Fractions and checked on them, as PiecewiseLinear once did: the reference for its integer checks."""
    pts = tuple((F(t), F(v)) for t, v in breakpoints)
    if len(pts) < 2:
        raise InvalidCurve("need at least two breakpoints")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if t0 >= t1:
            raise InvalidCurve(f"abscissas not strictly increasing at t={t0}")
    if pts[0] != (0, 0):
        raise InvalidCurve(f"curve must start at (0, 0), got {pts[0]}")
    if pts[-1] != (1, 1):
        raise InvalidCurve(f"curve must end at (1, 1), got {pts[-1]}")
    return pts


def grid_polyline(breakpoints):
    """PiecewiseLinear through the breakpoints, each coordinate coerced to a Fraction, over their least denominators."""
    pts = [(F(t), F(v)) for t, v in breakpoints]
    dt = math.lcm(*(t.denominator for t, _ in pts))
    dv = math.lcm(*(v.denominator for _, v in pts))
    return PiecewiseLinear(dt, dv, tuple((t.numerator * dt // t.denominator, v.numerator * dv // v.denominator) for t, v in pts))


def cell_inverse(cell, t):
    """The point of [0, 1] that cell maps to t."""
    return (F(t) - cell.b) / cell.a


def window(curve, t, delta):
    """The witness curve builds in the cell it locates for (t, delta)."""
    return curve.window_witnesses(curve.locate_cell(t, delta))


def four_candidate_div(num, root):
    """num / root for a strictly positive root: the min and max of the four endpoint quotients."""
    if root.lo <= 0:
        raise ZeroDivisionError(f"interval division needs a strictly positive denominator, got {root}")
    cands = (num.lo / root.lo, num.lo / root.hi, num.hi / root.lo, num.hi / root.hi)
    return Interval(min(cands), max(cands))


def _stored_breakpoints(breakpoints):
    pts = grid_polyline(breakpoints).breakpoints
    assert type(pts) is tuple
    assert all(type(p) is tuple and type(p[0]) is F and type(p[1]) is F for p in pts)
    return pts


def pl_value(pl, t):
    """Reference value of a polyline at t in [0, 1], by linear interpolation."""
    pts = pl.breakpoints
    i = bisect_left(pts, (t,))
    t1, v1 = pts[i]
    if t1 == t:
        return v1
    t0, v0 = pts[i - 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def pl_sup_diff(a, b):
    """Reference sup |a - b| of two polylines, attained at a breakpoint of one of them."""
    return max(abs(pl_value(a, t) - pl_value(b, t)) for t, _ in a.breakpoints + b.breakpoints)


def pl_outcome(fn, bps):
    try:
        return fn(bps)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class _SubF(F):
    pass


PL_CASES = [
    ((F(0), F(0)), (F(1), F(1))),
    ((0, 0), (1, 1)),
    ((False, False), (True, True)),
    ((0.0, 0), (0.5, 0.25), (1.0, 1.0)),
    ((_SubF(0), _SubF(0)), (_SubF(1, 2), F(1, 3)), (_SubF(1), 1)),
    [[F(0), F(0)], [F(1, 3), _SubF(2, 3)], [1, F(1)]],
    (("0", "0"), ("1/2", "1/4"), ("1", "1")),
    ((F(0), F(0)),),
    (),
    ((F(0), F(0)), (F(1, 2), F(1, 3)), (F(1, 2), F(2, 3)), (F(1), F(1))),
    ((F(0), F(0)), (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)), (F(1), F(1))),
    ((F(1, 9), F(0)), (1, 1)),
    ((0, 0), (F(1, 2), F(1, 2))),
    ((0, 0), (1, 1.5)),
    ((0, 0), (float("nan"), 0), (1, 1)),
    ((0, 0), (None, 0), (1, 1)),
    ((0, 0), ("x", 0), (1, 1)),
    UNIT_CURVE.iterate(3).breakpoints,
]


class TestPiecewiseLinear:
    def test_value_and_endpoints(self):
        pl = PiecewiseLinear(2, 4, ((0, 0), (1, 1), (2, 4)))
        assert pl_value(pl, F(1, 4)) == F(1, 8)
        assert pl_value(pl, F(3, 4)) == F(5, 8)
        assert pl_value(pl, 0) == 0 and pl_value(pl, 1) == 1

    def test_invalid_constructions(self):
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(2, 2, ((0, 0), (1, 1)))  # does not end at (1, 1)
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(9, 1, ((1, 0), (9, 1)))  # does not start at (0, 0)
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(2, 3, ((0, 0), (1, 1), (1, 2), (2, 3)))

    def test_construction_matches_reference(self):
        for bps in PL_CASES:
            assert pl_outcome(_stored_breakpoints, bps) == pl_outcome(ref_breakpoints, bps)

    def test_sup_diff_matches_brute_force(self):
        a = UNIT_CURVE.iterate(2)
        b = UNIT_CURVE.iterate(3)
        # the breakpoints of iterate 3 refine those of iterate 2
        brute = max(abs(ref_eval_iterate(UNIT_CURVE, 2, x) - v) for x, v in b.breakpoints)
        assert pl_sup_diff(a, b) == brute


class TestIterates:
    def test_breakpoint_counts(self):
        for n in range(6):
            assert len(UNIT_CURVE.iterate(n).breakpoints) == 3**n + 1

    def test_first_iterate_frozen(self):
        assert UNIT_CURVE.iterate(1).breakpoints == (
            (F(0), F(0)),
            (F(4, 9), F(2, 3)),
            (F(5, 9), F(1, 3)),
            (F(1), F(1)),
        )

    def test_pinned_values(self):
        for n in range(1, 9):
            values = dict(UNIT_CURVE.iterate(n).breakpoints)
            assert values[F(0)] == 0
            assert values[F(1)] == 1
            assert values[F(4, 9)] == F(2, 3)
            assert values[F(5, 9)] == F(1, 3)

    def test_symmetry_at_breakpoints(self):
        for n in range(5):
            pl = UNIT_CURVE.iterate(n)
            for x, y in pl.breakpoints:
                assert y == 1 - pl_value(pl, 1 - x)

    def test_contraction(self):
        sups = [pl_sup_diff(UNIT_CURVE.iterate(n), UNIT_CURVE.iterate(n + 1)) for n in range(5)]
        assert sups[0] == F(2, 9)
        for prev, cur in zip(sups, sups[1:]):
            assert cur <= F(2, 3) * prev

    def test_eval_iterate_matches_breakpoint_interpolation(self):
        # the Fraction descent ref_eval_iterate, an oracle below, against the polyline
        rng = random.Random(11)
        for n in (2, 4, 6):
            pl = UNIT_CURVE.iterate(n)
            for _ in range(50):
                t = F(rng.randrange(0, 3**n + 1), 3**n)
                assert ref_eval_iterate(UNIT_CURVE, n, t) == pl_value(pl, t)

    def test_eval_iterate_frozen(self):
        pl = UNIT_CURVE.iterate(2)
        assert pl_value(pl, F(1, 2)) == F(1, 2)
        assert pl_value(pl, F(2, 9)) == F(1, 3)

    def test_depth_cap(self):
        with pytest.raises(DepthTooLarge):
            UNIT_CURVE.iterate(MAX_LEVEL + 1)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            UNIT_CURVE.iterate(-1)


class TestLimitFunction:
    def test_exact_at_breakpoints(self):
        assert UNIT_CURVE.eval_limit(F(4, 9), 1) == Interval.point(F(2, 3))
        assert UNIT_CURVE.eval_limit(F(5, 9), 1) == Interval.point(F(1, 3))
        assert UNIT_CURVE.eval_limit(F(0), 0) == Interval.point(0)
        assert UNIT_CURVE.eval_limit(F(1), 0) == Interval.point(1)
        # an int is read as the Fraction it equals
        assert UNIT_CURVE.eval_limit(1, 5) == Interval.point(1)

    def test_frozen_enclosures(self):
        assert UNIT_CURVE.eval_limit(F(2, 9), 2) == Interval(F(2, 9), F(4, 9))
        assert inside(UNIT_CURVE.eval_limit(F(2, 9), 2), F(1, 3))
        assert UNIT_CURVE.eval_limit(F(2, 9), 4) == Interval(F(26, 81), F(28, 81))
        assert inside(UNIT_CURVE.eval_limit(F(1, 2), 8), F(1, 2))

    def test_width_bound_and_nesting(self):
        rng = random.Random(22)
        for _ in range(40):
            t = F(rng.randrange(0, 7921), 7920)
            prev = None
            for depth in (1, 3, 6, 10):
                enc = UNIT_CURVE.eval_limit(t, depth)
                assert enc.width() <= F(2, 3) ** depth
                if prev is not None:
                    assert prev.lo <= enc.lo and enc.hi <= prev.hi
                prev = enc

    def test_iterate_value_within_enclosure(self):
        rng = random.Random(33)
        for _ in range(40):
            t = F(rng.randrange(0, 1001), 1000)
            for n in (2, 5):
                assert inside(UNIT_CURVE.eval_limit(t, n), ref_eval_iterate(UNIT_CURVE, n, t))

    def test_against_float_oracle(self):
        rng = random.Random(44)
        for _ in range(60):
            t = F(rng.randrange(0, 10001), 10000)
            enc = UNIT_CURVE.eval_limit(t, 40)
            approx = u_float(t)
            assert float(enc.lo) - 1e-9 <= approx <= float(enc.hi) + 1e-9

    def test_symmetry_via_enclosures(self):
        rng = random.Random(55)
        for _ in range(30):
            t = F(rng.randrange(0, 1001), 1000)
            a = UNIT_CURVE.eval_limit(t, 30)
            b = UNIT_CURVE.eval_limit(1 - t, 30)
            mirrored = Interval(1 - b.hi, 1 - b.lo)
            assert a.intersects(mirrored)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            UNIT_CURVE.eval_limit(F(3, 2), 5)


class TestDomainFold:
    def test_frozen(self):
        assert reduce_domain(F(-1, 3)) == F(1, 3)
        assert reduce_domain(F(5, 2)) == F(1, 2)
        assert reduce_domain(F(3, 2)) == F(1, 2)
        assert reduce_domain(F(7, 4)) == F(1, 4)
        assert reduce_domain(2) == 0

    def test_even_and_periodic(self):
        rng = random.Random(66)
        for _ in range(100):
            t = F(rng.randrange(-5000, 5001), 1000)
            r = reduce_domain(t)
            assert 0 <= r <= 1
            assert reduce_domain(-t) == r
            assert reduce_domain(t + 2) == r

    def test_matches_fraction_reference(self):
        def ref_reduce_domain(t):
            t = F(t) % 2
            return 2 - t if t > 1 else t

        def typed(fn, t):
            try:
                r = fn(t)
                return type(r), r, r.numerator, r.denominator
            except (ArithmeticError, ValueError, TypeError) as exc:
                return type(exc), str(exc)

        ts = [F(i, 1000) for i in range(-2000, 2001)] + [F(k, 7) for k in range(-30, 31)]
        ts += [0, 1, 2, 3, -1, -4, 10**30 + 1, False, True, _SubF(5, 3), _SubF(1, 3), 0.75, -2.5, 1e300,
               "17/7", "-1/3", float("nan"), float("inf"), None, F(-10**40 - 3, 10**20 + 7)]
        for t in ts:
            assert typed(reduce_domain, t) == typed(ref_reduce_domain, t)


class TestDiffQuotient:
    def test_frozen_exact(self):
        assert UNIT_CURVE.diff_quotient(F(1), F(0), 10) == Interval.point(1)
        assert UNIT_CURVE.diff_quotient(F(4, 9), F(0), 10) == Interval.point(1)
        assert UNIT_CURVE.diff_quotient(F(0), F(1), 10) == Interval.point(1)

    def test_inverse_root_five(self):
        got = UNIT_CURVE.diff_quotient(F(5, 9), F(0), 30)
        ref = four_candidate_div(Interval.point(F(1, 3)), sqrt_enclose(F(5, 9), F(1, 10**9)))
        assert got.intersects(ref)
        assert got.width() < F(1, 10**6)

    def test_symmetric_under_swap(self):
        # the signed root in the denominator makes the quotient swap-invariant
        a = UNIT_CURVE.diff_quotient(F(1, 3), F(2, 3), 25)
        b = UNIT_CURVE.diff_quotient(F(2, 3), F(1, 3), 25)
        assert a == b

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            UNIT_CURVE.diff_quotient(F(1, 2), F(1, 2), 10)

    def test_bounded_by_one_on_random_breakpoints(self):
        rng = random.Random(77)
        pl = UNIT_CURVE.iterate(6)
        pts = pl.breakpoints
        for _ in range(300):
            (s, us), (t, ut) = rng.sample(pts, 2)
            # exact check of (u(s) - u(t))^2 <= |s - t|
            assert (us - ut) ** 2 <= abs(s - t)

    def test_branch_self_similarity_exact(self):
        # vertical increments contract by y_scale exactly under each branch map
        pts = UNIT_CURVE.iterate(3).breakpoints
        rng = random.Random(88)
        for branch in BRANCHES:
            for _ in range(40):
                (s, us), (t, ut) = rng.sample(pts, 2)
                ms, mt = branch.x_scale * s + branch.x_offset, branch.x_scale * t + branch.x_offset
                vs = UNIT_CURVE.eval_limit(ms, 16)
                vt = UNIT_CURVE.eval_limit(mt, 16)
                assert vs.is_point() and vt.is_point()
                assert vs.lo - vt.lo == branch.y_scale * (us - ut)
                assert ms - mt == branch.x_scale * (s - t)

    def test_quotient_invariance_under_branches(self):
        # |q(Bs, Bt)| agrees with |q(s, t)|, with the middle branch flipping sign
        pts = UNIT_CURVE.iterate(2).breakpoints
        rng = random.Random(99)
        for branch in BRANCHES:
            sign = 1 if branch.y_scale > 0 else -1
            for _ in range(25):
                (s, _), (t, _) = rng.sample(pts, 2)
                base = UNIT_CURVE.diff_quotient(s, t, 30)
                ms, mt = branch.x_scale * s + branch.x_offset, branch.x_scale * t + branch.x_offset
                mapped = UNIT_CURVE.diff_quotient(ms, mt, 30)
                assert mapped.intersects(base.scale(sign))

    def test_fold_enters_quotient(self):
        # u(3/2) = u(1/2): values fold, the horizontal gap does not
        enc = UNIT_CURVE.diff_quotient(F(3, 2), F(1, 2), 40)
        assert inside(enc, 0)
        assert enc.abs().hi < F(1, 10**6)


class TestGapFloor:
    def test_enclosure(self):
        floor = quotient_gap_floor()
        assert floor.lo >= F(854, 100000)
        assert floor.hi <= F(855, 100000)
        assert floor.width() < F(1, 10**9)

    def test_first_term_attains_minimum(self):
        # term 1: (1/3) * ((77/81) ** (-1/2) - 1); term 2: 7/9 - 3/5; term 3: 5 ** (-1/2)
        floor = quotient_gap_floor()
        assert (floor.lo, floor.hi) == (F(11598247159, 1356774662427), F(69589482955, 8140647974559))
        # lo <= term 1 <= hi  iff  77 * (3*lo + 1)**2 <= 81 <= 77 * (3*hi + 1)**2, cross-multiplied
        lo, hi = floor.lo, floor.hi
        assert 77 * (3 * lo.numerator + lo.denominator) ** 2 <= 81 * lo.denominator**2
        assert 81 * hi.denominator**2 <= 77 * (3 * hi.numerator + hi.denominator) ** 2
        # both other terms lie above the enclosure
        assert hi < F(7, 9) - F(3, 5)
        assert 5 * hi.numerator**2 < hi.denominator**2


class TestUnitWitnesses:
    def test_frozen_probe_choices(self):
        for t0, expect in (
            (F(1, 5), (F(5, 9), F(1))),
            (F(1, 2), (F(5, 9), F(1))),
            (F(3, 4), (F(0), F(4, 9))),
            (F(4, 9), (F(5, 9), F(1))),
        ):
            w = UNIT_CURVE.unit_witnesses(t0)
            assert (w.s1, w.s2) == expect

    def test_offsets_and_gap(self):
        rng = random.Random(111)
        floor = quotient_gap_floor()
        for _ in range(25):
            t0 = F(rng.randrange(0, 1001), 1000)
            w = UNIT_CURVE.unit_witnesses(t0)
            for s in (w.s1, w.s2):
                assert UNIT_MIN_OFFSET <= abs(s - t0) <= 1
            assert w.side in (-1, 1)
            assert w.gap_lower_bound >= floor.hi

    def test_min_offset_constant(self):
        assert UNIT_MIN_OFFSET == F(1, 18)

    def test_int_base_point(self):
        assert UNIT_CURVE.unit_witnesses(1) == UNIT_CURVE.unit_witnesses(F(1))

    @pytest.mark.parametrize("t0", [F(-1, 3), F(4, 3), 2])
    def test_out_of_domain(self, t0):
        with pytest.raises(OutOfDomain, match=r"t0=.* outside \[0, 1\]"):
            UNIT_CURVE.unit_witnesses(t0)


quotient_enclosures = st.tuples(
    st.fractions(-2, 2, max_denominator=60), st.fractions(-2, 2, max_denominator=60)
).map(lambda ends: Interval(min(ends), max(ends)))


class TestWitnessGap:
    """The witness gap against the lower end of |q1 - q2| in interval arithmetic."""

    @settings(max_examples=400, deadline=None)
    @given(q1=quotient_enclosures, q2=quotient_enclosures)
    @example(q1=Interval(F(-1), F(1)), q2=Interval.point(F(0)))  # the difference straddles 0
    @example(q1=Interval(F(1), F(2)), q2=Interval(F(0), F(1)))  # it touches 0 from above
    @example(q1=Interval(F(-3), F(-1)), q2=Interval(F(1, 2), F(1)))  # it lies below 0
    def test_gap_is_the_lower_end_of_the_interval_distance(self, q1, q2):
        s1, s2 = F(5, 9), F(1)
        quotients = {s1: q1, s2: q2}
        with mock.patch.object(Curve, "diff_quotient", lambda self, s, t, depth: quotients[s]):
            w = Curve()._deepen(s1, s2, F(1, 4), 1, (16,))
        assert type(w.gap_lower_bound) is F
        assert w.gap_lower_bound == (q1 - q2).abs().lo

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4))
    def test_gap_and_stop_depth_match_the_parent_expression(self, data, count):
        floor_hi = quotient_gap_floor().hi
        pairs = [data.draw(related_quotients(floor_hi)) for _ in range(count)]
        s1, s2 = F(5, 9), F(1)
        asked = []

        def quotient(self, s, t, depth):
            asked.append(depth)
            return pairs[depth][0 if s == s1 else 1]

        with mock.patch.object(Curve, "diff_quotient", quotient):
            w = Curve()._deepen(s1, s2, F(1, 4), 1, range(count))
        # the loop of Curve._deepen before its gap was read from integers
        for depth, (q1, q2) in enumerate(pairs):
            gap = max(q1.lo - q2.hi, q2.lo - q1.hi, F(0))
            if gap >= floor_hi:
                break
        assert w == QuotientWitness(s1, s2, gap, 1) and type(w.gap_lower_bound) is F
        assert asked == [d for d in range(depth + 1) for _ in (s1, s2)]


@st.composite
def related_quotients(draw, floor_hi):
    """Quotient enclosures (q1, q2) that are disjoint either way round, touch, overlap or coincide."""
    ends = st.fractions(-2, 2, max_denominator=60)
    widths = st.sampled_from([F(0), floor_hi]) | st.fractions(0, 1, max_denominator=60)
    lo = draw(ends)
    q1 = Interval(lo, lo + draw(widths))
    relation = draw(st.sampled_from(["apart", "touch", "overlap", "coincide"]))
    if relation == "coincide":
        q2 = q1
    elif relation == "overlap":
        start = q1.lo + draw(st.fractions(0, 1)) * q1.width()
        q2 = Interval(start - draw(widths), start + draw(widths))
    else:
        # apart: the gap is at, just below, just above or well off the floor
        gap = F(0) if relation == "touch" else draw(
            st.sampled_from([floor_hi, floor_hi - F(1, 10**15), floor_hi + F(1, 10**15)])
            | st.fractions(0, 2, max_denominator=60).filter(bool)
        )
        width = draw(widths)
        q2 = Interval(q1.hi + gap, q1.hi + gap + width)
    if draw(st.booleans()):
        q1, q2 = q2, q1
    return q1, q2


class TestLocateCell:
    def test_frozen(self):
        cell = UNIT_CURVE.locate_cell(F(1, 5), F(1))
        assert (cell.a, cell.b) == (F(1), F(0))

        cell = UNIT_CURVE.locate_cell(F(1, 2), F(1, 10))
        assert (cell.a, cell.b) == (F(1, 81), F(40, 81))

        cell = UNIT_CURVE.locate_cell(F(1, 10), F(3, 10))
        assert (cell.a, cell.b) == (F(16, 81), F(0))

        cell = UNIT_CURVE.locate_cell(F(0), F(1, 81))
        assert (cell.a, cell.b) == (F(4, 9) ** 6, F(0))

    def test_cell_contains_point_with_calibrated_length(self):
        rng = random.Random(222)
        for _ in range(60):
            t = F(rng.randrange(0, 1001), 1000)
            delta = F(1, 9) ** rng.randrange(0, 7)
            cell = UNIT_CURVE.locate_cell(t, delta)
            assert cell.b <= t <= cell.a + cell.b
            assert cell.a <= delta
            assert cell.a >= delta * F(1, 9)

    def test_deep_scale_is_reached(self):
        # 9**-400 needs more than 768 descent steps, the old fixed step guard
        t, delta = F(1, 7), F(1, 9**400)
        cell = UNIT_CURVE.locate_cell(t, delta)
        # every standard x_scale is 4/9 or 1/9, so the cell length is 4**i / 9**steps
        assert cell.a.denominator > 9 ** (4 * MAX_LEVEL * 16)
        assert cell.b <= t <= cell.a + cell.b
        assert delta / 9 <= cell.a <= delta

    def test_non_contracting_branch_refused(self):
        flat = Curve(branches=(Branch(BranchTag.LEFT, F(1), F(0), F(1), F(0)),))
        with pytest.raises(UncoveredPoint, match="does not contract"):
            flat.locate_cell(F(1, 2), F(1, 2))


class TestWindowWitnesses:
    def test_frozen(self):
        w = window(UNIT_CURVE, F(1, 2), F(1, 10))
        assert (w.s1, w.s2) == (F(365, 729), F(41, 81))

        w = window(UNIT_CURVE, F(0), F(1, 81))
        assert (w.s1, w.s2) == (F(20480, 4782969), F(4096, 531441))

        w = window(UNIT_CURVE, F(1, 5), F(1))
        assert (w.s1, w.s2) == (F(5, 9), F(1))

    def test_distances_and_gap(self):
        rng = random.Random(333)
        floor = quotient_gap_floor()
        for _ in range(25):
            t = F(rng.randrange(0, 10**6 + 1), 10**6)
            delta = F(1, 9) ** rng.randrange(1, 8)
            w = window(UNIT_CURVE, t, delta)
            for s in (w.s1, w.s2):
                assert delta * WINDOW_OFFSET_RATIO <= abs(s - t) <= delta
                assert 0 <= s <= 1
            assert w.gap_lower_bound >= floor.hi

    def test_offset_ratio_constant(self):
        assert WINDOW_OFFSET_RATIO == F(1, 162)

    @pytest.mark.parametrize("j", [322, 323])
    def test_start_depth_where_floats_end(self, j):
        # at t = 1/7, 9**-323 is the first scale whose cell length has no
        # finite float reciprocal
        t, delta = F(1, 7), F(1, 9**j)
        cell = UNIT_CURVE.locate_cell(t, delta)
        assert math.isinf(1 / float(cell.a)) == (j == 323)
        w = UNIT_CURVE.window_witnesses(cell)
        for s in (w.s1, w.s2):
            assert delta * WINDOW_OFFSET_RATIO <= abs(s - t) <= delta
        assert w.gap_lower_bound >= quotient_gap_floor().hi

    @pytest.mark.parametrize("j, start", [(5, 37), (10, 59)])
    def test_float_start_depth_on_the_all_mid_chain(self, j, start):
        # 1/2 is the mid branch's fixed point, so its cell at 9**-j has length
        # 9**-j exactly, and 16 + floor(2.2 * 2j) = 16 + floor(22j/5) is one more
        # than the depth cell_start_depth returns.  The golden scan at
        # --t-hat 7/2 folds onto this chain, and its window gap at 9**-5
        # differs between depths 37 and 38.
        cell = UNIT_CURVE.locate_cell(F(1, 2), F(1, 9**j))
        assert cell.a == F(1, 9**j) and 16 + 22 * j // 5 == start + 1
        assert cell_start_depth(cell) == start, (
            f"math.log(9**{j}, 3) = {math.log(9**j, 3)!r}: the float log_3 of the cell length, "
            f"not the exact 2j = {2 * j}, decides the start depth"
        )

    def test_start_depth_at_the_scale_cap(self):
        # log_3(9**j) = 2j: the window at 9**-MAX_SCALES may start within MAX_DEPTH, one scale deeper cannot
        assert MAX_SCALES == 927
        assert window_start_depth(0) == 16
        assert window_start_depth(2 * MAX_SCALES) <= MAX_DEPTH < window_start_depth(2 * (MAX_SCALES + 1))
        assert window_start_depth(2 * (MAX_SCALES + 1)) == 4099

    @pytest.mark.parametrize("j", [1, 40, 322, 323, 400])
    def test_start_depth_bounds_the_first_depth_tried(self, j, monkeypatch):
        depths = []
        step = Curve.diff_quotient
        monkeypatch.setattr(Curve, "diff_quotient", lambda self, s, t, d: depths.append(d) or step(self, s, t, d))
        window(UNIT_CURVE, F(1, 7), F(1, 9**j))
        assert depths[0] >= window_start_depth(2 * j)

    def test_refuses_a_cell_it_did_not_locate(self):
        # the probe descents start from the cell's integer state, composed with the locating curve's rows
        t, delta = F(1, 7), F(1, 81)
        located = UNIT_CURVE.locate_cell(t, delta)
        plain, other = AffineMap1D(located.a, located.b), Curve().locate_cell(t, delta)
        assert plain == other == located
        for cell in (plain, other, _drifted(BranchTag.LEFT, "x_scale", F(1, 100)).locate_cell(t, delta)):
            with pytest.raises(ValueError, match="needs a cell this curve located"):
                UNIT_CURVE.window_witnesses(cell)


class TestCurveValidation:
    def test_uncovered_point(self):
        left, mid, right = BRANCHES
        shrunk = Branch(
            tag=left.tag,
            x_scale=F(2, 5),
            x_offset=F(0),
            y_scale=left.y_scale,
            y_offset=left.y_offset,
        )
        curve = Curve(branches=(shrunk, mid, right))
        with pytest.raises(UncoveredPoint):
            curve.eval_limit(F(42, 100), 20)

    def test_invalid_iterate_raises(self):
        left, mid, right = BRANCHES
        drifted = Branch(
            tag=mid.tag,
            x_scale=mid.x_scale,
            x_offset=mid.x_offset,
            y_scale=F(-7, 20),
            y_offset=mid.y_offset,
        )
        curve = Curve(branches=(left, drifted, right))
        with pytest.raises(InvalidCurve):
            curve.iterate(2)


# ----------------------------------------------------------------------
# Fraction reference: the descent as plain rational stepping, kept as the
# oracle the integer kernel in Curve must match value for value and
# exception for exception.


def ref_locate_branch(curve, t):
    for br in curve.branches:
        if br.x_lo <= t <= br.x_hi:
            return br
    raise UncoveredPoint(f"no branch cell contains t={t}")


def ref_eval_limit(curve, t, depth):
    t = F(t)
    if not 0 <= t <= 1:
        raise OutOfDomain(f"t={t} outside [0, 1]")
    if depth < 0:
        raise OutOfDomain("depth must be nonnegative")
    a, b = F(1), F(0)
    for _ in range(depth):
        if t == 0 or t == 1:
            break
        br = ref_locate_branch(curve, t)
        a, b = a * br.y_scale, a * br.y_offset + b
        t = (t - br.x_offset) / br.x_scale
    if t == 0 or t == 1:
        return Interval.point(a * t + b)
    lo, hi = (b, a + b) if a >= 0 else (a + b, b)
    return Interval(lo, hi)


def ref_eval_iterate(curve, n, t):
    t = F(t)
    if not 0 <= t <= 1:
        raise OutOfDomain(f"t={t} outside [0, 1]")
    if n < 0:
        raise OutOfDomain("level must be nonnegative")
    if n > MAX_LEVEL:
        raise DepthTooLarge(f"level {n} exceeds cap {MAX_LEVEL}")
    if n == 0:
        return t
    br = ref_locate_branch(curve, t)
    return br.y_scale * ref_eval_iterate(curve, n - 1, (t - br.x_offset) / br.x_scale) + br.y_offset


def ref_locate_cell(curve, t, delta):
    t = F(t)
    delta = F(delta)
    if not 0 <= t <= 1:
        raise OutOfDomain(f"t={t} outside [0, 1]")
    if not 0 < delta <= 1:
        raise OutOfDomain(f"delta={delta} outside (0, 1]")
    cell = AffineMap1D(F(1), F(0))
    guard = 0
    while cell.a > delta:
        br = ref_locate_branch(curve, cell_inverse(cell, t))
        cell = AffineMap1D(cell.a * br.x_scale, cell.a * br.x_offset + cell.b)
        guard += 1
        if guard > 4 * MAX_LEVEL * 16:
            raise UncoveredPoint("descent does not contract; branch system broken")
    return cell


def ref_iterate(curve, n):
    if n < 0:
        raise OutOfDomain("level must be nonnegative")
    if n > MAX_LEVEL:
        raise DepthTooLarge(f"level {n} exceeds cap {MAX_LEVEL}")
    pts = [(F(0), F(0)), (F(1), F(1))]
    for _ in range(n):
        nxt = []
        for br in curve.branches:
            for t, v in pts:
                p = (br.x_scale * t + br.x_offset, br.y_scale * v + br.y_offset)
                if nxt and nxt[-1] == p:
                    continue
                nxt.append(p)
        pts = nxt
    return ref_breakpoints(pts)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _drifted(tag, fld, bump):
    br = next(b for b in BRANCHES if b.tag is tag)
    return Curve(branches=perturbed_branches(tag, fld, getattr(br, fld) + bump))


_LEFT, _MID, _RIGHT = BRANCHES
ORACLE_CURVES = (
    [UNIT_CURVE]
    # the 24 drifts of the mutation probe
    + [_drifted(br.tag, fld, bump) for br in BRANCHES for fld in MUTABLE_FIELDS for bump in (F(1, 100), F(-1, 100))]
    # drifts that open gaps (UncoveredPoint) or break the iterates (InvalidCurve)
    + [
        _drifted(BranchTag.LEFT, "x_scale", F(-1, 7)),
        _drifted(BranchTag.MID, "x_scale", F(-1, 7)),
        _drifted(BranchTag.MID, "y_scale", F(1, 7)),
        _drifted(BranchTag.RIGHT, "x_offset", F(1, 7)),
        # zero-length cells: inverting their map divides by zero
        _drifted(BranchTag.LEFT, "x_scale", F(-4, 9)),
        Curve(branches=(_LEFT, Branch(BranchTag.MID, F(0), F(1, 2), F(-1, 3), F(2, 3)), _RIGHT)),
    ]
)
_rng = random.Random(20259)
ORACLE_TS = (
    [F(_rng.randrange(10**6 + 1), 10**6) for _ in range(8)]
    + [F(k, 81) for k in _rng.sample(range(82), 8)]
    + [F(0), F(1), F(1, 2), F(3, 2)]
)
ORACLE_DEPTHS = (0, 1, 2, 5, 30, 60)


class TestFractionOracle:
    """The integer kernel against the Fraction reference on every branch tuple."""

    @pytest.mark.parametrize("curve", ORACLE_CURVES)
    def test_eval_limit(self, curve):
        for t in ORACLE_TS:
            for depth in ORACLE_DEPTHS + (-1,):
                assert outcome(curve.eval_limit, t, depth) == outcome(ref_eval_limit, curve, t, depth)
        # depth 300 on two grid points and two k/81 points keeps the reference affordable
        for t in ORACLE_TS[:2] + ORACLE_TS[8:10]:
            assert outcome(curve.eval_limit, t, 300) == outcome(ref_eval_limit, curve, t, 300)

    @pytest.mark.parametrize("curve", ORACLE_CURVES)
    def test_locate_cell(self, curve):
        deltas = [F(1, 9**d) for d in ORACLE_DEPTHS] + [F(3, 10), F(1, 7), F(0), F(2)]
        for t in ORACLE_TS:
            for delta in deltas:
                assert outcome(curve.locate_cell, t, delta) == outcome(ref_locate_cell, curve, t, delta)

    @pytest.mark.parametrize("curve", ORACLE_CURVES)
    def test_iterate(self, curve):
        for n in (-1, 0, 1, 2, 3, 4, MAX_LEVEL + 1):
            assert outcome(lambda n: curve.iterate(n).breakpoints, n) == outcome(ref_iterate, curve, n)


# ----------------------------------------------------------------------
# Curves keep their descents: eval_limit against a fresh Curve per call,
# which has nothing to resume, and diff_quotient against the same
# enclosures divided by four-candidate min/max.


def fresh_eval_limit(curve, t, depth):
    return Curve(branches=curve.branches).eval_limit(t, depth)


def ref_diff_quotient(curve, s, t, depth):
    s, t = F(s), F(t)
    if s == t:
        raise CoincidentPoints("difference quotient needs s != t")
    num = fresh_eval_limit(curve, reduce_domain(s), depth) - fresh_eval_limit(curve, reduce_domain(t), depth)
    gap = abs(s - t)
    q = four_candidate_div(num, sqrt_enclose(gap, min(gap, F(1)) * F(2, 3) ** depth))
    return q if s > t else -q


def parent_diff_quotient(curve, s, t, depth):
    """Curve.diff_quotient before `_root_quotient`: Interval subtraction, four-candidate division, negation."""
    if type(s) is not F:
        s = F(s)
    if type(t) is not F:
        t = F(t)
    if s == t:
        raise CoincidentPoints("difference quotient needs s != t")
    us = curve.eval_limit(reduce_domain(s), depth)
    ut = curve.eval_limit(reduce_domain(t), depth)
    gap = abs(s - t)
    q = four_candidate_div(us - ut, sqrt_enclose(gap, min(gap, F(1)) * F(2, 3) ** depth))
    return q if s > t else -q


# Base points on and off [0, 1], and gaps that are above, at and below 1,
# perfect squares (exact roots) or zero (coincident points).
line_points = st.sampled_from([F(0), F(4, 9), F(5, 9), F(1), F(1, 2), F(-1), F(3, 2), F(-7, 3)]) | st.fractions(
    -3, 3, max_denominator=10**4
)
quotient_gaps = st.sampled_from([F(0), F(1, 4), F(4, 9), F(1), F(9, 4), F(4), F(1, 81), F(5, 9), F(2)]) | st.fractions(
    0, 4, max_denominator=10**4
)
QUOTIENT_CURVES = [
    UNIT_CURVE,
    _drifted(BranchTag.LEFT, "x_scale", F(1, 100)),
    _drifted(BranchTag.MID, "y_scale", F(-1, 100)),
    _drifted(BranchTag.RIGHT, "y_offset", F(1, 100)),
    _drifted(BranchTag.LEFT, "x_scale", F(-1, 7)),  # no cell covers (19/63, 4/9)
]


class TestQuotientAgainstTheParent:
    @settings(max_examples=400, deadline=None)
    @given(
        t=line_points,
        other=line_points | st.tuples(quotient_gaps, st.sampled_from([1, -1])),
        swap=st.booleans(),
        depth=st.integers(0, 96) | st.sampled_from([-1, 600, MAX_DEPTH + 1]),
        curve=st.sampled_from(QUOTIENT_CURVES),
    )
    def test_same_endpoints_and_exceptions(self, t, other, swap, depth, curve):
        s = t + other[0] * other[1] if isinstance(other, tuple) else other
        if swap:
            s, t = t, s
        fresh = Curve(branches=curve.branches)
        assert outcome(curve.diff_quotient, s, t, depth) == outcome(parent_diff_quotient, fresh, s, t, depth)

    @pytest.mark.parametrize("curve", QUOTIENT_CURVES[:3])
    def test_special_gaps_in_both_orders(self, curve):
        fresh = Curve(branches=curve.branches)
        for t in (F(0), F(4, 9), F(5, 9), F(1), F(1, 2), F(-7, 3)):
            for gap in (F(1, 4), F(4, 9), F(1), F(9, 4), F(1, 81), F(5, 9), F(2)):
                for s in (t + gap, t - gap):
                    for depth in (0, 1, 16, 96, 600):
                        for a, b in ((s, t), (t, s)):
                            assert outcome(curve.diff_quotient, a, b, depth) == outcome(
                                parent_diff_quotient, fresh, a, b, depth
                            )

    def test_every_exception_is_reached(self):
        cases = [
            (UNIT_CURVE, F(1, 3), F(1, 3), 10, CoincidentPoints),
            (UNIT_CURVE, F(1, 3), F(2, 3), -1, OutOfDomain),
            (UNIT_CURVE, F(1, 3), F(2, 3), MAX_DEPTH + 1, DepthTooLarge),
            (QUOTIENT_CURVES[-1], F(1, 3), F(2, 3), 10, UncoveredPoint),
        ]
        for curve, s, t, depth, exc in cases:
            got = outcome(curve.diff_quotient, s, t, depth)
            assert got[0] is exc and got == outcome(parent_diff_quotient, curve, s, t, depth)


RESUME_DEPTHS = (0, 1, 16, 24, 30, 16, 64, 300)
RESUME_TS = [F(_rng.randrange(10**6 + 1), 10**6) for _ in range(6)] + [F(k, 81) for k in _rng.sample(range(82), 6)]


class TestResumableDescent:
    @pytest.mark.parametrize("curve", ORACLE_CURVES[:25])
    def test_rising_repeated_and_falling_depths(self, curve):
        kept = Curve(branches=curve.branches)
        for t in RESUME_TS:
            for depth in RESUME_DEPTHS:
                assert outcome(kept.eval_limit, t, depth) == outcome(fresh_eval_limit, curve, t, depth)
            assert len(kept._descents) <= _DESCENTS_KEPT

    def test_failed_descent_keeps_nothing(self):
        gap = _drifted(BranchTag.LEFT, "x_scale", F(-1, 7))  # no cell covers (19/63, 4/9)
        t = F(32, 45)  # the right branch maps it to 7/20, inside the gap
        expected = outcome(fresh_eval_limit, gap, t, 30)
        assert expected[0] is UncoveredPoint
        assert outcome(gap.eval_limit, t, 30) == expected
        assert outcome(gap.eval_limit, t, 30) == expected
        assert (t.numerator, t.denominator) not in gap._descents
        # a shallower descent succeeds and is kept; resuming it fails the same way
        assert gap.eval_limit(t, 1) == fresh_eval_limit(gap, t, 1)
        assert gap._descents[t.numerator, t.denominator][4] == 1
        assert outcome(gap.eval_limit, t, 30) == expected
        assert gap._descents[t.numerator, t.denominator][4] == 1

    def test_store_holds_one_cone_campaign(self):
        # cone's profile arguments fold onto k/1000 in [0, 1], and its breakpoint pairs add 4/9 and 5/9
        folded = {reduce_domain(v) for v in verify._draw_grid()} | {F(4, 9), F(5, 9)}
        assert len(folded) == 1003 and _DESCENTS_KEPT >= len(folded)

    def test_store_stays_bounded(self):
        curve = Curve()
        for i in range(3 * _DESCENTS_KEPT):
            curve.eval_limit(F(i, 3 * _DESCENTS_KEPT), 8)
            assert len(curve._descents) <= _DESCENTS_KEPT
        assert curve == UNIT_CURVE and repr(curve) == repr(UNIT_CURVE)

    def test_store_keeps_every_descent_until_full(self, monkeypatch):
        curve = Curve()
        grid = [F(i, _DESCENTS_KEPT - 1) for i in range(_DESCENTS_KEPT)]
        for t in grid:
            curve.eval_limit(t, 30)
        assert len(curve._descents) == _DESCENTS_KEPT
        steps = []
        step = Curve.locate_branch
        monkeypatch.setattr(Curve, "locate_branch", lambda self, *args: steps.append(args) or step(self, *args))
        for t in grid:
            assert curve.eval_limit(t, 30) == fresh_eval_limit(UNIT_CURVE, t, 30)
        steps.clear()
        for t in grid:
            curve.eval_limit(t, 30)
        assert steps == [] and len(curve._descents) == _DESCENTS_KEPT
        curve.eval_limit(F(1, 7), 30)  # one point more clears the store
        assert list(curve._descents) == [(1, 7)]

    def test_depth_cap(self, monkeypatch):
        assert UNIT_CURVE.eval_limit(F(1, 2), MAX_DEPTH) == fresh_eval_limit(UNIT_CURVE, F(1, 2), MAX_DEPTH)
        curve = Curve()

        def no_descent(*args):
            raise AssertionError("descent started above the depth cap")

        monkeypatch.setattr(Curve, "_descend", no_descent)
        for depth in (MAX_DEPTH + 1, 10**12):
            with pytest.raises(DepthTooLarge, match=f"depth {depth} exceeds cap {MAX_DEPTH}"):
                curve.eval_limit(F(1, 7), depth)
        assert curve._descents == {}

    def test_kept_exact_descent_is_final(self, monkeypatch):
        # 0 and 1 are exact at once, 4/9 and 5/9 after one step; 1/7 never is
        curve = Curve()
        points = [F(0), F(1), F(4, 9), F(5, 9), F(1, 7)]
        depths = (16, 30, 64, 16)
        want = [fresh_eval_limit(UNIT_CURVE, t, depth) for depth in depths for t in points]
        for t in points:
            curve.eval_limit(t, 16)
        kept = dict(curve._descents)
        steps = []  # (p*dx, q, levels the step took)
        locate = Curve.locate_branch

        def recorded(self, pd, q, levels):
            row = locate(self, pd, q, levels)
            steps.append((pd, q, row[-1]))
            return row

        monkeypatch.setattr(Curve, "locate_branch", recorded)
        got, counts, levels = [], [], []
        for depth in depths:
            for t in points:
                before = len(steps)
                got.append(curve.eval_limit(t, depth))
                counts.append(len(steps) - before)
                levels.append(sum(n for _, _, n in steps[before:]))
        assert got == want
        # only 1/7 steps: resumed at 30 and 64 from the kept step count, restarted at 16
        p, q, k = kept[1, 7][0], kept[1, 7][1], kept[1, 7][4]
        assert levels == [0, 0, 0, 0, 0] + [0, 0, 0, 0, 30 - k] + [0, 0, 0, 0, 64 - 30] + [0, 0, 0, 0, 16]
        # 1/7 never reaches the dx**L grid, so every step takes L levels while L remain
        span = curve._span
        calls = [n // span + n % span for n in levels]
        assert counts == calls
        assert steps[0][:2] == (p * curve._dx, q) and steps[calls[9] + calls[14]][:2] == (curve._dx, 7)
        assert list(curve._descents) == list(kept)
        assert all(curve._descents[key] == kept[key] for key in kept if key != (1, 7))

    def test_non_integer_depth_refused_after_a_kept_descent(self):
        curve = Curve()
        curve.eval_limit(F(1, 7), 16)
        for depth in (16.0, F(16)):
            with pytest.raises(TypeError) as got:
                curve.eval_limit(F(1, 7), depth)
            with pytest.raises(TypeError) as want:
                fresh_eval_limit(curve, F(1, 7), depth)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("curve", ORACLE_CURVES[:25])
    def test_diff_quotient_off_the_unit_interval(self, curve):
        points = [F(-7, 3), -1, F(-1, 7), 0, F(1, 7), F(1, 2), 1, F(3, 2), 2, F(17, 7)]
        for s in points:
            for t in points:
                for depth in (0, 5, 30):
                    assert outcome(curve.diff_quotient, s, t, depth) == outcome(ref_diff_quotient, curve, s, t, depth)


@contextmanager
def counted_work():
    """Descent steps, the levels they took and Fraction constructions inside the block, as a dict filled in as they happen."""
    counts = {"steps": 0, "levels": 0, "Fraction": 0}
    locate, real_new = Curve.locate_branch, F.__new__

    def counted_locate(self, pd, q, levels):
        row = locate(self, pd, q, levels)
        counts["steps"] += 1
        counts["levels"] += row[-1]
        return row

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    with mock.patch.object(Curve, "locate_branch", counted_locate), mock.patch.object(
        F, "__new__", staticmethod(counted_new)
    ):
        yield counts


# (t, depth) calls on one Curve: repeats, deeper and shallower calls,
# points exact at once (0, 1) or after one step (4/9, 5/9) that are then
# asked deeper, and shallower calls below a kept exact state.  On two of
# KEPT_CURVES, 32/45 or 2/9 raises one step into its descent.
KEPT_CALLS = [
    (F(1, 7), 16), (F(1, 7), 16), (F(1, 7), 30), (F(1, 7), 30), (F(1, 7), 16), (F(1, 7), 16), (F(1, 7), 0),
    (F(4, 9), 0), (F(4, 9), 1), (F(4, 9), 1), (F(4, 9), 64), (F(4, 9), 0), (F(4, 9), 64),
    (F(5, 9), 30), (F(5, 9), 2), (F(0), 0), (F(0), 40), (F(1), 7), (F(1), 0),
    (F(2, 9), 1), (F(2, 9), 2), (F(2, 9), 2), (F(2, 9), 1), (F(32, 45), 1), (F(32, 45), 30), (F(32, 45), 30),
    (F(32, 45), 1), (F(123457, 10**6), 60), (F(123457, 10**6), 59), (F(123457, 10**6), 61),
]
KEPT_CURVES = [
    UNIT_CURVE,
    _drifted(BranchTag.MID, "y_scale", F(-1, 100)),
    _drifted(BranchTag.LEFT, "x_scale", F(-1, 7)),  # the right branch maps 32/45 into the gap (19/63, 4/9)
    ORACLE_CURVES[-1],  # the left branch maps 2/9 onto the zero-length mid cell at 1/2
]


class TestKeptEnclosure:
    """eval_limit returns the enclosure it keeps with each descent, and builds it only once."""

    @pytest.mark.parametrize("curve", KEPT_CURVES)
    def test_call_sequence_matches_a_new_curve_and_the_oracle(self, curve):
        kept = Curve(branches=curve.branches)
        for t, depth in KEPT_CALLS:
            got = outcome(kept.eval_limit, t, depth)
            assert got == outcome(fresh_eval_limit, curve, t, depth) == outcome(ref_eval_limit, curve, t, depth)
        if curve is UNIT_CURVE:
            assert {key: st[4] for key, st in kept._descents.items()} == {
                (1, 7): 0, (4, 9): 1, (5, 9): 1, (0, 1): 0, (1, 1): 0, (2, 9): 1, (32, 45): 1, (123457, 10**6): 61
            }

    def test_drift_that_raises_mid_descent(self):
        for curve, t, exc in ((KEPT_CURVES[2], F(32, 45), UncoveredPoint), (KEPT_CURVES[3], F(2, 9), ZeroDivisionError)):
            kept = Curve(branches=curve.branches)
            shallow = kept.eval_limit(t, 1)
            for _ in range(2):
                got = outcome(kept.eval_limit, t, 30)
                assert got[0] is exc and got == outcome(ref_eval_limit, curve, t, 30)
                # the failed descent kept nothing: the depth-1 enclosure is still the one returned
                assert kept._descents[t.numerator, t.denominator][4:] == (1, shallow)
            with counted_work() as work:
                assert kept.eval_limit(t, 1) is shallow
            assert work == {"steps": 0, "levels": 0, "Fraction": 0}

    @pytest.mark.parametrize("t, depth", [(F(1, 7), 30), (F(4, 9), 64), (F(0), 16), (F(123457, 10**6), 60)])
    def test_repeat_takes_no_step_and_builds_no_fraction(self, t, depth):
        curve = Curve()
        first = curve.eval_limit(t, depth)
        with counted_work() as work:
            again = curve.eval_limit(t, depth)
            # a kept exact value answers any deeper call too
            deeper = curve.eval_limit(t, depth + 5) if first.is_point() else again
        assert again is first and deeper is first
        assert work == {"steps": 0, "levels": 0, "Fraction": 0}
        k = curve._descents[t.numerator, t.denominator][4]
        with counted_work() as work:
            deeper = curve.eval_limit(t, depth + 5)
        assert deeper == fresh_eval_limit(UNIT_CURVE, t, depth + 5)
        # the resume continues from the kept step count; neither non-exact
        # point reaches the dx**L grid, so the table takes L levels while L remain
        n, span = (0 if first.is_point() else depth + 5 - k), curve._span
        assert work["levels"] == n and (first.is_point() or k == depth)
        assert work["steps"] == n // span + n % span

    def test_store_clears_when_full(self):
        curve = Curve()
        grid = [F(i, _DESCENTS_KEPT - 1) for i in range(_DESCENTS_KEPT)]
        first = [curve.eval_limit(t, 12) for t in grid]
        assert len(curve._descents) == _DESCENTS_KEPT
        assert curve.eval_limit(F(1, 7), 12) == fresh_eval_limit(UNIT_CURVE, F(1, 7), 12)
        assert list(curve._descents) == [(1, 7)]
        for t, enc in zip(grid[:3], first):
            again = curve.eval_limit(t, 12)
            assert again == enc == ref_eval_limit(UNIT_CURVE, t, 12)
        assert list(curve._descents) == [(1, 7)] + [(t.numerator, t.denominator) for t in grid[:3]]

    @pytest.mark.parametrize("t, delta", [(F(1, 7), F(1, 81)), (F(2, 3), F(1, 9)), (F(123457, 10**6), F(1, 9**12))])
    def test_seeded_probes_carry_no_enclosure_until_asked(self, t, delta):
        curve = Curve()
        cell = curve.locate_cell(t, delta)
        seen = []
        real = Curve.eval_limit

        def recorded(self, s, depth):
            key = (s.numerator, s.denominator)
            before = self._descents.get(key)
            enc = real(self, s, depth)
            seen.append((s, depth, before, enc))
            return enc

        with mock.patch.object(Curve, "eval_limit", recorded):
            w = curve.window_witnesses(cell)
        assert w == window(Curve(), t, delta) == ref_window_witnesses(UNIT_CURVE, t, delta)
        probes = {w.s1, w.s2}
        firsts = {}
        for s, depth, before, enc in seen:
            assert enc == fresh_eval_limit(UNIT_CURVE, s, depth) == ref_eval_limit(UNIT_CURVE, s, depth)
            if s in probes and s not in firsts:
                firsts[s] = before
        # each probe was seeded at the cell's step count, with no enclosure
        k = cell.descent[5]
        assert sorted(firsts) == sorted(probes)
        assert all(before is not None and before[4] == k and before[5] is None for before in firsts.values())


# ----------------------------------------------------------------------
# The slot table: `_descend` takes L levels per step through it, and must
# leave the state the one-level steps leave, integer for integer, and
# raise what they raise.  The one-level steps are kept here as the
# reference, beside `ref_eval_limit`'s Fraction oracle.


def one_level_descend(curve, state, depth):
    """`Curve._descend` with one level per step, scanning the branch rows."""
    dx, ey = curve._dx, curve._ey
    p, q, a, b, k = state
    for _ in range(depth - k):
        if p == 0 or p == q:
            break
        pd = p * dx
        row = next((row for row in curve._rows if row[0] * q <= pd <= row[1] * q), None)
        if row is None:
            raise UncoveredPoint(f"no branch cell contains t={F(p, q)}")
        _, _, xs, xo, ys, yo, _, _, _ = row
        if not xs:
            F(pd - xo * q, q * dx) / F(xs, dx)
        p, q = pd - xo * q, q * xs
        a, b = a * ys, a * yo + b * ey
        k += 1
    return p, q, a, b, k


# dx = 1: one branch that maps [0, 1] onto itself
FLAT = Curve(branches=(Branch(BranchTag.LEFT, F(1), F(0), F(1), F(0)),))
# y-scales (12/13, -3/13, 4/13): dx = 169, too large for a table
S13 = Curve(
    branches=(
        Branch(BranchTag.LEFT, F(144, 169), F(0), F(12, 13), F(0)),
        Branch(BranchTag.MID, F(9, 169), F(144, 169), F(-3, 13), F(12, 13)),
        Branch(BranchTag.RIGHT, F(16, 169), F(153, 169), F(4, 13), F(9, 13)),
    )
)
# constants over 10**6: dx = 9 000 027 has no table; ey = 39 000 117 keeps dx = 9
HUGE_DX = _drifted(BranchTag.LEFT, "x_scale", F(1, 10**6 + 3))
HUGE_EY = _drifted(BranchTag.MID, "y_scale", F(1, 10**6 + 3))
# dx = 9 with a gap (3/9, 4/9): its slots there are uncovered
GAP9 = _drifted(BranchTag.LEFT, "x_scale", F(-1, 9))
TABLE_CURVES = ORACLE_CURVES + [FLAT, S13, HUGE_DX, HUGE_EY, GAP9]
# dx = 27, tiled with the standard y maps: x cells [0, 11/27], [11/27, 16/27], [16/27, 1]
DX27 = Curve(
    branches=(
        Branch(BranchTag.LEFT, F(11, 27), F(0), F(2, 3), F(0)),
        Branch(BranchTag.MID, F(5, 27), F(11, 27), F(-1, 3), F(2, 3)),
        Branch(BranchTag.RIGHT, F(11, 27), F(16, 27), F(2, 3), F(1, 3)),
    )
)
TABLE_DEPTHS = tuple(range(8)) + (16, 30, 31, 64)
TABLE_TS = [F(0), F(1), F(4, 9), F(5, 9), F(1, 3), F(1, 729), F(364, 729), F(1, 7)]
TABLE_GRID = [F(i, 729) for i in range(0, 730, 13)] + [F(i, 81) for i in range(1, 81, 5)]


def descend_outcomes(curve, t, depth):
    """What `_descend` gives from t on a new Curve, and what the one-level steps give."""
    start = (t.numerator, t.denominator, 1, 0, 0)
    got = outcome(Curve(branches=curve.branches)._descend, start, depth)
    return got, outcome(one_level_descend, curve, start, depth)


class TestSlotTable:
    @pytest.mark.parametrize("curve", TABLE_CURVES)
    def test_descent_matches_the_one_level_steps_and_the_oracle(self, curve):
        for t in TABLE_TS + TABLE_GRID:
            for depth in TABLE_DEPTHS:
                got, want = descend_outcomes(curve, t, depth)
                assert got == want
        for t in TABLE_TS:
            for depth in TABLE_DEPTHS:
                assert outcome(fresh_eval_limit, curve, t, depth) == outcome(ref_eval_limit, curve, t, depth)

    @pytest.mark.parametrize("curve", TABLE_CURVES)
    def test_resumed_descent_matches_the_one_level_steps(self, curve):
        kept = Curve(branches=curve.branches)
        for t in TABLE_TS + TABLE_GRID[::3]:
            start = (t.numerator, t.denominator, 1, 0, 0)
            for j in (1, 2, 5):
                try:
                    state = one_level_descend(curve, start, j)
                except (ArithmeticError, ValueError):
                    continue
                for depth in (j + 2, j + 3, 31, 64):
                    assert outcome(kept._descend, state, depth) == outcome(one_level_descend, curve, state, depth)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.fractions(0, 1, max_denominator=10**6) | st.integers(0, 729).map(lambda i: F(i, 729)),
        depth=st.sampled_from(TABLE_DEPTHS),
        curve=st.sampled_from(TABLE_CURVES),
    )
    def test_drawn_points(self, t, depth, curve):
        got, want = descend_outcomes(curve, t, depth)
        assert got == want
        assert outcome(fresh_eval_limit, curve, t, depth) == outcome(ref_eval_limit, curve, t, depth)

    def test_both_exceptions_are_reached_through_tabled_systems(self, monkeypatch):
        # a gap of a dx = 9 system, reached after one level or at once
        kept = Curve(branches=GAP9.branches)
        for t, depth in ((F(35, 81), 30), (F(7, 18), 31), (F(1, 7) * 2 + F(1, 20), 64)):
            want = outcome(one_level_descend, GAP9, (t.numerator, t.denominator, 1, 0, 0), depth)
            assert outcome(kept._descend, (t.numerator, t.denominator, 1, 0, 0), depth) == want
            assert want[0] is UncoveredPoint
        assert () in kept._tables[-1]
        # a zero-length mid cell at 5/9 of a dx = 9 system: 320/6561 takes one
        # three-level step through the table, then a one-level step into it
        zero = Curve(branches=(_LEFT, Branch(BranchTag.MID, F(0), F(5, 9), F(-1, 3), F(2, 3)), _RIGHT))
        got, want = descend_outcomes(zero, F(320, 6561), 30)
        assert got == want and got[0] is ZeroDivisionError
        steps, locate = [], Curve.locate_branch

        def recorded(self, pd, q, levels):
            row = locate(self, pd, q, levels)
            steps.append(row[-1])
            return row

        monkeypatch.setattr(Curve, "locate_branch", recorded)
        assert outcome(zero._descend, (320, 6561, 1, 0, 0), 30) == got
        assert zero._span == 3 and steps == [3, 1]

    def test_grid_points_take_the_leftmost_cell(self):
        # 4/9 ends the left cell and starts the mid one, 5/9 ends the mid
        # one: the leftmost descent reaches 1 after one level and stops
        for t in (F(4, 9), F(5, 9), F(364, 729)):
            for depth in (3, 4, 30):
                got = Curve()._descend((t.numerator, t.denominator, 1, 0, 0), depth)
                assert got == one_level_descend(UNIT_CURVE, (t.numerator, t.denominator, 1, 0, 0), depth)
                assert got[0] == got[1] and got[4] == (1 if t.denominator == 9 else 3)

    def test_span_rule_ends_and_bounds_the_table(self):
        # dx = 1 and constants over 10**6 construct at once; their descents
        # are among TABLE_CURVES in the tests above
        start = time.perf_counter()
        curves = {curve: Curve(branches=curve.branches) for curve in TABLE_CURVES}
        assert time.perf_counter() - start < 1.0
        assert all(len(table) <= 9**3 for fresh in curves.values() for table in fresh._tables)
        spans = {UNIT_CURVE: (3, [9, 81, 729]), FLAT: (3, [1, 1, 1])}
        spans[S13] = spans[HUGE_DX] = spans[ORACLE_CURVES[-1]] = (0, [])
        spans[HUGE_EY] = spans[GAP9] = spans[UNIT_CURVE]
        for curve, (span, slots) in spans.items():
            assert (curves[curve]._span, [len(table) for table in curves[curve]._tables]) == (span, slots)

    @pytest.mark.parametrize("curve", [ORACLE_CURVES[-1], DX27])
    def test_systems_with_dx_from_10_to_27_have_no_table(self, curve):
        assert curve._dx in (18, 27) and curve._span == 0 and curve._tables == []
        for t in TABLE_TS + [F(123457, 10**6)]:
            for depth in (5, 30):
                assert outcome(curve.eval_limit, t, depth) == outcome(ref_eval_limit, curve, t, depth)
            for delta in (F(1, 9), F(1, 729)):
                assert outcome(curve.locate_cell, t, delta) == outcome(ref_locate_cell, curve, t, delta)
                window = outcome(lambda: curve.window_witnesses(curve.locate_cell(t, delta)))
                assert window == outcome(ref_window_witnesses, curve, t, delta)

    def test_every_slot_row_is_its_composed_cell(self):
        curve = Curve()
        dx, ey = curve._dx, curve._ey
        slots = len(curve._tables[-1])
        for s in range(slots):
            t = F(2 * s + 1, 2 * slots)
            assert curve._descend((t.numerator, t.denominator, 1, 0, 0), 3) == one_level_descend(
                curve, (t.numerator, t.denominator, 1, 0, 0), 3
            )
        # the level-3 table and the tables of its parent slots are full
        for n, table in enumerate(curve._tables, 1):
            rows = set(table)
            assert len(rows) == 3**n and None not in rows and () not in rows
            for s, (lo, hi, xs, xo, ys, yo, xl, yd, m) in enumerate(table):
                assert (xl, yd, m) == (dx ** (n - 1), ey**n, n)
                assert (lo, hi) == (xo, xo + xs) and lo <= s and s + 1 <= hi
            # each cell's vertical map sends the ends of [0, 1] to u at the cell's ends
            for lo, hi, _, _, ys, yo, _, yd, _ in rows:
                assert ref_eval_limit(curve, F(lo, dx**n), 40) == Interval.point(F(yo, yd))
                assert ref_eval_limit(curve, F(hi, dx**n), 40) == Interval.point(F(ys + yo, yd))


class TestDiffQuotientIntegers:
    """diff_quotient orders s and t, and measures |s - t|, on cross-multiplied numerators."""

    @pytest.mark.parametrize("s, t", [(1, F(1)), (F(1), 1), (0, F(0, 5)), (-3, F(-6, 2)), (True, F(1))])
    def test_coincident_points_of_different_types(self, s, t):
        with pytest.raises(CoincidentPoints, match="difference quotient needs s != t"):
            UNIT_CURVE.diff_quotient(s, t, 10)

    @pytest.mark.parametrize("t", [F(1, 7), F(4, 9), F(1, 2), F(123457, 10**6), F(1), 1])
    @pytest.mark.parametrize("depth", [0, 5, 30])
    def test_abscissas_folding_onto_one_point(self, t, depth):
        curve = Curve()
        for s in (-t, t + 2, t - 2, 2 - t):
            if s == t:
                continue
            got = outcome(curve.diff_quotient, s, t, depth)
            assert got == outcome(parent_diff_quotient, Curve(), s, t, depth)
            assert got == outcome(ref_diff_quotient, UNIT_CURVE, s, t, depth)
            # both folded values are one enclosure, so the quotient straddles 0
            assert got.lo <= 0 <= got.hi
            assert outcome(curve.diff_quotient, t, s, depth) == got


# ----------------------------------------------------------------------
# An oscillation scan walks one chain of cells, and on a curve that
# passes continuous_tiling the probe descents start at the cell: checked
# against ref_locate_cell and against windows built as before, with each
# cell located from t and each probe descended from the top.


def ref_window_witnesses(curve, t, delta):
    t, delta = F(t), F(delta)
    cell = ref_locate_cell(curve, t, delta)
    b1, b2, side = (F(5, 9), F(1), 1) if cell_inverse(cell, t) <= F(1, 2) else (F(0), F(4, 9), -1)
    s1, s2 = cell(b1), cell(b2)
    start = cell_start_depth(cell)
    floor_hi = quotient_gap_floor().hi
    for depth in range(start, start + 6 * 24, 24):
        gap = (ref_diff_quotient(curve, s1, t, depth) - ref_diff_quotient(curve, s2, t, depth)).abs()
        if gap.lo >= floor_hi:
            break
    return QuotientWitness(s1, s2, gap.lo, side)


def chained_windows(curve, t, deltas):
    """Each delta's window, or what it raises, with every cell continuing the one before."""
    out, cell = [], None
    for delta in deltas:
        try:
            cell = curve.locate_cell(t, delta, cell)
        except (ArithmeticError, ValueError) as exc:
            out.append((type(exc), str(exc)))
            cell = None
            continue
        out.append(outcome(curve.window_witnesses, cell))
    return out


def probe_points(witnesses):
    """The probes s1 and s2 of each witness, in order."""
    return [s for w in witnesses for s in (w.s1, w.s2)]


def scan_levels(monkeypatch, t, scales):
    """Branch levels the descent steps of an oscillation scan took, on a Curve whose store starts empty."""
    levels = []
    step = Curve.locate_branch

    def recorded(self, *args):
        row = step(self, *args)
        levels.append(row[-1])
        return row

    monkeypatch.setattr(Curve, "locate_branch", recorded)
    monkeypatch.setattr(verify, "UNIT_CURVE", Curve())
    assert oscillation_scan(t, scales).certified
    return sum(levels)


_chain_rng = random.Random(7)
CHAIN_TS = [F(0), F(1, 2), F(4, 9), F(5, 9), F(1), F(1, 7)] + [
    F(_chain_rng.randrange(10**6 + 1), 10**6) for _ in range(20)
]
CHAIN_DELTAS = [F(1, 9**j) for j in range(1, 41)]


class TestCellChain:
    def test_premise(self):
        assert continuous_tiling(BRANCHES) and UNIT_CURVE._tiled
        assert not continuous_tiling(())
        # every drift of the mutation probe, and every broken tuple of the oracle
        assert not any(curve._tiled or continuous_tiling(curve.branches) for curve in ORACLE_CURVES[1:])
        # right.y_scale + 1/100 tiles and keeps its seams, but moves u(1)
        branches = _drifted(BranchTag.RIGHT, "y_scale", F(1, 100)).branches
        assert all(br.x_scale > 0 for br in branches)
        assert branches[0].x_lo == 0 and branches[-1].x_hi == 1 and branches[0].y_offset == 0
        for l, r in zip(branches, branches[1:]):
            assert l.x_hi == r.x_lo and l.y_scale + l.y_offset == r.y_offset
        assert branches[-1].y_scale + branches[-1].y_offset != 1
        assert not continuous_tiling(branches)

    def test_resumed_cells_match_the_reference(self):
        ey = UNIT_CURVE._ey
        u_probe = {F(0): F(0), F(4, 9): F(2, 3), F(5, 9): F(1, 3), F(1): F(1)}
        for t in CHAIN_TS:
            cell = None
            for j, delta in enumerate(CHAIN_DELTAS, 1):
                cell = UNIT_CURVE.locate_cell(t, delta, cell)
                assert cell == ref_locate_cell(UNIT_CURVE, t, delta)
                curve, t_, _, p, q, k, dk, ya, yb = cell.descent
                assert curve is UNIT_CURVE and t_ == t
                assert F(p, q) == cell_inverse(cell, t) and dk == UNIT_CURVE._dx**k
                # the identity the probe descents rest on: u(cell(b)) = Y_cell(u(b))
                if j % 8 == 0:
                    for b, ub in u_probe.items():
                        assert fresh_eval_limit(UNIT_CURVE, cell(b), k + 1) == Interval.point((ya * ub + yb) / ey**k)

    def test_chain_takes_the_steps_of_one_descent(self, monkeypatch):
        steps = []
        step = Curve.locate_branch
        monkeypatch.setattr(Curve, "locate_branch", lambda self, *args: steps.append(args) or step(self, *args))
        for t in CHAIN_TS:
            steps.clear()
            UNIT_CURVE.locate_cell(t, CHAIN_DELTAS[-1])
            one = len(steps)
            steps.clear()
            cell = None
            for delta in CHAIN_DELTAS:
                cell = UNIT_CURVE.locate_cell(t, delta, cell)
            assert len(steps) == one

    def test_resume_only_from_the_same_curve_point_and_a_larger_scale(self):
        t = F(1, 7)
        cell = UNIT_CURVE.locate_cell(t, F(1, 81))
        assert UNIT_CURVE.locate_cell(t, F(1, 81), cell) == cell
        assert UNIT_CURVE.locate_cell(t, F(1, 100), cell) == ref_locate_cell(UNIT_CURVE, t, F(1, 100))
        assert UNIT_CURVE.locate_cell(t, F(1, 9), cell) == ref_locate_cell(UNIT_CURVE, t, F(1, 9))
        assert UNIT_CURVE.locate_cell(F(1, 5), F(1, 729), cell) == ref_locate_cell(UNIT_CURVE, F(1, 5), F(1, 729))
        other = Curve(branches=UNIT_CURVE.branches)
        again = other.locate_cell(t, F(1, 729), cell)
        assert again == ref_locate_cell(UNIT_CURVE, t, F(1, 729)) and again.descent[0] is other
        drift = _drifted(BranchTag.LEFT, "x_scale", F(1, 100))
        assert drift.locate_cell(t, F(1, 729), cell) == ref_locate_cell(drift, t, F(1, 729))
        plain = AffineMap1D(cell.a, cell.b)
        assert UNIT_CURVE.locate_cell(t, F(1, 729), plain) == ref_locate_cell(UNIT_CURVE, t, F(1, 729))
        for bad in (F(0), F(2)):
            assert outcome(UNIT_CURVE.locate_cell, t, bad, cell) == outcome(ref_locate_cell, UNIT_CURVE, t, bad)

    def test_windows_match_a_new_curve_and_the_reference(self):
        kept = Curve()
        for t in CHAIN_TS:
            ws = chained_windows(kept, t, CHAIN_DELTAS)
            for delta, w in zip(CHAIN_DELTAS, ws):
                assert w == window(Curve(), t, delta)
                assert w == ref_window_witnesses(UNIT_CURVE, t, delta)
            # the store holds u(t) and each window's two probes until it is emptied
            assert set(kept._descents) == {(s.numerator, s.denominator) for s in [t] + probe_points(ws)}
            kept.forget()

    def test_a_running_scan_keeps_its_probes_and_the_scan_keeps_nothing(self, monkeypatch):
        curve = Curve()
        monkeypatch.setattr(verify, "UNIT_CURVE", curve)
        held, stores = [], []  # each window's witness, and the store's keys as its witness search starts
        build, deepen = Curve.window_witnesses, Curve._deepen
        monkeypatch.setattr(Curve, "window_witnesses", lambda self, cell: held.append(build(self, cell)) or held[-1])
        monkeypatch.setattr(Curve, "_deepen", lambda self, *args: stores.append(set(self._descents)) or deepen(self, *args))
        for t in CHAIN_TS[:8] + [F(7, 2)]:
            held.clear()
            stores.clear()
            t_red = reduce_domain(t)
            assert oscillation_scan(t, 12).certified
            # each window's witness search sees u(t), asked since the first window, and the probes of every window so far
            u_t = {(t_red.numerator, t_red.denominator)}
            for j, store in enumerate(stores):
                assert store == {(s.numerator, s.denominator) for s in probe_points(held[: j + 1])} | (u_t if j else set())
            assert curve._descents == {} and len(stores) == len(held) == 12

    @pytest.mark.parametrize("curve", ORACLE_CURVES[1:25])
    def test_curves_failing_the_premise_keep_the_top_down_probes(self, curve):
        assert not curve._tiled
        kept = Curve(branches=curve.branches)
        for t in CHAIN_TS[:10]:
            assert chained_windows(kept, t, CHAIN_DELTAS[:6]) == [
                outcome(ref_window_witnesses, curve, t, delta) for delta in CHAIN_DELTAS[:6]
            ]

    def test_non_decreasing_scales_restart_from_t(self):
        deltas = [F(1, 81), F(1, 9), F(1, 9), F(1, 729), F(1, 3), F(1, 6561)]
        for t in (F(1, 7), F(4, 9), F(123457, 10**6), F(7, 2)):
            t_red = reduce_domain(t)
            assert chained_windows(Curve(), t_red, deltas) == [
                outcome(ref_window_witnesses, UNIT_CURVE, t_red, d) for d in deltas
            ]

    def test_scan_builds_each_window_from_its_chain_cell(self, monkeypatch):
        located, handed = [], []
        locate, build = Curve.locate_cell, Curve.window_witnesses
        monkeypatch.setattr(Curve, "locate_cell", lambda self, *args: located.append(locate(self, *args)) or located[-1])
        monkeypatch.setattr(Curve, "window_witnesses", lambda self, cell: handed.append(cell) or build(self, cell))
        for t in CHAIN_TS:
            located.clear()
            handed.clear()
            oscillation_scan(t, len(CHAIN_DELTAS))
            assert len(located) == len(CHAIN_DELTAS)
            assert len(handed) == len(located) and all(h is c for h, c in zip(handed, located))

    def test_scan_descent_work_is_linear_in_the_scales(self, monkeypatch):
        # before one chain per scan: 386 603 and 13 691 levels, one per step then
        assert scan_levels(monkeypatch, F(1, 7), 340) <= 3000
        assert scan_levels(monkeypatch, F(123457, 10**6), 64) <= 600


# ----------------------------------------------------------------------
# Window probes come from the integers of the cell's descent: checked
# against the Fraction oracle cell(b) on a cell located by the Fraction
# reference, with the witness search stubbed out so every cell is cheap.


def probes_of(curve, cell):
    """The probes and side window_witnesses builds in cell, before any witness search."""
    w = curve.window_witnesses(cell)
    assert type(w.s1) is F and type(w.s2) is F
    return w.s1, w.s2, w.side


def ref_probes(curve, t, delta):
    cell = ref_locate_cell(curve, t, delta)
    b1, b2, side = (F(5, 9), F(1), 1) if cell_inverse(cell, t) <= F(1, 2) else (F(0), F(4, 9), -1)
    return cell(b1), cell(b2), side


def chained_probes(curve, t, deltas, resume):
    """Each delta's probes, or what locating its cell raises; each cell continues the one before if resume."""
    out, cell = [], None
    for delta in deltas:
        try:
            cell = curve.locate_cell(t, delta, cell if resume else None)
        except (ArithmeticError, ValueError) as exc:
            out.append((type(exc), str(exc)))
            cell = None
            continue
        out.append(probes_of(curve, cell))
    return out


@pytest.fixture
def no_witness_search(monkeypatch):
    monkeypatch.setattr(Curve, "_deepen", lambda self, s1, s2, t, side, depths: QuotientWitness(s1, s2, F(0), side))


@pytest.mark.usefixtures("no_witness_search")
class TestIntegerProbes:
    @pytest.mark.parametrize("resume", [True, False])
    def test_every_cell_of_the_chains(self, resume):
        sides, curve = set(), Curve()
        for t in CHAIN_TS:
            got = chained_probes(curve, t, CHAIN_DELTAS, resume)
            for delta, probes in zip(CHAIN_DELTAS, got):
                assert probes == ref_probes(UNIT_CURVE, t, delta), (t, delta)
                sides.add(probes[2])
            # the store holds each window's seeded probes until it is emptied
            assert set(curve._descents) == {(s.numerator, s.denominator) for p in got for s in p[:2]}
            curve.forget()
        assert sides == {1, -1}

    @pytest.mark.parametrize("t", [F(0), F(1, 2), F(1)])
    def test_ends_and_the_mid_fixed_point(self, t):
        deltas = [F(1)] + CHAIN_DELTAS
        for resume in (True, False):
            assert chained_probes(Curve(), t, deltas, resume) == [ref_probes(UNIT_CURVE, t, d) for d in deltas]

    @pytest.mark.parametrize("curve", ORACLE_CURVES[1:25])
    def test_drifted_curves(self, curve):
        deltas = CHAIN_DELTAS[:8]
        ts = CHAIN_TS[:10]
        for resume in (True, False):
            for t in ts:
                assert chained_probes(curve, t, deltas, resume) == [outcome(ref_probes, curve, t, d) for d in deltas]

    def test_drifts_cover_both_denominators(self):
        assert sorted({curve._dx for curve in ORACLE_CURVES[1:25]}) == [9, 900]


# ----------------------------------------------------------------------
# Arguments are coerced to Fraction only when their type is not exactly
# Fraction.  The bodies before that change, kept here, must give the same
# values, result types, exceptions and messages.


@dataclass(frozen=True)
class ParentAffineMap1D:
    a: F
    b: F

    def __post_init__(self):
        object.__setattr__(self, "a", F(self.a))
        object.__setattr__(self, "b", F(self.b))

    def __call__(self, t):
        return self.a * F(t) + self.b


def parent_locate_cell(curve, t, delta, resume=None):
    t = F(t)
    delta = F(delta)
    if not 0 <= t <= 1:
        raise OutOfDomain(f"t={t} outside [0, 1]")
    if not 0 < delta <= 1:
        raise OutOfDomain(f"delta={delta} outside (0, 1]")
    dx, ey = curve._dx, curve._ey
    p0, q0 = t.numerator, t.denominator
    st = resume.descent if resume is not None else None
    if st is not None and st[0] is curve and st[1] == t and delta <= st[2]:
        p, q, k, dk, ya, yb = st[3:]
    else:
        p, q, k, dk, ya, yb = p0, q0, 0, 1, 1, 0
    dd = delta.denominator
    dn = delta.numerator * q0
    while q * dd > dn * dk:
        pd = p * dx
        _, _, xs, xo, ys, yo, _, _, _ = curve.locate_branch(pd, q, 1)
        if xs >= dx:
            raise UncoveredPoint("descent does not contract; branch system broken")
        p, q = pd - xo * q, q * xs
        ya, yb = ya * ys, ya * yo + yb * ey
        dk *= dx
        k += 1
    return AffineMap1D(F(q // q0, dk), F((p0 * dk - p) // q0, dk), (curve, t, delta, p, q, k, dk, ya, yb))


def typed(value):
    """value with the type of every rational in it, so 1 and Fraction(1) differ; a map as its (a, b)."""
    if isinstance(value, (AffineMap1D, ParentAffineMap1D)):
        value = (value.a, value.b)
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


def coerced(fn, *args):
    """typed(fn(*args)) and a located cell's typed descent, or the type and message of what fn raises."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    descent = getattr(value, "descent", None)
    return typed(value) if descent is None else typed(value) + (typed(descent),)


COERCED = [0, 1, 2, False, True, 0.5, 0.125, float("nan"), float("inf"), F(1, 7), F(2, 3), _SubF(1, 3), _SubF(1),
           "1/7", "2/3", "0.25", "x", None]


class TestCoercionAgainstTheParent:
    def test_affine_map(self):
        for a in COERCED:
            for b in COERCED[::3]:
                assert coerced(AffineMap1D, a, b) == coerced(ParentAffineMap1D, a, b), (a, b)

    def test_affine_map_call(self):
        pairs = [(F(1, 9), F(4, 9)), (1, 0), (_SubF(4, 9), "1/3")]
        for a, b in pairs:
            cell, parent = AffineMap1D(a, b), ParentAffineMap1D(a, b)
            for t in COERCED:
                assert coerced(cell, t) == coerced(parent, t), (a, b, t)

    def test_locate_cell(self):
        deltas = [F(1, 81), 1, True, 0.5, _SubF(1, 9), "1/729", F(0), 2, "y", float("nan"), None]
        for t in COERCED:
            for delta in deltas:
                got = coerced(UNIT_CURVE.locate_cell, t, delta)
                assert got == coerced(parent_locate_cell, UNIT_CURVE, t, delta), (t, delta)
        t = _SubF(1, 7)
        cell = UNIT_CURVE.locate_cell(t, "1/81")
        for delta in (F(1, 729), "1/6561", _SubF(1, 6561), 0.001):
            got = coerced(UNIT_CURVE.locate_cell, t, delta, cell)
            assert got == coerced(parent_locate_cell, UNIT_CURVE, t, delta, cell)
            assert got == coerced(parent_locate_cell, UNIT_CURVE, t, delta)


# ----------------------------------------------------------------------
# properties of the descent on the standard curve

unit_points = st.builds(F, st.integers(0, 10**6), st.just(10**6)) | st.fractions(0, 1, max_denominator=10**4)


class TestDescentProperties:
    @settings(max_examples=150, deadline=None)
    @given(t=unit_points, depth=st.integers(0, 80))
    def test_deeper_enclosure_nests(self, t, depth):
        outer, inner = UNIT_CURVE.eval_limit(t, depth), UNIT_CURVE.eval_limit(t, depth + 1)
        assert outer.lo <= inner.lo and inner.hi <= outer.hi

    @settings(max_examples=150, deadline=None)
    @given(t=unit_points, n=st.integers(0, MAX_LEVEL), data=st.data())
    def test_iterate_value_inside_enclosure(self, t, n, data):
        depth = data.draw(st.integers(0, n))
        assert inside(UNIT_CURVE.eval_limit(t, depth), ref_eval_iterate(UNIT_CURVE, n, t))

    @settings(max_examples=150, deadline=None)
    @given(
        t=unit_points,
        delta=st.fractions(0, 1, max_denominator=10**6).filter(bool) | st.integers(0, 400).map(lambda j: F(1, 9**j)),
    )
    def test_cell_contains_point_and_is_short(self, t, delta):
        cell = UNIT_CURVE.locate_cell(t, delta)
        assert cell.b <= t <= cell.a + cell.b
        assert cell.a <= delta
