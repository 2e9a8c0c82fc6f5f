"""Construction, evaluation, and witness machinery for the self-similar curve."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph.numerics import Interval, Ordering, ZeroDenominator, cmp_abs_sq, sqrt_enclose
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
    UncoveredPoint,
    quotient_gap_floor,
    reduce_domain,
    window_start_depth,
)
from lipgraph.verify import MUTABLE_FIELDS, perturbed_branches


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
    """Breakpoints as PiecewiseLinear stored them by coercing every coordinate."""
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


def _stored_breakpoints(breakpoints):
    pts = PiecewiseLinear(breakpoints).breakpoints
    assert type(pts) is tuple
    assert all(type(p) is tuple and type(p[0]) is F and type(p[1]) is F for p in pts)
    return pts


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
        pl = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))
        assert pl.value(F(1, 4)) == F(1, 8)
        assert pl.value(F(3, 4)) == F(5, 8)
        assert pl.value(0) == 0 and pl.value(1) == 1

    def test_out_of_domain(self):
        pl = PiecewiseLinear(((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(OutOfDomain):
            pl.value(F(-1, 10))
        with pytest.raises(OutOfDomain):
            pl.value(F(11, 10))

    def test_invalid_constructions(self):
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1, 2))))  # does not end at (1, 1)
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(((F(1, 9), F(0)), (F(1), F(1))))  # does not start at (0, 0)
        with pytest.raises(InvalidCurve):
            PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1, 3)), (F(1, 2), F(2, 3)), (F(1), F(1))))

    def test_construction_matches_reference(self):
        for bps in PL_CASES:
            assert pl_outcome(_stored_breakpoints, bps) == pl_outcome(ref_breakpoints, bps)

    def test_sup_diff_matches_brute_force(self):
        a = UNIT_CURVE.iterate(2)
        b = UNIT_CURVE.iterate(3)
        got = a.sup_diff(b)
        xs = sorted({p[0] for p in a.breakpoints} | {p[0] for p in b.breakpoints})
        brute = max(abs(a.value(x) - b.value(x)) for x in xs)
        assert got == brute


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
                assert y == 1 - pl.value(1 - x)

    def test_contraction(self):
        sups = [UNIT_CURVE.iterate(n).sup_diff(UNIT_CURVE.iterate(n + 1)) for n in range(5)]
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
                assert ref_eval_iterate(UNIT_CURVE, n, t) == pl.value(t)

    def test_eval_iterate_frozen(self):
        pl = UNIT_CURVE.iterate(2)
        assert pl.value(F(1, 2)) == F(1, 2)
        assert pl.value(F(2, 9)) == F(1, 3)

    def test_depth_cap(self):
        with pytest.raises(DepthTooLarge):
            UNIT_CURVE.iterate(MAX_LEVEL + 1)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            UNIT_CURVE.iterate(1).value(F(-1, 9))
        with pytest.raises(OutOfDomain):
            UNIT_CURVE.iterate(-1)


class TestLimitFunction:
    def test_exact_at_breakpoints(self):
        assert UNIT_CURVE.eval_limit(F(4, 9), 1) == Interval.point(F(2, 3))
        assert UNIT_CURVE.eval_limit(F(5, 9), 1) == Interval.point(F(1, 3))
        assert UNIT_CURVE.eval_limit(F(0), 0) == Interval.point(0)
        assert UNIT_CURVE.eval_limit(F(1), 0) == Interval.point(1)

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
        ref = Interval.point(F(1, 3)) / sqrt_enclose(F(5, 9), F(1, 10**9))
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
            assert cmp_abs_sq(us - ut, s - t) is not Ordering.GREATER

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
            assert w.gap_lower_bound.lo >= floor.hi

    def test_min_offset_constant(self):
        assert UNIT_MIN_OFFSET == F(1, 18)


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
        w = UNIT_CURVE.window_witnesses(F(1, 2), F(1, 10))
        assert (w.s1, w.s2) == (F(365, 729), F(41, 81))

        w = UNIT_CURVE.window_witnesses(F(0), F(1, 81))
        assert (w.s1, w.s2) == (F(20480, 4782969), F(4096, 531441))

        w = UNIT_CURVE.window_witnesses(F(1, 5), F(1))
        assert (w.s1, w.s2) == (F(5, 9), F(1))

    def test_distances_and_gap(self):
        rng = random.Random(333)
        floor = quotient_gap_floor()
        for _ in range(25):
            t = F(rng.randrange(0, 10**6 + 1), 10**6)
            delta = F(1, 9) ** rng.randrange(1, 8)
            w = UNIT_CURVE.window_witnesses(t, delta)
            for s in (w.s1, w.s2):
                assert delta * WINDOW_OFFSET_RATIO <= abs(s - t) <= delta
                assert 0 <= s <= 1
            assert w.gap_lower_bound.lo >= floor.hi

    def test_offset_ratio_constant(self):
        assert WINDOW_OFFSET_RATIO == F(1, 162)

    @pytest.mark.parametrize("j", [322, 323])
    def test_start_depth_where_floats_end(self, j):
        # at t = 1/7, 9**-323 is the first scale whose cell length has no
        # finite float reciprocal
        t, delta = F(1, 7), F(1, 9**j)
        cell = UNIT_CURVE.locate_cell(t, delta)
        assert math.isinf(1 / float(cell.a)) == (j == 323)
        w = UNIT_CURVE.window_witnesses(t, delta)
        for s in (w.s1, w.s2):
            assert delta * WINDOW_OFFSET_RATIO <= abs(s - t) <= delta
        assert w.gap_lower_bound.lo >= quotient_gap_floor().hi

    def test_start_depth_at_the_scale_cap(self):
        # log_3(9**j) = 2j: the window at 9**-927 may start within MAX_DEPTH, at 9**-928 it cannot
        assert window_start_depth(0) == 16
        assert window_start_depth(2 * 927) == 4094 <= MAX_DEPTH
        assert window_start_depth(2 * 928) == 4099 > MAX_DEPTH

    @pytest.mark.parametrize("j", [1, 40, 322, 323, 400])
    def test_start_depth_bounds_the_first_depth_tried(self, j, monkeypatch):
        depths = []
        step = Curve.diff_quotient
        monkeypatch.setattr(Curve, "diff_quotient", lambda self, s, t, d: depths.append(d) or step(self, s, t, d))
        UNIT_CURVE.window_witnesses(F(1, 7), F(1, 9**j))
        assert depths[0] >= window_start_depth(2 * j)


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
        br = ref_locate_branch(curve, cell.inverse(t))
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
    return PiecewiseLinear(tuple(pts))


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
            assert outcome(curve.iterate, n) == outcome(ref_iterate, curve, n)


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
    root = sqrt_enclose(gap, min(gap, F(1)) * F(2, 3) ** depth)
    if root.lo <= 0:
        raise ZeroDenominator(f"interval division needs a strictly positive denominator, got {root}")
    cands = (num.lo / root.lo, num.lo / root.hi, num.hi / root.lo, num.hi / root.hi)
    q = Interval(min(cands), max(cands))
    return q if s > t else -q


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
        monkeypatch.setattr(Curve, "locate_branch", lambda self, pd, q: steps.append(q) or step(self, pd, q))
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
