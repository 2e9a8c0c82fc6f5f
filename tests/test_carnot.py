"""Group arithmetic, homogeneous norm, graph map, and certified solving."""

import random
from fractions import Fraction as F

import pytest

import lipgraph.carnot as carnot
from lipgraph.carnot import (
    QUOTIENT_MAX_DEPTH,
    GroupPoint,
    NonPositiveLambda,
    NotBracketed,
    NotGraphPoints,
    NotInW,
    TolTooTight,
    beta,
    blowup_graph_sample,
    blowup_profile,
    cone_gap,
    dilate,
    graph_point,
    hnorm,
    inv,
    mul,
    rationalized_scale,
    solve_quotient,
    w_point,
)
from lipgraph.numerics import Interval, sqrt_enclose
from lipgraph.selfsim import UNIT_CURVE, Curve, reduce_domain


def matrix_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def embed(p):
    """Unitriangular 3x3 matrix model of the x, y, t part."""
    return [[F(1), p.x, p.t + p.x * p.y / 2], [F(0), F(1), p.y], [F(0), F(0), F(1)]]


def unembed(mat, r):
    x, y = mat[0][1], mat[1][2]
    return GroupPoint(x, y, mat[0][2] - x * y / 2, r)


def gp(x=0, y=0, t=0, r=0):
    """A group point with rational coordinates and an exact r."""
    return GroupPoint(F(x), F(y), F(t), Interval.point(r))


IDENTITY = gp()


def rand_point(rng, den=60):
    coord = lambda: F(rng.randrange(-3 * den, 3 * den + 1), den)
    return gp(coord(), coord(), coord())


class TestGroupLaw:
    def test_frozen_product(self):
        p = gp(1, 0, 0)
        q = gp(0, 1, 0)
        assert mul(p, q) == gp(1, 1, F(1, 2))
        assert mul(q, p) == gp(1, 1, F(-1, 2))

    def test_matches_matrix_model(self):
        rng = random.Random(7)
        for _ in range(120):
            p, q = rand_point(rng), rand_point(rng)
            got = mul(p, q)
            expect = unembed(matrix_mul(embed(p), embed(q)), got.r)
            assert got == expect

    def test_group_axioms(self):
        rng = random.Random(8)
        for _ in range(40):
            p, q, s = (rand_point(rng) for _ in range(3))
            assert mul(mul(p, q), s) == mul(p, mul(q, s))
            assert mul(p, IDENTITY) == p and mul(IDENTITY, p) == p
            assert mul(p, inv(p)) == IDENTITY and mul(inv(p), p) == IDENTITY

    def test_central_vertical_coordinate(self):
        p = gp(1, 2, F(1, 3), F(1, 5))
        q = gp(-1, 1, F(1, 7), F(2, 5))
        assert mul(p, q).r == Interval.point(F(3, 5))
        assert mul(p, q).r == mul(q, p).r


class TestGroupPoint:
    """A GroupPoint behaves as the frozen dataclass it was: a point, not a sequence."""

    def test_repr(self):
        p = GroupPoint(F(0), F(1, 3), F(-2, 9), Interval(F(1, 5), F(1, 4)))
        assert repr(p) == "GroupPoint(x=Fraction(0, 1), y=Fraction(1, 3), t=Fraction(-2, 9), r=[1/5, 1/4])"
        assert repr(w_point(1, F(4, 9))) == "GroupPoint(x=Fraction(0, 1), y=Fraction(1, 1), t=Fraction(4, 9), r=[0, 0])"

    def test_equal_points_hash_alike(self):
        p, q = gp(F(1, 2), 3, F(-5, 7), F(1, 9)), gp(F(2, 4), 3, F(-10, 14), F(3, 27))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != gp(F(1, 2), 3, F(-5, 7), F(1, 8))
        assert w_point(0, F(4, 9)) == GroupPoint(F(0), F(0), F(4, 9), Interval(0, 0))

    @pytest.mark.parametrize("field", ["x", "y", "t", "r"])
    def test_fields_are_read_only(self, field):
        p = gp(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            setattr(p, field, F(0))
        assert p == gp(1, 2, 3, 4)

    @pytest.mark.parametrize(
        "op",
        [lambda p, q: p + q, lambda p, q: p * 2, lambda p, q: 2 * p, lambda p, q: p < q, lambda p, q: p <= q,
         lambda p, q: p > q, lambda p, q: p >= q],
        ids=["p + q", "p * 2", "2 * p", "p < q", "p <= q", "p > q", "p >= q"],
    )
    def test_no_sequence_arithmetic_or_ordering(self, op):
        with pytest.raises(TypeError):
            op(gp(0, 1, 2, 3), gp(0, 1, 2, 3))

    def test_operations_return_points(self):
        p, q = gp(F(1, 3), 2, F(1, 5), F(1, 7)), gp(0, F(-1, 2), 3, 1)
        assert type(mul(p, q)) is type(inv(p)) is type(dilate(2, p)) is GroupPoint
        assert type(graph_point(w_point(1, F(1, 7)), 10)) is GroupPoint
        # the shared zero r slot of W survives inv and mul by identity
        w1, w2 = w_point(1, F(1, 7)), w_point(F(-2, 3), 5)
        assert w1.r is w2.r is carnot._ZERO
        assert inv(w1).r is carnot._ZERO and mul(w1, w2).r is carnot._ZERO


class TestDilationsAndNorm:
    def test_dilation_weights(self):
        p = gp(F(1, 2), F(-1, 3), F(1, 5), F(1, 7))
        d = dilate(3, p)
        assert d.x == F(3, 2) and d.y == F(-1)
        assert d.t == F(9, 5)
        assert d.r == Interval.point(F(3, 7))

    def test_dilation_is_homomorphism(self):
        rng = random.Random(9)
        for _ in range(40):
            p, q = rand_point(rng), rand_point(rng)
            lam = F(rng.randrange(1, 50), 7)
            assert dilate(lam, mul(p, q)) == mul(dilate(lam, p), dilate(lam, q))

    def test_nonpositive_lambda(self):
        with pytest.raises(NonPositiveLambda):
            dilate(0, gp(1, 0, 0))
        with pytest.raises(NonPositiveLambda):
            dilate(F(-1, 2), gp(1, 0, 0))

    def test_norm_frozen(self):
        assert hnorm(gp(0, 0, F(1, 4))) == Interval.point(F(1, 2))
        assert hnorm(gp(F(3, 4), F(1, 2), 0)) == Interval.point(F(3, 4))
        assert hnorm(gp(0, F(-4, 5), 0)) == Interval.point(F(4, 5))
        assert hnorm(gp(0, 0, 0, F(-2, 3))) == Interval.point(F(2, 3))
        assert hnorm(IDENTITY) == Interval.point(0)

    def test_norm_symmetric_and_homogeneous(self):
        rng = random.Random(10)
        for _ in range(30):
            p = rand_point(rng)
            n = hnorm(p)
            assert n.lo >= 0
            assert hnorm(inv(p)).intersects(n)
            lam = F(rng.randrange(1, 20), 3)
            assert hnorm(dilate(lam, p)).intersects(n.scale(lam))

    def test_left_invariant_distance(self):
        rng = random.Random(11)
        for _ in range(20):
            g, p, q = (rand_point(rng) for _ in range(3))
            d1 = mul(inv(p), q)
            d2 = mul(inv(mul(g, p)), mul(g, q))
            assert d1 == d2


class TestSplitting:
    def test_vertical_subgroup(self):
        w = w_point(F(2, 3), F(-1, 4))
        assert w == gp(0, F(2, 3), F(-1, 4))
        assert beta(w) == F(-1, 4)
        with pytest.raises(NotInW):
            beta(gp(1, 0, 0))

    def test_standard_splitting_units(self):
        # v0 spans V (the r axis), w0 is the unit t direction in W; both have norm exactly 1
        v0, w0 = gp(0, 0, 0, 1), w_point(0, 1)
        assert hnorm(v0) == Interval.point(1)
        assert hnorm(w0) == Interval.point(1)
        assert beta(w0) == 1
        with pytest.raises(NotInW):
            beta(v0)


class TestGraphMap:
    def test_exact_at_breakpoints(self):
        for t, u in ((F(0), F(0)), (F(4, 9), F(2, 3)), (F(5, 9), F(1, 3)), (F(1), F(1))):
            g = graph_point(w_point(0, t), 5)
            assert g.t == t and g.x == 0
            assert g.r == Interval.point(u)

    def test_folds_parameter(self):
        a = graph_point(w_point(0, F(-4, 9)), 10)
        b = graph_point(w_point(0, F(4, 9)), 10)
        assert a.r == b.r == Interval.point(F(2, 3))

    def test_requires_vertical_base(self):
        with pytest.raises(NotInW):
            graph_point(gp(1, 0, 0), 5)

    def test_points_match_a_fresh_curve_and_repeat_from_the_store(self, monkeypatch):
        # cone's grid: y and t on multiples of 1/1000 in [-2, 2]
        cone = [w_point(F(k, 1000), F(3 * k - 2000, 1000)) for k in range(0, 1334, 7)]
        # a blow-up grid: the bases blowup_graph_sample evaluates around t_hat = 1/7
        w_hat = w_point(0, F(1, 7))
        offsets = [w_point(y, t) for y in (-1, 0, F(1, 2)) for t in (-1, F(-1, 4), F(1, 4), F(1, 2), 1)]
        blowup = [mul(w_hat, dilate(1 / F(lam), w)) for lam in (1, 9, 81, 729) for w in offsets]
        monkeypatch.setattr(carnot, "UNIT_CURVE", Curve())
        for grid, depth in ((cone, 30), (blowup, 40)):
            first = [graph_point(w, depth) for w in grid]
            fresh = Curve()
            assert first == [GroupPoint(w.x, w.y, w.t, fresh.eval_limit(reduce_domain(beta(w)), depth)) for w in grid]
            # a repeated point gets the stored Interval back, not a new one
            assert all(graph_point(w, depth).r is g.r for w, g in zip(grid, first))


class TestConeGap:
    def test_frozen_boundary_case(self):
        # the pair (0, 1) attains the difference quotient bound exactly
        a = graph_point(w_point(0, 0), 20)
        b = graph_point(w_point(0, 1), 20)
        assert cone_gap(a, b, 20) == Interval.point(0)

    def test_frozen_horizontal_pair(self):
        a = graph_point(w_point(1, 0), 20)
        b = graph_point(w_point(0, 0), 20)
        assert cone_gap(a, b, 20) == Interval.point(1)

    def test_nonnegative_on_random_graph_pairs(self):
        rng = random.Random(12)
        for _ in range(60):
            ta = F(rng.randrange(-2000, 2001), 1000)
            tb = F(rng.randrange(-2000, 2001), 1000)
            ya = F(rng.randrange(-10, 11), 7)
            yb = F(rng.randrange(-10, 11), 7)
            if (ya, ta) == (yb, tb):
                continue
            g = cone_gap(graph_point(w_point(ya, ta), 30), graph_point(w_point(yb, tb), 30), 30)
            assert g.hi >= 0

    def test_rejects_points_off_the_vertical_plane(self):
        with pytest.raises(NotGraphPoints):
            cone_gap(gp(1, 0, 0), gp(0, 1, 0), 10)


class TestBlowup:
    def test_profile_frozen(self):
        assert blowup_profile(0, F(3, 2), 1, 20) == Interval.point(1)
        assert blowup_profile(0, 1, F(4, 9), 20) == Interval.point(F(2, 3))

    def test_profile_vanishes_at_zero_offset(self):
        enc = blowup_profile(F(1, 3), F(5, 2), 0, 30)
        assert enc.lo <= 0 <= enc.hi

    def test_profile_scaling_identity(self):
        # lam * (u(t + h / lam**2) - u(t)) computed two ways must agree
        lam, h, t_hat = F(3), F(1, 2), F(1, 7)
        direct = blowup_profile(t_hat, lam, h, 40)
        shifted = (UNIT_CURVE.eval_limit((t_hat + h / lam**2) % 2, 40) - UNIT_CURVE.eval_limit(t_hat, 40)).scale(lam)
        assert direct.intersects(shifted)

    def test_nonpositive_lambda(self):
        with pytest.raises(NonPositiveLambda):
            blowup_profile(0, 0, 1, 10)

    def test_graph_sample_routes_agree(self):
        p_hat = graph_point(w_point(0, 0), 30)
        grid = [w_point(0, F(1, 2)), w_point(F(1, 3), F(-1, 4)), w_point(-1, F(3, 4))]
        out = blowup_graph_sample(p_hat, F(3, 2), grid, 30)
        assert len(out) == len(grid)
        for g, s in zip(grid, out):
            assert s.x == 0
            assert s.y == g.y
            assert s.t == beta(g)
            assert s.r.intersects(blowup_profile(0, F(3, 2), beta(g), 30))

    def test_graph_sample_validates_inputs(self):
        p_hat = graph_point(w_point(0, 0), 10)
        for lam in (0, F(-1, 2)):
            with pytest.raises(NonPositiveLambda):
                blowup_graph_sample(p_hat, lam, [w_point(0, 0)], 10)
        with pytest.raises(NotInW):
            blowup_graph_sample(p_hat, 1, [gp(1, 0, 0)], 10)
        with pytest.raises(NotGraphPoints):
            blowup_graph_sample(gp(1, 0, 0), 1, [w_point(0, 0)], 10)


class TestSolveQuotient:
    def test_endpoint_exact_solutions(self):
        assert solve_quotient(0, 1, (F(4, 9), F(1, 2)), F(1, 10**4)) == F(4, 9)
        # the left endpoint 5/9 realizes the quotient 5 ** (-1/2) up to tol
        s = solve_quotient(0, F(4472135954999579, 10**16), (F(5, 9), F(3, 5)), F(1, 10**4))
        assert s == F(5, 9)

    @pytest.mark.parametrize("bracket", [(F(1, 3), F(4, 9)), (F(4, 9), F(1, 3))])
    def test_upper_endpoint_accepted(self, bracket):
        # q(1/3, 0) is about 0.845, q(4/9, 0) = 1 exactly; the order of the bracket does not matter
        assert solve_quotient(0, 1, bracket, F(1, 10**4)) == F(4, 9)

    def test_interior_solution_certified(self):
        tol = F(1, 10**4)
        target = F(7, 10)
        s = solve_quotient(0, target, (F(5, 9), F(1)), tol)
        assert F(5, 9) < s < 1
        q = UNIT_CURVE.diff_quotient(s, F(0), 60)
        assert (q - target).abs().hi <= tol

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ((F(1, 2), F(1, 2)), "bracket endpoints coincide"),
            ((F(0), F(1, 2)), "is not strictly positive"),
            ((F(1, 2), F(-1, 2)), "is not strictly positive"),
        ],
    )
    def test_bracket_refused(self, bracket, message):
        with pytest.raises(NotBracketed, match=message):
            solve_quotient(0, 1, bracket, F(1, 10**4))

    def test_not_bracketed(self):
        with pytest.raises(NotBracketed):
            solve_quotient(0, 2, (F(5, 9), F(3, 5)), F(1, 10**4))
        with pytest.raises(NotBracketed):
            solve_quotient(0, F(-1, 2), (F(4, 9), F(1, 2)), F(1, 10**4))

    @pytest.mark.parametrize(
        "target, bracket, tol, solution, enclosures",
        [
            (F(7, 10), (F(4, 9), F(5, 9)), F(1, 10**4), F(601919, 1179648), 19),
            (F(1, 2), (F(5, 9), F(4, 9)), F(1, 10**6), F(42718628717, 77309411328), 35),
            (F(9, 10), (F(4, 9), F(1, 2)), F(1, 10**5), F(91075235, 201326592), 27),
        ],
    )
    def test_decreasing_bracket(self, target, bracket, tol, solution, enclosures, monkeypatch):
        # q(s, 0) falls from 1 at 4/9 to 5 ** (-1/2) at 5/9, so each brackets
        # its target from above at the left end; the solution and the number
        # of offsets enclosed pin the midpoints the bisection visits
        enclosed = []
        within = carnot._quotient_within
        monkeypatch.setattr(carnot, "_quotient_within", lambda t, s, w: enclosed.append(s) or within(t, s, w))
        assert solve_quotient(0, target, bracket, tol) == solution
        assert len(enclosed) == enclosures and enclosed[:3] == [F(4, 9), max(bracket), (bracket[0] + bracket[1]) / 2]

    def test_tol_too_tight(self):
        with pytest.raises(TolTooTight, match=f"cannot reach quotient width 1/{10**60}/2 within depth 256"):
            solve_quotient(0, F(46, 100), (F(5, 9), F(3, 5)), F(1, 10**60))


def ref_quotient_within(curve, s, t, width):
    """The deepening loop blow-up quotients used as a Curve method: depth 16, doubled up to 256."""
    width = F(width)
    depth = 16
    best = curve.diff_quotient(s, t, depth)
    while best.width() > width and depth < 256:
        depth *= 2
        best = curve.diff_quotient(s, t, depth)
    return best


def quotient_depths(monkeypatch, fn, *args):
    """fn(*args) with the depth of every diff_quotient call it makes."""
    depths = []
    real = Curve.diff_quotient
    monkeypatch.setattr(Curve, "diff_quotient", lambda self, s, t, d: depths.append(d) or real(self, s, t, d))
    try:
        return fn(*args), depths
    finally:
        monkeypatch.setattr(Curve, "diff_quotient", real)


class TestBlowupScale:
    @pytest.mark.parametrize("t_hat", [F(0), F(1, 7), F(2), F(-1, 3)])
    @pytest.mark.parametrize("s", [F(4, 9), F(1, 2), F(5, 9), F(-1, 5), F(1, 1000)])
    @pytest.mark.parametrize("width", [F(1, 10), F(1, 2 * 10**4), F(1, 10**60)])
    def test_quotient_within_matches_the_reference(self, monkeypatch, t_hat, s, width):
        got = quotient_depths(monkeypatch, carnot._quotient_within, t_hat, s, width)
        ref = quotient_depths(monkeypatch, ref_quotient_within, UNIT_CURVE, t_hat + s, t_hat, width)
        assert got == ref
        assert ref[1][-1] <= QUOTIENT_MAX_DEPTH == 256

    def test_exact_offset_rationalises_losslessly(self):
        assert rationalized_scale(F(0), F(4, 9), F(1), F(1, 10**4)) == (F(3, 2), F(4, 9), Interval.point(1))

    def test_irrational_root_recertified(self):
        tol = F(1, 10**4)
        target = F(4472135954999579, 10**16)
        lam, s_real, enc = rationalized_scale(F(0), F(5, 9), target, tol)
        assert lam == F(5762303301, 4294967296)
        assert s_real == 1 / lam**2
        assert enc.width() <= tol / 2
        assert enc.inside_ball(target, 2 * tol)

    def test_unreachable_tol(self):
        with pytest.raises(TolTooTight, match="could not rationalise a dilation for target"):
            rationalized_scale(F(0), F(5, 9), F(4472135954999579, 10**16), F(1, 10**60))


# ----------------------------------------------------------------------
# Reference bodies of the group law, the norm, the cone gap and the point
# constructor, which coerce every coordinate, compute every twist product
# and root every coordinate: the fast paths must match them value for
# value (with the type of every coordinate) and exception for exception.


def ref_w_point(y=0, t=0):
    return GroupPoint(F(0), F(y), F(t), Interval.point(0))


def ref_mul(p, q):
    twist = p.x * q.y - p.y * q.x
    return GroupPoint(p.x + q.x, p.y + q.y, p.t + q.t + twist / 2, p.r + q.r)


def ref_inv(p):
    return GroupPoint(-p.x, -p.y, -p.t, -p.r)


def ref_hnorm(p, width=F(1, 2**30)):
    width = F(width)
    nx = sqrt_enclose(p.x * p.x, width)
    ny = sqrt_enclose(p.y * p.y, width)
    nt = sqrt_enclose(abs(p.t), width)
    return Interval.max_of(Interval.max_of(nx, ny), Interval.max_of(nt, p.r.abs()))


def ref_beta(w):
    if not (w.x == 0 and w.r == Interval.point(0)):
        raise NotInW(f"point has x={w.x}, r={w.r}")
    return w.t


def ref_cone_gap(p, q, depth):
    if p.x != 0 or q.x != 0:
        raise NotGraphPoints("cone gap is defined for graph points, which have x = 0")
    d = ref_mul(ref_inv(p), q)
    w_part = GroupPoint(d.x, d.y, d.t, Interval.point(0))
    return ref_hnorm(w_part, F(2, 3) ** max(depth, 1)) - d.r.abs()


def exact(value):
    """A result with the type of every number in it, so 0, 0.0 and Fraction(0) differ."""
    if isinstance(value, Interval):
        return type(value), type(value.lo), value.lo, type(value.hi), value.hi
    if isinstance(value, GroupPoint):
        return "P", exact(value.x), exact(value.y), exact(value.t), exact(value.r)
    return type(value), value


def outcome(fn, *args):
    try:
        return exact(fn(*args))
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


class _Sub(F):
    pass


class _Zero(Interval):
    pass


SCALARS = [F(-7, 3), -2, 0, F(0), False, True, F(1, 3), _Sub(1, 3), 1, F(5, 2), 0.5, 0.1, float("nan"), "2/7", None]
_rng = random.Random(2026)
GROUP_POINTS = [rand_point(_rng) for _ in range(12)] + [IDENTITY]
GRAPH_POINTS = [
    graph_point(w, depth)
    for w in [w_point(0, 0), w_point(1, 0), w_point(0, 1), w_point(0, 2), w_point(0, F(4, 9)), w_point(F(2, 7), F(-5, 9))]
    + [w_point(F(_rng.randrange(-2000, 2001), 1000), F(_rng.randrange(-2000, 2001), 1000)) for _ in range(6)]
    for depth in (1, 30)
]


class TestFastPathReference:
    def test_point_constructors(self):
        for y in SCALARS:
            for t in SCALARS:
                assert outcome(w_point, y, t) == outcome(ref_w_point, y, t)

    def test_mul_and_inv(self):
        points = GROUP_POINTS + GRAPH_POINTS
        assert any(p.x * q.y for p in points for q in points)  # nonzero twists
        for p in points:
            assert outcome(inv, p) == outcome(ref_inv, p)
            for q in points:
                assert outcome(mul, p, q) == outcome(ref_mul, p, q)

    def test_hnorm(self):
        odd = [
            GroupPoint(3, True, F(1, 4), Interval(0, 0)),
            GroupPoint(_Sub(1, 3), -2, F(-9, 4), Interval(F(1, 3), 1)),
            GroupPoint(F(0), F(0), F(7), Interval(0, 0)),
            GroupPoint(F(1), F(-2), None, Interval(0, 0)),  # a bad width must win over a bad t
            GroupPoint(F(0), float("nan"), None, Interval(0, 0)),  # so must a bad |y|
            GroupPoint(F(1), float("nan"), F(1), Interval(0, 0)),  # even where a nonzero x would win the max
            GroupPoint(0, float("nan"), F(1), Interval(0, 0)),
        ]
        for p in GROUP_POINTS + GRAPH_POINTS + odd:
            for width in (F(1, 2**30), F(1, 10), 1, 0, -1, F(-1, 7), 0.25, "1/1000", _Sub(1, 8), None):
                assert outcome(hnorm, p, width) == outcome(ref_hnorm, p, width)
            assert outcome(hnorm, p) == outcome(ref_hnorm, p)

    def test_cone_gap(self):
        for p in GRAPH_POINTS + GROUP_POINTS[:3]:
            for q in GRAPH_POINTS:
                for depth in (0, 1, 2, 5, 30, 60, -3, True, F(3), 2.0):
                    assert outcome(cone_gap, p, q, depth) == outcome(ref_cone_gap, p, q, depth)

    def test_r_slots(self):
        """Zero r slots other than the shared one, straddling and exact r slots, against the reference."""
        slots = [
            carnot._ZERO,
            Interval(0, 0),
            Interval.point(F(0)),
            _Zero(0, 0),
            Interval.point(F(3, 7)),
            Interval.point(F(-2, 9)),
            Interval(F(0), F(1, 2)),
            Interval(F(1, 4), F(3, 5)),
            Interval(F(-1, 3), F(1, 6)),
            Interval(F(-1, 2), F(0)),
            _Zero(F(1, 8), F(1, 4)),
        ]
        graph = [GroupPoint(F(0), y, t, r) for r in slots for y, t in ((F(0), F(0)), (F(2, 3), F(-5, 9)))]
        others = [GroupPoint(F(1, 3), F(1), F(2), r) for r in slots]
        # r slots that are not Intervals: the sum with the shared zero still raises or adds
        odd = [GroupPoint(F(0), F(1), F(1), r) for r in (0, F(1, 2), None)]
        # |q.r - p.r| straddles 0 with either end the larger
        diffs = [q.r - p.r for p in graph for q in graph]
        assert any(-d.lo > d.hi > 0 for d in diffs) and any(d.hi > -d.lo > 0 for d in diffs)
        for p in graph + others:
            assert outcome(inv, p) == outcome(ref_inv, p)
            assert outcome(hnorm, p) == outcome(ref_hnorm, p)
            assert outcome(beta, p) == outcome(ref_beta, p)
            for q in graph + others:
                assert outcome(mul, p, q) == outcome(ref_mul, p, q)
                for depth in (1, 30):
                    assert outcome(cone_gap, p, q, depth) == outcome(ref_cone_gap, p, q, depth)
        for p in odd:
            assert outcome(inv, p) == outcome(ref_inv, p)
        for p in graph + others + odd:
            for q in odd:
                assert outcome(mul, p, q) == outcome(ref_mul, p, q)
                assert outcome(mul, q, p) == outcome(ref_mul, q, p)

    def test_shared_zero_r_slot_is_kept(self):
        """The product and inverse of vertical-subgroup points keep the shared zero r slot that hnorm skips."""
        w, v = w_point(F(2, 3), F(-5, 9)), w_point(F(-1, 7), F(4))
        assert inv(w).r is carnot._ZERO and mul(inv(w), v).r is carnot._ZERO
        p = GroupPoint(F(0), F(1), F(1), Interval(F(1, 8), F(1, 4)))
        assert mul(w, p).r is p.r and mul(p, w).r is p.r

    def test_zero_skips_compare_no_endpoints(self, monkeypatch):
        """inv, mul and hnorm skip the r slot by identity with the shared zero: they compare no endpoint, zero or not."""
        slots = [carnot._ZERO, Interval(0, 0), _Zero(0, 0), Interval(F(-1, 3), F(1, 6)), Interval.point(F(3, 7))]
        points = [GroupPoint(F(0), F(2, 3), F(-5, 9), r) for r in slots]
        compared = []
        real_eq = F.__eq__
        monkeypatch.setattr(F, "__eq__", lambda a, b: compared.append((a, b)) or real_eq(a, b))
        for p in points:
            inv(p)
            hnorm(p)
            for q in points:
                mul(p, q)
        monkeypatch.undo()
        assert compared == []

    def test_is_in_w_and_beta(self):
        """Membership in W, as beta checks it, against the reference."""
        rs = [Interval(0, 0), Interval.point(F(0)), _Zero(0, 0), Interval(0, 1), Interval(-1, 0), Interval(1, 1), 0]
        for x in (F(0), 0, 0.0, F(1, 3), float("nan")):
            for r in rs:
                p = GroupPoint(x, F(1), F(2, 3), r)
                assert outcome(beta, p) == outcome(ref_beta, p)
        for p in GROUP_POINTS + GRAPH_POINTS:
            assert outcome(beta, p) == outcome(ref_beta, p)

    def test_zero_x_other_than_the_shared_one(self):
        """A Fraction 0 that is another object, 0, False and a subclass's 0 as x: the general tests, as in the reference."""
        zeros = [F(0), 0, False, _Sub(0)]
        assert all(x is not carnot._FZERO for x in zeros)
        graph = [GroupPoint(x, p.y, p.t, p.r) for x in zeros for p in GRAPH_POINTS[1::5]]
        w = [GroupPoint(x, F(2, 3), F(-5, 9), carnot._ZERO) for x in zeros]
        for p in graph + w:
            assert outcome(inv, p) == outcome(ref_inv, p)
            assert outcome(beta, p) == outcome(ref_beta, p)
            for width in (F(1, 2**30), F(1, 10)):
                assert outcome(hnorm, p, width) == outcome(ref_hnorm, p, width)
            for q in graph + w + GRAPH_POINTS[::5] + GROUP_POINTS[:3]:
                assert outcome(mul, p, q) == outcome(ref_mul, p, q)
                assert outcome(mul, q, p) == outcome(ref_mul, q, p)
                for depth in (1, 30):
                    assert outcome(cone_gap, p, q, depth) == outcome(ref_cone_gap, p, q, depth)
                    assert outcome(cone_gap, q, p, depth) == outcome(ref_cone_gap, q, p, depth)
