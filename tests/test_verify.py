"""Verification campaigns: reports, certification, and mutation sensitivity."""

import enum
import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, islice
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lipgraph.carnot as carnot
import lipgraph.verify as verify
from lipgraph.carnot import GroupPoint, cone_gap, graph_point, w_point
from lipgraph.numerics import Interval
from lipgraph.selfsim import (
    BRANCHES,
    Branch,
    BranchTag,
    MAX_DEPTH,
    UNIT_CURVE,
    Curve,
    DepthTooLarge,
    InvalidCurve,
    MAX_LEVEL,
    OutOfDomain,
    QuotientWitness,
    quotient_gap_floor,
    reduce_domain,
)
from lipgraph.verify import (
    MAX_SCALES,
    MUTABLE_FIELDS,
    EmptyAfterRestriction,
    Report,
    blowup_divergence,
    hausdorff_distance,
    mutation_detected,
    mutation_probe,
    oscillation_scan,
    perturbed_branches,
    verify_cone,
    verify_holder,
    verify_unit_gap,
    verify_window_gap,
    window_gap_samples,
)


JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600')))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), JSON_TEXT
)
FRACTIONS = st.fractions()
# A report's leaves: JSON scalars, and the Fractions and Intervals its writer turns into strings
REPORT_LEAVES = st.one_of(
    JSON_SCALARS, FRACTIONS, st.lists(FRACTIONS, min_size=2, max_size=2).map(lambda e: Interval(min(e), max(e)))
)
# What json.dumps(..., allow_nan=False) refuses: out-of-range floats and types it cannot serialise
JSON_REFUSED = st.sampled_from([float("nan"), float("inf"), float("-inf"), object(), {1, 2}, b"x"])


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(JSON_TEXT, inner, max_size=4),
        ),
        max_leaves=20,
    )


REPORT_VALUES = json_trees(REPORT_LEAVES)
REPORT_VALUES_AND_REFUSED = json_trees(st.booleans().flatmap(lambda bad: JSON_REFUSED if bad else REPORT_LEAVES))


class _Level(enum.IntEnum):
    LOW = -3
    ZERO = 0
    HIGH = 7


class _SubF(F):
    pass


class _SubStr(str):
    pass


# Report values with bools and subclasses of the leaf types the writer tests by exact type
REPORT_VALUES_AND_SUBCLASSES = json_trees(
    st.one_of(REPORT_LEAVES, st.booleans(), st.sampled_from(list(_Level)), FRACTIONS.map(_SubF), JSON_TEXT.map(_SubStr))
)


def ref_jsonable(v):
    """v with each Fraction as its string and each Interval as the list of its ends' strings, at any depth."""
    if isinstance(v, Interval):
        return [str(v.lo), str(v.hi)]
    if isinstance(v, F):
        return str(v)
    if isinstance(v, dict):
        return {k: ref_jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [ref_jsonable(x) for x in v]
    return v


def ref_to_json(r, include_timing=True):
    """What Report.to_json writes: json.dumps of the report's raw fields, made JSON by ref_jsonable, and a newline."""
    raw = {
        "campaign": r.campaign,
        "parameters": r.parameters,
        "checked": r.checked,
        "failures": r.failures,
        "certified": r.certified,
        "wall_time_s": r.wall_time_s if include_timing else None,
    }
    return json.dumps(ref_jsonable(raw), sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_outcome(fn, *args):
    """The text fn returns, or the type of what it raises."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestReport:
    def test_json_shape_and_determinism(self):
        r = verify_holder(2)
        payload = r.to_json(include_timing=False)
        assert payload.endswith("\n")
        d = json.loads(payload)
        assert d["campaign"] == "holder"
        assert d["certified"] is True
        assert d["failures"] == []
        assert d["wall_time_s"] is None
        assert payload == verify_holder(2).to_json(include_timing=False)
        # keys are sorted for byte-stable output
        assert list(d.keys()) == sorted(d.keys())

    def test_timing_included_on_request(self):
        r = verify_holder(2)
        d = json.loads(r.to_json(include_timing=True))
        assert isinstance(d["wall_time_s"], float)
        assert d["wall_time_s"] > 0

    @settings(max_examples=300, deadline=None)
    @given(
        parameter=st.one_of(REPORT_VALUES, REPORT_VALUES_AND_REFUSED, REPORT_VALUES_AND_SUBCLASSES),
        record=st.one_of(REPORT_VALUES, REPORT_VALUES_AND_REFUSED, REPORT_VALUES_AND_SUBCLASSES),
        timing=st.booleans(),
    )
    @example(parameter=[True, False, None, _Level.LOW, _Level.HIGH, _SubF(-1, 3), _SubF(2), _SubStr('"')], record={"k": _Level.ZERO}, timing=False)
    def test_to_json_is_json_dumps(self, parameter, record, timing):
        r = Report("c", {"p": parameter}, 0, [record], False, 0.25)
        assert json_outcome(r.to_json, timing) == json_outcome(ref_to_json, r, timing)

    def test_parameters_keep_the_campaigns_objects(self):
        # the writer reads the parameters; it leaves the Fraction and the Interval in them
        r = verify_unit_gap(11)
        floor = quotient_gap_floor()
        assert type(r.parameters["min_gap_lo"]) is F and r.parameters["gap_floor"] is floor
        assert json.loads(r.to_json())["parameters"]["gap_floor"] == [str(floor.lo), str(floor.hi)]

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.one_of(
            st.lists(
                st.dictionaries(
                    st.sampled_from(("kind", "s", "t", "index")),
                    # few distinct values, so records often agree on their first fields
                    st.one_of(st.sampled_from(("a", "b", "\xe9", '"')), st.integers(-3, 3), st.lists(st.integers(-2, 2), max_size=2)),
                ),
                max_size=12,
            ),
            # records with Fraction and Interval leaves, which the frame reads as to_json writes them
            st.lists(REPORT_VALUES, max_size=8),
        )
    )
    @example(records=[{"x": F(1, 3)}, {"x": 1}])
    @example(records=[{"x": 1}, {"x": F(1, 3)}, {"x": Interval(F(-1, 2), F(1, 3))}])
    def test_finish_sorts_by_json_dumps(self, records):
        r = verify._campaign("c")(lambda: ({}, 0, records))()
        expected = sorted(records, key=lambda f: json.dumps(ref_jsonable(f), sort_keys=True))
        assert len(r.failures) == len(expected) and all(a is b for a, b in zip(r.failures, expected))
        # the key is the text json.dumps writes, from the one C encoder the frame binds
        assert all(verify._record_key(f) == json.dumps(f, sort_keys=True, default=verify._leaf) for f in records)


class TestHolderCampaign:
    def test_certified_with_exact_pair_count(self):
        for level, refine in ((3, 0), (2, 2)):
            r = verify_holder(level, refine)
            pts = (3**level + 1) + (3**level) * refine
            assert r.checked == pts * (pts - 1) // 2
            assert r.certified and not r.failures
            assert r.parameters["level"] == level
            assert r.parameters["refine"] == refine

    def test_planted_violation_is_caught(self):
        bad = Curve(branches=perturbed_branches(BranchTag.LEFT, "x_scale", F(2, 5)))
        r = verify_holder(4, curve=bad)
        assert not r.certified
        assert r.failures
        f = r.failures[0]
        assert f["kind"] == "quotient-above-one"
        s, t, q2 = F(f["s"]), F(f["t"]), F(f["quotient_sq"])
        assert q2 > 1
        # failure records are self-consistent against the mutated iterate
        values = dict(bad.iterate(4).breakpoints)
        assert (values[s] - values[t]) ** 2 == q2 * abs(s - t)

    def test_construction_failure_reported(self):
        bad = Curve(branches=perturbed_branches(BranchTag.MID, "y_scale", F(-7, 20)))
        r = verify_holder(4, curve=bad)
        assert not r.certified
        assert r.failures[0]["kind"] == "construction"

    @pytest.mark.parametrize(
        "level, refine, tag, digest",
        [
            # a refined sweep: 226 failures among 66 066 pairs
            (4, 2, BranchTag.LEFT, "0e9ff6794ff7c76e7975bc98a71068254cfc449b75ac01496a631451dd667b80"),
            # the CLI's default level: 1 789 failures among 597 871 pairs
            (6, 0, BranchTag.MID, "25ba54e91af9ec8c7bc80662f804e095666b75ba9dcda927ca8e4d1d0f88aadb"),
        ],
    )
    def test_failing_sweep_bytes(self, level, refine, tag, digest):
        text = verify_holder(level, refine, curve=drifted(tag, "x_scale", F(-1, 100))).to_json(include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sweep_builds_no_fraction(self):
        """verify_holder(6) on the standard curve builds no Fraction.

        Counted by wrapping Fraction.__new__, as test_work_per_base_point
        does.  While the iterate carried its breakpoints as Fractions
        beside its integer grid, the sweep built 1 460: 2 * (3**6 + 1).
        """
        count = [0]
        saved_new = F.__dict__["__new__"]
        real_new = F.__new__

        def counted_new(cls, *args, **kwargs):
            count[0] += 1
            return real_new(cls, *args, **kwargs)

        F.__new__ = staticmethod(counted_new)
        try:
            r = verify_holder(6)
        finally:
            F.__new__ = saved_new
        assert r.certified and r.checked == 266085
        assert count[0] == 0

    def test_pair_budget_enforced(self):
        class Unrefinable(tuple):
            def __iter__(self):
                raise AssertionError("a refined point was built")

            def __getitem__(self, i):
                raise AssertionError("a refined point was built")

        class IterateOnly:
            """The standard curve's iterate, with a grid that refuses the reads of refinement."""

            def iterate(self, n):
                pl = UNIT_CURVE.iterate(n)
                return SimpleNamespace(dt=pl.dt, dv=pl.dv, points=Unrefinable(pl.points))

        with pytest.raises(DepthTooLarge) as exc:
            verify_holder(7, 100, curve=IterateOnly())
        assert str(exc.value) == "24395643828 pairs exceed cap 2000000"


# ----------------------------------------------------------------------
# The integer Hölder sweep against the implementation it replaced:
# `Curve.iterate` building every breakpoint Fraction and checking them,
# and the plain pair loop over Fractions cleared through lcm.


def ref_iterate(curve, n):
    if n < 0:
        raise OutOfDomain("level must be nonnegative")
    if n > MAX_LEVEL:
        raise DepthTooLarge(f"level {n} exceeds cap {MAX_LEVEL}")
    dx, ey = curve._dx, curve._ey
    pts = [(0, 0), (1, 1)]
    xd = yd = 1
    for _ in range(n):
        nxt = []
        for _, _, xs, xo, ys, yo, _, _, _ in curve._rows:
            x0, y0 = xo * xd, yo * yd
            for t, v in pts:
                pt = (xs * t + x0, ys * v + y0)
                if nxt and nxt[-1] == pt:
                    continue
                nxt.append(pt)
        pts = nxt
        xd *= dx
        yd *= ey
    bps = tuple((F(t, xd), F(v, yd)) for t, v in pts)
    # the iterate's checks as they ran on these Fractions
    if len(bps) < 2:
        raise InvalidCurve("need at least two breakpoints")
    for (t0, _), (t1, _) in zip(bps, bps[1:]):
        if t0 >= t1:
            raise InvalidCurve(f"abscissas not strictly increasing at t={t0}")
    if bps[0] != (0, 0):
        raise InvalidCurve(f"curve must start at (0, 0), got {bps[0]}")
    if bps[-1] != (1, 1):
        raise InvalidCurve(f"curve must end at (1, 1), got {bps[-1]}")
    return bps


@verify._campaign("holder")
def ref_verify_holder(level, refine=0, curve=UNIT_CURVE):
    params = {
        "level": level,
        "refine": refine,
        "scope": "necessary-condition sweep over a finite abscissa grid",
    }
    if refine < 0:
        raise ValueError("refine must be nonnegative")
    try:
        pl = ref_iterate(curve, level)
    except InvalidCurve as exc:
        return params, 0, [{"kind": "construction", "detail": str(exc)}]
    pts = list(pl)
    m = len(pts) + (len(pts) - 1) * refine
    npairs = m * (m - 1) // 2
    if npairs > verify.MAX_PAIRS:
        raise DepthTooLarge(f"{npairs} pairs exceed cap {verify.MAX_PAIRS}")
    if refine:
        extra = []
        step = refine + 1
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            for j in range(1, step):
                extra.append((t0 + (t1 - t0) * j / step, v0 + (v1 - v0) * j / step))
        pts = sorted(pts + extra)
    params["points"] = m
    d_t = math.lcm(*(t.denominator for t, _ in pts)) if m else 1
    d_v = math.lcm(*(v.denominator for _, v in pts)) if m else 1
    ti = [int(t * d_t) for t, _ in pts]
    vi = [int(v * d_v) for _, v in pts]
    ee = d_v * d_v
    failures = []
    for i in range(m):
        t_i, v_i = ti[i], vi[i]
        for j in range(i + 1, m):
            dv = vi[j] - v_i
            if dv * dv * d_t > (ti[j] - t_i) * ee:
                s_j, t_j = pts[j][0], pts[i][0]
                failures.append(
                    {
                        "kind": "quotient-above-one",
                        "s": str(s_j),
                        "t": str(t_j),
                        "quotient_sq": str((pts[j][1] - pts[i][1]) ** 2 / (s_j - t_j)),
                    }
                )
    return params, npairs, failures


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def holder_bytes(fn, *args):
    r = outcome(fn, *args)
    return r.to_json(include_timing=False) if isinstance(r, Report) else r


def drifted(tag, fld, bump):
    br = next(b for b in BRANCHES if b.tag is tag)
    return Curve(branches=perturbed_branches(tag, fld, getattr(br, fld) + bump))


# The mutation probe's 24 drifts and the identity.
DRIFT_CURVES = [
    drifted(br.tag, fld, bump) for br in BRANCHES for fld in MUTABLE_FIELDS for bump in (F(1, 100), F(-1, 100))
] + [UNIT_CURVE]


def ref_pairs(level, refine):
    m = 3**level + 1 + 3**level * refine
    return m * (m - 1) // 2


class TestIntegerHolderSweep:
    @pytest.mark.parametrize("curve", DRIFT_CURVES)
    def test_iterate_matches_the_reference(self, curve):
        for n in range(8):
            assert outcome(lambda n: curve.iterate(n).breakpoints, n) == outcome(ref_iterate, curve, n)

    @pytest.mark.parametrize("curve", DRIFT_CURVES)
    def test_report_bytes_match_the_reference(self, curve):
        for level in range(7):
            for refine in range(4):
                if ref_pairs(level, refine) <= verify.MAX_PAIRS:
                    assert holder_bytes(verify_holder, level, refine, curve) == holder_bytes(
                        ref_verify_holder, level, refine, curve
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        drift=st.one_of(
            st.tuples(st.sampled_from(list(BranchTag)), st.sampled_from(MUTABLE_FIELDS), st.integers(-60, 60)),
            # most drifts break the iterate; shrinking the left or mid cell keeps it
            st.tuples(st.just(BranchTag.LEFT), st.just("x_scale"), st.integers(-44, 0)),
            st.tuples(st.just(BranchTag.MID), st.just("x_scale"), st.integers(-11, 0)),
        ),
        level=st.integers(0, 4),
        refine=st.integers(0, 3),
    )
    def test_random_drift_matches_the_reference(self, drift, level, refine):
        tag, fld, k = drift
        curve = drifted(tag, fld, F(k, 100))
        assert holder_bytes(verify_holder, level, refine, curve) == holder_bytes(ref_verify_holder, level, refine, curve)

    def test_block_edges_and_both_sides_of_the_bound(self, monkeypatch):
        # Small leaves put many pairs on block edges; the planted violation
        # fails on pairs where v falls as well as where it rises, and the
        # step curve (flat, then the diagonal) on pairs that end at (1, 1).
        bad = drifted(BranchTag.LEFT, "x_scale", F(-1, 25))
        step = Curve(
            branches=(
                Branch(BranchTag.LEFT, F(1, 2), F(0), F(0), F(0)),
                Branch(BranchTag.RIGHT, F(1, 2), F(1, 2), F(1), F(0)),
            )
        )
        assert any(f["s"] == "1" for f in verify_holder(1, 1, step).failures)
        for size in (1, 2, 4):
            monkeypatch.setattr(verify, "_HOLDER_LEAF", size)
            for level, refine in ((1, 1), (3, 0), (3, 2), (4, 1)):
                for curve in (UNIT_CURVE, bad, step):
                    assert holder_bytes(verify_holder, level, refine, curve) == holder_bytes(
                        ref_verify_holder, level, refine, curve
                    )

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.integers(-5, 5),
        steps=st.lists(st.tuples(st.integers(1, 9), st.integers(-4, 4)), max_size=100),
        d=st.sampled_from((1, 2, 4)),
        ee=st.sampled_from((1, 4, 9)),
        leaf=st.sampled_from((1, 2, 3, 4, 8)),
    )
    @example(start=0, steps=[(2 * k + 1, 1) for k in range(40)], d=1, ee=1, leaf=8)
    @example(start=0, steps=[(2 * k + 1, -1) for k in range(40)], d=1, ee=1, leaf=4)
    def test_pyramid_matches_the_pairwise_loop(self, start, steps, d, ee, leaf):
        # Small steps put many pairs exactly on the bound (dv**2 * d == dt * ee),
        # which passes; the examples' grids (k**2, ±k) put every pair from 0 on it.
        ti, vi = [start], [0]
        for dt, dv in steps:
            ti.append(ti[-1] + dt)
            vi.append(vi[-1] + dv)
        saved = verify._HOLDER_LEAF
        verify._HOLDER_LEAF = leaf
        try:
            got = verify._holder_violations(ti, vi, d, ee)
        finally:
            verify._HOLDER_LEAF = saved
        assert got == ref_pair_violations(ti, vi, d, ee) == ref_block_violations(ti, vi, d, ee)

    def test_block_on_its_bound_is_cleared_by_one_comparison(self):
        """Row 0's first block after its leaf holds with equality, (3 - 0)**2 == 9 - 0, and is not split."""
        reads = []

        class Start(int):
            # the search scales ti before it reads it, so a product keeps the instrumented type
            def __mul__(self, other):
                return Start(int(self) * other)

            __rmul__ = __mul__

            def __rsub__(self, other):
                reads.append(other)
                return int(other) - int(self)

        ti = [Start(0)] + list(range(1, 8)) + list(range(9, 17))
        vi = [0] * 8 + [3] * 8
        got = verify._holder_violations(ti, vi, 1, 1)
        # the seven pairs of its own leaf, then one bound for the next leaf
        assert reads == list(range(1, 8)) + [9]
        assert got == ref_pair_violations(ti, vi, 1, 1)


def ref_pair_violations(ti, vi, d, ee):
    """Every pair i < j with (vi[j] - vi[i])**2 * d > (ti[j] - ti[i]) * ee, in (i, j) order."""
    m = len(ti)
    return [(i, j) for i in range(m) for j in range(i + 1, m) if (vi[j] - vi[i]) ** 2 * d > (ti[j] - ti[i]) * ee]


def ref_block_violations(ti, vi, d, ee, size=32):
    """The pair search the pyramid replaced: fixed blocks of size breakpoints, each cleared by the same bound."""
    m = len(ti)
    starts = range(0, m, size)
    vmax = [max(vi[s : s + size]) for s in starts]
    vmin = [min(vi[s : s + size]) for s in starts]
    out = []
    for i in range(m):
        t_i, v_i = ti[i], vi[i]
        for k in range(i // size, len(starts)):
            s = starts[k]
            if s > i:
                dv = max(vmax[k] - v_i, v_i - vmin[k])
                if dv * dv * d <= (ti[s] - t_i) * ee:
                    continue
            for j in range(max(s, i + 1), min(s + size, m)):
                dv = vi[j] - v_i
                if dv * dv * d > (ti[j] - t_i) * ee:
                    out.append((i, j))
    return out


@contextmanager
def counted_constructions():
    """Interval and Fraction constructions inside the block, as a dict filled in as they happen.

    Intervals are counted as bench/tracer.py counts them, by wrapping
    Interval.__post_init__, and Fractions by wrapping Fraction.__new__,
    which every Fraction passes through in CPython 3.10 and 3.11.  From
    3.12 on, `fractions` builds most arithmetic results without it, so a
    gate pins one Fraction count for 3.10 and 3.11 and one for 3.12 and
    later (measured on 3.12.1 and 3.13.0).
    """
    counts = {"Interval": 0, "Fraction": 0}
    post_init = Interval.__post_init__
    saved_new = F.__dict__["__new__"]
    real_new = F.__new__

    def counted_post_init(self):
        counts["Interval"] += 1
        post_init(self)

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    Interval.__post_init__ = counted_post_init
    F.__new__ = staticmethod(counted_new)
    try:
        yield counts
    finally:
        Interval.__post_init__ = post_init
        F.__new__ = saved_new


@contextmanager
def counted_comparisons():
    """Fraction rich comparisons inside the block, as a dict filled in as they happen.

    Counted by wrapping Fraction's __lt__, __le__, __gt__, __ge__ and
    __eq__, which also run for an int or float compared with a Fraction
    from either side.
    """
    counts = {"Fraction": 0}
    saved = {name: F.__dict__[name] for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")}

    def counted(compare):
        def wrapper(a, b):
            counts["Fraction"] += 1
            return compare(a, b)

        return wrapper

    for name, compare in saved.items():
        setattr(F, name, counted(compare))
    try:
        yield counts
    finally:
        for name, compare in saved.items():
            setattr(F, name, compare)


class TestUnitGapCampaign:
    def test_certified_small_grid(self):
        r = verify_unit_gap(101)
        assert r.campaign == "claim2"
        assert r.certified and r.checked == 101
        assert r.parameters["min_offset"] == F(1, 18)
        floor = r.parameters["gap_floor"]
        assert floor.lo >= F(854, 100000)
        assert r.parameters["min_gap_lo"] >= floor.hi

    def test_min_gap_matches_direct_scan(self):
        r = verify_unit_gap(21)
        floor = quotient_gap_floor()
        assert r.parameters["min_gap_lo"] >= floor.hi

    def test_grid_past_the_cap_refused_before_any_witness(self, monkeypatch):
        def no_witness(*args):
            raise AssertionError("a witness was built before the refusal")

        monkeypatch.setattr(Curve, "unit_witnesses", no_witness)
        for grid_size in (verify.MAX_PAIRS + 1, 10**10):
            with pytest.raises(DepthTooLarge) as raised:
                verify_unit_gap(grid_size)
            assert str(raised.value) == f"{grid_size} base points exceed cap {verify.MAX_PAIRS}"

    def test_work_per_base_point(self):
        """Interval and Fraction constructions of verify_unit_gap(601): a work gate host speed cannot move.

        Counted by `counted_constructions`.  A base point builds 5.0
        Intervals and 6.0 Fractions (3 007 and 3 612 in all; 3 606
        Fractions from CPython 3.12 on): the enclosure of u(t0), and a
        root and a quotient per probe, since a repeated enclosure comes
        from the descent store, which holds the whole campaign.  While
        Curve() built its rows from Fraction products, 3 633 (3 624 from
        3.12 on).  While each Interval reduced its ends to two
        Fractions, it built 16.0 Fractions (9 637; 9 628 from 3.12 on).
        While the store held 256 points and so cleared twice mid-campaign, the
        four probe enclosures were built again: 3 013 and 9 643 (9 634
        from 3.12 on).  While each call built its enclosure
        again and the gap was two Fraction differences, it built 8.0 and
        21.0 (4 808 and 12 638 in all); while the witness gap was the
        Interval (q1 - q2).abs() and kept descents at 0 or 1 were
        descended again, 9.5 and 22.0; before quotient endpoints became
        one Fraction each and the witness checks moved to integers, 12.5
        and 45.0.
        """
        quotient_gap_floor().hi  # cached with its upper end before counting, as in every campaign but the first
        with counted_constructions() as counts:
            r = verify_unit_gap(601, curve=Curve())
        assert r.certified and r.checked == 601
        assert counts == {"Interval": 3007, "Fraction": 3612 if sys.version_info < (3, 12) else 3606}

    def test_no_fraction_comparison(self):
        """verify_unit_gap(601) orders every gap on integers: 1 201 Fraction comparisons before (`<` with the floor and `min`)."""
        quotient_gap_floor()
        with counted_comparisons() as counts:
            r = verify_unit_gap(601)
        assert r.certified and r.checked == 601
        assert counts == {"Fraction": 0}


class TestWindowGapCampaign:
    def test_sampler_deterministic_and_in_range(self):
        a = window_gap_samples(30)
        b = window_gap_samples(30)
        assert a == b
        for t, delta in a:
            assert 0 <= t <= 1
            assert delta in {F(1, 9) ** j for j in range(1, 9)}
        assert window_gap_samples(30, seed=1) != a

    def test_certified(self):
        r = verify_window_gap(window_gap_samples(40))
        assert r.campaign == "claim3"
        assert r.certified and r.checked == 40
        assert r.parameters["offset_ratio"] == F(1, 162)


    def test_no_samples_refused(self):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_window_gap([])

    @pytest.mark.parametrize(
        "sample, exc_type, message",
        [
            ((F(1, 7), F(1, 9**1000)), DepthTooLarge, "depth 4416 exceeds cap 4096"),
            ((F(3, 2), F(1, 9)), OutOfDomain, "t=3/2 outside [0, 1]"),
            ((F(1, 2), 2), OutOfDomain, "delta=2 outside (0, 1]"),
        ],
    )
    def test_refused_arguments_raise_instead_of_failing(self, sample, exc_type, message):
        with pytest.raises(exc_type) as raised:
            verify_window_gap([window_gap_samples(1)[0], sample])
        assert str(raised.value) == message

    def test_broken_branch_system_is_a_construction_failure(self):
        gap = Curve(branches=perturbed_branches(BranchTag.LEFT, "x_scale", F(43, 100)))
        # left now ends at 43/100, short of mid's 4/9
        r = verify_window_gap([(F(87, 200), F(1, 9))], curve=gap)
        assert not r.certified
        assert r.failures == [{"kind": "construction", "detail": "no branch cell contains t=87/200", "t": "87/200", "delta": "1/9"}]

    def test_start_depth_beyond_floats_certified(self):
        r = verify_window_gap([(F(1, 7), F(1, 9**330))])
        assert r.certified and r.failures == []

    def test_no_fraction_comparison(self):
        """claim3 at 60 samples tests ranges and gaps on integers: 359 Fraction comparisons before (locate_cell's ranges, the floor, `min`)."""
        quotient_gap_floor()
        samples = window_gap_samples(60)
        with counted_comparisons() as counts:
            r = verify_window_gap(samples)
        assert r.certified and r.checked == 60
        assert counts == {"Fraction": 0}


# ----------------------------------------------------------------------
# Every witness failure record, from a Curve with crafted witnesses:
# probes at, just inside and just outside each distance bound, on the
# wrong side and at the base point itself, and gaps at and just below the
# floor.  The report digests were taken before the checks moved to
# integer cross-multiplication.

_EPS = F(1, 10**12)


def _crafted(t, near, delta, case):
    """The witness of one case at base t whose probe distances must lie in [near, delta]."""
    if case == "construction":
        raise ValueError("crafted construction failure")
    floor_hi = quotient_gap_floor().hi
    gap = {
        "gap-at-floor": floor_hi,
        "gap-below-floor": floor_hi - _EPS,
        "gap-far-below": F(0),
    }.get(case, F(1))
    offsets, side = {
        "good": ((near, delta), 1),
        "left-good": ((-near, -delta), -1),
        "inside": ((near + _EPS, delta - _EPS), 1),
        "left-inside": ((-near - _EPS, -delta + _EPS), -1),
        "below-near": ((near - _EPS, delta), 1),
        "above-delta": ((near, delta + _EPS), 1),
        "left-outside": ((-near + _EPS, -delta - _EPS), -1),
        "wrong-side": ((-near, delta), 1),
        "left-wrong-side": ((-near, near), -1),
        "at-t": ((0, delta), 1),
        "left-at-t": ((-delta, 0), -1),
        "far-wrong-side": ((-2 * delta, 2 * delta), -1),
        "gap-at-floor": ((near, delta), 1),
        "gap-below-floor": ((near, delta), 1),
        "gap-far-below": ((-near, -delta), -1),
    }[case]
    return QuotientWitness(t + offsets[0], t + offsets[1], gap, side)


UNIT_CASES = (
    "good", "left-good", "inside", "left-inside", "below-near", "above-delta", "left-outside",
    "wrong-side", "left-wrong-side", "at-t", "left-at-t", "far-wrong-side", "gap-at-floor",
    "gap-below-floor", "gap-far-below", "construction",
)  # one per point of the 19-point grid, t0 = k/18; the last three are "good"
WINDOW_SAMPLES = [
    (F(123457, 10**6), F(1, 9)),
    (F(1, 2), F(1, 81)),
    (F(0), F(1, 729)),
    (F(1), F(1, 9**8)),
    (F(4, 9), F(1, 9)),
    (F(5, 9), F(1, 6561)),
]

UNIT_DIGEST = "91cb8faa2381ae7ddd7f2daa5aa1f95afe8ef962cec0d80318acc563d8a85b33"
WINDOW_DIGESTS = {
    "good": "932340cba0ad4f75b9468b9230c9930b4c8d31b6718bf6d5132ee195a7edc426",
    "left-good": "932340cba0ad4f75b9468b9230c9930b4c8d31b6718bf6d5132ee195a7edc426",
    "inside": "932340cba0ad4f75b9468b9230c9930b4c8d31b6718bf6d5132ee195a7edc426",
    "left-inside": "932340cba0ad4f75b9468b9230c9930b4c8d31b6718bf6d5132ee195a7edc426",
    "below-near": "d1763b4065862229ea0493c0b7032da5d5401db92971544baf27261da7831d54",
    "above-delta": "4a7bdc84d294a897dc109db579aa69ffdf52e9d838930d993f9db9e59d85152d",
    "left-outside": "fa3a348c71f1a2b3c79bd4ede5b7de0712cd9402634d4bbf1ceca203bd6671ed",
    "wrong-side": "13ce37dcdee856dbd1a3f0858a182350200623b44e0fa09f7924fb5553728382",
    "left-wrong-side": "95509a4279141022bb5eca4e508040a88194400f966b756cf0604d0ca68dbf6d",
    "at-t": "46dbe06264baa4bf416de3ebd373cf30c10cdbb4e7ffd54b6ab60ade893df884",
    "left-at-t": "46dbe06264baa4bf416de3ebd373cf30c10cdbb4e7ffd54b6ab60ade893df884",
    "far-wrong-side": "ad86db75c750f19659734353c619b7fdd2374551b55ae7ca0e63e66924e5198f",
    "gap-at-floor": "7a81d2a7308788c9f5d1beab2111f96204d80b6aed4d19bdd4189a301e53ba76",
    "gap-below-floor": "9e32e8db5f985fffe48cb026e61b709943b021bd2a3ca1bbedf2b22ad15044b6",
    "gap-far-below": "374285585874d7a400abcfcd502fa76059b893b7fe3f3ca6034ac747d48b095d",
    "construction": "62e8fc5b35b76e0d476cbdfc6c7adc3d1fa72db674a52f932e595056b139f1c4",
}


@dataclass(frozen=True)
class CraftedWitnesses(Curve):
    """The standard curve with crafted witnesses.

    On the 19-point claim2 grid, t0 = k/18 meets UNIT_CASES[k] (the last
    three points are "good"); every claim3 sample meets window_case, at
    the t and delta its located cell holds.
    """

    window_case: str = "good"

    def unit_witnesses(self, t0):
        k = int(t0 * 18)
        return _crafted(t0, F(1, 18), 1, UNIT_CASES[k] if k < len(UNIT_CASES) else "good")

    def window_witnesses(self, cell):
        t, delta = cell.t, cell.delta
        return _crafted(t, delta / 162, delta, self.window_case)


class TestWitnessFailureRecords:
    def test_unit_records(self):
        r = verify_unit_gap(19, curve=CraftedWitnesses())
        kinds = [f["kind"] for f in r.failures]
        assert {"offset-range", "side", "gap-below-floor", "construction"} == set(kinds)
        assert r.checked == 19 and not r.certified
        text = r.to_json(include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == UNIT_DIGEST

    def test_window_records(self):
        for case in UNIT_CASES:
            r = verify_window_gap(WINDOW_SAMPLES, curve=CraftedWitnesses(window_case=case))
            assert r.checked == len(WINDOW_SAMPLES)
            assert r.certified == (case in ("good", "left-good", "inside", "left-inside", "gap-at-floor"))
            assert hashlib.sha256(r.to_json(include_timing=False).encode()).hexdigest() == WINDOW_DIGESTS[case], case


def _double_failure(t, near, delta):
    """A witness with its first probe on the wrong side, its second at 2 * delta and its gap below the floor."""
    return QuotientWitness(t - near, t + 2 * delta, quotient_gap_floor().hi - _EPS, 1)


# Digests of the reports test_failing_base_points_match_the_parent builds,
# taken while every base point's key was built before its witness.
DOUBLE_FAILURE_DIGESTS = {
    "claim2": "e8ac0fb78f418522f88d7b8c3ed83e45856851c0cc95b2d4f45c56dcffd31f96",
    "claim3": "2a1149bb7ae33dc2500dc44575b6dd5eca0464aa0e0b5ea92c905c4b12e33105",
    "1/2": "9802f2f8d9a9208845ec4f390ed3c0ac9044ba5c6cd5d1582e08064408615ff1",
    "7/2": "675490443da71bc35d90f714117c52468e0ee8857bb3ab3419fe959857d2ec12",
}


class TestFailureKeys:
    """A failure record's naming fields are built only for a base point or window that fails."""

    @pytest.fixture
    def str_calls(self, monkeypatch):
        calls = []
        to_str = F.__str__
        monkeypatch.setattr(F, "__str__", lambda self: calls.append(self) or to_str(self))
        return calls

    def test_passing_runs_format_no_fraction(self, str_calls):
        reports = [
            verify_unit_gap(19),
            verify_window_gap(WINDOW_SAMPLES),
            oscillation_scan(F(1, 7), 6),
            oscillation_scan(F(-23, 9), 6),
        ]
        assert all(r.certified for r in reports)
        assert str_calls == []

    def test_failing_base_points_match_the_parent(self, monkeypatch, str_calls):
        unit, window = Curve.unit_witnesses, Curve.window_witnesses

        def unit_witnesses(self, t0):
            return _double_failure(t0, F(1, 18), 1) if t0 in (F(1, 6), F(1, 2)) else unit(self, t0)

        def window_witnesses(self, cell):
            t, delta = cell.t, cell.delta
            return _double_failure(t, delta / 162, delta) if delta == F(1, 81) or t == F(5, 9) else window(self, cell)

        monkeypatch.setattr(Curve, "unit_witnesses", unit_witnesses)
        monkeypatch.setattr(Curve, "window_witnesses", window_witnesses)
        samples = [(F(123457, 10**6), F(1, 9)), (F(1, 2), F(1, 81)), (F(0), F(1, 729)), (F(5, 9), F(1, 6561))]
        reports = {
            "claim2": verify_unit_gap(7),
            "claim3": verify_window_gap(samples),
            "1/2": oscillation_scan(F(1, 2), 3),
            "7/2": oscillation_scan(F(7, 2), 3),
        }
        # three records for each failing base point of claim2 and claim3, two probe records and
        # one gap record for the failing window
        assert [len(r.failures) for r in reports.values()] == [6, 6, 3, 3]
        assert reports["claim3"].failures[:3] == [
            {"kind": "offset-range", "s": "3647/6561", "distance": "2/6561", "t": "5/9", "delta": "1/6561"},
            {"kind": "gap-below-floor", "gap_lo": str(quotient_gap_floor().hi - _EPS),
             "floor_hi": str(quotient_gap_floor().hi), "t": "5/9", "delta": "1/6561"},
            {"kind": "side", "s": "590489/1062882", "t": "5/9", "delta": "1/6561"},
        ]
        for name, r in reports.items():
            assert not r.certified
            assert hashlib.sha256(r.to_json(include_timing=False).encode()).hexdigest() == DOUBLE_FAILURE_DIGESTS[name]


class TestOscillation:
    def test_windows_certified_at_half(self):
        deltas = [F(1, 9) ** j for j in range(1, 5)]
        r = oscillation_scan(F(1, 2), 4)
        floor = quotient_gap_floor()
        assert r.campaign == "oscillation"
        assert r.certified and r.failures == [] and r.checked == len(deltas)
        assert r.parameters["t_hat"] == F(1, 2) and r.parameters["deltas"] == deltas
        windows = r.parameters["windows"]
        assert len(windows) == len(deltas)
        for w, d in zip(windows, deltas):
            assert w["certified"]
            assert w["delta"] == d
            assert w["osc_lower_bound"] >= floor.hi
            for off in (w["offset1"], w["offset2"]):
                assert d * F(1, 162) <= abs(off) <= d

    def test_reflected_window_keeps_magnitudes(self):
        # 7/2 folds to 1/2 through a reflection: offsets flip sign only
        base = oscillation_scan(F(1, 2), 1).parameters["windows"][0]
        refl = oscillation_scan(F(7, 2), 1).parameters["windows"][0]
        assert refl["certified"]
        assert abs(refl["offset1"]) == abs(base["offset1"])
        assert abs(refl["offset2"]) == abs(base["offset2"])
        assert refl["offset1"] == -base["offset1"]
        assert refl["osc_lower_bound"] == base["osc_lower_bound"]

    def test_work_per_scan(self, monkeypatch):
        """Interval and Fraction constructions of oscillation_scan(123457/10**6, 64), as test_work_per_base_point counts them.

        On a Curve whose store starts empty a window builds 7 Intervals
        and about 11 Fractions (448 and 706 in all; 515 from CPython
        3.12 on, measured on 3.12.1 and 3.13.0).  While locate_cell built
        each cell's map as two Fractions, a scan built 834 Fractions (643
        from 3.12 on).  While each Interval reduced its ends to two
        Fractions, a scan built 1 602 Fractions (1 411 from 3.12 on).
        While each probe was cell(b), a Fraction product and sum, and
        locate_cell coerced Fractions to Fractions, a scan built 2 114
        Fractions (1 667 from 3.12 on).
        """
        quotient_gap_floor().hi
        t = F(123457, 10**6)
        monkeypatch.setattr(verify, "UNIT_CURVE", Curve())
        with counted_constructions() as counts:
            r = oscillation_scan(t, 64)
        assert r.certified and r.checked == 64
        assert counts == {"Interval": 448, "Fraction": 706 if sys.version_info < (3, 12) else 515}

    def test_no_fraction_comparison(self):
        """oscillation_scan(123457/10**6, 64) tests its reflection on integers: 1 Fraction comparison before (`t_red != t_hat % 2`)."""
        quotient_gap_floor()  # cached before counting, as in every campaign but the first
        with counted_comparisons() as counts:
            r = oscillation_scan(F(123457, 10**6), 64)
        assert r.certified and r.checked == 64
        assert counts == {"Fraction": 0}

    def test_no_scales_refused(self):
        for scales in (0, -3):
            with pytest.raises(ValueError, match="scales must be at least 1"):
                oscillation_scan(F(1, 2), scales)

    def test_scale_past_the_depth_cap_refused_before_any_window(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a descent started before the refusal")

        monkeypatch.setattr(Curve, "locate_cell", no_work)
        monkeypatch.setattr(Curve, "_descend", no_work)
        for scales in (MAX_SCALES + 1, 10**10):
            with pytest.raises(DepthTooLarge) as raised:
                oscillation_scan(F(1, 7), scales)
            assert str(raised.value) == f"{scales} scales exceed cap {MAX_SCALES}"

    @pytest.mark.parametrize("case", [c for c in UNIT_CASES if c != "construction"])
    def test_probe_records_match_claim3(self, monkeypatch, case):
        # the scan checks its probes around the folded point, before reflecting,
        # with the records claim3 writes less the base point
        curve = CraftedWitnesses(window_case=case)
        deltas = [F(1, 9), F(1, 81)]
        claim3 = verify_window_gap([(F(1, 2), d) for d in deltas], curve=curve)
        want = [
            {k: v for k, v in f.items() if k != "t"} for f in claim3.failures if f["kind"] in ("offset-range", "side")
        ]
        monkeypatch.setattr(verify, "UNIT_CURVE", curve)
        floor_hi = quotient_gap_floor().hi
        for t_hat in (F(1, 2), F(7, 2), F(-1, 2)):
            r = oscillation_scan(t_hat, 2)
            assert [f for f in r.failures if f["kind"] != "window-uncertified"] == want, t_hat
            assert r.certified == claim3.certified
            # a window is certified when its gap clears the floor and neither probe has a record
            for w in r.parameters["windows"]:
                probed = any(f["delta"] == str(w["delta"]) for f in want)
                assert w["certified"] == (w["osc_lower_bound"] >= floor_hi and not probed), (t_hat, w)

    def test_window_with_a_failed_probe_is_not_certified(self, monkeypatch):
        # the probes sit nearer than delta/162 while the gap clears the floor
        monkeypatch.setattr(verify, "UNIT_CURVE", CraftedWitnesses(window_case="below-near"))
        r = oscillation_scan(F(1, 2), 2)
        assert not r.certified
        assert [w["certified"] for w in r.parameters["windows"]] == [False, False]
        assert [f["kind"] for f in r.failures] == ["offset-range", "offset-range"]

    def test_flat_mid_branch_leaves_windows_uncertified(self, monkeypatch):
        # with a flat mid branch the probes no longer separate the quotients
        flat = Curve(branches=perturbed_branches(BranchTag.MID, "y_scale", 0))
        monkeypatch.setattr(verify, "UNIT_CURVE", flat)
        r = oscillation_scan(F(1, 2), 3)
        assert not r.certified and r.checked == 3
        assert not any(w["certified"] for w in r.parameters["windows"])
        assert [f["kind"] for f in r.failures] == ["window-uncertified"] * 3
        # canonical order, as in every report
        assert [f["delta"] for f in r.failures] == ["1/729", "1/81", "1/9"]
        for f, w in zip(r.failures, reversed(r.parameters["windows"])):
            assert f["osc_lower_bound"] == str(w["osc_lower_bound"])


class TestHausdorff:
    def test_frozen_oracle(self):
        a = [w_point(0, 0), w_point(1, 0)]
        b = [w_point(5, 0)]
        assert hausdorff_distance(a, b, 10) == Interval.point(5)
        assert hausdorff_distance(b, a, 10) == Interval.point(5)
        assert hausdorff_distance(a, a, 10) == Interval.point(0)

    def test_restriction_radius(self):
        a = [w_point(0, 0), w_point(3, 0)]
        b = [w_point(1, 0), w_point(50, 0)]
        # the far outlier is cut away by the radius restriction
        assert hausdorff_distance(a, b, 5) == Interval.point(2)
        with pytest.raises(EmptyAfterRestriction):
            hausdorff_distance(a, [w_point(50, 0)], 5)

    def test_random_sets_match_float_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            a = [w_point(F(rng.randrange(-8, 9), 3), 0) for _ in range(4)]
            b = [w_point(F(rng.randrange(-8, 9), 3), 0) for _ in range(4)]
            got = hausdorff_distance(a, b, 100)
            da = max(min(abs(float(p.y - q.y)) for q in b) for p in a)
            db = max(min(abs(float(p.y - q.y)) for q in a) for p in b)
            expect = max(da, db)
            assert float(got.lo) - 1e-9 <= expect <= float(got.hi) + 1e-9

    def test_one_norm_per_pair_matches_two_pass_reference(self, monkeypatch):
        """On the default blow-up samples and on random group points: the reference's Interval, from one norm per pair."""
        samples = []
        real = verify.hausdorff_distance
        monkeypatch.setattr(verify, "hausdorff_distance", lambda a, b, radius: samples.append((a, b, radius)) or real(a, b, radius))
        offsets = (-1, F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), 1)
        blowup_divergence(0, 1, F(4472135954999579, 10**16), 1, [w_point(0, h) for h in offsets], 40)
        rng = random.Random(1)

        def point():
            lo = F(rng.randrange(-20, 21), 7)
            r = Interval(lo, lo + F(rng.randrange(4), 13)) if rng.randrange(4) else carnot._ZERO
            return GroupPoint(F(rng.randrange(-9, 10), 5), F(rng.randrange(-9, 10), 5), F(rng.randrange(-99, 100), 11), r)

        samples += [([point() for _ in range(n)], [point() for _ in range(m)], F(5, 2)) for n, m in ((1, 1), (3, 7), (12, 9))]
        norms = []
        monkeypatch.setattr(verify, "hnorm", lambda p: norms.append(p) or carnot.hnorm(p))
        for a, b, radius in samples:
            expect = ref_hausdorff(a, b, radius)
            kept = [sum(carnot.hnorm(p).lo <= radius for p in pts) for pts in (a, b)]
            assert 0 < kept[0] <= len(a) and 0 < kept[1] <= len(b)
            norms.clear()
            got = real(a, b, radius)
            assert (str(got.lo), str(got.hi)) == (str(expect.lo), str(expect.hi))
            assert len(norms) == len(a) + len(b) + kept[0] * kept[1]


def ref_hausdorff(a_pts, b_pts, radius):
    """The two-pass Hausdorff distance: max-min over a, then over b, of every ordered pair's norm."""
    a = [p for p in a_pts if carnot.hnorm(p).lo <= radius]
    b = [q for q in b_pts if carnot.hnorm(q).lo <= radius]

    def directed(src, dst):
        nearest = (reduce(Interval.min_of, [carnot.hnorm(carnot.mul(carnot.inv(p), q)) for q in dst]) for p in src)
        return reduce(Interval.max_of, nearest)

    return Interval.max_of(directed(a, b), directed(b, a))


def ref_cone_pairs(sample_count, seed):
    """The cone pairs as a list built before any check: 12 breakpoint pairs, then seeded draws."""
    rng = random.Random(seed)
    pairs = []
    for b1, b2 in combinations((F(0), F(4, 9), F(5, 9), F(1)), 2):
        pairs.append((w_point(0, b1), w_point(0, b2)))
        pairs.append((w_point(0, b1), w_point(1, b2)))
    while len(pairs) < sample_count:
        y1, t1, y2, t2 = (F(rng.randrange(-2000, 2001), 1000) for _ in range(4))
        pairs.append((w_point(y1, t1), w_point(y2, t2)))
    return pairs[:sample_count]


def ref_holder_chain(p1, p2, dt):
    """The Hölder-chain record kind of a cone pair, with separate exact and interval branches."""
    if p1.r.is_point() and p2.r.is_point():
        if dt != 0 or p1.r.lo != p2.r.lo:
            if (p2.r.lo - p1.r.lo) ** 2 > abs(dt):
                return "holder-chain-exact"
        return None
    if (p2.r - p1.r).abs().lo ** 2 > abs(dt):
        return "holder-chain-refuted"
    return None


def check_holder_chain(monkeypatch, t0, dt, r1, r2, kind):
    """verify_cone's Hölder-chain record for one pair at betas t0 and t0 + dt with r slots r1 and r2, against the reference."""
    # the first pair sits at betas 0 and 4/9: move it to t0 and t0 + dt and give it the r slots
    monkeypatch.setattr(verify, "w_point", lambda y, t: w_point(y, t0 + t * dt * F(9, 4)))
    slots = iter((r1, r2))
    monkeypatch.setattr(verify, "graph_point", lambda w, depth: GroupPoint(w.x, w.y, w.t, next(slots)))
    r = verify_cone(1, depth=10)
    p1, p2 = (GroupPoint(F(0), F(0), t, slot) for t, slot in ((t0, r1), (t0 + dt, r2)))
    assert ref_holder_chain(p1, p2, dt) == kind
    assert [f["kind"] for f in r.failures if f["kind"].startswith("holder-chain")] == ([kind] if kind else [])
    assert [(f["beta1"], f["beta2"]) for f in r.failures] == [(str(t0), str(t0 + dt))] * len(r.failures)
    assert r.parameters["exact_pairs"] == (r1.is_point() and r2.is_point())


def ref_cone_report(sample_count, depth, seed):
    """The canonical cone report and every pair's gap, from pairs built up front and graph points evaluated one by one."""
    failures = []
    exact_pairs = 0
    min_gap_lo = None
    gaps = []
    for idx, (w1, w2) in enumerate(ref_cone_pairs(sample_count, seed)):
        p1, p2 = graph_point(w1, depth), graph_point(w2, depth)
        g = cone_gap(p1, p2, depth)
        gaps.append(g)
        key = {"index": idx, "beta1": str(w1.t), "beta2": str(w2.t), "y1": str(w1.y), "y2": str(w2.y)}
        min_gap_lo = g.lo if min_gap_lo is None else min(min_gap_lo, g.lo)
        if g.hi < 0:
            failures.append({"kind": "cone-gap-negative", "gap": [str(g.lo), str(g.hi)], **key})
        elif g.lo < 0:
            failures.append({"kind": "cone-undecided", "gap": [str(g.lo), str(g.hi)], **key})
        exact_pairs += p1.r.is_point() and p2.r.is_point()
        kind = ref_holder_chain(p1, p2, w2.t - w1.t)
        if kind:
            failures.append({"kind": kind, **key})
    params = {"sample_count": sample_count, "depth": depth, "seed": seed, "exact_pairs": exact_pairs}
    params.update(min_gap_lo=str(min_gap_lo), cone_constant="1")
    report = {
        "campaign": "cone",
        "parameters": params,
        "checked": sample_count,
        "failures": sorted(failures, key=lambda f: json.dumps(f, sort_keys=True)),
        "certified": not failures,
        "wall_time_s": None,
    }
    return report, gaps


def cone_with_gaps(monkeypatch, sample_count, depth, seed):
    """verify_cone's canonical report and the gap of every pair it checked."""
    gaps = []
    with monkeypatch.context() as m:
        m.setattr(verify, "cone_gap", lambda p, q, d: gaps.append(cone_gap(p, q, d)) or gaps[-1])
        report = json.loads(verify_cone(sample_count, depth, seed).to_json(include_timing=False))
    return report, gaps


class TestConeCampaign:
    @pytest.mark.parametrize("seed", [verify.REFERENCE_SEED, 77, 0])
    def test_draws_match_the_reference(self, seed):
        # the draws read getrandbits as randrange(4001) does, so they equal the reference's randrange draws
        got = list(islice(verify._cone_pairs(seed), 10**4))
        assert got == ref_cone_pairs(10**4, seed)
        drawn = [v for pair in got for w in pair for v in (w.y, w.t)]
        assert all(type(v) is F for v in drawn)
        # both ends of the grid are drawn
        assert {F(-2), F(2)} <= set(drawn[48:])

    @pytest.mark.parametrize("count", [1, 5, 12, 13, 40])
    def test_pairs_are_built_as_they_are_checked(self, monkeypatch, count):
        made, checked, descents = [], [], []
        real_w_point, real_graph_point, real_descend = verify.w_point, verify.graph_point, Curve._descend

        def graph_point_spy(w, depth):
            checked.append((len(made), w))
            return real_graph_point(w, depth)

        monkeypatch.setattr(verify, "w_point", lambda *a: made.append(a) or real_w_point(*a))
        monkeypatch.setattr(verify, "graph_point", graph_point_spy)
        monkeypatch.setattr(Curve, "_descend", lambda self, state, depth: descents.append(state[:2]) or real_descend(self, state, depth))
        UNIT_CURVE.forget()
        assert verify_cone(count, depth=10).checked == count
        assert checked[0][0] <= 24
        assert len(made) == 2 * count
        ws = [w for _, w in checked]
        assert list(zip(ws[::2], ws[1::2])) == ref_cone_pairs(count, verify.REFERENCE_SEED)
        # each distinct folded argument is descended once, and the next campaign descends it again
        folded = sorted({(t.numerator, t.denominator) for t in map(reduce_domain, (w.t for w in ws))})
        assert sorted(descents) == folded
        descents.clear()
        verify_cone(count, depth=10)
        assert sorted(descents) == folded

    @pytest.mark.parametrize(
        "dt, r1, r2, kind",
        [
            (F(0), Interval.point(F(1, 3)), Interval.point(F(1, 3)), None),
            (F(1, 9), Interval.point(F(0)), Interval.point(F(1, 2)), "holder-chain-exact"),
            (F(1, 9), Interval(F(0), F(1, 100)), Interval(F(1, 2), F(3, 5)), "holder-chain-refuted"),
            (F(1, 9), Interval(F(0), F(1, 2)), Interval(F(1, 4), F(1, 2)), None),
            (F(-1, 9), Interval.point(F(1, 2)), Interval.point(F(0)), "holder-chain-exact"),
            (F(1, 9), Interval(F(1, 2), F(3, 5)), Interval(F(0), F(1, 100)), "holder-chain-refuted"),
            (F(1, 9), Interval(F(1, 3), F(2, 5)), Interval(F(0), F(1, 100)), None),
            (F(1, 4), Interval(F(0), F(1, 4)), Interval(F(3, 4), F(1)), None),
            (F(1, 4), Interval(F(0), F(1, 4)), Interval(F(3, 4) + F(1, 10**9), F(1)), "holder-chain-refuted"),
            # |r2 - r1|.lo**2 == |dt|, from an unreduced n / d = 9/18: n**2 * td == tn * d**2 refutes nothing
            (F(1, 4), Interval.point(F(1, 6)), Interval.point(F(2, 3)), None),
            (F(-1, 4), Interval(F(2, 3), F(5, 6)), Interval(F(-1, 3), F(1, 6)), None),
            # dt = 0 with |r2 - r1| > 0
            (F(0), Interval.point(F(0)), Interval.point(F(1, 10**6)), "holder-chain-exact"),
            (F(0), Interval(F(1, 5), F(1, 4)), Interval(F(0), F(1, 10)), "holder-chain-refuted"),
            (F(0), Interval(F(0), F(1, 10)), Interval(F(1, 10), F(1, 5)), None),
            # negative beta2: only |dt| counts
            (F(-1, 4), Interval.point(F(0)), Interval.point(F(1, 4)), None),
            (F(-1, 4), Interval(F(0), F(1, 10)), Interval(F(7, 10), F(4, 5)), "holder-chain-refuted"),
        ],
    )
    def test_holder_chain_matches_the_two_branch_reference(self, monkeypatch, dt, r1, r2, kind):
        check_holder_chain(monkeypatch, F(0), dt, r1, r2, kind)

    @pytest.mark.parametrize(
        "t0, dt, r1, r2, kind",
        [
            (F(-5, 7), F(1, 9), Interval.point(F(0)), Interval.point(F(1, 2)), "holder-chain-exact"),
            (F(-5, 7), F(-2, 9), Interval.point(F(1, 3)), Interval.point(F(1, 6)), None),
            (F(-1, 3), F(-1, 8), Interval(F(0), F(1, 10)), Interval(F(1, 2), F(3, 5)), "holder-chain-refuted"),
            (F(-1, 3), F(1, 10), Interval(F(1, 2), F(3, 5)), Interval(F(0), F(1, 5)), None),
            (F(-3, 2), F(1, 4), Interval.point(F(1, 6)), Interval.point(F(2, 3)), None),
        ],
    )
    def test_holder_chain_at_negative_betas(self, monkeypatch, t0, dt, r1, r2, kind):
        check_holder_chain(monkeypatch, t0, dt, r1, r2, kind)

    # depth 1 leaves some pairs undecided at every seed here
    @pytest.mark.parametrize("depth", [1, 10, 25, 30])
    @pytest.mark.parametrize("seed", [verify.REFERENCE_SEED, 7, 2026])
    def test_memo_changes_no_byte(self, monkeypatch, depth, seed):
        # The report alone cannot tell enclosures apart (the exact pair 0, 1 pins
        # min_gap_lo at 0), so every pair's gap is compared too.
        ts = {w.t for pair in ref_cone_pairs(150, seed) for w in pair}
        # the pairs hold arguments that fold together: t with -t, and t with 2 - t
        assert any(t and -t in ts for t in ts) and any(t != 1 and 2 - t in ts for t in ts)
        got = cone_with_gaps(monkeypatch, 150, depth, seed)
        monkeypatch.setattr(carnot, "UNIT_CURVE", Curve())
        assert got == ref_cone_report(150, depth, seed)

    def test_back_to_back_campaigns_match_fresh_ones(self, monkeypatch):
        seed = 7
        runs = [cone_with_gaps(monkeypatch, 150, depth, seed) for depth in (30, 10, 30)]
        monkeypatch.setattr(carnot, "UNIT_CURVE", Curve())
        fresh = {depth: ref_cone_report(150, depth, seed) for depth in (10, 30)}
        assert runs == [fresh[30], fresh[10], fresh[30]]

    def test_work_per_pair(self, monkeypatch):
        """Descents and Interval and Fraction constructions of verify_cone(600, 30): a work gate host speed cannot move.

        Each distinct folded profile argument is descended once: the
        1 200 graph points at the reference seed, 1 200 eval_limit
        calls, fold onto 715 arguments, and the campaign takes 714
        descents (`Curve._descend` calls), since the warm-up's u(0) is
        kept.  While the campaign kept its enclosures in a memo of its
        own, it made 715 eval_limit calls and the same descents.
        Counted by `counted_constructions`, a pair builds 3.74
        Intervals and 6.0 Fractions (2 246 and 3 602 in all; 902
        Fractions from CPython 3.12 on, which count no arithmetic
        result).  While hnorm built |y| and |t| with abs, even for a t
        already nonnegative, a pair built 7.5 Fractions (4 502; 902 from
        3.12 on, whose abs builds none through Fraction.__new__).
        While each Interval reduced its ends to two Fractions,
        a pair built 13.9 Fractions (8 316; 4 716 from 3.12 on, which
        counted the two Fractions each cone_gap built from integers).
        The warm-up's enclosure of u(0) stays in the
        descent store, so the campaign does not build it again, and the
        warm-up builds the shared tuple of the 4 001 values a draw takes
        (a first campaign builds it too: 8 502 Fractions in all,
        12 317 while Intervals reduced their ends).
        While each of the 2 352 draws built its own Fraction k/1000, a
        pair built 17.8 Fractions (10 668; 7 068 from 3.12 on).  While
        hnorm built Interval.point(|y|) on every call, even the 268 whose
        root enclosure it then returned, a pair built 4.19 Intervals
        (2 514).  While
        inv, mul and cone_gap did Interval arithmetic on the r slots
        (-p.r, -p.r + q.r, its abs and the gap's subtraction) and the
        Hölder chain subtracted Fractions, a pair built 6.67 and 25.2
        (4 000 and 15 124; 5 868 Fractions from 3.12 on).  While every call
        built its own enclosure of u(0), it was 4 001 and 15 125.
        Before the campaign kept its enclosures in a memo, inv and mul
        did arithmetic on the x = 0 coordinate and the Hölder chain
        built the Interval |r2 - r1|, it built 8.95 and 32.3 (5 372 and
        19 361) from 1 200 eval_limit calls.
        """
        descents = []
        real_descend = Curve._descend
        monkeypatch.setattr(Curve, "_descend", lambda c, state, depth: descents.append(state[:2]) or real_descend(c, state, depth))
        monkeypatch.setattr(carnot, "UNIT_CURVE", Curve())
        folded = {reduce_domain(w.t) for pair in ref_cone_pairs(600, verify.REFERENCE_SEED) for w in pair}
        cone_gap(graph_point(w_point(), 30), graph_point(w_point(), 30), 30)  # caches the norm width at depth 30
        verify._draw_grid()  # cached before counting, as in every campaign but the first
        descents.clear()
        with counted_constructions() as counts:
            r = verify_cone(600, 30)
        assert r.certified and r.checked == 600
        # every folded argument but 0, which the warm-up left in the store, is descended once
        assert len(folded) == 715 and sorted(descents) == sorted((t.numerator, t.denominator) for t in folded if t)
        assert counts == {"Interval": 2246, "Fraction": 3602 if sys.version_info < (3, 12) else 902}

    def test_no_fraction_comparison(self):
        """verify_cone(600, 30) orders norms and tests exact points on integers.

        1 520 Fraction comparisons before: 600 `nxy < nt.lo` and 332
        `nxy < nt.hi` in hnorm, 588 `lo == hi` in Interval.is_point.
        """
        with counted_comparisons() as counts:
            r = verify_cone(600, 30)
        assert r.certified and r.checked == 600
        assert counts == {"Fraction": 0}

    @pytest.mark.parametrize(
        "depth, seed, undecided",
        [(1, verify.REFERENCE_SEED, 291), (1, 77, 266), (5, verify.REFERENCE_SEED, 6), (5, 77, 3)],
    )
    def test_undecided_pairs_are_failures(self, depth, seed, undecided):
        r = verify_cone(2000, depth, seed)
        assert [f["kind"] for f in r.failures] == ["cone-undecided"] * undecided
        assert all(F(f["gap"][0]) < 0 <= F(f["gap"][1]) for f in r.failures)
        assert not r.certified

    def test_certified_with_exact_seed_pairs(self):
        r = verify_cone(200, depth=25)
        assert r.campaign == "cone"
        assert r.certified and r.checked == 200
        assert r.parameters["exact_pairs"] >= 12
        assert r.parameters["cone_constant"] == 1

    def test_deterministic_given_seed(self):
        a = verify_cone(60, depth=25).to_json(include_timing=False)
        b = verify_cone(60, depth=25).to_json(include_timing=False)
        assert a == b


class TestBlowupDivergence:
    GRID = [w_point(0, F(i, 4)) for i in range(-4, 5)]

    def test_divergent_targets_certified(self):
        r = blowup_divergence(0, 1, F(4472135954999579, 10**16), 1, self.GRID, 40)
        assert r.campaign == "blowup-divergence"
        assert r.certified
        assert r.parameters["profile_gap"].lo >= F(1, 2)
        assert r.parameters["hausdorff"].lo > 0

    def test_equal_targets_give_identical_blowups(self, monkeypatch):
        monkeypatch.setattr(verify, "BRACKET2", (F(4, 9), F(1, 2)))
        r = blowup_divergence(0, 1, 1, 1, self.GRID, 30)
        assert r.certified
        gap = r.parameters["profile_gap"]
        assert gap.lo <= 0 <= gap.hi
        assert r.parameters["hausdorff"].lo <= 0

    def test_realized_quotients_near_targets(self):
        r = blowup_divergence(0, 1, F(4472135954999579, 10**16), 1, self.GRID, 40)
        tol = r.parameters["tol"]
        for realized, target in zip(r.parameters["realized_quotients"], r.parameters["targets"]):
            assert (realized - target).abs().lo <= 4 * tol

    def test_interval_order_on_ends(self):
        """Interval.min_of and max_of, which hausdorff_distance folds with, and Interval == make no Fraction comparison.

        On the 13 offsets k/6 (k = -6 ... 6) at depth 30 the campaign made
        1 435 Fraction comparisons while they compared the reduced ends:
        624 in min_of, 440 in max_of and 52 in ==.  319 were left while
        Interval.scale, Interval.intersects, carnot.dilate, blowup_profile
        and blowup_graph_sample ordered Fractions too; they read signs and
        order from integers now.  The 109 left are 56 in the campaign
        itself, 26 in hausdorff_distance's radius filter, 8 in
        Interval.inside_ball and 19 in the solver and rationalized_scale.
        """
        grid = [w_point(0, F(k, 6)) for k in range(-6, 7)]
        args = (0, 1, F(4472135954999579, 10**16), 1, grid, 30)
        blowup_divergence(*args)  # caches built before counting, as in every campaign but the first
        with counted_comparisons() as counts:
            r = blowup_divergence(*args)
        assert r.certified
        assert counts == {"Fraction": 109}


def profile_gap_off_target(enc1, enc2, target1, target2, tol):
    """The profile-gap-off-target test blowup_divergence ran until it was seen never to fire."""
    gap = (enc1 - enc2).abs()
    return not (gap.lo - 4 * tol <= abs(target1 - target2) <= gap.hi + 4 * tol)


def _in_ball(target, tol, ends):
    """The enclosure [target + a*tol, target + b*tol] for a <= b, both in [-2, 2]."""
    a, b = sorted(ends)
    return Interval(target + a * tol, target + b * tol)


ball_ends = st.tuples(st.fractions(-2, 2, max_denominator=40), st.fractions(-2, 2, max_denominator=40))


class TestProfileGapOnTarget:
    @settings(max_examples=400, deadline=None)
    @given(
        target1=st.fractions(-3, 3, max_denominator=50),
        target2=st.fractions(-3, 3, max_denominator=50),
        tol=st.fractions(F(1, 10**6), 1, max_denominator=10**6),
        ends1=ball_ends,
        ends2=ball_ends,
    )
    def test_never_fires_inside_the_balls(self, target1, target2, tol, ends1, ends2):
        enc1, enc2 = _in_ball(target1, tol, ends1), _in_ball(target2, tol, ends2)
        assert enc1.inside_ball(target1, 2 * tol) and enc2.inside_ball(target2, 2 * tol)
        assert not profile_gap_off_target(enc1, enc2, target1, target2, tol)

    def test_fires_outside_them(self):
        # the reference is live: an enclosure 3*tol from its target can trip it
        tol = F(1, 100)
        assert profile_gap_off_target(Interval.point(F(1) + 5 * tol), Interval.point(F(0)), F(1), F(0), tol)

    def test_campaign_counts_the_check(self):
        grid = TestBlowupDivergence.GRID
        r = blowup_divergence(0, 1, F(4472135954999579, 10**16), 1, grid, 40)
        enc1, enc2 = r.parameters["realized_quotients"]
        assert not profile_gap_off_target(enc1, enc2, *r.parameters["targets"], r.parameters["tol"])
        assert r.checked == 2 + 2 * len(grid) + 3


class TestFailureRecords:
    def test_records_are_json_ready_when_built(self):
        # json.dumps refuses a Fraction or an Interval, so every record is strings, ints and lists
        reports = list(mutation_probe(BranchTag.MID, "x_scale", F(1, 9) - F(1, 100)).values())
        reports += [
            verify_unit_gap(19, curve=CraftedWitnesses()),
            verify_window_gap(WINDOW_SAMPLES, curve=CraftedWitnesses(window_case="far-wrong-side")),
        ]
        for r in reports:
            assert r.failures
            assert json.loads(json.dumps(r.failures)) == r.failures
            assert json.loads(r.to_json())["failures"] == r.failures


class TestMutationSensitivity:
    def test_reference_drift_detected(self):
        reports = mutation_probe(BranchTag.MID, "y_scale", F(-7, 20))
        assert set(reports) == {"holder", "claim2", "claim3"}
        assert mutation_detected(reports)
        assert not reports["holder"].certified

    def test_every_single_constant_drift_is_detected(self):
        for branch in BRANCHES:
            for fld in MUTABLE_FIELDS:
                base = getattr(branch, fld)
                for bump in (F(1, 100), F(-1, 100)):
                    reports = mutation_probe(branch.tag, fld, base + bump)
                    assert mutation_detected(reports), (
                        f"undetected drift: {branch.tag.value}.{fld} by {bump}"
                    )

    def test_unknown_field_refused(self):
        with pytest.raises(ValueError, match="unknown branch field 'x_lo'"):
            perturbed_branches(BranchTag.LEFT, "x_lo", F(1, 9))

    def test_identity_mutation_passes(self):
        left = BRANCHES[0]
        reports = mutation_probe(BranchTag.LEFT, "x_scale", left.x_scale)
        assert not mutation_detected(reports)


# ----------------------------------------------------------------------
# The standard curve's descent store lives for one campaign: each
# campaign returns with it empty, whatever it held before.  So does the
# store of a caller's curve, for the campaigns that take one, whether it
# is passed by keyword or by position.


STORE_CAMPAIGNS = {
    "holder": lambda curve: verify_holder(3),
    "claim2": lambda curve: verify_unit_gap(11),
    "claim3": lambda curve: verify_window_gap(window_gap_samples(5)),
    "cone": lambda curve: verify_cone(40, 20),
    "oscillation": lambda curve: oscillation_scan(F(7, 2), 6),
    "blowup-divergence": lambda curve: blowup_divergence(0, 1, F(4472135954999579, 10**16), 1, TestBlowupDivergence.GRID, 30),
    "mutation": lambda curve: mutation_probe(BranchTag.MID, "y_scale", F(-7, 20), 3, 9, 4),
    "holder, caller's curve by position": lambda curve: verify_holder(3, 0, curve),
    "holder, caller's curve by keyword": lambda curve: verify_holder(3, curve=curve),
    "claim2, caller's curve by position": lambda curve: verify_unit_gap(11, curve),
    "claim2, caller's curve by keyword": lambda curve: verify_unit_gap(11, curve=curve),
    "claim3, caller's curve by position": lambda curve: verify_window_gap(window_gap_samples(5), curve),
    "claim3, caller's curve by keyword": lambda curve: verify_window_gap(window_gap_samples(5), curve=curve),
}


@pytest.mark.parametrize("name", STORE_CAMPAIGNS)
def test_every_campaign_leaves_the_store_empty(name):
    caller = Curve()
    for curve in (UNIT_CURVE, caller):
        curve.eval_limit(F(1, 7), 16)
    report = STORE_CAMPAIGNS[name](caller)
    assert report
    assert UNIT_CURVE._descents == {}
    # a campaign empties the caller's curve exactly when it ran on it
    assert (caller._descents == {}) == ("caller's curve" in name)


def test_the_frame_empties_every_curve_it_is_given():
    # the frame finds a Curve by its type, under any parameter name
    @verify._campaign("c")
    def body(shape, *, other):
        shape.eval_limit(F(1, 7), 16)
        other.eval_limit(F(2, 7), 16)
        return {}, 0, []

    shape, other = Curve(), Curve()
    assert body(shape, other=other).campaign == "c"
    assert shape._descents == {} and other._descents == {}


# A campaign that raises partway empties the store too.
STORE_REFUSALS = {
    "claim3 past the depth cap": (
        lambda: verify_window_gap([(F(1, 7), F(1, 9)), (F(2, 7), F(1, 81)), (F(1, 7), F(1, 9**1000))]),
        DepthTooLarge,
    ),
    "blowup-divergence not bracketed": (
        lambda: blowup_divergence(0, 2, F(1, 2), 1, [w_point(0, F(1, 2))], 40),
        carnot.NotBracketed,
    ),
}


@pytest.mark.parametrize("name", STORE_REFUSALS)
def test_a_refused_campaign_leaves_the_store_empty(name):
    run, refusal = STORE_REFUSALS[name]
    UNIT_CURVE.eval_limit(F(1, 7), 16)
    with pytest.raises(refusal):
        run()
    assert UNIT_CURVE._descents == {}
