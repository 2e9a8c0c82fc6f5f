"""Verification campaigns: reports, certification, and mutation sensitivity."""

import json
import math
import random
from fractions import Fraction as F
from itertools import combinations
from types import SimpleNamespace

import pytest

import lipgraph.verify as verify
from lipgraph.carnot import GroupPoint, w_point
from lipgraph.numerics import Interval, Ordering, cmp_abs_sq
from lipgraph.selfsim import (
    BRANCHES,
    BranchTag,
    MAX_DEPTH,
    UNIT_CURVE,
    Curve,
    DepthTooLarge,
    OutOfDomain,
    quotient_gap_floor,
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

    def test_pair_budget_enforced(self):
        class Unrefinable(F):
            def __sub__(self, other):
                raise AssertionError("a refined point was built")

        class IterateOnly:
            """The standard curve's iterate, with abscissas that refuse the arithmetic of refinement."""

            def iterate(self, n):
                pts = UNIT_CURVE.iterate(n).breakpoints
                return SimpleNamespace(breakpoints=[(Unrefinable(t), v) for t, v in pts])

        with pytest.raises(DepthTooLarge) as exc:
            verify_holder(7, 100, curve=IterateOnly())
        assert str(exc.value) == "24395643828 pairs exceed cap 2000000"


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
            if cmp_abs_sq(p2.r.lo - p1.r.lo, dt) is Ordering.GREATER:
                return "holder-chain-exact"
        return None
    if cmp_abs_sq((p2.r - p1.r).abs().lo, dt) is Ordering.GREATER:
        return "holder-chain-refuted"
    return None


class TestConeCampaign:
    @pytest.mark.parametrize("count", [1, 5, 12, 13, 40])
    def test_pairs_are_built_as_they_are_checked(self, monkeypatch, count):
        made, checked = [], []
        real_w_point, real_graph_point = verify.w_point, verify.graph_point
        monkeypatch.setattr(verify, "w_point", lambda *a: made.append(a) or real_w_point(*a))
        monkeypatch.setattr(
            verify, "graph_point", lambda w, depth: checked.append((len(made), w)) or real_graph_point(w, depth)
        )
        assert verify_cone(count, depth=10).checked == count
        assert checked[0][0] <= 24
        assert len(made) == 2 * count
        ws = [w for _, w in checked]
        assert list(zip(ws[::2], ws[1::2])) == ref_cone_pairs(count, verify.REFERENCE_SEED)

    @pytest.mark.parametrize(
        "dt, r1, r2, kind",
        [
            (F(0), Interval.point(F(1, 3)), Interval.point(F(1, 3)), None),
            (F(1, 9), Interval.point(F(0)), Interval.point(F(1, 2)), "holder-chain-exact"),
            (F(1, 9), Interval(F(0), F(1, 100)), Interval(F(1, 2), F(3, 5)), "holder-chain-refuted"),
            (F(1, 9), Interval(F(0), F(1, 2)), Interval(F(1, 4), F(1, 2)), None),
        ],
    )
    def test_holder_chain_matches_the_two_branch_reference(self, monkeypatch, dt, r1, r2, kind):
        # the first pair sits at betas 0 and 4/9: move the second to dt and give both the r slots
        monkeypatch.setattr(verify, "w_point", lambda y, t: w_point(y, t * dt * F(9, 4)))
        slots = iter((r1, r2))
        monkeypatch.setattr(verify, "graph_point", lambda w, depth: GroupPoint(w.x, w.y, w.t, next(slots)))
        r = verify_cone(1, depth=10)
        p1, p2 = (GroupPoint(F(0), F(0), t, slot) for t, slot in ((F(0), r1), (dt, r2)))
        assert ref_holder_chain(p1, p2, dt) == kind
        assert [f["kind"] for f in r.failures if f["kind"].startswith("holder-chain")] == ([kind] if kind else [])
        assert r.parameters["exact_pairs"] == (r1.is_point() and r2.is_point())


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

    def test_identity_mutation_passes(self):
        left = BRANCHES[0]
        reports = mutation_probe(BranchTag.LEFT, "x_scale", left.x_scale)
        assert not mutation_detected(reports)
