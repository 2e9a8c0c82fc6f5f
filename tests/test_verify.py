"""Verification campaigns: reports, certification, and mutation sensitivity."""

import json
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from lipgraph.carnot import w_point
from lipgraph.numerics import Interval
from lipgraph.selfsim import (
    BRANCHES,
    BranchTag,
    MAX_DEPTH,
    UNIT_CURVE,
    Curve,
    DepthTooLarge,
    quotient_gap_floor,
)
from lipgraph.verify import (
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
        pl = bad.iterate(4)
        assert (pl.value(s) - pl.value(t)) ** 2 == q2 * abs(s - t)

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

    def test_start_depth_beyond_floats_certified(self):
        r = verify_window_gap([(F(1, 7), F(1, 9**330))])
        assert r.certified and r.failures == []


class TestOscillation:
    def test_windows_certified_at_half(self):
        deltas = [F(1, 9) ** j for j in range(1, 5)]
        r = oscillation_scan(F(1, 2), deltas)
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
        base = oscillation_scan(F(1, 2), [F(1, 9)]).parameters["windows"][0]
        refl = oscillation_scan(F(7, 2), [F(1, 9)]).parameters["windows"][0]
        assert refl["certified"]
        assert abs(refl["offset1"]) == abs(base["offset1"])
        assert abs(refl["offset2"]) == abs(base["offset2"])
        assert refl["offset1"] == -base["offset1"]
        assert refl["osc_lower_bound"] == base["osc_lower_bound"]

    def test_no_scales_refused(self):
        with pytest.raises(ValueError, match="scales must be at least 1"):
            oscillation_scan(F(1, 2), [])

    def test_scale_past_the_depth_cap_refused_before_any_window(self, monkeypatch):
        def no_window(*args):
            raise AssertionError("a window started before the refusal")

        monkeypatch.setattr(Curve, "locate_cell", no_window)
        deltas = [F(1, 9), F(1, 9**927), F(1, 9**928)]
        with pytest.raises(DepthTooLarge, match=f"scale 3 would start at depth 4099, over cap {MAX_DEPTH}"):
            oscillation_scan(F(1, 7), deltas)

    def test_flat_mid_branch_leaves_windows_uncertified(self):
        # with a flat mid branch the probes no longer separate the quotients
        flat = Curve(branches=perturbed_branches(BranchTag.MID, "y_scale", 0))
        deltas = [F(1, 9) ** j for j in range(1, 4)]
        r = oscillation_scan(F(1, 2), deltas, flat)
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


class TestConeCampaign:
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

    def test_equal_targets_give_identical_blowups(self):
        r = blowup_divergence(0, 1, 1, 1, self.GRID, 30, bracket2=(F(4, 9), F(1, 2)))
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
