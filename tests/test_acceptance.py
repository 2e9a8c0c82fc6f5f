"""Acceptance gate: the headline guarantees, each at its stated budget.

Run with `-v -s` to see one pass line per criterion.
"""

import time
from fractions import Fraction as F

from lipgraph import cli
from lipgraph.carnot import w_point
from lipgraph.selfsim import UNIT_CURVE, BranchTag, Curve
from lipgraph.verify import (
    blowup_divergence,
    oscillation_scan,
    perturbed_branches,
    verify_cone,
    verify_holder,
    verify_unit_gap,
    verify_window_gap,
    window_gap_samples,
)

INV_ROOT_FIVE = F(4472135954999579, 10**16)


def report(n, elapsed, detail):
    print(f"\n[criterion {n}] PASS: {detail} ({elapsed:.2f}s)")


def test_criterion_1_pinned_values():
    start = time.perf_counter()
    for n in range(1, 9):
        values = dict(UNIT_CURVE.iterate(n).breakpoints)
        assert values[F(0)] == 0
        assert values[F(1)] == 1
        assert values[F(4, 9)] == F(2, 3)
        assert values[F(5, 9)] == F(1, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    report(1, elapsed, "iterates 1..8 pinned at 0, 1, 4/9, 5/9 exactly")


def test_criterion_2_symmetry():
    start = time.perf_counter()
    for n in range(9):
        pl = UNIT_CURVE.iterate(n)
        table = dict(pl.breakpoints)
        for x, y in pl.breakpoints:
            assert y == 1 - table[1 - x]
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    report(2, elapsed, "u_n(x) = 1 - u_n(1 - x) at all breakpoints, n <= 8, exact")


def test_criterion_3_contraction():
    start = time.perf_counter()
    iterates = [UNIT_CURVE.iterate(n) for n in range(9)]
    sups = [iterates[n].sup_diff(iterates[n + 1]) for n in range(8)]
    assert sups[0] == F(2, 9)
    for n in range(1, 8):
        assert sups[n] <= F(2, 3) * sups[n - 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(3, elapsed, "sup |u_1 - u_0| = 2/9 and ratio <= 2/3 through n = 8, exact")


def test_criterion_4_holder_sweep():
    start = time.perf_counter()
    r = verify_holder(6, 0)
    elapsed = time.perf_counter() - start
    assert r.certified and not r.failures
    assert r.checked == 730 * 729 // 2
    assert elapsed < 30
    report(4, elapsed, f"(u_6(s) - u_6(t))^2 <= |s - t| on all {r.checked} pairs, exact")


def test_criterion_5_unit_gap_grid():
    start = time.perf_counter()
    r = verify_unit_gap(10001)
    elapsed = time.perf_counter() - start
    assert r.certified and not r.failures
    assert r.checked == 10001
    assert r.parameters["min_offset"] == F(1, 18)
    assert r.parameters["gap_floor"].lo >= F(854, 100000)
    assert elapsed < 60
    report(
        5,
        elapsed,
        "unit-scale witnesses on 10001 grid points, offsets >= 1/18, gap >= 0.00854",
    )


def test_criterion_6_window_gap_samples():
    start = time.perf_counter()
    r = verify_window_gap(window_gap_samples(1000))
    elapsed = time.perf_counter() - start
    assert r.certified and not r.failures
    assert r.checked == 1000
    assert r.parameters["offset_ratio"] == F(1, 162)
    assert r.parameters["gap_floor"].lo >= F(854, 100000)
    assert elapsed < 60
    report(
        6,
        elapsed,
        "window witnesses on 1000 samples, offsets in [delta/162, delta], gap >= 0.00854",
    )


def test_criterion_7_cone_campaign():
    start = time.perf_counter()
    r = verify_cone(10**4, depth=30)
    elapsed = time.perf_counter() - start
    assert r.certified and not r.failures
    assert r.checked == 10**4
    assert r.parameters["exact_pairs"] >= 12
    assert elapsed < 60
    report(
        7,
        elapsed,
        f"cone condition on 10000 graph pairs, {r.parameters['exact_pairs']} exact pairs",
    )


def test_criterion_8_blowup_divergence_and_oscillation():
    start = time.perf_counter()
    grid = [w_point(0, off) for off in (-1, F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), 1)]
    r = blowup_divergence(0, 1, INV_ROOT_FIVE, 1, grid, 40)
    assert r.certified
    assert r.parameters["profile_gap"].lo >= F(1, 2)
    assert r.parameters["hausdorff"].lo > 0

    deltas = [F(1, 9) ** j for j in range(1, 9)]
    for t_hat in (F(0), F(1, 2)):
        r = oscillation_scan(t_hat, deltas)
        assert r.certified and r.checked == 8
        for w in r.parameters["windows"]:
            assert w["certified"]
            assert w["osc_lower_bound"] >= F(854, 100000)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(
        8,
        elapsed,
        "blowups along two quotient targets stay >= 0.5 apart; "
        "oscillation >= 0.00854 at 8 scales",
    )


def test_criterion_9_figures(tmp_path):
    start = time.perf_counter()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (a, b):
        assert cli.main(["plot-iterates", "--levels", "0,1,2,3", "--out", str(target)]) == 0
    svg = a.read_text()
    import re

    polylines = re.findall(r'points="([^"]+)"', svg)
    assert [len(p.split()) for p in polylines] == [3**n + 1 for n in range(4)]
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.svg", tmp_path / "d.svg"
    for target in (c, d):
        assert cli.main(["plot-ifs", "--depth", "5", "--out", str(target)]) == 0
    assert c.read_text().count("<rect") == 243
    assert c.read_bytes() == d.read_bytes()
    elapsed = time.perf_counter() - start
    report(9, elapsed, "iterate figure has 3^n + 1 vertices, cell figure has 243 rectangles, "
                       "reruns byte-identical")


def test_criterion_10_mutation_detected():
    start = time.perf_counter()
    mutated = Curve(branches=perturbed_branches(BranchTag.MID, "y_scale", F(-7, 20)))
    r = verify_holder(6, 0, curve=mutated)
    elapsed = time.perf_counter() - start
    assert not r.certified
    assert r.failures
    report(10, elapsed, "middle-branch vertical scale drifted to -0.35 is refuted by the sweep")
