"""Certification campaigns over the curve and its intrinsic graph.

Each campaign sweeps a deterministic family of checks and returns a
Report: campaign id, parameters, how many checks ran, a canonically
sorted list of failure records, a certified flag that is true exactly
when the failure list is empty, and the wall time spent.  A check only
lands in the failure list when it is *conclusively* violated (exact
comparison, or an interval bound strict enough to refute) or when the
object under test could not even be constructed; undecided enclosures
are failures too, so `certified` never overstates what was proved.

Randomised campaigns draw from `random.Random(seed)` so every report is
reproducible; JSON serialisation is canonical (sorted keys, exact
rational strings) and timing can be excluded to make output files
byte-stable.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm
from typing import Callable, Iterable, Optional, Sequence

from .carnot import (
    GroupPoint,
    TolTooTight,
    blowup_graph_sample,
    blowup_profile,
    cone_gap,
    graph_point,
    hnorm,
    inv,
    mul,
    solve_quotient,
    w_point,
)
from .numerics import Interval, Ordering, RationalLike, cmp_abs_sq, sqrt_enclose
from .selfsim import (
    BRANCHES,
    Branch,
    BranchTag,
    Curve,
    DepthTooLarge,
    InvalidCurve,
    MAX_DEPTH,
    UNIT_CURVE,
    UNIT_MIN_OFFSET,
    WINDOW_OFFSET_RATIO,
    quotient_gap_floor,
    reduce_domain,
    window_start_depth,
)

MAX_PAIRS = 2_000_000
REFERENCE_SEED = 20259


class EmptyAfterRestriction(ValueError):
    """Radius restriction removed every point of a sample set."""


# ----------------------------------------------------------------------
# reports


def _jsonable(v):
    if isinstance(v, Interval):
        return [str(v.lo), str(v.hi)]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class Report:
    """Outcome of one campaign; see module docstring for the contract."""

    campaign: str
    parameters: dict
    checked: int
    failures: list
    certified: bool
    wall_time_s: float

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "campaign": self.campaign,
            "parameters": _jsonable(self.parameters),
            "checked": self.checked,
            "failures": _jsonable(self.failures),
            "certified": self.certified,
            "wall_time_s": self.wall_time_s if include_timing else None,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_timing), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"


def _finish(campaign: str, parameters: dict, checked: int, failures: list, started: float) -> Report:
    failures = sorted(failures, key=lambda f: json.dumps(_jsonable(f), sort_keys=True))
    elapsed = max(time.perf_counter() - started, 1e-9)
    return Report(campaign, parameters, checked, failures, not failures, elapsed)


# ----------------------------------------------------------------------
# Hölder sweep


def verify_holder(level: int, refine: int = 0, curve: Curve = UNIT_CURVE) -> Report:
    """Square-root Hölder sweep with constant 1 over an iterate's grid.

    Checks (v(s) - v(t))**2 <= |s - t| exactly for every pair of grid
    abscissas, where v is the level-th iterate and the grid is its
    breakpoints plus `refine` extra equispaced points per segment.  This
    is a necessary-condition sweep on a finite grid; the limit bound
    follows from self-similarity, which the witness campaigns probe from
    the other side.  Failure to construct the iterate at all is reported
    as a failure, not raised, so perturbed branch systems flow through.
    A grid with more than MAX_PAIRS pairs is refused before any refined
    point is built.
    """
    started = time.perf_counter()
    params = {
        "level": level,
        "refine": refine,
        "scope": "necessary-condition sweep over a finite abscissa grid",
    }
    if refine < 0:
        raise ValueError("refine must be nonnegative")
    try:
        pl = curve.iterate(level)
    except InvalidCurve as exc:
        return _finish(
            "holder",
            params,
            0,
            [{"kind": "construction", "detail": str(exc)}],
            started,
        )
    pts = list(pl.breakpoints)
    m = len(pts) + (len(pts) - 1) * refine
    npairs = m * (m - 1) // 2
    if npairs > MAX_PAIRS:
        raise DepthTooLarge(f"{npairs} pairs exceed cap {MAX_PAIRS}")
    if refine:
        extra = []
        step = refine + 1
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            for j in range(1, step):
                extra.append((t0 + (t1 - t0) * j / step, v0 + (v1 - v0) * j / step))
        pts = sorted(pts + extra)
    params["points"] = m

    # Clear denominators once so the pair loop runs on plain integers:
    # with t = T/D and v = V/E, the Hölder inequality (dv)**2 <= dt
    # becomes (dV)**2 * D <= dT * E * E, the same exact comparison
    # cmp_abs_sq makes after cross multiplication.
    d_t = lcm(*(t.denominator for t, _ in pts)) if m else 1
    d_v = lcm(*(v.denominator for _, v in pts)) if m else 1
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
                        "quotient_sq": str(
                            (pts[j][1] - pts[i][1]) ** 2 / (s_j - t_j)
                        ),
                    }
                )
    return _finish("holder", params, npairs, failures, started)


# ----------------------------------------------------------------------
# witness campaigns


def _check_witnesses(
    campaign: str, params: dict, bases: Iterable, build: Callable, started: float
) -> Report:
    """The witness checks of claim2 and claim3.

    bases yields (t, near, delta, key): a base point, the probe distances
    [near, delta] its scale admits and the fields that name it in failure
    records.  build(t, delta) makes the witness, whose probes must sit on
    one side of t within those distances, with quotient gap certified
    above the guaranteed gap floor.
    """
    floor = quotient_gap_floor()
    failures = []
    checked = 0
    min_gap: Optional[Fraction] = None
    for t, near, delta, key in bases:
        checked += 1
        try:
            w = build(t, delta)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            failures.append({"kind": "construction", "detail": str(exc), **key})
            continue
        for s in (w.s1, w.s2):
            dist = abs(s - t)
            if not near <= dist <= delta:
                failures.append({"kind": "offset-range", "s": str(s), "distance": str(dist), **key})
            if (s - t) * w.side <= 0:
                failures.append({"kind": "side", "s": str(s), **key})
        lo = w.gap_lower_bound.lo
        min_gap = lo if min_gap is None else min(min_gap, lo)
        if lo < floor.hi:
            failures.append(
                {"kind": "gap-below-floor", "gap_lo": str(lo), "floor_hi": str(floor.hi), **key}
            )
    params["gap_floor"] = floor
    params["min_gap_lo"] = min_gap
    return _finish(campaign, params, checked, failures, started)


def verify_unit_gap(grid_size: int, curve: Curve = UNIT_CURVE) -> Report:
    """Certify the unit-scale witness pair over a uniform base-point grid.

    For every t0 on the grid the two probes must sit on one side of t0
    at distance between 1/18 and 1, and the enclosure of their quotient
    gap must clear the guaranteed gap floor (about 0.00855).  The
    campaign id is "claim2" to match the command-line interface.
    """
    started = time.perf_counter()
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    params = {"grid_size": grid_size, "min_offset": UNIT_MIN_OFFSET}
    den = grid_size - 1 if grid_size > 1 else 1
    t0s = (Fraction(i, den) for i in range(grid_size))
    bases = ((t0, UNIT_MIN_OFFSET, 1, {"t0": str(t0)}) for t0 in t0s)
    return _check_witnesses("claim2", params, bases, lambda t0, _: curve.unit_witnesses(t0), started)


def window_gap_samples(
    count: int, seed: int = REFERENCE_SEED
) -> list[tuple[Fraction, Fraction]]:
    """Deterministic (t, delta) samples: t uniform on a 10**6 grid, delta in {9**-1 .. 9**-8}."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = Fraction(rng.randrange(10**6 + 1), 10**6)
        j = rng.randrange(1, 9)
        out.append((t, Fraction(1, 9**j)))
    return out


def verify_window_gap(
    samples: Sequence[tuple[RationalLike, RationalLike]],
    curve: Curve = UNIT_CURVE,
) -> Report:
    """Certify window witnesses at sample scales down to 9**-8.

    For each (t, delta) the probes must sit on one side of t at distance
    between delta/162 and delta, with quotient gap certified above the
    same floor as at unit scale; this is scale invariance made checkable.
    The campaign id is "claim3" to match the command-line interface.
    """
    started = time.perf_counter()
    if not samples:
        raise ValueError("samples must be at least 1")
    params = {"samples": len(samples), "offset_ratio": WINDOW_OFFSET_RATIO}
    pairs = ((Fraction(t), Fraction(delta)) for t, delta in samples)
    bases = (
        (t, WINDOW_OFFSET_RATIO * delta, delta, {"t": str(t), "delta": str(delta)}) for t, delta in pairs
    )
    return _check_witnesses("claim3", params, bases, curve.window_witnesses, started)


# ----------------------------------------------------------------------
# oscillation scan


def oscillation_scan(
    t_hat: RationalLike,
    deltas: Sequence[RationalLike],
    curve: Curve = UNIT_CURVE,
) -> Report:
    """Witness oscillation of difference quotients at every requested scale.

    For each delta, parameters["windows"] records the witness offsets
    from t_hat, with magnitudes in [delta/162, delta], and
    osc_lower_bound, which bounds from below the spread max - min of
    q(t_hat + s, t_hat) over that offset annulus since both witnesses
    lie inside it.  t_hat may be any rational on the line; evaluation
    folds it into [0, 1] and offsets are reflected back, which preserves
    both their magnitudes and the certified gap.  A window that fails to
    clear the gap floor is a failure record, not a proof of absence.  A
    delta whose window would start deeper than MAX_DEPTH is refused
    before the first window.
    """
    started = time.perf_counter()
    if not deltas:
        raise ValueError("scales must be at least 1")
    t_hat = Fraction(t_hat)
    t_red = reduce_domain(t_hat)
    reflected = (t_hat % 2) > 1
    floor = quotient_gap_floor()
    deltas = [Fraction(d) for d in deltas]
    for k, delta in enumerate(deltas, 1):
        if delta > 0:
            start = window_start_depth(math.log(delta.denominator, 3) - math.log(delta.numerator, 3))
            if start > MAX_DEPTH:
                raise DepthTooLarge(f"scale {k} would start at depth {start}, over cap {MAX_DEPTH}")
    windows = []
    failures = []
    for delta in deltas:
        w = curve.window_witnesses(t_red, delta)
        o1, o2 = w.s1 - t_red, w.s2 - t_red
        if reflected:
            o1, o2 = -o1, -o2
        lo = w.gap_lower_bound.lo
        certified = lo >= floor.hi
        windows.append(
            {"delta": delta, "offset1": o1, "offset2": o2, "osc_lower_bound": lo, "certified": certified}
        )
        if not certified:
            failures.append({"kind": "window-uncertified", "delta": str(delta), "osc_lower_bound": str(lo)})
    params = {"t_hat": t_hat, "deltas": deltas, "windows": windows}
    return _finish("oscillation", params, len(deltas), failures, started)


# ----------------------------------------------------------------------
# sample-set Hausdorff distance


def hausdorff_distance(
    a_pts: Sequence[GroupPoint],
    b_pts: Sequence[GroupPoint],
    radius: RationalLike,
) -> Interval:
    """Enclosure of the Hausdorff distance between two finite sample sets.

    Points are first restricted to the closed homogeneous ball of the
    given radius (a point is kept unless its norm enclosure certifies it
    is outside).  Distances are left-invariant: |p**-1 q|.  The max-min
    combination is interval-sound: the lower endpoint is attained by
    some true configuration of values inside the enclosures, as is the
    upper endpoint.
    """
    radius = Fraction(radius)
    a = [p for p in a_pts if hnorm(p).lo <= radius]
    b = [q for q in b_pts if hnorm(q).lo <= radius]
    if not a or not b:
        raise EmptyAfterRestriction(
            f"radius {radius} keeps {len(a)} of {len(a_pts)} and {len(b)} of {len(b_pts)} points"
        )

    def directed(src: list[GroupPoint], dst: list[GroupPoint]) -> Interval:
        worst: Optional[Interval] = None
        for p in src:
            p_inv = inv(p)
            nearest: Optional[Interval] = None
            for q in dst:
                d = hnorm(mul(p_inv, q))
                nearest = d if nearest is None else Interval.min_of(nearest, d)
            worst = nearest if worst is None else Interval.max_of(worst, nearest)
        return worst

    return Interval.max_of(directed(a, b), directed(b, a))


# ----------------------------------------------------------------------
# cone campaign


def _check_depth(depth: int) -> None:
    """Refuse a campaign depth before any work: below 1, or above MAX_DEPTH."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds cap {MAX_DEPTH}")


def verify_cone(sample_count: int, depth: int = 30, seed: int = REFERENCE_SEED) -> Report:
    """Cone condition with constant 1 over graph point pairs.

    Every pair must satisfy |w-part| >= |v-part| for the displacement
    between its graph points.  A pair fails only when the enclosure
    refutes the inequality outright (gap upper bound below zero, or an
    exact profile-difference comparison that exceeds the root).  Pairs
    whose profile arguments are breakpoint values evaluate exactly and
    are counted in parameters["exact_pairs"].
    """
    started = time.perf_counter()
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    _check_depth(depth)
    rng = random.Random(seed)
    breakpoint_betas = (Fraction(0), Fraction(4, 9), Fraction(5, 9), Fraction(1))
    pairs: list[tuple[GroupPoint, GroupPoint]] = []
    for b1, b2 in combinations(breakpoint_betas, 2):
        pairs.append((w_point(0, b1), w_point(0, b2)))
        pairs.append((w_point(0, b1), w_point(1, b2)))
    while len(pairs) < sample_count:
        y1, t1, y2, t2 = (Fraction(rng.randrange(-2000, 2001), 1000) for _ in range(4))
        pairs.append((w_point(y1, t1), w_point(y2, t2)))
    pairs = pairs[:sample_count]

    failures = []
    exact_pairs = 0
    min_gap_lo: Optional[Fraction] = None
    for idx, (w1, w2) in enumerate(pairs):
        p1 = graph_point(w1, depth)
        p2 = graph_point(w2, depth)
        g = cone_gap(p1, p2, depth)
        min_gap_lo = g.lo if min_gap_lo is None else min(min_gap_lo, g.lo)
        if g.hi < 0:
            failures.append({"kind": "cone-gap-negative", "gap": _jsonable(g), **_pair_key(idx, w1, w2)})
        dt = w2.t - w1.t
        if p1.r.is_point() and p2.r.is_point():
            exact_pairs += 1
            if dt != 0 or p1.r.lo != p2.r.lo:
                if cmp_abs_sq(p2.r.lo - p1.r.lo, dt) is Ordering.GREATER:
                    failures.append({"kind": "holder-chain-exact", **_pair_key(idx, w1, w2)})
        else:
            diff_lo = (p2.r - p1.r).abs().lo
            if cmp_abs_sq(diff_lo, dt) is Ordering.GREATER:
                failures.append({"kind": "holder-chain-refuted", **_pair_key(idx, w1, w2)})
    params = {
        "sample_count": sample_count,
        "depth": depth,
        "seed": seed,
        "exact_pairs": exact_pairs,
        "min_gap_lo": min_gap_lo,
        "cone_constant": Fraction(1),
    }
    return _finish("cone", params, len(pairs), failures, started)


def _pair_key(idx: int, w1: GroupPoint, w2: GroupPoint) -> dict:
    """The fields that name a cone pair in its failure records."""
    return {"index": idx, "beta1": str(w1.t), "beta2": str(w2.t), "y1": str(w1.y), "y2": str(w2.y)}


# ----------------------------------------------------------------------
# blow-up divergence


def _rationalized_scale(
    t_hat: Fraction,
    s: Fraction,
    target: Fraction,
    tol: Fraction,
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
        enc = UNIT_CURVE.diff_quotient_within(t_hat + s_real, t_hat, tol / 2)
        if enc.inside_ball(target, 2 * tol):
            return lam, s_real, enc
    raise TolTooTight(f"could not rationalise a dilation for target {target}")


def blowup_divergence(
    t_hat: RationalLike,
    target1: RationalLike,
    target2: RationalLike,
    radius: RationalLike,
    grid: Sequence[GroupPoint],
    depth: int,
    bracket1: tuple[RationalLike, RationalLike] = (Fraction(4, 9), Fraction(1, 2)),
    bracket2: tuple[RationalLike, RationalLike] = (Fraction(5, 9), Fraction(3, 5)),
    tol: RationalLike = Fraction(1, 10**4),
) -> Report:
    """Exhibit two blow-up scales whose rescaled graphs stay apart.

    Solves q(t_hat + s, t_hat) = target_i inside each bracket, turns the
    offsets into rational dilation factors lam_i ~ |s_i| ** (-1/2), and
    samples both rescaled graphs over the same W grid.  The report
    certifies, by intervals end to end: the realised quotients are
    within 2*tol of their targets, both sampling routes agree at every
    grid point, the profile gap at offset h = 1 is positive (its
    enclosure is close to |target1 - target2|), and the sample-set
    Hausdorff distance inside the radius is positive when the targets
    differ.  One base point with two non-collapsing rescaling limits is
    exactly a point of blow-up divergence.  Both brackets hold positive
    offsets.
    """
    started = time.perf_counter()
    _check_depth(depth)
    t_hat = Fraction(t_hat)
    target1 = Fraction(target1)
    target2 = Fraction(target2)
    radius = Fraction(radius)
    tol = Fraction(tol)
    s1 = solve_quotient(t_hat, target1, 1, bracket1, tol)
    s2 = solve_quotient(t_hat, target2, 1, bracket2, tol)
    lam1, s1_real, enc1 = _rationalized_scale(t_hat, s1, target1, tol)
    lam2, s2_real, enc2 = _rationalized_scale(t_hat, s2, target2, tol)

    failures = []
    checked = 0

    checked += 2
    for label, enc, target in (("1", enc1, target1), ("2", enc2, target2)):
        if not enc.inside_ball(target, 2 * tol):
            failures.append(
                {"kind": "realized-quotient", "family": label, "enclosure": _jsonable(enc)}
            )

    base_w = w_point(0, t_hat)
    p_hat = graph_point(base_w, depth)
    sample_a = blowup_graph_sample(p_hat, lam1, grid, depth)
    sample_b = blowup_graph_sample(p_hat, lam2, grid, depth)

    # Cross-route check: every sampled r slot must agree with the closed
    # profile formula evaluated independently.
    for label, lam, sample in (("1", lam1, sample_a), ("2", lam2, sample_b)):
        for w, p in zip(grid, sample):
            checked += 1
            prof = blowup_profile(t_hat, lam, w.t, depth)
            if not p.r.intersects(prof) or p.y != w.y or p.t != w.t:
                failures.append(
                    {
                        "kind": "route-mismatch",
                        "family": label,
                        "h": str(w.t),
                        "sample_r": _jsonable(p.r),
                        "profile": _jsonable(prof),
                    }
                )

    gap = (enc1 - enc2).abs()
    checked += 1
    if target1 != target2 and gap.lo <= 0:
        failures.append({"kind": "profile-gap-nonpositive", "gap": _jsonable(gap)})
    checked += 1
    target_gap = abs(target1 - target2)
    slack = 4 * tol
    if not (gap.lo - slack <= target_gap <= gap.hi + slack):
        failures.append(
            {
                "kind": "profile-gap-off-target",
                "gap": _jsonable(gap),
                "target_gap": str(target_gap),
            }
        )

    hd = hausdorff_distance(sample_a, sample_b, radius)
    checked += 1
    if target1 != target2 and hd.lo <= 0:
        failures.append({"kind": "hausdorff-not-positive", "hausdorff": _jsonable(hd)})

    params = {
        "t_hat": t_hat,
        "targets": [target1, target2],
        "side": 1,
        "tol": tol,
        "depth": depth,
        "radius": radius,
        "grid_offsets": [w.t for w in grid],
        "offsets": [s1_real, s2_real],
        "scales": [lam1, lam2],
        "realized_quotients": [enc1, enc2],
        "profile_gap": gap,
        "hausdorff": hd,
    }
    return _finish("blowup-divergence", params, checked, failures, started)


# ----------------------------------------------------------------------
# perturbation sensitivity


MUTABLE_FIELDS = ("x_scale", "x_offset", "y_scale", "y_offset")


def perturbed_branches(
    tag: BranchTag, fld: str, value: RationalLike
) -> tuple[Branch, ...]:
    """The standard branch tuple with one constant replaced."""
    if fld not in MUTABLE_FIELDS:
        raise ValueError(f"unknown branch field {fld!r}")
    value = Fraction(value)
    return tuple(
        replace(br, **{fld: value}) if br.tag is tag else br for br in BRANCHES
    )


def mutation_probe(
    tag: BranchTag,
    fld: str,
    value: RationalLike,
    holder_level: int = 5,
    grid_size: int = 81,
    window_count: int = 40,
    seed: int = REFERENCE_SEED,
) -> dict[str, Report]:
    """Run the three structural campaigns against a perturbed system.

    The harness exists to demonstrate sensitivity: the certified
    campaigns must notice any drift in the branch constants, either as
    numeric counterexamples or as outright construction failures.
    """
    curve = Curve(branches=perturbed_branches(tag, fld, value))
    return {
        "holder": verify_holder(holder_level, 0, curve=curve),
        "claim2": verify_unit_gap(grid_size, curve=curve),
        "claim3": verify_window_gap(window_gap_samples(window_count, seed), curve=curve),
    }


def mutation_detected(reports: dict[str, Report]) -> bool:
    return any(not r.certified for r in reports.values())
