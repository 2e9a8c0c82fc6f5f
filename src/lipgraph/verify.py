"""Certification campaigns over the curve and its intrinsic graph.

Each campaign sweeps a deterministic family of checks and returns a
Report: campaign id, parameters, how many checks ran, a canonically
sorted list of failure records (built JSON-ready: strings, ints and
lists), a certified flag that is true exactly
when the failure list is empty, and the wall time spent.  A check only
lands in the failure list when it is *conclusively* violated (exact
comparison, or an interval bound strict enough to refute) or when the
object under test could not even be constructed; undecided enclosures
are failures too, so `certified` never overstates what was proved.
Each campaign is a body framed by `_campaign`, which times it, builds
the Report and empties the descent store of the standard curve, and of
every Curve a caller passed, on every exit.

Randomised campaigns draw from `random.Random(seed)` so every report is
reproducible; JSON serialisation is canonical (sorted keys, exact
rational strings) and timing can be excluded to make output files
byte-stable.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .carnot import (
    GroupPoint,
    blowup_graph_sample,
    blowup_profile,
    cone_gap,
    graph_point,
    hnorm,
    inv,
    mul,
    rationalized_scale,
    solve_quotient,
    w_point,
)
from .numerics import Interval, RationalLike, abs_diff_ends
from .selfsim import (
    BRANCHES,
    Branch,
    BranchTag,
    Curve,
    DepthTooLarge,
    InvalidCurve,
    MAX_DEPTH,
    OutOfDomain,
    UNIT_CURVE,
    UNIT_MIN_OFFSET,
    WINDOW_OFFSET_RATIO,
    cell_start_depth,
    quotient_gap_floor,
    reduce_domain,
    window_start_depth,
)

MAX_PAIRS = 2_000_000
REFERENCE_SEED = 20259

# Most scales an oscillation scan takes: the last j whose window at
# 9**-j, in a cell no longer than 9**-j, may start within MAX_DEPTH (927).
MAX_SCALES = next(j for j in range(MAX_DEPTH) if window_start_depth(2 * (j + 1)) > MAX_DEPTH)


class EmptyAfterRestriction(ValueError):
    """Radius restriction removed every point of a sample set."""


# ----------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Outcome of one campaign; see module docstring for the contract."""

    campaign: str
    parameters: dict
    checked: int
    failures: list
    certified: bool
    wall_time_s: float

    def to_json(self, include_timing: bool = True) -> str:
        """The fields as ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)`` writes them, each Fraction a string and each Interval the list of its ends' strings, and a newline."""
        return _indented({**vars(self), "wall_time_s": self.wall_time_s if include_timing else None}, "") + "\n"


def _indented(v, pad: str) -> str:
    """v as ``json.dumps(v, sort_keys=True, indent=2, allow_nan=False)`` writes it, nested at indent pad.

    The one walk that turns a report into JSON: a Fraction is written as
    its string and an Interval as the list of its two ends' strings, at
    any depth.  Lists and dicts are written here, and so are leaves of
    exactly str, Fraction, int, bool or None, tested by type first; only
    subclasses and other scalars go through the json module.  On CPython
    3.11 this is faster than an indented ``json.dumps``.  Dict keys must
    be strings.
    """
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is Fraction:
        return f'"{v!s}"'  # digits, '-' and '/' need no escape
    if t is int:
        return repr(v)
    if t is bool or v is None:
        return "null" if v is None else "true" if v else "false"
    if not isinstance(v, (dict, list, tuple)):
        # subclasses, Intervals and every other leaf, checked as json.dumps checks them
        return _indented(_leaf(v), pad) if isinstance(v, (Fraction, Interval)) else _scalar_json(v)
    inner = pad + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ",\n".join(f"{inner}{encode_basestring_ascii(k)}: {_indented(v[k], inner)}" for k in sorted(v))
        return "{\n" + items + "\n" + pad + "}"
    if not v:
        return "[]"
    return "[\n" + ",\n".join(inner + _indented(x, inner) for x in v) + "\n" + pad + "]"


def _leaf(v) -> object:
    """A Fraction leaf as its string and an Interval leaf as the list of its ends' strings, as reports write them."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Interval):
        return [str(v.lo), str(v.hi)]
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


# What json.dumps(v, allow_nan=False) runs, and json.dumps(f, sort_keys=True) of f as to_json writes it.
_scalar_json = json.JSONEncoder(allow_nan=False).encode
_record_key = json.JSONEncoder(sort_keys=True, default=_leaf).encode


def _campaign(name: str) -> Callable:
    """Frame a body that returns (parameters, checked, JSON-ready failure records) as the campaign `name`.

    The campaign times the body and returns the Report its annotation
    names, failures sorted canonically.  On every exit, return or raise,
    it empties the descent store of the standard curve and of every Curve
    the body was given, by keyword or by position: no descent outlives
    the campaign that took it.
    """

    def frame(body: Callable) -> Callable:
        @wraps(body)
        def campaign(*args, **kwargs):
            started = time.perf_counter()
            try:
                parameters, checked, failures = body(*args, **kwargs)
            finally:
                UNIT_CURVE.forget()
                for arg in (*args, *kwargs.values()):
                    if isinstance(arg, Curve):
                        arg.forget()
            failures = sorted(failures, key=_record_key)
            elapsed = max(time.perf_counter() - started, 1e-9)
            return Report(name, parameters, checked, failures, not failures, elapsed)

        return campaign

    return frame


def _check_count(n: int, things: str, cap: int = MAX_PAIRS, name: str = "") -> None:
    """Refuse a campaign of n things before any work: above cap, or below 1 when the argument's name is given."""
    if name and n < 1:
        raise ValueError(f"{name} must be at least 1")
    if n > cap:
        raise DepthTooLarge(f"{n} {things} exceed cap {cap}")


# ----------------------------------------------------------------------
# Hölder sweep


@_campaign("holder")
def verify_holder(level: int, refine: int = 0, curve: Curve = UNIT_CURVE) -> Report:
    """Square-root Hölder sweep with constant 1 over an iterate's grid.

    Checks (v(s) - v(t))**2 <= |s - t| exactly for every pair of grid
    abscissas, where v is the level-th iterate and the grid is its
    breakpoints plus `refine` extra equispaced points per segment.  This
    is a necessary-condition sweep on a finite grid; the limit bound
    follows from self-similarity, which the witness campaigns probe from
    the other side.  Failure to construct the iterate at all is reported
    as a failure, not raised, so perturbed branch systems flow through;
    the iterate refuses them on integers, before any Fraction is built.
    A grid with more than MAX_PAIRS pairs is refused before any refined
    point is built.

    The sweep runs on the iterate's integer grid: with t = T/D and
    v = V/E, a pair passes when (dV)**2 * D <= dT * E**2.  Pairs are
    checked a block of breakpoints at a time (see `_holder_violations`),
    which clears most of them by one exact comparison per block.
    """
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
        return params, 0, [{"kind": "construction", "detail": str(exc)}]
    d_t, d_v, pts = pl.dt, pl.dv, pl.points
    n = len(pts)
    m = n + (n - 1) * refine
    npairs = m * (m - 1) // 2
    _check_count(npairs, "pairs")
    params["points"] = m
    ti = [t for t, _ in pts]
    vi = [v for _, v in pts]
    # Point j of a segment sits at T0 + (T1 - T0) * j / step, which is
    # (T0 * step + (T1 - T0) * j) / (D * step): every grid point stays
    # an integer over one denominator.
    step = refine + 1
    ti = [t0 * step + (t1 - t0) * j for t0, t1 in zip(ti, ti[1:]) for j in range(step)] + [ti[-1] * step]
    vi = [v0 * step + (v1 - v0) * j for v0, v1 in zip(vi, vi[1:]) for j in range(step)] + [vi[-1] * step]
    d_t *= step
    d_v *= step
    ee = d_v * d_v
    pairs = _holder_violations(ti, vi, d_t, ee)
    names = {k: _ratio(ti[k], d_t) for k in {k for pair in pairs for k in pair}}
    failures = [
        {
            "kind": "quotient-above-one",
            "s": names[j],
            "t": names[i],
            "quotient_sq": _ratio((vi[j] - vi[i]) ** 2 * d_t, (ti[j] - ti[i]) * ee),
        }
        for i, j in pairs
    ]
    return params, npairs, failures


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    n //= g
    d //= g
    return str(n) if d == 1 else f"{n}/{d}"


# Indices per leaf block of the Hölder sweep's pair search.
_HOLDER_LEAF = 8


def _holder_violations(ti: list[int], vi: list[int], d: int, ee: int) -> list[tuple[int, int]]:
    """Pairs i < j with (vi[j] - vi[i])**2 * d > (ti[j] - ti[i]) * ee, in (i, j) order.

    ti must strictly increase and d must be positive.  The search reads
    V = vi * d and T = ti * ee * d, on which the test is the exact
    (V[j] - V[i])**2 > T[j] - T[i]: both sides of the one above times d.
    Level k of a pyramid holds the max and min of V over each aligned
    block of _HOLDER_LEAF * 2**k indices.  For j in a block that starts
    at s > i, |V[j] - V[i]| is at most max(vmax - V[i], V[i] - vmin) and
    T[j] - T[i] is at least T[s] - T[i]; so when that bound passes, every
    pair of the block does, exactly.  After the rest of i's own leaf,
    checked pair by pair, each step tests the largest aligned block at
    the next index and halves it while the bound fails; a leaf it fails
    on is checked pair by pair.
    """
    m = len(ti)
    leaf = _HOLDER_LEAF
    T = [t * ee * d for t in ti]
    V = [v * d for v in vi]
    vmax = [[max(V[s : s + leaf]) for s in range(0, m, leaf)]]
    vmin = [[min(V[s : s + leaf]) for s in range(0, m, leaf)]]
    while len(vmax[-1]) > 1:
        hi, lo = vmax[-1], vmin[-1]
        vmax.append([max(hi[b : b + 2]) for b in range(0, len(hi), 2)])
        vmin.append([min(lo[b : b + 2]) for b in range(0, len(lo), 2)])
    top = len(vmax) - 1
    out = []
    for i in range(m):
        t_i, v_i = T[i], V[i]
        b = i // leaf + 1  # the next leaf
        s = b * leaf
        for j in range(i + 1, s if s < m else m):
            dv = V[j] - v_i
            if dv * dv > T[j] - t_i:
                out.append((i, j))
        while s < m:
            # the largest aligned block that starts at leaf b, which starts at index s
            k = (b & -b).bit_length() - 1
            if k > top:
                k = top
            while True:
                c = b >> k
                hi, lo = vmax[k][c] - v_i, v_i - vmin[k][c]
                dv = hi if hi > lo else lo
                if dv * dv <= T[s] - t_i:
                    break
                if not k:
                    for j in range(s, s + leaf if s + leaf < m else m):
                        dv = V[j] - v_i
                        if dv * dv > T[j] - t_i:
                            out.append((i, j))
                    break
                k -= 1
            b += 1 << k
            s = b * leaf
    return out


# ----------------------------------------------------------------------
# witness campaigns


def _check_witnesses(params: dict, bases: Iterable, build: Callable, key: Callable) -> tuple[dict, int, list]:
    """The witness checks of claim2 and claim3, as (parameters, checked, failures).

    bases yields (t, near, delta): a base point and the probe distances
    [near, delta] its scale admits.  build(t, delta) makes the witness,
    whose probes must sit on one side of t within those distances, with
    quotient gap certified above the guaranteed gap floor.  A witness
    that cannot be built is a "construction" failure record, except that
    OutOfDomain and DepthTooLarge are refusals of the arguments and
    propagate.  key(t, delta) gives the fields that name a base point in
    its failure records, built only for a base point that fails.
    """
    floor = quotient_gap_floor()
    fn, fd = floor.hi.as_integer_ratio()
    failures = []
    checked = 0
    min_gap: Optional[Fraction] = None
    mn = md = 0  # the integers of min_gap
    for t, near, delta in bases:
        checked += 1
        try:
            w = build(t, delta)
        except (OutOfDomain, DepthTooLarge):
            raise
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            failures.append({"kind": "construction", "detail": str(exc), **key(t, delta)})
            continue
        records = _probe_failures(w, t, near, delta)
        lo = w.gap_lower_bound
        ln, ld = lo.as_integer_ratio()
        if min_gap is None or ln * md < mn * ld:  # a tie keeps the first, as min does
            min_gap, mn, md = lo, ln, ld
        if ln * fd < fn * ld:
            records.append({"kind": "gap-below-floor", "gap_lo": str(lo), "floor_hi": str(floor.hi)})
        if records:
            named = key(t, delta)
            failures += ({**r, **named} for r in records)
    params["gap_floor"] = floor
    params["min_gap_lo"] = min_gap
    return params, checked, failures


def _probe_failures(w, t: Fraction, near: Fraction, delta: Fraction) -> list[dict]:
    """Records for the probes of witness w that are not at distance [near, delta] from t on side w.side.

    The fields that name t are left out: a caller adds them only when there is a record.
    """
    # near <= |s - t| <= delta and (s - t) * side > 0, times s.denominator * t.denominator > 0
    tn, td = t.as_integer_ratio()
    nn, nd = near.as_integer_ratio()
    dn, dd = delta.as_integer_ratio()
    records = []
    for s in (w.s1, w.s2):
        sn, sd = s.as_integer_ratio()
        diff = sn * td - tn * sd
        dist, den = abs(diff), sd * td
        if dist * nd < nn * den or dist * dd > dn * den:
            records.append({"kind": "offset-range", "s": str(s), "distance": str(abs(s - t))})
        if diff * w.side <= 0:
            records.append({"kind": "side", "s": str(s)})
    return records


@_campaign("claim2")
def verify_unit_gap(grid_size: int, curve: Curve = UNIT_CURVE) -> Report:
    """Certify the unit-scale witness pair over a uniform base-point grid.

    For every t0 on the grid the two probes must sit on one side of t0
    at distance between 1/18 and 1, and the enclosure of their quotient
    gap must clear the guaranteed gap floor (about 0.00855).  The
    campaign id is "claim2" to match the command-line interface.  A grid
    of more than MAX_PAIRS base points is refused with DepthTooLarge
    before the first witness.
    """
    _check_count(grid_size, "base points", name="grid_size")
    params = {"grid_size": grid_size, "min_offset": UNIT_MIN_OFFSET}
    den = grid_size - 1 if grid_size > 1 else 1
    t0s = (Fraction(i, den) for i in range(grid_size))
    bases = ((t0, UNIT_MIN_OFFSET, 1) for t0 in t0s)
    return _check_witnesses(params, bases, lambda t0, _: curve.unit_witnesses(t0), lambda t0, _: {"t0": str(t0)})


def window_gap_samples(
    count: int, seed: int = REFERENCE_SEED
) -> list[tuple[Fraction, Fraction]]:
    """Deterministic (t, delta) samples: t uniform on a 10**6 grid, delta in {9**-1 .. 9**-8}.

    A count above MAX_PAIRS raises DepthTooLarge before the first draw.
    """
    _check_count(count, "samples")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = Fraction(rng.randrange(10**6 + 1), 10**6)
        j = rng.randrange(1, 9)
        out.append((t, Fraction(1, 9**j)))
    return out


@_campaign("claim3")
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
    if not samples:
        raise ValueError("samples must be at least 1")
    params = {"samples": len(samples), "offset_ratio": WINDOW_OFFSET_RATIO}
    pairs = (
        (t if type(t) is Fraction else Fraction(t), delta if type(delta) is Fraction else Fraction(delta))
        for t, delta in samples
    )
    bases = ((t, WINDOW_OFFSET_RATIO * delta, delta) for t, delta in pairs)
    return _check_witnesses(
        params, bases, lambda t, delta: curve.window_witnesses(curve.locate_cell(t, delta)),
        lambda t, delta: {"t": str(t), "delta": str(delta)},
    )


# ----------------------------------------------------------------------
# oscillation scan


@_campaign("oscillation")
def oscillation_scan(t_hat: RationalLike, scales: int) -> Report:
    """Witness oscillation of difference quotients at the scales 9**-1 .. 9**-scales.

    For each delta, parameters["windows"] records the witness offsets
    from t_hat and osc_lower_bound.  Both probes are checked, as in
    claim3, to lie on one side of the point at distances in
    [delta/162, delta] ("offset-range" and "side" records otherwise), so
    osc_lower_bound bounds from below the spread max - min of
    q(t_hat + s, t_hat) over that offset annulus.  t_hat may be any
    rational on the line; evaluation folds it into [0, 1] and offsets
    are reflected back, which preserves both their magnitudes and the
    certified gap.  A window that fails to clear the gap floor is a
    failure record, not a proof of absence.  A window reads "certified"
    only when its gap clears the floor and both probes pass.
    scales must lie in 1 .. MAX_SCALES, which is checked before any
    work.  The cells are one chain, each delta's locate_cell continuing
    from the cell before, and each window is built from its cell.  A
    delta whose own cell would start its window deeper than MAX_DEPTH is
    refused before the first window.
    """
    _check_count(scales, "scales", MAX_SCALES, "scales")
    t_hat = Fraction(t_hat)
    t_red = reduce_domain(t_hat)
    reflected = t_red.as_integer_ratio() != (t_hat % 2).as_integer_ratio()
    floor_hi = quotient_gap_floor().hi
    fn, fd = floor_hi.numerator, floor_hi.denominator
    deltas = [Fraction(1, 9**j) for j in range(1, scales + 1)]
    cells = []
    cell = None
    for k, delta in enumerate(deltas, 1):
        cell = UNIT_CURVE.locate_cell(t_red, delta, cell)
        start = cell_start_depth(cell)
        if start > MAX_DEPTH:
            raise DepthTooLarge(f"scale {k} would start at depth {start}, over cap {MAX_DEPTH}")
        cells.append(cell)
    windows = []
    failures = []
    for delta, cell in zip(deltas, cells):
        w = UNIT_CURVE.window_witnesses(cell)
        probe_records = _probe_failures(w, t_red, WINDOW_OFFSET_RATIO * delta, delta)
        if probe_records:
            named = {"delta": str(delta)}
            failures += ({**r, **named} for r in probe_records)
        o1, o2 = (t_red - w.s1, t_red - w.s2) if reflected else (w.s1 - t_red, w.s2 - t_red)
        lo = w.gap_lower_bound
        gap_clears = lo.numerator * fd >= fn * lo.denominator
        windows.append(
            {
                "delta": delta,
                "offset1": o1,
                "offset2": o2,
                "osc_lower_bound": lo,
                "certified": gap_clears and not probe_records,
            }
        )
        if not gap_clears:
            failures.append({"kind": "window-uncertified", "delta": str(delta), "osc_lower_bound": str(lo)})
    params = {"t_hat": t_hat, "deltas": deltas, "windows": windows}
    return params, len(deltas), failures


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
    upper endpoint.  Each pair's norm is taken once, since |q**-1 p| =
    |p**-1 q| and min_of and max_of work end by end: each point of a takes
    the minimum of its row of norms, each point of b a running minimum.
    """
    radius = Fraction(radius)
    a = [p for p in a_pts if hnorm(p).lo <= radius]
    b = [q for q in b_pts if hnorm(q).lo <= radius]
    if not a or not b:
        raise EmptyAfterRestriction(
            f"radius {radius} keeps {len(a)} of {len(a_pts)} and {len(b)} of {len(b_pts)} points"
        )
    worst = cols = None
    for p in a:
        p_inv = inv(p)
        row = [hnorm(mul(p_inv, q)) for q in b]
        nearest = reduce(Interval.min_of, row)
        worst = nearest if worst is None else Interval.max_of(worst, nearest)
        cols = row if cols is None else list(map(Interval.min_of, cols, row))
    return Interval.max_of(worst, reduce(Interval.max_of, cols))


# ----------------------------------------------------------------------
# cone campaign


def _check_depth(depth: int) -> None:
    """Refuse a campaign depth before any work: below 1, or above MAX_DEPTH."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds cap {MAX_DEPTH}")


@lru_cache(maxsize=1)
def _draw_grid() -> tuple[Fraction, ...]:
    """The 4 001 values k/1000, k = -2000 .. 2000, that cone draws from.

    grid[rng.randrange(4001)] is Fraction(rng.randrange(-2000, 2001), 1000) from the same draw.
    """
    return tuple(Fraction(k, 1000) for k in range(-2000, 2001))


def _cone_pairs(seed: int) -> Iterator[tuple[GroupPoint, GroupPoint]]:
    """The 12 breakpoint pairs, then pairs drawn from random.Random(seed), without end."""
    rng = random.Random(seed)
    breakpoint_betas = (Fraction(0), Fraction(4, 9), Fraction(5, 9), Fraction(1))
    for b1, b2 in combinations(breakpoint_betas, 2):
        yield w_point(0, b1), w_point(0, b2)
        yield w_point(0, b1), w_point(1, b2)
    grid = _draw_grid()
    draw, n = rng.randrange, len(grid)
    while True:
        y1, t1, y2, t2 = grid[draw(n)], grid[draw(n)], grid[draw(n)], grid[draw(n)]
        yield w_point(y1, t1), w_point(y2, t2)


@_campaign("cone")
def verify_cone(sample_count: int, depth: int = 30, seed: int = REFERENCE_SEED) -> Report:
    """Cone condition with constant 1 over graph point pairs.

    Every pair must satisfy |w-part| >= |v-part| for the displacement
    between its graph points.  A pair fails when the enclosure refutes
    the inequality outright (gap upper bound below zero, or a profile
    difference above the root of the abscissa gap), and it is recorded
    as cone-undecided when its gap enclosure straddles zero, as happens
    at shallow depths; a deeper run may decide it.  Pairs whose
    profile arguments are breakpoint values evaluate exactly and are
    counted in parameters["exact_pairs"].  More than MAX_PAIRS pairs are
    refused with DepthTooLarge before the first draw.  Pairs are drawn as
    checked, each coordinate from one shared tuple of the 4 001 values
    k/1000, built on the first campaign, so no draw builds a Fraction.
    Each distinct folded profile argument is descended once, since the
    standard curve's descent store, which every campaign leaves empty,
    holds all of them (see selfsim._DESCENTS_KEPT).  The profile
    difference test (the Hölder chain) reads |r2 - r1|.lo = n / d and
    |beta2 - beta1| = tn / td from the endpoints' integer numerators and
    denominators, unreduced, and refutes when n**2 * td > tn * d**2.  The
    gap's signs and the smallest gap are decided on its `ends` too, and
    the smallest gap's lower end is reduced once, for the report.
    """
    _check_count(sample_count, "pairs", name="sample_count")
    _check_depth(depth)
    failures = []
    exact_pairs = 0
    min_gap: Optional[Interval] = None
    mn = md = 0  # the lower end of min_gap
    for idx, (w1, w2) in enumerate(islice(_cone_pairs(seed), sample_count)):
        p1 = graph_point(w1, depth)
        p2 = graph_point(w2, depth)
        g = cone_gap(p1, p2, depth)
        ln, ld, hn, _ = g.ends
        if min_gap is None or ln * md < mn * ld:
            min_gap, mn, md = g, ln, ld
        if ln < 0:
            kind = "cone-gap-negative" if hn < 0 else "cone-undecided"
            failures.append({"kind": kind, "gap": [str(g.lo), str(g.hi)], **_pair_key(idx, w1, w2)})
        r1, r2 = p1.r, p2.r
        exact = r1.is_point() and r2.is_point()
        exact_pairs += exact
        # |r2 - r1|.lo = n / d; 0 refutes nothing.  On exact points it is the exact |u(beta2) - u(beta1)|.
        n, d, _, _ = abs_diff_ends(r1, r2)
        if n:
            # |beta2 - beta1| = tn / td; the chain is refuted when (n / d)**2 > tn / td
            (tn1, td1), (tn2, td2) = w1.t.as_integer_ratio(), w2.t.as_integer_ratio()
            tn, td = abs(tn2 * td1 - tn1 * td2), td1 * td2
            if n * n * td > tn * d * d:
                kind = "holder-chain-exact" if exact else "holder-chain-refuted"
                failures.append({"kind": kind, **_pair_key(idx, w1, w2)})
    params = {
        "sample_count": sample_count,
        "depth": depth,
        "seed": seed,
        "exact_pairs": exact_pairs,
        "min_gap_lo": min_gap.lo,
        "cone_constant": Fraction(1),
    }
    return params, sample_count, failures


def _pair_key(idx: int, w1: GroupPoint, w2: GroupPoint) -> dict:
    """The fields that name a cone pair in its failure records."""
    return {"index": idx, "beta1": str(w1.t), "beta2": str(w2.t), "y1": str(w1.y), "y2": str(w2.y)}


# ----------------------------------------------------------------------
# blow-up divergence


# Offsets blowup_divergence solves target1 and target2 in.  They straddle the
# default targets only at t_hat = 0 and its folds; elsewhere NotBracketed.
BRACKET1 = (Fraction(4, 9), Fraction(1, 2))
BRACKET2 = (Fraction(5, 9), Fraction(3, 5))


@_campaign("blowup-divergence")
def blowup_divergence(
    t_hat: RationalLike,
    target1: RationalLike,
    target2: RationalLike,
    radius: RationalLike,
    grid: Sequence[GroupPoint],
    depth: int,
    tol: RationalLike = Fraction(1, 10**4),
) -> Report:
    """Exhibit two blow-up scales whose rescaled graphs stay apart.

    Solves q(t_hat + s, t_hat) = target_i for an offset in BRACKET1 and
    BRACKET2, and turns the offsets into rational dilation factors lam_i
    ~ s_i ** (-1/2) with carnot.rationalized_scale, which certifies each
    realised quotient within 2*tol of its target or raises.  Both
    rescaled graphs are then sampled over the same W grid.
    The report certifies, by intervals end to end: both sampling routes
    agree at every grid point, the profile gap at offset h = 1 is
    positive (its enclosure is close to |target1 - target2|), and the
    sample-set Hausdorff distance inside the radius is positive when the
    targets differ.  One base point with two non-collapsing rescaling
    limits is exactly a point of blow-up divergence.  The Hausdorff step
    takes a norm per ordered pair of samples, so more than MAX_PAIRS
    offset pairs are refused with DepthTooLarge before the first solve.
    """
    _check_depth(depth)
    _check_count(len(grid) ** 2, "offset pairs")
    t_hat = Fraction(t_hat)
    target1 = Fraction(target1)
    target2 = Fraction(target2)
    radius = Fraction(radius)
    tol = Fraction(tol)
    s1 = solve_quotient(t_hat, target1, BRACKET1, tol)
    s2 = solve_quotient(t_hat, target2, BRACKET2, tol)
    lam1, s1_real, enc1 = rationalized_scale(t_hat, s1, target1, tol)
    lam2, s2_real, enc2 = rationalized_scale(t_hat, s2, target2, tol)

    failures = []
    # rationalized_scale returned only after certifying both realised
    # quotients within 2*tol of their targets; it raises otherwise.
    checked = 2

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
                        "sample_r": [str(p.r.lo), str(p.r.hi)],
                        "profile": [str(prof.lo), str(prof.hi)],
                    }
                )

    gap = (enc1 - enc2).abs()
    checked += 1
    if target1 != target2 and gap.lo <= 0:
        failures.append({"kind": "profile-gap-nonpositive", "gap": [str(gap.lo), str(gap.hi)]})
    # gap lies within 4*tol of |target1 - target2|: rationalized_scale
    # certified each enclosure within 2*tol of its target.
    checked += 1

    hd = hausdorff_distance(sample_a, sample_b, radius)
    checked += 1
    if target1 != target2 and hd.lo <= 0:
        failures.append({"kind": "hausdorff-not-positive", "hausdorff": [str(hd.lo), str(hd.hi)]})

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
    return params, checked, failures


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
