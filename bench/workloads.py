"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

A workload's inputs are SETS input sets drawn from the workload seed.  Pass
k runs every operation of the workload on set k % SETS: one campaign call
(or one CLI invocation) per operation, each followed by the canonical
``Report.to_json(include_timing=False)`` that users get in their files.

Each pass is sized to take about one second on a 2-core CPython 3.11
host, so a run of 28 s gives twenty or more pass times to take a median
of.  The acceptance sizes (cone 10**4 pairs, claim2 10001 points, claim3
1000 samples, 8 deep base points, mutation probes at their defaults)
take 5 to 18 s a pass on that host, too long for medians within a run.
The shapes are kept: the same campaigns, depths and scales, on fewer
points per pass.

Consecutive passes use different input sets, so a cache that lives
across campaign calls sees no repeated input until SETS passes have
run.  Within a pass the campaigns repeat work exactly as they do for
users; ``selfsim.eval_limit.repeat_frac`` in the traced run measures
that share.

Importing this module only loads lipgraph.  ``setup`` is what a fresh
interpreter does before its first pass, and is what ``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import lipgraph
import lipgraph.cli as cli
import lipgraph.verify as verify
from lipgraph.selfsim import BRANCHES, BranchTag, quotient_gap_floor

NAMES = ("cone", "witness", "deep", "mutation")
SETS = 32
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CONE_PAIRS = 600
CONE_DEPTH = 30
# Set k runs claim2 on UNIT_GRID - 4 + k % 8 points: neighbouring grid
# sizes share almost no base points, and the cost stays within 1 %.
UNIT_GRID = 601
WINDOW_SAMPLES = 60
DEEP_SCALES = 64
# Hölder level 5 keeps the iterate and pair loop at full size; the
# witness grids are cut to a tenth.  Every drift is still detected.
MUTATION_SIZES = {"holder_level": 5, "grid_size": 9, "window_count": 4}


@dataclass(frozen=True)
class Outcome:
    """One operation's result: whether its verdict is right, and its bytes."""

    op: str
    verdict_ok: bool
    text: bytes
    error: Optional[str] = None


def _seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(SETS)]


def _drifts() -> list[tuple[str, BranchTag, str, Fraction, bool]]:
    """(op id, tag, field, value, should_detect) for the 24 drifts and the identity."""
    probes = []
    for br in BRANCHES:
        for fld in verify.MUTABLE_FIELDS:
            for bump in (Fraction(1, 100), Fraction(-1, 100)):
                op = f"{br.tag.value}.{fld}{'+' if bump > 0 else '-'}1/100"
                probes.append((op, br.tag, fld, getattr(br, fld) + bump, True))
    left = BRANCHES[0]
    probes.append(("identity", left.tag, "x_scale", left.x_scale, False))
    return probes


def make_inputs(name: str, seed: int) -> list:
    """The SETS input sets of a workload, as plain arguments to its operations."""
    if name == "cone":
        return _seeds(seed)
    if name == "witness":
        return [
            (UNIT_GRID - 4 + k % 8, verify.window_gap_samples(WINDOW_SAMPLES, s))
            for k, s in enumerate(_seeds(seed))
        ]
    if name == "deep":
        return [str(Fraction(random.Random(s).randrange(10**6 + 1), 10**6)) for s in _seeds(seed)]
    if name == "mutation":
        probes = _drifts()
        return [(probes, s) for s in _seeds(seed)]
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, seed: int) -> list:
    """Everything a fresh interpreter does before its first pass."""
    quotient_gap_floor()
    return make_inputs(name, seed)


def _guard(op: str, fn) -> Outcome:
    # One operation that raises is counted as failed; the pass goes on.
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - benchmark boundary
        return Outcome(op, False, b"", f"{type(exc).__name__}: {exc}")


def _cone(seed: int) -> Outcome:
    r = verify.verify_cone(CONE_PAIRS, depth=CONE_DEPTH, seed=seed)
    text = r.to_json(include_timing=False)
    return Outcome("cone", r.certified and r.checked == CONE_PAIRS, text.encode())


def _claim2(grid: int) -> Outcome:
    r = verify.verify_unit_gap(grid)
    return Outcome("claim2", r.certified, r.to_json(include_timing=False).encode())


def _claim3(samples) -> Outcome:
    r = verify.verify_window_gap(samples)
    return Outcome("claim3", r.certified, r.to_json(include_timing=False).encode())


def _deep(t_hat: str, out_path: str) -> Outcome:
    argv = ["verify", "oscillation", "--t-hat", t_hat, "--scales", str(DEEP_SCALES), "--out", out_path]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    with open(out_path, "rb") as fh:
        text = fh.read()
    return Outcome("oscillation", rc == 0, text)


def _probe(op: str, tag, fld, value, should_detect: bool, seed: int) -> Outcome:
    reports = verify.mutation_probe(tag, fld, value, seed=seed, **MUTATION_SIZES)
    text = "".join(reports[k].to_json(include_timing=False) for k in sorted(reports))
    return Outcome(op, verify.mutation_detected(reports) == should_detect, text.encode())


def run_pass(name: str, inputs, out_dir: str) -> list[Outcome]:
    """Run every operation of one pass on one input set."""
    if name == "cone":
        return [_guard("cone", lambda: _cone(inputs))]
    if name == "witness":
        grid, samples = inputs
        return [_guard("claim2", lambda: _claim2(grid)), _guard("claim3", lambda: _claim3(samples))]
    if name == "deep":
        path = os.path.join(out_dir, "deep-oscillation.json")
        return [_guard("oscillation", lambda: _deep(inputs, path))]
    if name == "mutation":
        probes, seed = inputs
        return [
            _guard(op, lambda p=(op, tag, fld, value, det): _probe(*p, seed))
            for op, tag, fld, value, det in probes
        ]
    raise ValueError(f"unknown workload {name!r}")


def digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str) -> list[list[str]]:
    """Per input set, the sha256 of each operation's canonical JSON at the reference seed."""
    with open(golden_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != verify.REFERENCE_SEED or len(data["sets"]) != SETS:
        raise ValueError(f"golden file for {name} does not match SETS={SETS} at the reference seed")
    return data["sets"]


def failures(outcomes: list[Outcome], golden: Optional[list[str]]) -> list[str]:
    """Why each failed operation failed; empty when the pass is correct."""
    bad = []
    for i, o in enumerate(outcomes):
        if o.error is not None:
            bad.append(f"{o.op}: raised {o.error}")
        elif not o.verdict_ok:
            bad.append(f"{o.op}: wrong verdict")
        elif golden is not None and digest(o.text) != golden[i]:
            bad.append(f"{o.op}: canonical JSON differs from the golden copy")
    return bad

