"""Per-layer tracing from outside the program.

The tracer replaces functions of lipgraph's modules with wrappers while a
traced pass runs, and puts the originals back afterwards.  Module
functions are wrapped at every module attribute that holds them, so a
``from .numerics import sqrt_enclose`` in another module is traced too.
``Curve`` and ``Report`` methods are wrapped on the class.

A span wrapper records name, start, end and parent span; a layer's self
time is its span's duration minus the time its child spans cover.  Hot
leaf calls (``Curve.locate_branch`` and ``Interval`` construction) are
counted without spans.  Spans stay in memory until the run writes them
out.

``LAYER_EFFECTS`` states, per layer metric, which end-to-end metric it
should move on which workload.  ``EXPECTED`` lists, per workload, the
wrapped bindings that must read calls; ``check_coverage`` fails the
traced run when one reads zero, or when a ``carnot`` function is called
on a workload other than ``cone``.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import lipgraph
import lipgraph.carnot as carnot
import lipgraph.cli as cli
import lipgraph.numerics as numerics
import lipgraph.selfsim as selfsim
import lipgraph.verify as verify

MODULES = {
    "lipgraph": lipgraph,
    "numerics": numerics,
    "selfsim": selfsim,
    "carnot": carnot,
    "verify": verify,
    "cli": cli,
}

CAMPAIGNS = (
    "verify_cone",
    "verify_unit_gap",
    "verify_window_gap",
    "verify_holder",
    "oscillation_scan",
    "mutation_probe",
    "blowup_divergence",
)
# (home module, function) pairs wrapped with spans wherever they are bound.
MODULE_SPANS = (
    [("numerics", "sqrt_enclose")]
    + [("carnot", f) for f in ("graph_point", "cone_gap", "hnorm", "mul")]
    + [("verify", f) for f in CAMPAIGNS]
    + [("cli", "main")]
)
CURVE_SPANS = ("eval_limit", "diff_quotient", "unit_witnesses", "window_witnesses", "locate_cell", "iterate")

# Per layer metric: (end-to-end metric it moves, workloads, expected size of the effect).
LAYER_EFFECTS = {
    "selfsim.eval_limit.calls": ("wall_rel", "cone witness deep mutation", "up to ~85 % on cone, ~80 % on witness and deep"),
    "selfsim.eval_limit.self_s": ("wall_rel", "cone witness deep mutation", "where an integer descent kernel must show"),
    "selfsim.eval_limit.depth_mean": ("wall_rel", "cone witness deep mutation", "cost per call grows with depth"),
    "selfsim.locate_branch.calls": ("wall_rel", "cone witness deep mutation", "branch steps of every descent"),
    "selfsim.eval_limit.repeat_frac": ("wall_rel", "witness deep", "wasted work; ~43 % on cone too, as random points fold onto a 1/1000 grid"),
    "selfsim.diff_quotient.calls": ("wall_rel", "witness deep", "root division of the witness path"),
    "selfsim.diff_quotient.self_s": ("wall_rel", "witness deep", "root division of the witness path"),
    "selfsim.diff_quotient.per_witness": ("wall_rel", "witness deep", "2.0 means no deepening retries"),
    "selfsim.unit_witnesses.total_s": ("wall_rel", "witness", "absent on cone"),
    "selfsim.window_witnesses.total_s": ("wall_rel", "witness deep", "absent on cone"),
    "selfsim.locate_cell.total_s": ("wall_rel", "witness deep", "~18 % on deep; absent on cone"),
    "carnot.graph_point.self_s": ("wall_rel", "cone", "at most ~10 %; zero calls elsewhere"),
    "carnot.cone_gap.self_s": ("wall_rel", "cone", "at most ~10 %; zero calls elsewhere"),
    "carnot.hnorm.self_s": ("wall_rel", "cone", "at most ~10 %; zero calls elsewhere"),
    "carnot.mul.calls": ("wall_rel", "cone", "zero calls elsewhere"),
    "numerics.sqrt_enclose.calls": ("wall_rel", "cone witness", "a few percent at most"),
    "numerics.sqrt_enclose.self_s": ("wall_rel", "cone witness", "a few percent at most"),
    "numerics.Interval.created": ("wall_rel", "cone witness", "a few percent at most"),
    "selfsim.iterate.total_s": ("wall_rel", "mutation", "Hölder sweep iterates"),
    "verify.campaign.self_s": ("wall_rel", "mutation", "sampling, bookkeeping and sorting in campaign bodies"),
    "verify.to_json.total_s": ("wall_rel setup_s", "deep", "work moved to import time moves setup_s"),
    "cli.main.self_s": ("wall_rel setup_s", "deep", "argument parsing, report assembly, file write"),
    "trace.overhead": ("none", "cone witness deep mutation", "traced over untraced pass time"),
    "host.calib_s": ("none", "cone witness deep mutation", "host speed: the pure-Fraction loop that wall_rel divides by"),
}

_COMMON = {"selfsim.eval_limit@Curve", "selfsim.locate_branch@Curve", "numerics.Interval.created@Interval", "verify.to_json@Report"}
_WITNESS = {
    "selfsim.diff_quotient@Curve",
    "selfsim.window_witnesses@Curve",
    "selfsim.locate_cell@Curve",
    "numerics.sqrt_enclose@selfsim",
}
EXPECTED = {
    "cone": _COMMON
    | {
        "verify.verify_cone@verify",
        "carnot.graph_point@verify",
        "carnot.cone_gap@verify",
        "carnot.hnorm@carnot",
        "carnot.mul@carnot",
        "numerics.sqrt_enclose@carnot",
    },
    "witness": _COMMON
    | _WITNESS
    | {"selfsim.unit_witnesses@Curve", "verify.verify_unit_gap@verify", "verify.verify_window_gap@verify"},
    "deep": _COMMON | _WITNESS | {"cli.main@cli", "verify.oscillation_scan@cli"},
    "mutation": _COMMON
    | _WITNESS
    | {
        "selfsim.unit_witnesses@Curve",
        "selfsim.iterate@Curve",
        "verify.mutation_probe@verify",
        "verify.verify_holder@verify",
        "verify.verify_unit_gap@verify",
        "verify.verify_window_gap@verify",
    },
}


class Stats:
    """Counts and times gathered over some traced passes."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()  # "name@binding" -> calls
        self.total: defaultdict = defaultdict(float)  # name -> span seconds
        self.self_s: defaultdict = defaultdict(float)  # name -> self seconds
        self.depth_sum = 0
        self.repeats = 0

    def count(self, name: str) -> int:
        return sum(n for key, n in self.calls.items() if key.split("@")[0] == name)


class Tracer:
    def __init__(self) -> None:
        self.stats = Stats()
        self.record = True
        self.spans: list[tuple] = []  # (pass, span, parent, name, start, end)
        self._stack: list[list] = []  # [start, child seconds, span id]
        self._next_id = 1
        self._pass = 0
        self._seen: set = set()
        self._restore: list[tuple] = []

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._seen = set()

    def _span(self, name: str, binding: str, fn):
        key = f"{name}@{binding}"
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats
            st.calls[key] += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                st.total[name] += dur
                st.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if self.record:
                    parent = stack[-1][2] if stack else 0
                    self.spans.append((self._pass, span_id, parent, name, frame[0], end))

        return wrapper

    def _counter(self, name: str, binding: str, fn):
        key = f"{name}@{binding}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stats.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _eval_limit(self, fn):
        inner = self._span("selfsim.eval_limit", "Curve", fn)

        @functools.wraps(fn)
        def wrapper(curve, t, depth):
            st = self.stats
            st.depth_sum += depth
            key = (t, depth)
            if key in self._seen:
                st.repeats += 1
            else:
                self._seen.add(key)
            return inner(curve, t, depth)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for home, fname in MODULE_SPANS:
            fn = getattr(MODULES[home], fname)
            for binding, mod in MODULES.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, self._span(f"{home}.{fname}", binding, fn))
        Curve = selfsim.Curve
        for meth in CURVE_SPANS:
            fn = Curve.__dict__[meth]
            wrapped = self._eval_limit(fn) if meth == "eval_limit" else self._span(f"selfsim.{meth}", "Curve", fn)
            self._patch(Curve, meth, wrapped)
        self._patch(Curve, "locate_branch", self._counter("selfsim.locate_branch", "Curve", Curve.locate_branch))
        Interval = numerics.Interval
        self._patch(
            Interval, "__post_init__", self._counter("numerics.Interval.created", "Interval", Interval.__post_init__)
        )
        Report = verify.Report
        self._patch(Report, "to_json", self._span("verify.to_json", "Report", Report.to_json))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_metrics(first: Stats, cycles: list[Stats], passes_per_cycle: int) -> dict[str, float]:
    """Per-pass layer metrics: counts from the first traced cycle, times as medians over cycles."""
    n = passes_per_cycle

    def secs(field: str, name: str) -> float:
        if name == "verify.campaign":
            return statistics.median(sum(getattr(c, field)[f"verify.{f}"] for f in CAMPAIGNS) for c in cycles) / n
        return statistics.median(getattr(c, field)[name] for c in cycles) / n

    eval_calls = first.count("selfsim.eval_limit")
    witnesses = first.count("selfsim.unit_witnesses") + first.count("selfsim.window_witnesses")
    dq_calls = first.count("selfsim.diff_quotient")
    return {
        "selfsim.eval_limit.calls": eval_calls / n,
        "selfsim.eval_limit.self_s": secs("self_s", "selfsim.eval_limit"),
        "selfsim.eval_limit.depth_mean": first.depth_sum / eval_calls if eval_calls else 0.0,
        "selfsim.eval_limit.repeat_frac": first.repeats / eval_calls if eval_calls else 0.0,
        "selfsim.locate_branch.calls": first.count("selfsim.locate_branch") / n,
        "selfsim.diff_quotient.calls": dq_calls / n,
        "selfsim.diff_quotient.self_s": secs("self_s", "selfsim.diff_quotient"),
        "selfsim.diff_quotient.per_witness": dq_calls / witnesses if witnesses else 0.0,
        "selfsim.unit_witnesses.total_s": secs("total", "selfsim.unit_witnesses"),
        "selfsim.window_witnesses.total_s": secs("total", "selfsim.window_witnesses"),
        "selfsim.locate_cell.total_s": secs("total", "selfsim.locate_cell"),
        "carnot.graph_point.self_s": secs("self_s", "carnot.graph_point"),
        "carnot.cone_gap.self_s": secs("self_s", "carnot.cone_gap"),
        "carnot.hnorm.self_s": secs("self_s", "carnot.hnorm"),
        "carnot.mul.calls": first.count("carnot.mul") / n,
        "numerics.sqrt_enclose.calls": first.count("numerics.sqrt_enclose") / n,
        "numerics.sqrt_enclose.self_s": secs("self_s", "numerics.sqrt_enclose"),
        "numerics.Interval.created": first.count("numerics.Interval.created") / n,
        "selfsim.iterate.total_s": secs("total", "selfsim.iterate"),
        "verify.campaign.self_s": secs("self_s", "verify.campaign"),
        "verify.to_json.total_s": secs("total", "verify.to_json"),
        "cli.main.self_s": secs("self_s", "cli.main"),
    }


def check_coverage(workload: str, first: Stats) -> list[str]:
    """Problems that make the traced run invalid; empty when coverage is as predicted."""
    problems = [f"{key} reads zero calls on {workload}" for key in sorted(EXPECTED[workload]) if not first.calls[key]]
    if workload != "cone":
        problems += [
            f"{key} called {n} times on {workload}; carnot is predicted idle there"
            for key, n in sorted(first.calls.items())
            if key.startswith("carnot.") and n
        ]
    return problems
