"""Alternating A/B runs of the benchmark on two checkouts: a parent and a change.

Each pair runs, in each checkout as the working directory,

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once per side, alternating which side runs first (the parent in odd
pairs).  Then it prints, for every end-to-end metric of the change's
BENCHMARK.json, each side's median, the distance between the quartiles
of the parent's runs and in how many pairs the change was better:

    python3 tools/ab.py PARENT CHANGE --workload witness --pairs 10

Before the first pair, and before the first set-up, it runs
``python -m compileall -q src bench`` in both checkouts, so that neither
side compiles bytecode during a timed run.  A run that compiles reads
``peak_rss_mb`` about 1 MB higher (mutation on a 2-core host, CPython
3.11.7: 23.2 MB against 22.1 to 22.3 MB once compiled), about the
benchmark's 5 % bound.

With ``--setups N`` it times set-up instead: N alternating calls of each
checkout's own ``bench/run.py`` ``measure_setup`` (fresh interpreters that
import lipgraph and build the workload's inputs), each call read as its
median, which is what ``setup_s`` reports.  ``--out FILE`` writes every
run and the summary as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def bench_run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run in checkout: its metric values, attempted and failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + ["--trace", "0"], cwd=checkout, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{k: v["value"] for k, v in res["metrics"].items()}, "attempted": res["attempted"], "failed": res["failed"]}


def setup_runner(checkout: str, name: str):
    """The set-up timer of checkout's bench/run.py, whose paths are bound to checkout when it is loaded."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    cwd = os.getcwd()
    os.chdir(checkout)  # run.py takes its source tree from the working directory at import
    try:
        spec.loader.exec_module(module)
    finally:
        os.chdir(cwd)
    return lambda workload, seed: statistics.median(module.measure_setup(workload, seed))


def quartiles(xs: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]


def summarise(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs in which the change was better."""
    out = {}
    for name, better in metrics.items():
        side = {s: [r[s][name] for r in runs] for s in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        q1, q3 = quartiles(side["parent"])
        out[name] = {
            "parent_median": statistics.median(side["parent"]),
            "change_median": statistics.median(side["change"]),
            "parent_iqr": q3 - q1,
            "change_quartiles": quartiles(side["change"]),
            "change_better_pairs": wins,
            "pairs": len(runs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the change checkout")
    parser.add_argument("--workload", required=True, choices=("cone", "witness", "deep", "mutation"))
    parser.add_argument("--seed", type=int, default=20259)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--setups", type=int, default=0, help="time N set-ups per side instead of running pairs")
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    if args.setups:
        timers = {s: setup_runner(roots[s], f"run_{s}") for s in SIDES}
        metrics = {"setup_s": "lower"}
        measure = lambda s: {"setup_s": timers[s](args.workload, args.seed)}
        count = args.setups
    else:
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        measure = lambda s: bench_run(roots[s], args.workload, args.seed, args.seconds)
        count = args.pairs

    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=root, check=True)
    runs = []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"pair": i + 1, "first": order[0]}
        for s in order:
            run[s] = measure(s)
        runs.append(run)
        cells = "  ".join(f"{s} " + " ".join(f"{k}={v:.4g}" for k, v in run[s].items()) for s in SIDES)
        print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)

    summary = summarise(runs, metrics)
    for name, s in summary.items():
        print(
            f"{args.workload} {name}: parent {s['parent_median']:.4g} (iqr {s['parent_iqr']:.3g})"
            f" -> change {s['change_median']:.4g}; change better in {s['change_better_pairs']} of {s['pairs']}"
        )
    failed = any(r[s].get("failed") for r in runs for s in SIDES)
    if failed:
        print("some runs had failed operations", file=sys.stderr)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "summary": summary, "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
