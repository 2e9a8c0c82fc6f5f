"""tools/ab.py: the summary it prints, on a fixed list of paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Five pairs: the change is lower in pairs 1, 3 and 4, ties in pair 2 and is higher in pair 5.
RUNS = [
    {"pair": 1, "parent": {"wall_rel": 3.0, "peak_rss_mb": 22.0}, "change": {"wall_rel": 2.5, "peak_rss_mb": 22.0}},
    {"pair": 2, "parent": {"wall_rel": 3.2, "peak_rss_mb": 22.1}, "change": {"wall_rel": 3.2, "peak_rss_mb": 22.3}},
    {"pair": 3, "parent": {"wall_rel": 3.1, "peak_rss_mb": 22.2}, "change": {"wall_rel": 2.7, "peak_rss_mb": 22.0}},
    {"pair": 4, "parent": {"wall_rel": 3.4, "peak_rss_mb": 22.0}, "change": {"wall_rel": 2.6, "peak_rss_mb": 22.1}},
    {"pair": 5, "parent": {"wall_rel": 2.9, "peak_rss_mb": 22.4}, "change": {"wall_rel": 3.0, "peak_rss_mb": 22.4}},
]


def test_summary_of_fixed_runs(ab):
    got = ab.summarise(RUNS, {"wall_rel": "lower", "peak_rss_mb": "lower"})
    wall = got["wall_rel"]
    assert wall["parent_median"] == 3.1 and wall["change_median"] == 2.7
    # inclusive quartiles of the parent's 2.9, 3.0, 3.1, 3.2, 3.4 are 3.0 and 3.2
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert wall["change_quartiles"] == pytest.approx((2.6, 3.0))
    # a tie (pair 2) counts for neither side
    assert (wall["change_better_pairs"], wall["pairs"]) == (3, 5)
    assert wall["change_worse_in"] == [5]
    assert wall["relative_change"] == pytest.approx(-0.4 / 3.1)
    rss = got["peak_rss_mb"]
    # lower in pair 3 only; pairs 1 and 5 tie
    assert rss["change_better_pairs"] == 1
    assert rss["change_worse_in"] == [2, 4]
    assert rss["parent_iqr"] == pytest.approx(0.2)
    # both medians are 22.1
    assert rss["relative_change"] == 0


def test_higher_is_better_counts_the_other_way(ab):
    got = ab.summarise(RUNS, {"wall_rel": "higher"})["wall_rel"]
    # higher in pair 5 only; the tie still counts for neither side
    assert got["change_better_pairs"] == 1
    assert got["change_worse_in"] == [1, 3, 4]


def test_one_run_has_no_spread(ab):
    got = ab.summarise(RUNS[:1], {"wall_rel": "lower"})["wall_rel"]
    assert got["parent_iqr"] == 0 and got["change_quartiles"] == (2.5, 2.5)


def test_a_zero_parent_median_has_no_relative_change(ab):
    runs = [{"pair": 1, "parent": {"failed": 0}, "change": {"failed": 1}}]
    got = ab.summarise(runs, {"failed": "lower"})["failed"]
    assert got["relative_change"] is None and got["change_worse_in"] == [1]


def test_printed_summary(ab, monkeypatch, capsys):
    """main prints each metric's relative median change and the pairs the change was worse in."""
    side = {"setup_s": 1.0, "peak_rss_mb": 22.0}
    metrics = iter([{"wall_rel": 3.0, **side}, {"wall_rel": 2.7, **side}] * 3)
    monkeypatch.setattr(ab, "bench_run", lambda *args: next(metrics))
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: None)
    assert ab.main([str(TOOL.parents[1])] * 2 + ["--workload", "cone", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # pair 2 runs the change first, so it reads 3.0 there and the parent 2.7
    want = "cone wall_rel: parent 3 (iqr 0.15) -> change 2.7 (-10.0%); change better in 2 of 3, worse in pairs: 2"
    assert want in lines
    assert "cone setup_s: parent 1 (iqr 0) -> change 1 (+0.0%); change better in 0 of 3, worse in pairs: none" in lines
