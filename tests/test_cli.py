"""Command-line interface: outputs, determinism, and exit codes."""

import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph import cli, verify
from lipgraph.carnot import NotBracketed, TolTooTight
from lipgraph.selfsim import MAX_DEPTH, UNIT_CURVE, Curve, DepthTooLarge, OutOfDomain
from lipgraph.verify import MAX_PAIRS, EmptyAfterRestriction, Report


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


class TestEval:
    def test_exact_value(self):
        code, out = run(["eval", "5/9"])
        assert code == 0
        assert out == "u(5/9) = 1/3  (exact)\n"

    def test_enclosure_output(self):
        code, out = run(["eval", "1/7", "--depth", "20"])
        assert code == 0
        assert out.startswith("u(1/7) in [985919068/3486784401, 328814452/1162261467]")
        assert "width" in out

    def test_folds_outside_unit_interval(self):
        code, out = run(["eval", "3/2", "--depth", "40"])
        assert code == 0
        assert "0.5000000" in out

    def test_bad_rational_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["eval", "x/y"])
        assert exc.value.code == 2


class TestPlots:
    def test_iterate_svg_polylines(self, tmp_path):
        out = tmp_path / "it.svg"
        code, msg = run(["plot-iterates", "--levels", "0,1,2,3", "--out", str(out)])
        assert code == 0
        assert str(out) in msg
        svg = out.read_text()
        points = re.findall(r'points="([^"]+)"', svg)
        assert len(points) == 4
        for n, pts in enumerate(points):
            assert len(pts.split()) == 3**n + 1

    def test_iterate_csv_golden(self, tmp_path):
        out = tmp_path / "it.csv"
        code, _ = run(["plot-iterates", "--levels", "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_text() == "level,t,u\n1,0,0\n1,4/9,2/3\n1,5/9,1/3\n1,1,1\n"

    def test_ifs_rectangle_count(self, tmp_path):
        for depth, cells in ((2, 9), (5, 243)):
            out = tmp_path / f"ifs{depth}.svg"
            code, _ = run(["plot-ifs", "--depth", str(depth), "--out", str(out)])
            assert code == 0
            assert out.read_text().count("<rect") == cells

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            assert run(["plot-iterates", "--levels", "0,1,2,3", "--out", str(target)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.svg", tmp_path / "d.svg"
        for target in (c, d):
            assert run(["plot-ifs", "--depth", "5", "--out", str(target)])[0] == 0
        assert c.read_bytes() == d.read_bytes()

    def test_level_cap(self, tmp_path):
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = run(["plot-iterates", "--levels", "13", "--out", str(tmp_path / "x.svg")])
        assert code == 2

    @pytest.mark.parametrize(
        "levels, message",
        [("12,13", "argument over cap: level 13 exceeds cap 12"), ("12,-1", "argument out of domain: level must be nonnegative")],
    )
    def test_every_level_refused_before_any_iterate(self, tmp_path, monkeypatch, levels, message):
        def no_work(*args):
            raise AssertionError("an iterate was built before the refusal")

        monkeypatch.setattr(Curve, "iterate", no_work)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["plot-iterates", "--levels", levels, "--out", str(tmp_path / "x.svg")])
        assert (code, out, err.getvalue()) == (2, "", message + "\n")
        assert not (tmp_path / "x.svg").exists()

    def test_unwritable_path(self, tmp_path):
        # a file in a directory that does not exist cannot be opened for writing
        target = tmp_path / "missing" / "x.out"
        for argv in (
            ["plot-iterates", "--levels", "1"],
            ["plot-ifs", "--depth", "2"],
            ["verify", "holder", "--level", "2"],
            ["verify", "claim2", "--grid", "11"],
            ["verify", "claim3", "--samples", "5"],
            ["verify", "cone", "--samples", "20", "--depth", "20"],
            ["verify", "oscillation", "--t-hat", "1/2", "--scales", "3"],
            ["verify", "blowup-divergence", "--t-hat", "0", "--depth", "40", "--radius", "1"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run([*argv, "--out", str(target)])
            assert code == 3, argv
            assert err.getvalue().startswith(f"cannot write {target}: "), argv
            assert err.getvalue().count("\n") == 1, argv
            assert not target.parent.exists(), argv
            if argv[0] == "verify":
                assert out == "", argv


# The exit-code table: each exception class a campaign raises on an argument
# vector the parser accepts, with one such vector.  Every class is a
# ValueError, which `verify` reports on stderr and maps to exit 2.
EXIT_2_TABLE = [
    (["verify", "holder", "--level", "-1"], OutOfDomain, "cannot run campaign: level must be nonnegative"),
    (["verify", "holder", "--level", "13"], DepthTooLarge, "cannot run campaign: level 13 exceeds cap 12"),
    (["verify", "holder", "--refine", "-1"], ValueError, "cannot run campaign: refine must be nonnegative"),
    (["verify", "claim2", "--grid", "0"], ValueError, "cannot run campaign: grid_size must be at least 1"),
    (["verify", "claim2", "--grid", "2000001"], DepthTooLarge, "cannot run campaign: 2000001 base points exceed cap"),
    (["verify", "claim3", "--samples", "0"], ValueError, "cannot run campaign: samples must be at least 1"),
    (["verify", "claim3", "--samples", "2000001"], DepthTooLarge, "cannot run campaign: 2000001 samples exceed cap"),
    (["verify", "cone", "--samples", "0"], ValueError, "cannot run campaign: sample_count must be at least 1"),
    (["verify", "cone", "--depth", "4097"], DepthTooLarge, "cannot run campaign: depth 4097 exceeds cap"),
    (["verify", "cone", "--samples", "2000001"], DepthTooLarge, "cannot run campaign: 2000001 pairs exceed cap"),
    (["verify", "oscillation", "--scales", "0"], ValueError, "cannot run campaign: scales must be at least 1"),
    (["verify", "oscillation", "--scales", "928"], DepthTooLarge, "cannot run campaign: 928 scales exceed cap"),
    (["verify", "blowup-divergence", "--tol", "0"], ValueError, "cannot run campaign: tol must be positive"),
    (["verify", "blowup-divergence", "--depth", "4097"], DepthTooLarge, "cannot run campaign: depth 4097 exceeds cap"),
    (["verify", "blowup-divergence", "--offsets", ",".join(["0"] * 1415)], DepthTooLarge,
     "cannot run campaign: 2002225 offset pairs exceed cap 2000000"),
    (["verify", "blowup-divergence", "--target1", "2"], NotBracketed, "cannot run campaign: target 2 not straddled"),
    (["verify", "blowup-divergence", "--tol", f"1/{10**60}"], TolTooTight, "cannot run campaign: cannot reach quotient width"),
    (["verify", "blowup-divergence", "--radius", "-1"], EmptyAfterRestriction,
     "cannot run campaign: radius -1 keeps 0 of 6"),
]


def exit_row_id(argv):
    """The test id of an EXIT_2_TABLE row: its arguments after "verify", a long offset list by its length."""
    return " ".join(f"<{a.count(',') + 1} offsets>" if len(a) > 100 else a for a in argv[1:])


class TestVerifyCommand:
    def test_json_to_stdout(self):
        code, out = run(["verify", "holder", "--level", "2"])
        assert code == 0
        d = json.loads(out)
        assert d["campaign"] == "holder"
        assert d["certified"] is True
        assert d["wall_time_s"] is None

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "r.json"
        code, msg = run(["verify", "holder", "--level", "3", "--out", str(out)])
        assert code == 0
        assert "campaign=holder" in msg and "certified=True" in msg
        d = json.loads(out.read_text())
        assert d["checked"] == 378

    def test_stdout_json_stable_without_timing(self):
        a = run(["verify", "claim2", "--grid", "21"])
        b = run(["verify", "claim2", "--grid", "21"])
        assert a == b

    def test_timing_flag_populates_wall_time(self):
        code, out = run(["verify", "holder", "--level", "2", "--timing"])
        assert code == 0
        assert json.loads(out)["wall_time_s"] > 0

    def test_all_campaign_names_accepted(self):
        for campaign, extra in (
            ("holder", ["--level", "2"]),
            ("claim2", ["--grid", "11"]),
            ("claim3", ["--samples", "5"]),
            ("cone", ["--samples", "20", "--depth", "20"]),
            ("oscillation", ["--t-hat", "1/2", "--scales", "3"]),
        ):
            code, out = run(["verify", campaign, *extra])
            assert code == 0, campaign
            assert json.loads(out)["certified"] is True

    def test_blowup_campaign(self):
        code, out = run(
            ["verify", "blowup-divergence", "--t-hat", "0", "--depth", "40", "--radius", "1"]
        )
        assert code == 0
        d = json.loads(out)
        assert d["certified"] is True
        assert F(d["parameters"]["profile_gap"][0]) >= F(1, 2)

    def test_blowup_single_offset_exits_one(self):
        # one grid offset at 0 maps both blow-ups to the same point
        code, out = run(["verify", "blowup-divergence", "--offsets", "0"])
        assert code == 1
        d = json.loads(out)
        assert d["certified"] is False
        assert d["failures"] == [{"kind": "hausdorff-not-positive", "hausdorff": ["0", "0"]}]

    def test_uncertified_campaign_exits_one(self, monkeypatch):
        stub = Report(
            campaign="holder",
            parameters={},
            checked=1,
            failures=[{"kind": "quotient-above-one"}],
            certified=False,
            wall_time_s=0.0,
        )
        monkeypatch.setattr(cli, "verify_holder", lambda level, refine: stub)
        code, out = run(["verify", "holder"])
        assert code == 1
        assert json.loads(out)["certified"] is False

    def test_holder_level_defaults_to_six(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "verify_holder", lambda level, refine: calls.append((level, refine)) or verify.verify_holder(1))
        assert run(["verify", "holder"])[0] == 0
        assert calls == [(6, 0)]

    def test_parameter_cap_violations(self):
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(["verify", "holder", "--level", "13"])[0] == 2
            assert run(["verify", "claim2", "--grid", "0"])[0] == 2
            assert run(["verify", "holder", "--level", "7", "--refine", "100"])[0] == 2

    def test_deep_scales_certified(self):
        code, out = run(["verify", "oscillation", "--t-hat", "1/7", "--scales", "340"])
        assert code == 0
        report = json.loads(out)
        assert report["checked"] == 340 and report["certified"] is True

    @pytest.mark.parametrize("scales", ["0", "-3"])
    def test_no_scales_refused(self, scales):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["verify", "oscillation", "--scales", scales])
        assert code == 2 and out == ""
        assert err.getvalue() == "cannot run campaign: scales must be at least 1\n"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_refused(self, samples):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["verify", "claim3", "--samples", samples])
        assert code == 2 and out == ""
        assert err.getvalue() == "cannot run campaign: samples must be at least 1\n"

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_blowup_depth_below_one_refused(self, depth):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["verify", "blowup-divergence", "--depth", depth])
        assert code == 2 and out == ""
        assert err.getvalue() == "cannot run campaign: depth must be at least 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "1/7", "--depth", str(MAX_DEPTH + 1)], f"argument over cap: depth {MAX_DEPTH + 1} exceeds cap {MAX_DEPTH}"),
            (["eval", "1/7", "--depth", "10000000000"], f"argument over cap: depth 10000000000 exceeds cap {MAX_DEPTH}"),
            (["verify", "cone", "--depth", str(MAX_DEPTH + 1)], f"cannot run campaign: depth {MAX_DEPTH + 1} exceeds cap {MAX_DEPTH}"),
            (["verify", "blowup-divergence", "--depth", "10000000000"], f"cannot run campaign: depth 10000000000 exceeds cap {MAX_DEPTH}"),
            (["verify", "oscillation", "--scales", "928"], "cannot run campaign: 928 scales exceed cap 927"),
            (["verify", "oscillation", "--scales", "10000000000"], "cannot run campaign: 10000000000 scales exceed cap 927"),
        ],
    )
    def test_depth_above_cap_refused_before_any_work(self, argv, message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started above the depth cap")

        monkeypatch.setattr(Curve, "_descend", no_work)
        monkeypatch.setattr(verify, "w_point", no_work)
        monkeypatch.setattr(verify, "solve_quotient", no_work)
        monkeypatch.setattr(Curve, "locate_cell", no_work)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(argv)
        assert code == 2 and out == ""
        assert err.getvalue() == message + "\n"

    def test_claim3_sample_cap_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(verify.random, "Random", no_draw)
        for samples in (MAX_PAIRS + 1, 10**10):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(["verify", "claim3", "--samples", str(samples)])
            assert code == 2 and out == ""
            assert err.getvalue() == f"cannot run campaign: {samples} samples exceed cap {MAX_PAIRS}\n"
        # the cap itself is drawn
        with pytest.raises(AssertionError, match="a sample was drawn"):
            verify.window_gap_samples(MAX_PAIRS)

    def test_cone_pair_cap_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a pair was drawn")

        monkeypatch.setattr(verify.random, "Random", no_draw)
        for samples in (MAX_PAIRS + 1, 10**10):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(["verify", "cone", "--samples", str(samples)])
            assert code == 2 and out == ""
            assert err.getvalue() == f"cannot run campaign: {samples} pairs exceed cap {MAX_PAIRS}\n"
        # the cap itself is drawn
        with pytest.raises(AssertionError, match="a pair was drawn"):
            verify.verify_cone(MAX_PAIRS)

    def test_blowup_offset_cap_refused_before_any_solve(self, monkeypatch):
        # 1 414**2 = 1 999 396 offset pairs are within the cap, 1 415**2 = 2 002 225 are not
        def no_solve(*args):
            raise AssertionError("a quotient was solved")

        monkeypatch.setattr(verify, "solve_quotient", no_solve)
        for n in (1415, 10**4):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(["verify", "blowup-divergence", "--offsets", ",".join(["0"] * n)])
            assert code == 2 and out == ""
            assert err.getvalue() == f"cannot run campaign: {n * n} offset pairs exceed cap {MAX_PAIRS}\n"
        # the cap itself is solved
        with pytest.raises(AssertionError, match="a quotient was solved"):
            verify.blowup_divergence(0, 1, F(1, 2), 1, [verify.w_point(0, 0)] * 1414, 40)

    def test_cell_past_the_depth_cap_refused_before_any_witness(self, monkeypatch):
        # at 1/7 the cell at 9**-927 is shorter than the scale, so its window would start at 4098
        def no_witness(*args):
            raise AssertionError("a witness was built before the refusal")

        monkeypatch.setattr(Curve, "window_witnesses", no_witness)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["verify", "oscillation", "--t-hat", "1/7", "--scales", "927"])
        assert code == 2 and out == ""
        assert err.getvalue() == f"cannot run campaign: scale 927 would start at depth 4098, over cap {MAX_DEPTH}\n"

    def test_readme_lists_the_exit_code_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([\w-]+)` \| `(\w+)` \|", readme, re.MULTILINE)
        assert rows == [(argv[1], exc_type.__name__) for argv, exc_type, _ in EXIT_2_TABLE]

    @pytest.mark.parametrize("argv, exc_type, prefix", EXIT_2_TABLE, ids=[exit_row_id(row[0]) for row in EXIT_2_TABLE])
    def test_exit_code_table(self, argv, exc_type, prefix, monkeypatch):
        # every row is refused before any witness, so none may build one,
        # and the refused campaign keeps none of the descents it took
        monkeypatch.setattr(Curve, "unit_witnesses", _no_witness)
        args = cli.build_parser().parse_args(argv)
        UNIT_CURVE.forget()
        with pytest.raises(exc_type) as raised:
            args.run(args)
        assert type(raised.value) is exc_type
        assert UNIT_CURVE._descents == {}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(argv)
        assert code == 2 and out == ""
        assert err.getvalue().startswith(prefix)

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_undecided_cone_pairs_exit_one(self):
        code, out = run(["verify", "cone", "--samples", "200", "--depth", "1"])
        assert code == 1
        report = json.loads(out)
        assert report["certified"] is False and report["parameters"]["min_gap_lo"] == "-127/200"
        assert report["failures"] and {f["kind"] for f in report["failures"]} == {"cone-undecided"}


def subcommands(parser):
    """The parsers of parser's subcommands, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def campaign_parsers():
    return subcommands(subcommands(cli.build_parser())["verify"])


def options(parser):
    """parser's flags, one option string each, without -h."""
    return {a.option_strings[-1] for a in parser._actions if a.option_strings and a.dest != "help"}


class TestCampaignFlags:
    """Each campaign accepts the flags it reads, with --out and --timing, and no other."""

    FLAGS = {
        "holder": {"--level", "--refine"},
        "claim2": {"--grid"},
        "claim3": {"--samples", "--seed"},
        "cone": {"--samples", "--depth", "--seed"},
        "oscillation": {"--t-hat", "--scales"},
        "blowup-divergence": {"--t-hat", "--target1", "--target2", "--radius", "--tol", "--offsets", "--depth"},
    }

    def test_accepted_pairs(self):
        accepted = {name: options(p) for name, p in campaign_parsers().items()}
        assert accepted == {name: flags | {"--out", "--timing"} for name, flags in self.FLAGS.items()}
        assert sum(map(len, accepted.values())) == 29

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "holder", "--level", "2", "--samples", "5"],
            ["verify", "claim2", "--grid", "11", "--depth", "3"],
            ["verify", "oscillation", "--scales", "2", "--tol", "0"],
            ["verify", "cone", "--samples", "20", "--scales", "3"],
        ],
        ids=" ".join,
    )
    def test_flag_of_another_campaign_refused(self, argv):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            run(argv)
        # the campaign's own parser reports it, with the flags it does accept
        prog = "lipgraph " + " ".join(argv[:2])
        assert exc.value.code == 2
        assert err.getvalue().startswith(f"usage: {prog} [-h] [--out OUT] [--timing] ")
        assert err.getvalue().endswith(f"\n{prog}: error: unrecognized arguments: " + " ".join(argv[-2:]) + "\n")

    @pytest.mark.parametrize(
        "argv, prog",
        [
            (["eval", "1/3", "--levels", "2"], "lipgraph eval"),
            (["plot-iterates", "--out", "x.svg", "--depth", "2"], "lipgraph plot-iterates"),
            (["plot-ifs", "--out", "x.svg", "--levels", "2"], "lipgraph plot-ifs"),
        ],
    )
    def test_unknown_flag_reported_by_its_subcommand(self, argv, prog):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            run(argv)
        assert exc.value.code == 2
        assert err.getvalue().startswith(f"usage: {prog} [-h] ")
        assert err.getvalue().endswith(f"\n{prog}: error: unrecognized arguments: " + " ".join(argv[-2:]) + "\n")

    def test_out_and_timing_follow_the_campaign(self):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(["verify", "--out", "x", "holder"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "campaign, dest, function, parameter",
        [
            ("holder", "refine", verify.verify_holder, "refine"),
            ("claim3", "seed", verify.window_gap_samples, "seed"),
            ("cone", "depth", verify.verify_cone, "depth"),
            ("cone", "seed", verify.verify_cone, "seed"),
            ("blowup-divergence", "tol", verify.blowup_divergence, "tol"),
        ],
    )
    def test_default_is_the_function_default(self, campaign, dest, function, parameter):
        assert campaign_parsers()[campaign].get_default(dest) == inspect.signature(function).parameters[parameter].default

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestNegativeRationals:
    """A negative rational after a space is a value, as with "=" or after "--"."""

    @pytest.mark.parametrize(
        "spaced, reference",
        [
            (["eval", "-1/3"], ["eval", "--", "-1/3"]),
            (["verify", "oscillation", "--t-hat", "-1/3"], ["verify", "oscillation", "--t-hat=-1/3"]),
            (["verify", "blowup-divergence", "--target1", "-1/2"], ["verify", "blowup-divergence", "--target1=-1/2"]),
            (["verify", "blowup-divergence", "--offsets", "-1/2,1/2"], ["verify", "blowup-divergence", "--offsets=-1/2,1/2"]),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_same_output_as_the_joined_spelling(self, spaced, reference):
        results = []
        for argv in (spaced, reference):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(argv)
            results.append((code, out, err.getvalue()))
        assert results[0] == results[1]
        assert "usage:" not in results[0][2]


class TestDecimalRendering:
    def test_exact_half_up(self):
        assert cli._dec(F(1, 3), 6) == "0.333333"
        assert cli._dec(F(2, 3), 6) == "0.666667"
        assert cli._dec(F(1, 2), 0) == "1"
        assert cli._dec(F(-1, 3), 3) == "-0.333"
        assert cli._dec(F(5, 4), 1) == "1.3"


# A rational whose numerator or denominator has more digits than CPython
# converts to a string (4 300 by default) is refused once the command's
# output meets it.  Literals such as 1e999999999 stay untested: Fraction
# builds 10**exp before anything can check it.
LARGE_RATIONALS = [
    (["eval", "1e5000"], "cannot print result: "),
    (["verify", "oscillation", "--t-hat", "1e5000", "--scales", "1"], "cannot run campaign: "),
    (["verify", "oscillation", "--t-hat", "1e-5000", "--scales", "1"], "cannot run campaign: "),
    (["verify", "blowup-divergence", "--t-hat", "1e5000"], "cannot run campaign: "),
    (["verify", "blowup-divergence", "--radius", "1e5000"], "cannot run campaign: "),
]


class TestLargeRationals:
    @pytest.mark.parametrize("argv, prefix", LARGE_RATIONALS, ids=[" ".join(argv) for argv, _ in LARGE_RATIONALS])
    def test_refused_in_one_line_without_a_traceback(self, argv, prefix):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "lipgraph.cli", *argv], capture_output=True, text=True, env=env, timeout=300)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(prefix + "Exceeds the limit (4300 digits) for integer string conversion")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["oscillation", "--t-hat", "1e-5000", "--scales", "900"],
            ["oscillation", "--t-hat", "1e5000", "--scales", "900"],
            ["blowup-divergence", "--t-hat", "1e5000"],
            ["blowup-divergence", "--offsets", "1,1e5000"],
        ],
    )
    def test_refused_before_the_campaign_runs(self, argv, monkeypatch, capsys):
        def entered(*args, **kwargs):
            raise AssertionError("the campaign ran before the refusal")

        for name in ("oscillation_scan", "blowup_divergence"):
            monkeypatch.setattr(cli, name, entered)
            monkeypatch.setattr(verify, name, entered)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = cli.main(["verify", *argv])
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("cannot run campaign: Exceeds the limit (4300 digits) for integer string conversion")
        assert err.count("\n") == 1


# ----------------------------------------------------------------------
# Any argument vector ends in a documented exit code, never a traceback.
# Sizes, levels, scales and depths come from small ranges (plus values
# just past each cap), so no example starts a large campaign.

_RATIONALS = st.sampled_from(
    ["0", "1", "-1", "1/7", "7/2", "4/9", "-3/5", "1/3", "-1/3", "-7/2", "-2.5", "2.5", "1/0", "-1/0", "x", "", "1e5000", "-1e-5000"]
)
# Where --out points; the test replaces the placeholders with paths.
_OUT = st.sampled_from([[], ["--out", "@file"], ["--out", "@dir"], ["--out", "@missing/out"], ["--out"]])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _ints(lo, hi, *extra):
    return st.one_of(st.integers(lo, hi), st.sampled_from(extra)) if extra else st.integers(lo, hi)


_DEPTHS = _ints(-2, 40, MAX_DEPTH + 1, "x")
# Values for each flag of each campaign; TestArgumentVectors checks these are all its flags.
_VERIFY_OPTIONS = {
    "holder": {"--level": _ints(-2, 7, 13, "x"), "--refine": _ints(-2, 2)},
    # a grid past the cap is refused before any witness (the test stubs the witness out)
    "claim2": {"--grid": _ints(-2, 12, MAX_PAIRS + 1)},
    # a sample count past the cap is refused before any sample is drawn
    "claim3": {"--samples": _ints(-2, 4, MAX_PAIRS + 1), "--seed": _ints(-3, 3)},
    # as for claim3, a pair count past the cap is refused before any pair is drawn
    "cone": {"--samples": _ints(-2, 30, MAX_PAIRS + 1), "--depth": _DEPTHS, "--seed": _ints(-3, 3)},
    # scale counts past the cap (928 and up) are refused before any work
    "oscillation": {"--t-hat": _RATIONALS, "--scales": _ints(-2, 6, 928, 10**10)},
    "blowup-divergence": {
        "--depth": _DEPTHS,
        "--t-hat": st.sampled_from(["0", "1/7", "-3", "7/2"]),
        "--target1": _RATIONALS,
        "--target2": _RATIONALS,
        "--radius": _RATIONALS,
        "--tol": st.sampled_from(["1/100", "1/10000", "1/100000000", "0", "-1/10", "x"]),
        "--offsets": st.sampled_from(["", "0", "-1,1", "-1/2,1/2", "1/4,1/2", "x,1"]),
    },
}
# cone defaults to 10**4 samples, so a size is always given
_ALWAYS_GIVEN = {("cone", "--samples")}
# every campaign flag, with the values that one campaign reading it draws
_ALL_FLAGS = {flag: values for options in _VERIFY_OPTIONS.values() for flag, values in options.items()}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["eval", "plot-iterates", "plot-ifs", "verify", "nonsense"]))
    if cmd == "eval":
        return [cmd, draw(_RATIONALS), *draw(_opt("--depth", _ints(-3, 80, MAX_DEPTH + 1, "x")))]
    if cmd == "plot-iterates":
        levels = ",".join(map(str, draw(st.lists(_ints(-2, 5, 13, "x"), max_size=3))))
        return [cmd, "--levels", levels, *draw(_opt("--format", st.sampled_from(["svg", "csv", "png"]))), *draw(_OUT)]
    if cmd == "plot-ifs":
        return [cmd, *draw(_opt("--depth", _ints(-2, 4, 9))), *draw(_OUT)]
    if cmd == "nonsense":
        return [cmd]
    campaign = draw(st.sampled_from(sorted(_VERIFY_OPTIONS) + ["nonsense"]))
    argv = [cmd, campaign]
    own = _VERIFY_OPTIONS.get(campaign, {})
    for flag, values in own.items():
        if (campaign, flag) in _ALWAYS_GIVEN:
            argv += [flag, str(draw(values))]
        else:
            argv += draw(_opt(flag, values))
    argv += draw(st.sampled_from([[], ["--timing"]])) + draw(_OUT)
    if own and draw(st.booleans()):
        # one flag that only other campaigns read, somewhere after the campaign name
        flag = draw(st.sampled_from(sorted(_ALL_FLAGS.keys() - own.keys())))
        at = draw(st.integers(2, len(argv)))
        argv[at:at] = [flag, str(draw(_ALL_FLAGS[flag]))]
    return argv


def _no_witness(*args):
    raise AssertionError("a witness was built for a refused campaign")


def _foreign_flags(argv):
    """The flags in a verify argument vector that its campaign does not accept."""
    own = _VERIFY_OPTIONS.get(argv[1], {}) if argv[0] == "verify" else {}
    if not own:
        return set()
    return {a for a in argv[2:] if a.startswith("--")} - own.keys() - {"--out", "--timing"}


class TestArgumentVectors:
    def test_every_campaign_flag_is_drawn(self):
        drawn = {name: set(flags) | {"--out", "--timing"} for name, flags in _VERIFY_OPTIONS.items()}
        assert drawn == {name: options(p) for name, p in campaign_parsers().items()}

    @settings(max_examples=80, deadline=None)
    @given(argv=_argv())
    def test_documented_exit_code(self, argv):
        # a claim2 grid past the cap must be refused before any witness: never run it
        over_cap = argv[:2] == ["verify", "claim2"] and str(MAX_PAIRS + 1) in argv
        stub = mock.patch.object(Curve, "unit_witnesses", _no_witness) if over_cap else contextlib.nullcontext()
        with tempfile.TemporaryDirectory() as tmp, stub:
            paths = {"@file": os.path.join(tmp, "out"), "@dir": tmp, "@missing/out": os.path.join(tmp, "no", "out")}
            argv = [paths.get(a, a) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2, 3)
        if _foreign_flags(argv):
            # refused by the campaign's own parser, before any work
            assert code == 2
            assert f"lipgraph verify {argv[1]}" in err.getvalue()
