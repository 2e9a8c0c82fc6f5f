"""Command-line interface: outputs, determinism, and exit codes."""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph import cli, verify
from lipgraph.carnot import NotBracketed, TolTooTight
from lipgraph.selfsim import MAX_DEPTH, Curve, DepthTooLarge, OutOfDomain
from lipgraph.verify import EmptyAfterRestriction, Report


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

    def test_unwritable_path(self):
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = run(["plot-iterates", "--levels", "1", "--out", "/nonexistent-dir/x.svg"])
        assert code == 3


# The exit-code table: each exception class a campaign raises on an argument
# vector the parser accepts, with one such vector.  Every class is a
# ValueError, which `verify` reports on stderr and maps to exit 2.
EXIT_2_TABLE = [
    (["verify", "holder", "--level", "-1"], OutOfDomain, "cannot run campaign: level must be nonnegative"),
    (["verify", "holder", "--level", "13"], DepthTooLarge, "cannot run campaign: level 13 exceeds cap 12"),
    (["verify", "holder", "--refine", "-1"], ValueError, "cannot run campaign: refine must be nonnegative"),
    (["verify", "claim2", "--grid", "0"], ValueError, "cannot run campaign: grid_size must be at least 1"),
    (["verify", "claim3", "--samples", "0"], ValueError, "cannot run campaign: samples must be at least 1"),
    (["verify", "cone", "--samples", "0"], ValueError, "cannot run campaign: sample_count must be at least 1"),
    (["verify", "cone", "--depth", "4097"], DepthTooLarge, "cannot run campaign: depth 4097 exceeds cap"),
    (["verify", "oscillation", "--scales", "0"], ValueError, "cannot run campaign: scales must be at least 1"),
    (["verify", "oscillation", "--scales", "928"], DepthTooLarge, "cannot run campaign: 928 scales exceed cap"),
    (["verify", "blowup-divergence", "--tol", "0"], ValueError, "cannot run campaign: tol must be positive"),
    (["verify", "blowup-divergence", "--depth", "4097"], DepthTooLarge, "cannot run campaign: depth 4097 exceeds cap"),
    (["verify", "blowup-divergence", "--target1", "2"], NotBracketed, "cannot run campaign: target 2 not straddled"),
    (["verify", "blowup-divergence", "--tol", f"1/{10**60}"], TolTooTight, "cannot run campaign: cannot reach quotient width"),
    (["verify", "blowup-divergence", "--radius", "-1"], EmptyAfterRestriction,
     "cannot run campaign: radius -1 keeps 0 of 6"),
]


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

    def test_uncertified_campaign_exits_one(self, monkeypatch):
        stub = Report(
            campaign="holder",
            parameters={},
            checked=1,
            failures=[{"kind": "quotient-above-one"}],
            certified=False,
            wall_time_s=0.0,
        )
        monkeypatch.setattr(cli, "_run_campaign", lambda args: stub)
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

    @pytest.mark.parametrize("argv, exc_type, prefix", EXIT_2_TABLE, ids=[" ".join(row[0][1:]) for row in EXIT_2_TABLE])
    def test_exit_code_table(self, argv, exc_type, prefix):
        with pytest.raises(exc_type) as raised:
            cli._run_campaign(cli.build_parser().parse_args(argv))
        assert type(raised.value) is exc_type
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


# ----------------------------------------------------------------------
# Any argument vector ends in a documented exit code, never a traceback.
# Sizes, levels, scales and depths come from small ranges (plus values
# just past each cap), so no example starts a large campaign.

_RATIONALS = st.sampled_from(
    ["0", "1", "-1", "1/7", "7/2", "4/9", "-3/5", "1/3", "-1/3", "-7/2", "-2.5", "2.5", "1/0", "-1/0", "x", ""]
)
# Where --out points; the test replaces the placeholders with paths.
_OUT = st.sampled_from([[], ["--out", "@file"], ["--out", "@dir"], ["--out", "@missing/out"], ["--out"]])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _ints(lo, hi, *extra):
    return st.one_of(st.integers(lo, hi), st.sampled_from(extra)) if extra else st.integers(lo, hi)


_DEPTHS = _ints(-2, 40, MAX_DEPTH + 1, "x")
_VERIFY_OPTIONS = {
    "holder": [_opt("--level", _ints(-2, 7, 13, "x")), _opt("--refine", _ints(-2, 2))],
    "claim2": [_opt("--grid", _ints(-2, 12))],
    "claim3": [_opt("--samples", _ints(-2, 4)), _opt("--seed", _ints(-3, 3))],
    # cone defaults to 10**4 samples, so a size is always given
    "cone": [_ints(-2, 30).map(lambda v: ["--samples", str(v)]), _opt("--depth", _DEPTHS), _opt("--seed", _ints(-3, 3))],
    # scale counts past the cap (928 and up) are refused before any work
    "oscillation": [_opt("--t-hat", _RATIONALS), _opt("--scales", _ints(-2, 6, 928, 10**10))],
    "blowup-divergence": [
        _opt("--depth", _DEPTHS),
        _opt("--t-hat", st.sampled_from(["0", "1/7", "-3", "7/2"])),
        _opt("--target1", _RATIONALS),
        _opt("--target2", _RATIONALS),
        _opt("--radius", _RATIONALS),
        _opt("--tol", st.sampled_from(["1/100", "1/10000", "1/100000000", "0", "-1/10", "x"])),
        _opt("--offsets", st.sampled_from(["", "0", "-1,1", "-1/2,1/2", "1/4,1/2", "x,1"])),
    ],
    "nonsense": [],
}


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
    campaign = draw(st.sampled_from(sorted(_VERIFY_OPTIONS)))
    argv = [cmd, campaign]
    for option in _VERIFY_OPTIONS[campaign]:
        argv += draw(option)
    return argv + draw(st.sampled_from([[], ["--timing"]])) + draw(_OUT)


class TestArgumentVectors:
    @settings(max_examples=80, deadline=None)
    @given(argv=_argv())
    def test_documented_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"@file": os.path.join(tmp, "out"), "@dir": tmp, "@missing/out": os.path.join(tmp, "no", "out")}
            argv = [paths.get(a, a) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2, 3)
