"""Command-line interface: outputs, determinism, and exit codes."""

import contextlib
import io
import json
import re
from fractions import Fraction as F

import pytest

from lipgraph import cli
from lipgraph.verify import Report


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

    def test_parameter_cap_violations(self):
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(["verify", "holder", "--level", "13"])[0] == 2
            assert run(["verify", "claim2", "--grid", "0"])[0] == 2
            assert run(["verify", "holder", "--level", "7", "--refine", "100"])[0] == 2

    def test_deep_scales_refused_without_traceback(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run(["verify", "oscillation", "--t-hat", "1/7", "--scales", "340"])
        assert code == 2
        assert err.getvalue().startswith("cannot run campaign")
        assert "Traceback" not in err.getvalue()

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestDecimalRendering:
    def test_exact_half_up(self):
        assert cli._dec(F(1, 3), 6) == "0.333333"
        assert cli._dec(F(2, 3), 6) == "0.666667"
        assert cli._dec(F(1, 2), 0) == "1"
        assert cli._dec(F(-1, 3), 3) == "-0.333"
        assert cli._dec(F(5, 4), 1) == "1.3"
