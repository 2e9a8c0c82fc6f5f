"""Byte-identical CLI output: sha256 of every report, figure and table.

Each case runs one command at fixed arguments and hashes what a user
gets: the report JSON on stdout for `verify`, the written file for the
plots, and the printed enclosure for `eval`.  Each `verify` case must
also leave the standard curve's descent store empty.  A refactor that
keeps behaviour must keep every hash; a deliberate output change must update
the hash here and say why.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from lipgraph import cli
from lipgraph.selfsim import UNIT_CURVE
from lipgraph.verify import Report
from test_verify import ref_to_json

# (argv, where the output goes, sha256 of the output bytes)
CASES = [
    (["verify", "holder", "--level", "4"], "stdout",
     "ef2a512bf62f91cadade5d195ead9a0f9792eea22cbbb8cd49e84467213a2d1f"),
    (["verify", "claim2", "--grid", "41"], "stdout",
     "c18ec75d8ae10c5528cda0b2469d9ca23c4f7dd96fabcec16da21117fc494936"),
    (["verify", "claim3", "--samples", "20"], "stdout",
     "5db080f157aa7630e5c5ded51579913191d1d68e1389de5d4e11426e900913b7"),
    (["verify", "cone", "--samples", "200", "--depth", "30"], "stdout",
     "3ba2ae22a2d4e05d343c4a30f8dcbcc21addc2c3913bf0da8dd74553492cc484"),
    (["verify", "cone", "--samples", "200", "--depth", "30", "--seed", "77"], "stdout",
     "582e4ad09ab36517144d044c74698a1ff487f177cdaab1d2d6efc9fa7caecfcf"),
    (["verify", "cone", "--samples", "200", "--depth", "60"], "stdout",
     "19d79b76f84732d2a1fac5afcef19903727882bc2a07278a1237f98e04aa1625"),
    (["verify", "oscillation", "--t-hat", "7/2", "--scales", "12"], "stdout",
     "8a74961515cef38542f3d2ee0ef6972c406149a4a48936509a0e498de92c126f"),
    (["verify", "oscillation", "--t-hat", "1/7", "--scales", "340"], "stdout",
     "00c0bbf2a8e8f2f6b742132a165931d31a5d4e0b6b17634744ae81c89fdb1d89"),
    (["verify", "oscillation", "--t-hat", "123457/1000000", "--scales", "200"], "stdout",
     "efff60234c830b6443071049403a39a8af2d9c0bf93aca9e95c6ea88c2aa7ef1"),
    (["verify", "blowup-divergence"], "stdout",
     "579739364fe51e10ae97602544a869e56fb127384b2f396e14d7a68890cb98ff"),
    (["verify", "blowup-divergence", "--depth", "30"], "stdout",
     "9a1332f1458f9ee9ee5c5849ad9b60a11486e04655c110fd90d9e6667c6cb107"),
    (["verify", "blowup-divergence", "--target1", "9/10", "--target2", "1/2", "--offsets=-1,-1/3,1/5,1,3/2"], "stdout",
     "8bce49c89f7115fdf0a85e705b8277349cfeb409a0d62abeec3692879e81073b"),
    (["verify", "blowup-divergence", "--t-hat", "2", "--radius", "2", "--offsets=-1,-1/3,1/5,1"], "stdout",
     "47d9328ffa5e20bf9fa8c2cf3093f3e309c8f919032fe6f2640e49d915f51ab6"),
    (["plot-iterates", "--levels", "0,1,2,3,4"], "file",
     "b470ecc8e82b74575012ee1be92660510b30e4a80af5d0bc836b5288e2defda1"),
    (["plot-iterates", "--levels", "0,1,2,3,4", "--format", "csv"], "file",
     "ad38725e48ade9fe522a7b135665e40ee1741b0a2e271ec987147d733239d85e"),
    (["plot-ifs", "--depth", "3"], "file",
     "7610ef16ed37667447202f9c5058c6455b048e0997fdbe3459813778cc9de393"),
    (["plot-ifs", "--depth", "5"], "file",
     "ba3a7f513229c3c201359bfa48a61affc520bbb2cab0a682bca4cce557a379af"),
    (["plot-ifs", "--depth", "8"], "file",
     "0d2ccfeae511c453f7c7cfe423557eeff135b4d842493bee15559fb7b7dcbca7"),
    (["eval", "1/7", "--depth", "40"], "stdout",
     "a0c6e9593a313f84590fe943b0d50e33fea972e6dbf35d0ce5546066493b1277"),
]


@pytest.mark.parametrize("argv, sink, digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_output_bytes(argv, sink, digest, tmp_path):
    path = tmp_path / "out"
    if sink == "file":
        argv = argv + ["--out", str(path)]
    campaign = argv[0] == "verify"
    if campaign:
        UNIT_CURVE.eval_limit(Fraction(1, 7), 16)  # a descent the campaign must not keep
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    data = path.read_bytes() if sink == "file" else buf.getvalue().encode()
    assert hashlib.sha256(data).hexdigest() == digest
    if campaign:
        assert UNIT_CURVE._descents == {}


VERIFY_CASES = [c for c in CASES if c[0][0] == "verify"]


@pytest.mark.parametrize("argv", [c[0] for c in VERIFY_CASES], ids=[" ".join(c[0]) for c in VERIFY_CASES])
def test_report_json_is_json_dumps(argv, monkeypatch):
    """Report.to_json writes what json.dumps writes of the report made JSON by ref_jsonable, for every verify case, with and without timing."""
    reports = []
    to_json = Report.to_json
    monkeypatch.setattr(Report, "to_json", lambda r, include_timing=True: reports.append(r) or to_json(r, include_timing))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    (r,) = reports
    for timing in (False, True):
        assert r.to_json(timing) == ref_to_json(r, timing)
