"""Command-line interface: evaluate, plot, and run verification campaigns.

Exit codes: 0 success (and campaign certified), 1 campaign ran but left
failures, 2 argument or cap violations, 3 output path not writable.
Output files are byte-stable for fixed arguments; report timing is
excluded from files unless --timing is passed (it still prints to the
console).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .selfsim import DepthTooLarge, MAX_DEPTH, MAX_LEVEL, OutOfDomain, UNIT_CURVE
from .selfsim import reduce_domain
from .carnot import w_point
from .verify import (
    REFERENCE_SEED,
    Report,
    blowup_divergence,
    oscillation_scan,
    verify_cone,
    verify_holder,
    verify_unit_gap,
    verify_window_gap,
    window_gap_samples,
)

CAMPAIGNS = ("holder", "claim2", "claim3", "cone", "oscillation", "blowup-divergence")

_PALETTE = ("#1b6ca8", "#c1533e", "#3d8a47", "#7a4fa3", "#b08a2e", "#46777a")
_MAX_IFS_DEPTH = 8


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")


def _dec(q: Fraction, places: int = 6) -> str:
    """Deterministic decimal rendering with exact half-up rounding."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10**places
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(n, 10**places)
    s = f"{whole}.{str(frac).zfill(places)}".rstrip("0").rstrip(".")
    if not s or s == "0":
        return "0"
    return sign + s


def _write_text(path: str, text: str) -> bool:
    """Write text to path; False, after saying why on stderr, if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# ----------------------------------------------------------------------
# figures


# Background and frame are paths, not rects, so rect elements count the
# IFS cells exactly.
_SVG_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.06 -0.06 1.12 1.12" '
    'width="720" height="720">\n'
    '<path d="M-0.06 -0.06H1.06V1.06H-0.06Z" fill="#ffffff" />\n'
    '<path d="M0 0H1V1H0Z" fill="none" stroke="#888888" stroke-width="0.002" />\n'
)


def _polyline(breakpoints, color: str, width: str) -> str:
    """SVG polyline through an iterate's breakpoints, with v = 1 at the top."""
    pts = " ".join(f"{_dec(t)},{_dec(1 - v)}" for t, v in breakpoints)
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}" />\n'


def svg_iterates(levels: Sequence[int]) -> str:
    """SVG with one polyline per requested iterate level."""
    parts = [_SVG_HEADER]
    for idx, n in enumerate(levels):
        parts.append(_polyline(UNIT_CURVE.iterate(n).breakpoints, _PALETTE[idx % len(_PALETTE)], "0.004"))
    parts.append("</svg>\n")
    return "".join(parts)


def csv_iterates(levels: Sequence[int]) -> str:
    rows = ["level,t,u"]
    for n in levels:
        pl = UNIT_CURVE.iterate(n)
        for t, v in pl.breakpoints:
            rows.append(f"{n},{t},{v}")
    return "\n".join(rows) + "\n"


def svg_ifs(depth: int) -> str:
    """SVG of the depth-level cell rectangles with the iterate overlaid.

    Each cell is the image of the unit square under one branch word, and
    the iterate at the same level runs from one corner of each cell to
    the opposite one; so two consecutive breakpoints span a cell.
    """
    bps = UNIT_CURVE.iterate(depth).breakpoints
    parts = [_SVG_HEADER]
    for (t0, v0), (t1, v1) in zip(bps, bps[1:]):
        parts.append(
            f'<rect x="{_dec(t0)}" y="{_dec(1 - max(v0, v1))}" width="{_dec(t1 - t0)}" '
            f'height="{_dec(abs(v1 - v0))}" fill="#a8c7e0" fill-opacity="0.35" '
            f'stroke="#35506b" stroke-width="0.0015" />\n'
        )
    parts.append(_polyline(bps, "#c1533e", "0.003"))
    parts.append("</svg>\n")
    return "".join(parts)


# ----------------------------------------------------------------------
# subcommands


def _cmd_eval(args: argparse.Namespace) -> int:
    t = args.t
    enc = UNIT_CURVE.eval_limit(reduce_domain(t), args.depth)
    if enc.is_point():
        print(f"u({t}) = {enc.lo}  (exact)")
    else:
        print(f"u({t}) in [{enc.lo}, {enc.hi}]")
        print(
            f"        ~ [{float(enc.lo):.15f}, {float(enc.hi):.15f}]"
            f"  width {float(enc.width()):.3e}"
        )
    return 0


def _cmd_plot_iterates(args: argparse.Namespace) -> int:
    for n in args.levels:
        if n < 0 or n > MAX_LEVEL:
            print(f"level {n} outside [0, {MAX_LEVEL}]", file=sys.stderr)
            return 2
    text = (
        svg_iterates(args.levels) if args.format == "svg" else csv_iterates(args.levels)
    )
    if not _write_text(args.out, text):
        return 3
    print(f"wrote {args.out} ({len(text)} bytes, levels {args.levels})")
    return 0


def _cmd_plot_ifs(args: argparse.Namespace) -> int:
    if args.depth < 1 or args.depth > _MAX_IFS_DEPTH:
        print(f"depth {args.depth} outside [1, {_MAX_IFS_DEPTH}]", file=sys.stderr)
        return 2
    text = svg_ifs(args.depth)
    if not _write_text(args.out, text):
        return 3
    print(f"wrote {args.out} ({len(text)} bytes, depth {args.depth})")
    return 0


def _run_campaign(args: argparse.Namespace) -> Report:
    name = args.campaign
    if name == "holder":
        return verify_holder(args.level, args.refine)
    if name == "claim2":
        return verify_unit_gap(args.grid)
    if name == "claim3":
        count = args.samples if args.samples is not None else 1000
        return verify_window_gap(window_gap_samples(count, args.seed))
    if name == "cone":
        count = args.samples if args.samples is not None else 10000
        depth = args.depth if args.depth is not None else 30
        return verify_cone(count, depth, args.seed)
    if name == "oscillation":
        return oscillation_scan(args.t_hat, args.scales)
    if name == "blowup-divergence":
        depth = args.depth if args.depth is not None else 40
        grid = [w_point(0, h) for h in args.offsets]
        return blowup_divergence(
            args.t_hat,
            args.target1,
            args.target2,
            args.radius,
            grid,
            depth,
            tol=args.tol,
        )
    raise ValueError(f"unknown campaign {name!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    # Every refusal a campaign raises (caps, domain, brackets, invalid
    # curves) is a ValueError subclass.
    try:
        report = _run_campaign(args)
    except (ValueError, OverflowError) as exc:
        print(f"cannot run campaign: {exc}", file=sys.stderr)
        return 2
    text = report.to_json(include_timing=args.timing)
    if args.out:
        if not _write_text(args.out, text):
            return 3
        print(
            f"campaign={report.campaign} checked={report.checked} "
            f"failures={len(report.failures)} certified={report.certified} "
            f"wall={report.wall_time_s:.3f}s -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0 if report.certified else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any token starting with "-" and a digit as a value.

    argparse takes only integers and decimals such as -1 or -.5 for
    negative numbers, so "-1/3" or "-1/2,1/2" after a space would be read
    as an unknown option.  No option here starts with a digit.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lipgraph",
        description=(
            "Exact-arithmetic construction and certification of a rough "
            "intrinsic graph over a Heisenberg-type group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="certified enclosure of the profile value")
    p_eval.add_argument("t", type=_rational, help="abscissa, any rational (folded into [0,1])")
    p_eval.add_argument(
        "--depth", type=int, default=60, help=f"descent depth (default 60, at most {MAX_DEPTH})"
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_it = sub.add_parser("plot-iterates", help="polyline figure or table of iterates")
    p_it.add_argument("--levels", type=_int_list, default=[0, 1, 2, 3])
    p_it.add_argument("--out", required=True)
    p_it.add_argument("--format", choices=("svg", "csv"), default="svg")
    p_it.set_defaults(func=_cmd_plot_iterates)

    p_ifs = sub.add_parser("plot-ifs", help="cell structure figure at a depth")
    p_ifs.add_argument("--depth", type=int, default=5)
    p_ifs.add_argument("--out", required=True)
    p_ifs.set_defaults(func=_cmd_plot_ifs)

    p_ver = sub.add_parser("verify", help="run a certification campaign")
    p_ver.add_argument("campaign", choices=CAMPAIGNS)
    p_ver.add_argument("--level", type=int, default=6, help="holder: iterate level")
    p_ver.add_argument("--refine", type=int, default=0, help="holder: extra points per segment")
    p_ver.add_argument("--grid", type=int, default=10001, help="claim2: base point count")
    p_ver.add_argument("--samples", type=int, default=None, help="claim3/cone: sample count")
    p_ver.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p_ver.add_argument(
        "--depth", type=int, default=None, help=f"cone/blowup: descent depth (1 to {MAX_DEPTH})"
    )
    p_ver.add_argument("--t-hat", dest="t_hat", type=_rational, default=Fraction(0))
    p_ver.add_argument("--scales", type=int, default=8, help="oscillation: scale count")
    p_ver.add_argument("--target1", type=_rational, default=Fraction(1))
    p_ver.add_argument(
        "--target2", type=_rational, default=Fraction(4472135954999579, 10**16)
    )
    p_ver.add_argument("--radius", type=_rational, default=Fraction(1))
    p_ver.add_argument("--tol", type=_rational, default=Fraction(1, 10**4))
    p_ver.add_argument(
        "--offsets",
        type=_rational_list,
        default=[
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(-1, 4),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1),
        ],
        help="blowup: comma-separated grid offsets along the t direction",
    )
    p_ver.add_argument("--out", default=None, help="write report JSON here")
    p_ver.add_argument(
        "--timing",
        action="store_true",
        help="include wall time in the JSON file (breaks byte stability)",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutOfDomain as exc:
        print(f"argument out of domain: {exc}", file=sys.stderr)
        return 2
    except DepthTooLarge as exc:
        print(f"argument over cap: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
