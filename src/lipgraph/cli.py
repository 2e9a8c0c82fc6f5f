"""Command-line interface: evaluate, plot, and run verification campaigns.

Exit codes: 0 success (and campaign certified), 1 campaign ran but left
failures, 2 argument or cap violations, 3 output path not writable.
Output files are byte-stable for fixed arguments; report timing is
excluded from files unless --timing is passed (it still prints to the
console).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .selfsim import DepthTooLarge, MAX_DEPTH, OutOfDomain, UNIT_CURVE
from .selfsim import check_level, reduce_domain
from .carnot import w_point
from .verify import (
    REFERENCE_SEED,
    blowup_divergence,
    oscillation_scan,
    verify_cone,
    verify_holder,
    verify_unit_gap,
    verify_window_gap,
    window_gap_samples,
)

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
    # The enclosure's ends sit over 3**depth, within the digits str() writes; t may not.
    try:
        head = f"u({t})"
    except ValueError as exc:
        print(f"cannot print result: {exc}", file=sys.stderr)
        return 2
    if enc.is_point():
        print(f"{head} = {enc.lo}  (exact)")
    else:
        print(f"{head} in [{enc.lo}, {enc.hi}]")
        print(
            f"        ~ [{float(enc.lo):.15f}, {float(enc.hi):.15f}]"
            f"  width {float(enc.width()):.3e}"
        )
    return 0


def _cmd_plot_iterates(args: argparse.Namespace) -> int:
    # every level is refused before the first iterate is built, which at level 12 takes seconds
    for n in args.levels:
        check_level(n)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    # Every refusal a campaign raises (caps, domain, brackets, invalid
    # curves) is a ValueError subclass, and so is a report rational with
    # more digits than int-to-str conversion allows.  The report writes
    # every rational argument, so each is written once here, before the
    # campaign runs.
    try:
        for v in vars(args).values():
            for x in v if isinstance(v, list) else [v]:
                if isinstance(x, Fraction):
                    str(x)
        report = args.run(args)
        text = report.to_json(include_timing=args.timing)
    except (ValueError, OverflowError) as exc:
        print(f"cannot run campaign: {exc}", file=sys.stderr)
        return 2
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (main calls it on every run)."""
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
    p_eval.set_defaults(func=_cmd_eval, parser=p_eval)

    p_it = sub.add_parser("plot-iterates", help="polyline figure or table of iterates")
    p_it.add_argument("--levels", type=_int_list, default=[0, 1, 2, 3])
    p_it.add_argument("--out", required=True)
    p_it.add_argument("--format", choices=("svg", "csv"), default="svg")
    p_it.set_defaults(func=_cmd_plot_iterates, parser=p_it)

    p_ifs = sub.add_parser("plot-ifs", help="cell structure figure at a depth")
    p_ifs.add_argument("--depth", type=int, default=5)
    p_ifs.add_argument("--out", required=True)
    p_ifs.set_defaults(func=_cmd_plot_ifs, parser=p_ifs)

    p_ver = sub.add_parser("verify", help="run a certification campaign")
    p_ver.set_defaults(func=_cmd_verify)
    campaigns = p_ver.add_subparsers(dest="campaign", required=True)

    def campaign(name: str, run) -> argparse.ArgumentParser:
        # run looks its verify function up when called, so a patched module
        # global is what runs, whenever the cached parser was built.
        p = campaigns.add_parser(name)
        p.add_argument("--out", help="write report JSON here")
        p.add_argument("--timing", action="store_true", help="include wall time in the JSON file (breaks byte stability)")
        p.set_defaults(run=run, parser=p)
        return p

    depth_help = f"descent depth (1 to {MAX_DEPTH})"
    p = campaign("holder", lambda a: verify_holder(a.level, a.refine))
    p.add_argument("--level", type=int, default=6, help="iterate level")
    p.add_argument("--refine", type=int, default=0, help="extra points per segment")

    p = campaign("claim2", lambda a: verify_unit_gap(a.grid))
    p.add_argument("--grid", type=int, default=10001, help="base point count")

    p = campaign("claim3", lambda a: verify_window_gap(window_gap_samples(a.samples, a.seed)))
    p.add_argument("--samples", type=int, default=1000, help="sample count")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)

    p = campaign("cone", lambda a: verify_cone(a.samples, a.depth, a.seed))
    p.add_argument("--samples", type=int, default=10000, help="pair count")
    p.add_argument("--depth", type=int, default=30, help=depth_help)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)

    p = campaign("oscillation", lambda a: oscillation_scan(a.t_hat, a.scales))
    p.add_argument("--t-hat", dest="t_hat", type=_rational, default=Fraction(0))
    p.add_argument("--scales", type=int, default=8, help="scale count")

    p = campaign(
        "blowup-divergence",
        lambda a: blowup_divergence(
            a.t_hat, a.target1, a.target2, a.radius, [w_point(0, h) for h in a.offsets], a.depth, tol=a.tol
        ),
    )
    p.add_argument("--t-hat", dest="t_hat", type=_rational, default=Fraction(0))
    p.add_argument("--target1", type=_rational, default=Fraction(1))
    p.add_argument("--target2", type=_rational, default=Fraction(4472135954999579, 10**16))
    p.add_argument("--radius", type=_rational, default=Fraction(1))
    p.add_argument("--tol", type=_rational, default=Fraction(1, 10**4))
    # a string default goes through type on each parse, so no parse shares the list
    p.add_argument(
        "--offsets",
        type=_rational_list,
        default="-1,-1/2,-1/4,1/4,1/2,1",
        help="comma-separated grid offsets along the t direction",
    )
    p.add_argument("--depth", type=int, default=40, help=depth_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # argparse leaves a subcommand's unknown arguments to the top-level
    # parser; the subcommand that parsed them reports them with its usage.
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
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
