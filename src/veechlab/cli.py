"""Command-line front end.

Subcommands emit JSON on stdout (SVG goes to files).  Exit codes:
0 success / certified pass, 1 certified fail, 2 usage error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificates import revalidate, verify_quotient, verify_theorem
from .covering import base_decomposition, build_cover, cover_cylinders, monodromy_indices
from .errors import MalformedCertificate, VeechLabError
from .surface import build_base, no_base_surface

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit(data, indent: int | None = 2) -> None:
    """Write data as JSON on stdout: indented, or on one compact line
    with indent=None."""
    separators = (",", ":") if indent is None else None
    sys.stdout.write(json.dumps(data, indent=indent, separators=separators))
    sys.stdout.write("\n")


def _check_n(n: int) -> None:
    if no_base_surface(n):
        raise UsageError("n must be at least 5 and not 6")


class UsageError(Exception):
    pass


def cmd_surface(args) -> int:
    _check_n(args.n)
    _emit(build_base(args.n).to_json())
    return EXIT_PASS


def cmd_cylinders(args) -> int:
    _check_n(args.n)
    l = args.direction
    if args.d is not None:
        if args.d < 2:
            raise UsageError("degree must be at least 2")
        cover = build_cover(args.n, args.d)
        cyls = cover_cylinders(cover, l)
    else:
        cyls = base_decomposition(args.n, l)
    _emit(
        {
            "n": args.n,
            "d": args.d,
            "direction_index": l,
            "direction_note": "direction is v_l = R_n^l (1,0)^T at angle l*pi/n",
            "cylinders": [c.to_json() for c in cyls],
        }
    )
    return EXIT_PASS


def cmd_cover(args) -> int:
    _check_n(args.n)
    if args.d < 2:
        raise UsageError("degree must be at least 2")
    _emit(build_cover(args.n, args.d).to_json())
    return EXIT_PASS


def cmd_verify(args) -> int:
    _check_n(args.n)
    if args.infinite:
        cert = verify_theorem(args.n, infinite=True)
    else:
        if args.d is None:
            raise UsageError("verify needs --d or --infinite")
        if args.d < 2:
            raise UsageError("degree must be at least 2")
        cert = verify_theorem(args.n, args.d)
    _emit(cert.to_json(), indent=None)
    return _verdict_exit(cert.verdict)


def _verdict_exit(verdict: str) -> int:
    if verdict == "pass":
        return EXIT_PASS
    if verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_revalidate(args) -> int:
    try:
        if args.file == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.file, encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.file, exc.strerror)) from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        source = "stdin" if args.file == "-" else args.file
        raise MalformedCertificate("%s is not JSON: %s" % (source, exc)) from exc
    verdict = revalidate(data)
    _emit({"verdict": verdict})
    return _verdict_exit(verdict)


def cmd_quotient(args) -> int:
    _check_n(args.n)
    _emit(verify_quotient(args.n).to_json())
    return EXIT_PASS


def cmd_infinite(args) -> int:
    from .zcover import (
        infinite_singularities,
        sigma_T_infinite,
        singularity_loops,
        std_infinite_monodromy,
        z_cover_structure,
    )

    _check_n(args.n)
    n = args.n
    zm = std_infinite_monodromy(n)
    k1, k2 = monodromy_indices(n)
    report = {
        "n": n,
        "monodromy": {
            "k1": k1,
            "k2": k2,
            "sigma_k1": zm.image(k1).to_json(),
            "sigma_k2": zm.image(k2).to_json(),
        },
        "infinite_angle_singularities": infinite_singularities(n),
        "singularity_loops": [w.to_json() for w in singularity_loops(n)],
        "z_cover_of_Y_n2": z_cover_structure(n),
        "sigma_T": sigma_T_infinite().to_json(),
    }
    _emit(report)
    return EXIT_PASS


def cmd_render(args) -> int:
    from .render import render_cover, render_infinite_window, render_surface

    _check_n(args.n)
    if args.infinite:
        if args.direction is not None:
            raise UsageError("--direction does not apply to --infinite")
        if args.window is not None and args.window < 1:
            raise UsageError("window must be at least 1")
        svg = render_infinite_window(args.n, args.window or 2, palette=args.palette)
    elif args.window is not None:
        raise UsageError("--window applies only to --infinite")
    elif args.d is not None:
        if args.d < 2:
            raise UsageError("degree must be at least 2")
        cover = build_cover(args.n, args.d)
        svg = render_cover(cover, overlay_direction=args.direction, palette=args.palette)
    else:
        surface = build_base(args.n)
        svg = render_surface(surface, overlay_direction=args.direction, palette=args.palette)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (args.out, exc.strerror)) from exc
    _emit({"written": args.out})
    return EXIT_PASS


def _palette(name: str) -> str:
    # render loads only when a render command is parsed
    from .render import PALETTES

    if name not in PALETTES:
        raise argparse.ArgumentTypeError(
            "invalid choice: %r (choose from %s)" % (name, ", ".join(map(repr, sorted(PALETTES)))))
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veechlab",
        description=(
            "Exact cylinder decompositions, covering monodromy and "
            "Veech-group certificates for regular n-gon translation surfaces. "
            "Directions are indexed by l with v_l = R_n^l (1,0)^T."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="JSON dump of the base surface X_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("cylinders", help="cylinder decomposition in direction v_l")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="covering degree (omit for the base)")
    p.add_argument("--direction", type=int, required=True, metavar="L")
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("cover", help="JSON descriptor of the cover Y_{n,d}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="certify the Veech-group theorem for (n, d)")
    p.add_argument("--n", type=int, required=True)
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--d", type=int, default=None)
    degree.add_argument("--infinite", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("revalidate", help="recompute the verdict of certificate JSON")
    p.add_argument("--file", required=True, metavar="PATH", help="certificate JSON; - reads stdin")
    p.set_defaults(func=cmd_revalidate)

    p = sub.add_parser("quotient", help="invariants of the quotient H/Gamma_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("infinite", help="verification report for Y_{n,infinity}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_infinite)

    p = sub.add_parser("render", help="SVG of a surface, cover or infinite window")
    p.add_argument("--n", type=int, required=True)
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--d", type=int, default=None)
    degree.add_argument("--infinite", action="store_true")
    p.add_argument("--window", type=int, default=None, metavar="W",
                   help="with --infinite, render copies -W..W (default 2)")
    p.add_argument("--direction", type=int, default=None, help="overlay cylinders in v_l")
    p.add_argument("--palette", default="default", type=_palette)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except VeechLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
