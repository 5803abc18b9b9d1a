"""Command line interface.

Exit codes: 0 all requested checks pass, 1 usage/input errors (including
determinant-condition violations, order-cap overflows and output paths
that cannot be written), 2 a
verification check failed; the failing check is reported as a single
JSON line on stderr and inside the report of any written document.

`--check F` runs the pipeline only up to the checks of family F, so
`--json` and `--svg` write only the artifacts that run built; asking a
passing run for `--quiver-svg` when F stops before the quiver is an
input error.  `render` runs up to the `recipe` family, the last one whose
artifacts the SVG views read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import AHilbError, InputError
from .group import DEFAULT_MAX_ORDER
from .pipeline import CHECK_GROUPS, run_pipeline
from .render import quiver_svg, triangulation_svg
from .serialize import jsonable, to_json

ENV_MAX_ORDER = "AHILB_MAX_ORDER"
WRITE_SLICE = 1 << 16  # characters per `write`, see `_write_sliced`


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so it exits 1 like any input error."""

    def error(self, message):
        raise InputError(message)


def _add_common(p, with_check=True):
    p.add_argument("spec", help="group spec, e.g. '1/11(1,2,8)' or '1/3(1,2,0);1/3(0,1,2)'")
    p.add_argument("--json", metavar="PATH", help="write the full JSON document")
    p.add_argument("--svg", metavar="PATH", help="write the decorated simplex as SVG")
    p.add_argument("--quiver-svg", metavar="PATH", help="write the quiver domain as SVG")
    if with_check:
        p.add_argument(
            "--check",
            default="all",
            choices=["all", *CHECK_GROUPS],
            help="which verification family to run; the run stops after its checks "
            "(default: all)",
        )
    p.add_argument("--max-order", type=int, default=None, help="group order cap")
    p.add_argument("--quiet", action="store_true", help="suppress the console summary")


def build_parser():
    ap = _Parser(
        prog="ahilb",
        description=(
            "Compute the toric resolution of C^3 by a diagonal abelian subgroup of "
            "SL(3,C) via its cluster Hilbert scheme, decorate it with characters, "
            "and certify the character/cohomology correspondence."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("compute", help="run the pipeline and write artifacts"))
    _add_common(sub.add_parser("check", help="run the pipeline for its exit code"))
    _add_common(sub.add_parser("render", help="render SVG views"), with_check=False)
    return ap


def _max_order(args):
    cap = args.max_order
    if cap is None:
        env = os.environ.get(ENV_MAX_ORDER)
        if not env:
            return DEFAULT_MAX_ORDER
        try:
            cap = int(env)
        except ValueError as exc:
            raise InputError(f"bad {ENV_MAX_ORDER} value {env!r}") from exc
    if cap < 1:
        raise InputError(f"the order cap must be positive, got {cap}")
    return cap


def _write_sliced(fh, text):
    """Write `text` in slices, so that no encoded copy of all of it is made.

    A slice of 2^16 characters (128 KB of UCS-2) and its UTF-8 copy fit in
    heap the process has already mapped; slices of 2^20 characters (2 MB
    and 1 MB encoded) take fresh pages on top of the document.  Peak RSS of
    `compute --json --svg --quiver-svg`, three fresh runs each: 38.35 MB
    with 2^16 against 41.36 MB with 2^20 at 1/401(1,7,393), and 94.98 MB
    against 98.01 MB at 1/801(1,7,793) (glibc, CPython 3.11.7, 2 vCPU).
    """
    for start in range(0, len(text), WRITE_SLICE):
        fh.write(text[start:start + WRITE_SLICE])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # render builds only what its views read: the recipe family ends at the quiver
        which = getattr(args, "check", "recipe")
        art = run_pipeline(args.spec, which=which, max_order=_max_order(args))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except AHilbError as exc:
        record = {"failure": {"error": str(exc), "detail": jsonable(exc.detail)}}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2

    if args.quiver_svg and art.quiver is None and art.report.passed:
        print(f"input error: --quiver-svg needs the quiver, which --check {which} "
              "does not build", file=sys.stderr)
        return 1

    outputs = []
    if args.json:
        outputs.append((args.json, to_json))
    if args.svg and art.triangulation is not None:
        outputs.append((args.svg, triangulation_svg))
    if args.quiver_svg and art.quiver is not None:
        outputs.append((args.quiver_svg, quiver_svg))
    wrote = []
    for path, view in outputs:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _write_sliced(fh, view(art))
        except OSError as exc:
            print(f"input error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        wrote.append(path)

    report = art.report
    if not args.quiet:
        c = report.counts
        print(
            f"{args.spec}: |A|={c.get('order')} triangles={c.get('triangles')} "
            f"b2={c.get('b2')} b4={c.get('b4')}"
        )
        for name, entry in report.checks.items():
            if entry["status"] != "skipped" or args.command == "compute":
                print(f"  {name:13s} {entry['status']}")
        total = sum(report.timings.values())
        print(f"  time {total:.3f}s")
        if wrote:
            print("  wrote " + ", ".join(wrote))
    if not report.passed:
        print(json.dumps({"failure": jsonable(report.failure)}, sort_keys=True), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
