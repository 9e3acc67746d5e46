"""Command-line front end.

Reports are line-delimited JSON with stable key order; the timing field
is the only non-deterministic part and ``--omit-timing`` drops it.
Exit codes: 0 success / all match, 1 verified mismatch, 2 usage error,
3 refusal (over the budget, or an input the library refuses, such as a
search deeper than Python recurses, also under ``--force``), 4 wall
refusal.

This module keeps the parser, in which each ``verify`` battery is a
sub-parser taking only the options it reads, the budget check, the
checks every command shares in :func:`main` and ``compute``;
``verify``, ``fit`` and ``cache check`` run from
:mod:`prunedhurwitz.batteries`, which only they import.  Building the
parser loads no other module of the package: each command imports what
it runs when it runs (the budget check ``factorizations``, an engine
``hurwitz``, and ``cache`` only with a cache path), so ``--version``, a
parse error or a refusal compiles little more than this file.

Values come from :class:`prunedhurwitz.hurwitz.HurwitzEngine`: H from
the characters of S_d, PH from the coloured cycle-type engine and the
modified PH as a closed form of PH.
"""

from __future__ import annotations

import argparse
import os
import sys
import time  # loaded by every interpreter at start-up

from . import __version__

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_WALL = 4

DEFAULT_BUDGET = 50_000_000

# names the default --cache file (the library takes explicit paths only)
CACHE_ENV_VAR = "PRUNEDHURWITZ_CACHE"

# The choices of cutjoin.VARIANTS and cutjoin.STABILITY_READINGS and the
# hurwitz.Kind values (the cache tags), copied so that building the
# parser loads neither module (a test keeps them equal).
VARIANTS = ("plain", "corrected")
STABILITY_READINGS = ("literal", "facecount")
KIND_BY_NAME = {
    "full": "H",
    "pruned": "PH",
    "modified-pruned": "PHHAT",
}


def _parse_partition(text: str) -> tuple[int, ...]:
    fields = text.split(",")
    if any(x.strip() == "" for x in fields):
        raise argparse.ArgumentTypeError(f"empty part in partition: {text!r}")
    try:
        parts = tuple(int(x) for x in fields)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    if any(x < 1 for x in parts):
        raise argparse.ArgumentTypeError(f"partition parts must be >= 1: {text!r}")
    return parts


def _parse_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if budget < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0: {text!r}")
    return budget


def _fraction_obj(value) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(report: dict, args) -> None:
    import json

    if args.omit_timing:
        report.pop("elapsed_seconds", None)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _engine(args):
    from .hurwitz import Conventions, HurwitzEngine

    m0_pruned = getattr(args, "m0_pruned_convention", False)
    return HurwitzEngine(Conventions(m0_pruned=m0_pruned), cache_path=args.cache)


def _over_budget(args, g, mu, nu) -> bool:
    if args.force:
        return False
    from .factorizations import search_work_bound

    estimate = search_work_bound(g, mu, nu)
    if estimate <= args.budget:
        return False
    sys.stderr.write(
        f"refusing: estimated search size {estimate} exceeds "
        f"budget {args.budget}; rerun with --force to override\n"
    )
    return True


def cmd_compute(args) -> int:
    g, mu, nu = args.genus, args.mu, args.nu
    if _over_budget(args, g, mu, nu):
        return EXIT_BUDGET
    from .hurwitz import Kind
    from .combinatorics import is_wall_point

    kind = Kind(KIND_BY_NAME[args.kind])
    engine = _engine(args)
    start = time.perf_counter()
    value = engine.value(g, mu, nu, kind)
    n = engine.tuple_count(g, mu, nu, pruned=kind is not Kind.FULL)
    _emit({
        "command": "compute",
        "genus": g,
        "mu": list(mu),
        "nu": list(nu),
        "kind": kind.value,
        "value": _fraction_obj(value),
        "m": 2 * g - 2 + len(mu) + len(nu),
        "tuple_count": str(n),
        "wall": is_wall_point(mu, nu),
        "conventions": engine.conventions.as_dict(),
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    values = argparse.ArgumentParser(add_help=False)
    values.add_argument("--cache", default=os.environ.get(CACHE_ENV_VAR), metavar="PATH",
                        help=f"persistent value cache (default: ${CACHE_ENV_VAR})")
    values.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET,
                        help="refuse enumerations whose bound on the memoised search work exceeds this")
    values.add_argument("--force", action="store_true", help="override the budget guard")
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--omit-timing", action="store_true",
                        help="drop timing fields for byte-stable output")
    common = [values, timing]
    # only for the commands that can read a PH at m = 0, the one value it changes
    m0 = argparse.ArgumentParser(add_help=False)
    m0.add_argument("--m0-pruned-convention", action="store_true",
                    help="treat the edgeless tuple (m=0) as pruned")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-d", type=int, default=4)
    bounds.add_argument("--max-g", type=int, default=1)
    bounds.add_argument("--max-m", type=int, default=5)

    parser = argparse.ArgumentParser(
        prog="prunedhurwitz",
        description="Exact double Hurwitz numbers from the characters of S_d, "
                    "pruned and modified pruned ones by enumeration, with identity checkers "
                    "that compare the two evaluators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one exact value", parents=[*common, m0])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--nu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--kind", choices=sorted(KIND_BY_NAME), default="full")

    battery = sub.add_parser("verify", help="run an identity battery").add_subparsers(
        dest="which", required=True)
    battery.add_parser("main-theorem", parents=[bounds, *common])
    p = battery.add_parser("cut-and-join", parents=[bounds, *common, m0])
    p.add_argument("--variant", choices=VARIANTS, default="plain", help="recursion evaluator")
    p.add_argument("--stability-reading", choices=STABILITY_READINGS,
                   help="split-term exclusion rule of the plain recursion (default: literal)")
    p = battery.add_parser("forests", parents=[timing])
    p.add_argument("--max-n", type=int, default=6, help="forest size bound")
    p = battery.add_parser("poly", parents=common)
    p.add_argument("--t-max", type=int, default=4, help="scaling window")

    p = sub.add_parser("fit", help="fit the scaling polynomial at a base point", parents=common)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--mu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--nu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--kind", choices=sorted(KIND_BY_NAME), default="pruned")
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--allow-wall", action="store_true")

    p = sub.add_parser("cache", help="check stored values against a recomputation",
                       parents=common)
    p.add_argument("action", choices=["check"])
    p.add_argument("--sample", type=int, default=10,
                   help="records to recompute, evenly spaced through the file")

    return parser


def main(argv: list[str] | None = None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)  # exact values pass 4300 digits; put back on return
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "mu"):
        from .combinatorics import check_request

        try:
            check_request(args.genus, args.mu, args.nu)
        except ValueError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
    if getattr(args, "variant", None) == "corrected":
        # only the plain recursion reads them: the corrected one asks for no m = 0 half
        unread = [flag for flag, given in [("--m0-pruned-convention", args.m0_pruned_convention),
                                           ("--stability-reading", args.stability_reading)] if given]
        if unread:
            parser.error(f"--variant corrected does not read {' or '.join(unread)}")
    try:
        if args.command == "compute":
            return cmd_compute(args)
        from . import batteries

        return {"verify": batteries.cmd_verify, "fit": batteries.cmd_fit,
                "cache": batteries.cmd_cache_check}[args.command](args)
    except ValueError as exc:
        # a parsed request the library still cannot take, such as a
        # search deeper than Python recurses: refused, budget or not
        sys.stderr.write(f"refusing: {exc}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
