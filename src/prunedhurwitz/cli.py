"""Command-line front end.

Reports are line-delimited JSON with stable key order; the timing field
is the only non-deterministic part and ``--omit-timing`` drops it.
Exit codes: 0 success / all match, 1 verified mismatch, 2 usage error,
3 budget refusal, 4 wall refusal.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from .cache import CACHE_ENV_VAR, default_cache_path
from .cutjoin import DEFAULT_SPLIT_RULE, VARIANTS, verify_recursion
from .factorizations import search_work_bound
from .forests import count_forests_with_degrees, enumerate_rooted_forests
from .hurwitz import STABILITY_READINGS, Conventions, HurwitzEngine, Kind
from .polynomiality import (
    degree_bound,
    finite_difference_degree,
    fit_univariate,
    is_wall_point,
    scaling_values,
)
from .reconstruction import reconstruct_double_hurwitz, reconstruct_via_forests

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_WALL = 4

DEFAULT_BUDGET = 50_000_000

KIND_BY_NAME = {
    "full": Kind.FULL,
    "pruned": Kind.PRUNED,
    "modified-pruned": Kind.MODIFIED_PRUNED,
}

# poly battery: chamber-interior points (a,b | c,d) with c < a,b < d
INTERIOR_BASE_POINTS = [
    ((2, 3), (1, 4)),
    ((2, 4), (1, 5)),
    ((3, 4), (2, 5)),
    ((3, 5), (2, 6)),
    ((4, 5), (3, 6)),
    ((2, 5), (1, 6)),
]


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    if not parts or any(x < 1 for x in parts):
        raise argparse.ArgumentTypeError(f"partition parts must be >= 1: {text!r}")
    return parts


def _fraction_obj(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(report: dict, args) -> None:
    if getattr(args, "omit_timing", False):
        report.pop("elapsed_seconds", None)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _engine(args) -> HurwitzEngine:
    conv = Conventions(
        m0_pruned=args.m0_pruned_convention,
        stability_reading=args.stability_reading,
    )
    return HurwitzEngine(conv, cache_path=args.cache)


def _over_budget(args, g, mu, nu) -> bool:
    if args.force:
        return False
    estimate = search_work_bound(g, mu, nu)
    if estimate <= args.budget:
        return False
    sys.stderr.write(
        f"refusing: estimated search size {estimate} exceeds "
        f"budget {args.budget}; rerun with --force to override\n"
    )
    return True


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", default=default_cache_path(), metavar="PATH",
                        help=f"persistent value cache (default: ${CACHE_ENV_VAR})")
    parser.add_argument("--m0-pruned-convention", action="store_true",
                        help="treat the edgeless tuple (m=0) as pruned")
    parser.add_argument("--stability-reading", choices=STABILITY_READINGS, default="literal",
                        help="split-term exclusion rule for the recursion")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="refuse enumerations whose bound on the memoised search work exceeds this")
    parser.add_argument("--force", action="store_true", help="override the budget guard")
    parser.add_argument("--omit-timing", action="store_true",
                        help="drop timing fields for byte-stable output")


def cmd_compute(args) -> int:
    g, mu, nu, kind = args.genus, args.mu, args.nu, KIND_BY_NAME[args.kind]
    if sum(mu) != sum(nu):
        sys.stderr.write(f"degree mismatch: |mu|={sum(mu)} but |nu|={sum(nu)}\n")
        return EXIT_USAGE
    if _over_budget(args, g, mu, nu):
        return EXIT_BUDGET
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


def _partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def cmd_verify(args) -> int:
    if args.which == "poly" and args.t_max < 2:
        sys.stderr.write("the poly battery needs --t-max >= 2\n")
        return EXIT_USAGE
    engine = _engine(args)
    runner = {
        "main-theorem": _verify_main_theorem,
        "cut-and-join": _verify_cut_and_join,
        "forests": _verify_forests,
        "poly": _verify_poly,
    }[args.which]
    start = time.perf_counter()
    all_match = runner(args, engine)
    _emit({
        "command": "verify",
        "which": args.which,
        "all_match": all_match,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK if all_match else EXIT_MISMATCH


def _verify_main_theorem(args, engine) -> bool:
    all_match = True
    for d in range(1, args.max_d + 1):
        parts = list(_partitions(d))
        for g in range(args.max_g + 1):
            for mu in parts:
                for nu in parts:
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) < 2 or m < 0 or m > args.max_m:
                        continue
                    direct = engine.double(g, mu, nu)
                    by_degrees = reconstruct_double_hurwitz(g, mu, nu, engine.phat)
                    by_forests = reconstruct_via_forests(g, mu, nu, engine.phat)
                    match = direct == by_degrees == by_forests
                    all_match &= match
                    _emit({
                        "type": "main-theorem",
                        "genus": g, "mu": list(mu), "nu": list(nu),
                        "direct": _fraction_obj(direct),
                        "reconstruction": _fraction_obj(by_degrees),
                        "forest_form": _fraction_obj(by_forests),
                        "match": match,
                    }, args)
    return all_match


def _verify_cut_and_join(args, engine) -> bool:
    all_match = True
    first_failure_reported = False
    for d in range(1, args.max_d + 1):
        parts = list(_partitions(d))
        for g in range(args.max_g + 1):
            for mu in parts:
                for nu in parts:
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) < 3 or m <= 0 or m > args.max_m:
                        continue
                    report = verify_recursion(
                        g, mu, nu, engine,
                        stability_reading=args.stability_reading,
                        split_rule=args.split_rule,
                        variant=args.variant,
                    )
                    all_match &= report.match
                    _emit({
                        "type": "cut-and-join",
                        "genus": g, "mu": list(mu), "nu": list(nu),
                        "variant": report.variant,
                        "stability_reading": report.stability_reading,
                        "lhs": _fraction_obj(report.lhs),
                        "rhs": _fraction_obj(report.rhs),
                        "cases": {k: _fraction_obj(v) for k, v in report.per_case_totals.items()},
                        "match": report.match,
                    }, args)
                    if not report.match and not first_failure_reported:
                        first_failure_reported = True
                        detailed = verify_recursion(
                            g, mu, nu, engine,
                            stability_reading=args.stability_reading,
                            split_rule=args.split_rule,
                            variant=args.variant,
                            keep_terms=True,
                        )
                        for term in detailed.terms:
                            _emit({
                                "type": "cut-and-join-term",
                                "genus": g, "mu": list(mu), "nu": list(nu),
                                "case": term.case,
                                "params": {k: str(v) for k, v in term.params.items()},
                                "value": _fraction_obj(term.value),
                            }, args)
    return all_match


def _verify_forests(args, engine) -> bool:
    from itertools import combinations

    all_match = True
    for n in range(1, args.max_n + 1):
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                grouped = {}
                total = 0
                for forest in enumerate_rooted_forests(n, roots):
                    degs = forest.out_degrees()
                    grouped[degs] = grouped.get(degs, 0) + 1
                    total += 1
                formula_total = 0
                match = True
                for degs, count in grouped.items():
                    formula = count_forests_with_degrees(degs, roots)
                    match &= formula == count
                    formula_total += formula
                expected_total = 1 if n == r else r * n ** (n - r - 1)
                match &= formula_total == total == expected_total
                all_match &= match
                _emit({
                    "type": "forests",
                    "n": n, "roots": list(roots),
                    "forest_count": total,
                    "expected_total": expected_total,
                    "degree_sequences": len(grouped),
                    "match": match,
                }, args)
    return all_match


def _verify_poly(args, engine) -> bool:
    all_match = True
    for mu, nu in INTERIOR_BASE_POINTS:
        values = scaling_values(0, mu, nu, Kind.PRUNED, args.t_max, engine)
        degree = finite_difference_degree(values)
        bound = degree_bound(0, len(mu), len(nu))
        match = degree == bound and not is_wall_point(mu, nu)
        all_match &= match
        _emit({
            "type": "poly",
            "mu": list(mu), "nu": list(nu),
            "samples": [_fraction_obj(v) for v in values],
            "degree": degree,
            "bound": bound,
            "match": match,
        }, args)
    return all_match


def cmd_fit(args) -> int:
    g, mu, nu, kind = args.genus, args.mu, args.nu, KIND_BY_NAME[args.kind]
    if sum(mu) != sum(nu):
        sys.stderr.write(f"degree mismatch: |mu|={sum(mu)} but |nu|={sum(nu)}\n")
        return EXIT_USAGE
    if args.t_max < 2:
        sys.stderr.write("fitting needs --t-max >= 2\n")
        return EXIT_USAGE
    if is_wall_point(mu, nu) and not args.allow_wall:
        sys.stderr.write(
            "refusing wall base point (a proper sub-balance holds); "
            "pass --allow-wall to fit anyway\n"
        )
        return EXIT_WALL
    scaled = tuple(args.t_max * x for x in mu), tuple(args.t_max * x for x in nu)
    if _over_budget(args, g, *scaled):
        return EXIT_BUDGET
    engine = _engine(args)
    start = time.perf_counter()
    values = scaling_values(g, mu, nu, kind, args.t_max, engine)
    degree = finite_difference_degree(values)
    coeffs = fit_univariate(values)
    bound = degree_bound(g, len(mu), len(nu))
    _emit({
        "command": "fit",
        "genus": g, "mu": list(mu), "nu": list(nu), "kind": kind.value,
        "t_max": args.t_max,
        "samples": [_fraction_obj(v) for v in values],
        "degree": degree,
        "coefficients": [_fraction_obj(c) for c in coeffs],
        "bound": bound,
        "bound_met": degree == bound,
        "wall": is_wall_point(mu, nu),
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunedhurwitz",
        description="Exact double, pruned and modified pruned Hurwitz numbers "
                    "by symmetric-group enumeration, with identity checkers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one exact value")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--nu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--kind", choices=sorted(KIND_BY_NAME), default="full")
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run an identity battery")
    p.add_argument("which", choices=["main-theorem", "cut-and-join", "forests", "poly"])
    p.add_argument("--max-d", type=int, default=4)
    p.add_argument("--max-g", type=int, default=1)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--max-n", type=int, default=6, help="forest size bound (forests)")
    p.add_argument("--t-max", type=int, default=4, help="scaling window (poly)")
    p.add_argument("--variant", choices=VARIANTS, default="plain",
                   help="recursion evaluator (cut-and-join)")
    p.add_argument("--split-rule", choices=["half", "delta-ordered", "delta-unordered"],
                   default=DEFAULT_SPLIT_RULE)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", help="fit the scaling polynomial at a base point")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--mu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--nu", type=_parse_partition, required=True, metavar="A,B,...")
    p.add_argument("--kind", choices=sorted(KIND_BY_NAME), default="pruned")
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--allow-wall", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "genus", 0) < 0:
        sys.stderr.write("genus must be non-negative\n")
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
