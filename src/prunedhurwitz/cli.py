"""Command-line front end.

Reports are line-delimited JSON with stable key order; the timing field
is the only non-deterministic part and ``--omit-timing`` drops it.
Exit codes: 0 success / all match, 1 verified mismatch, 2 usage error,
3 budget refusal, 4 wall refusal.

Building the parser loads no other module of the package: each command
imports what it runs when it runs (the budget check ``factorizations``,
an engine ``hurwitz``, a battery its evaluator), so ``--version``, a
usage error or a refusal compiles little more than this file.

Values come from :class:`prunedhurwitz.hurwitz.HurwitzEngine`: H from
the characters of S_d, PH and the modified PH from the coloured
cycle-type engine.  ``verify main-theorem`` rebuilds each H from
modified pruned values, so it compares two evaluators that share no
code; ``cache check`` recomputes stored H values with the enumeration's
full mode, the other evaluator of H.
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


def _fraction_obj(value) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(report: dict, args) -> None:
    import json

    if getattr(args, "omit_timing", False):
        report.pop("elapsed_seconds", None)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _engine(args):
    from .hurwitz import Conventions, HurwitzEngine

    return HurwitzEngine(Conventions(m0_pruned=args.m0_pruned_convention), cache_path=args.cache)


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", default=os.environ.get(CACHE_ENV_VAR), metavar="PATH",
                        help=f"persistent value cache (default: ${CACHE_ENV_VAR})")
    parser.add_argument("--m0-pruned-convention", action="store_true",
                        help="treat the edgeless tuple (m=0) as pruned")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="refuse enumerations whose bound on the memoised search work exceeds this")
    parser.add_argument("--force", action="store_true", help="override the budget guard")
    parser.add_argument("--omit-timing", action="store_true",
                        help="drop timing fields for byte-stable output")


def cmd_compute(args) -> int:
    g, mu, nu = args.genus, args.mu, args.nu
    if sum(mu) != sum(nu):
        sys.stderr.write(f"degree mismatch: |mu|={sum(mu)} but |nu|={sum(nu)}\n")
        return EXIT_USAGE
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


def _instances(args, min_nu_parts: int, min_m: int):
    """(g, mu, nu) with d <= max_d, g <= max_g, min_m <= m <= max_m and
    at least ``min_nu_parts`` parts in nu."""
    from .combinatorics import partitions

    for d in range(1, args.max_d + 1):
        parts = list(partitions(d))
        for g in range(args.max_g + 1):
            for mu in parts:
                for nu in parts:
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) >= min_nu_parts and min_m <= m <= args.max_m:
                        yield g, mu, nu


def _main_theorem_instances(args):
    return _instances(args, min_nu_parts=2, min_m=0)


def _cut_and_join_instances(args):
    return _instances(args, min_nu_parts=3, min_m=1)


def _enumerated_instances(args):
    """Every instance a battery enumerates directly: the main-theorem
    and cut-and-join instances, and each scaled point of the poly
    battery; the forests battery enumerates none."""
    if args.which == "main-theorem":
        return _main_theorem_instances(args)
    if args.which == "cut-and-join":
        return _cut_and_join_instances(args)
    if args.which == "poly":
        return (
            (0, tuple(t * x for x in mu), tuple(t * x for x in nu))
            for mu, nu in INTERIOR_BASE_POINTS
            for t in range(1, args.t_max + 1)
        )
    return ()


def cmd_verify(args) -> int:
    if args.which == "poly" and args.t_max < 2:
        sys.stderr.write("the poly battery needs --t-max >= 2\n")
        return EXIT_USAGE
    if args.which == "forests":
        from .forests import DEFAULT_ENUMERATION_BOUND

        if not 1 <= args.max_n <= DEFAULT_ENUMERATION_BOUND:
            sys.stderr.write(
                f"the forests battery enumerates 1 <= n <= {DEFAULT_ENUMERATION_BOUND}; "
                f"got --max-n {args.max_n}\n"
            )
            return EXIT_USAGE
    needs = {"main-theorem": "l(nu) >= 2", "cut-and-join": "l(nu) >= 3 and m >= 1"}
    if args.which in needs and next(_enumerated_instances(args), None) is None:
        # an empty battery would report all_match: true having checked nothing
        sys.stderr.write(
            f"the {args.which} battery has no instance with d <= {args.max_d}, "
            f"g <= {args.max_g} and m <= {args.max_m} (it needs {needs[args.which]})\n"
        )
        return EXIT_USAGE
    if any(_over_budget(args, g, mu, nu) for g, mu, nu in _enumerated_instances(args)):
        return EXIT_BUDGET
    # the forests battery reads no Hurwitz value
    engine = None if args.which == "forests" else _engine(args)
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
    from .reconstruction import reconstruct_double_hurwitz, reconstruct_via_forests

    all_match = True
    for g, mu, nu in _main_theorem_instances(args):
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
    from .cutjoin import verify_recursion

    all_match = True
    first_failure_reported = False
    for g, mu, nu in _cut_and_join_instances(args):
        report = verify_recursion(
            g, mu, nu, engine,
            stability_reading=args.stability_reading,
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

    from .forests import count_forests_with_degrees, enumerate_rooted_forests

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
    from .hurwitz import Kind
    from .combinatorics import is_wall_point
    from .polynomiality import (
        degree_bound,
        finite_difference_degree,
        scaling_values,
    )

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


def cmd_cache_check(args) -> int:
    """Recompute an evenly spaced sample of the records the engine would
    load from the cache: H by the enumeration's full mode, the pruned
    values by a fresh engine without the cache."""
    if not args.cache:
        sys.stderr.write(f"cache check needs --cache or ${CACHE_ENV_VAR}\n")
        return EXIT_USAGE
    if args.sample < 1:
        sys.stderr.write("--sample must be at least 1\n")
        return EXIT_USAGE
    from .cache import load_cache
    from .factorizations import count_factorizations
    from .hurwitz import Conventions, HurwitzEngine, Kind, value_from_count

    conventions = Conventions(m0_pruned=args.m0_pruned_convention)
    records = list(load_cache(args.cache, conventions.as_dict()).items())
    size = min(args.sample, len(records))
    sample = [records[i * len(records) // size] for i in range(size)]
    if any(_over_budget(args, g, mu, nu) for (g, mu, nu, _), _ in sample):
        return EXIT_BUDGET
    start = time.perf_counter()
    all_match = True
    for key, stored in sample:
        g, mu, nu, tag = key
        if tag == Kind.FULL.value:
            recomputed = value_from_count(count_factorizations(g, mu, nu), mu, nu)
            by = "enumeration"
        else:
            recomputed = HurwitzEngine(conventions).value(g, mu, nu, Kind(tag))
            by = "engine"
        match = recomputed == stored
        all_match &= match
        _emit({
            "type": "cache-check",
            "genus": g, "mu": list(mu), "nu": list(nu), "kind": tag,
            "stored": _fraction_obj(stored),
            "recomputed": _fraction_obj(recomputed),
            "recomputed_by": by,
            "match": match,
        }, args)
    _emit({
        "command": "cache",
        "action": "check",
        "records": len(records),
        "checked": len(sample),
        "all_match": all_match,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_fit(args) -> int:
    g, mu, nu = args.genus, args.mu, args.nu
    if sum(mu) != sum(nu):
        sys.stderr.write(f"degree mismatch: |mu|={sum(mu)} but |nu|={sum(nu)}\n")
        return EXIT_USAGE
    if args.t_max < 2:
        sys.stderr.write("fitting needs --t-max >= 2\n")
        return EXIT_USAGE
    from .combinatorics import is_wall_point
    from .polynomiality import (
        degree_bound,
        finite_difference_degree,
        fit_univariate,
        scaling_values,
    )

    if is_wall_point(mu, nu) and not args.allow_wall:
        sys.stderr.write(
            "refusing wall base point (a proper sub-balance holds); "
            "pass --allow-wall to fit anyway\n"
        )
        return EXIT_WALL
    scaled = tuple(args.t_max * x for x in mu), tuple(args.t_max * x for x in nu)
    if _over_budget(args, g, *scaled):
        return EXIT_BUDGET
    from .hurwitz import Kind

    kind = Kind(KIND_BY_NAME[args.kind])
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
        description="Exact double Hurwitz numbers from the characters of S_d, "
                    "pruned and modified pruned ones by enumeration, with identity checkers "
                    "that compare the two evaluators.",
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
    p.add_argument("--stability-reading", choices=STABILITY_READINGS, default="literal",
                   help="split-term exclusion rule of the plain recursion (cut-and-join)")
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

    p = sub.add_parser("cache", help="check stored values against a recomputation")
    p.add_argument("action", choices=["check"])
    p.add_argument("--sample", type=int, default=10,
                   help="records to recompute, evenly spaced through the file")
    _add_common(p)
    p.set_defaults(func=cmd_cache_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "genus", 0) < 0:
        sys.stderr.write("genus must be non-negative\n")
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
