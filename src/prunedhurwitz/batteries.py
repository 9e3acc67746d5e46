"""The commands ``verify``, ``fit`` and ``cache check``: the identity
batteries, the scaling fit and the recomputation of cached values.
``verify main-theorem`` rebuilds each H from modified pruned values, so
it compares two evaluators that share no code; ``cache check``
recomputes stored H values with the enumeration's full mode, the other
evaluator of H.

:mod:`prunedhurwitz.cli` imports this module only when one of them
runs, so ``--version``, ``compute`` and a budget refusal do not
compile it.
"""

from __future__ import annotations

import sys
import time

from .cli import (
    CACHE_ENV_VAR,
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WALL,
    KIND_BY_NAME,
    _emit,
    _engine,
    _fraction_obj,
    _over_budget,
)

# poly battery: chamber-interior points (a,b | c,d) with c < a,b < d
INTERIOR_BASE_POINTS = [
    ((2, 3), (1, 4)),
    ((2, 4), (1, 5)),
    ((3, 4), (2, 5)),
    ((3, 5), (2, 6)),
    ((4, 5), (3, 6)),
    ((2, 5), (1, 6)),
]


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
            for term in report.terms:
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
    from .factorizations import count_factorizations, value_from_count
    from .hurwitz import Conventions, HurwitzEngine, Kind

    conventions = Conventions(m0_pruned=args.m0_pruned_convention)
    records = list(load_cache(args.cache, conventions.as_dict()).items())
    if not records:
        # checking nothing would report all_match: true
        sys.stderr.write(
            f"cache {args.cache} holds no record to check under these conventions\n"
        )
        return EXIT_USAGE
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
