"""The commands ``verify``, ``fit`` and ``cache check``: the identity
batteries, the scaling fit and the recomputation of cached values.
``verify main-theorem`` rebuilds each H from modified pruned values, so
it compares two evaluators that share no code; ``cache check``
recomputes stored H values with the enumeration's full mode, the other
evaluator of H.

Each battery is a generator of its records beside the list of
instances it checks; the budget check and the empty-battery check read
that same list before any record is made.  One loop, :func:`_report`,
emits the records of every battery and of ``cache check`` and writes
their summary.  ``verify poly`` and ``fit`` judge a base point with one
function, :func:`_judge`.

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


def _report(records, summary: dict, args) -> int:
    """Emit each record, then ``summary`` with whether every record
    matched and the time taken; exit 0 when all matched, 1 otherwise."""
    start = time.perf_counter()
    all_match = True
    for record in records:
        all_match &= record.get("match", True)  # a term breakdown carries no match
        _emit(record, args)
    _emit({
        **summary,
        "all_match": all_match,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK if all_match else EXIT_MISMATCH


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


def cmd_verify(args) -> int:
    if args.which == "forests":
        from .forests import DEFAULT_ENUMERATION_BOUND

        if not 1 <= args.max_n <= DEFAULT_ENUMERATION_BOUND:
            sys.stderr.write(
                f"the forests battery enumerates 1 <= n <= {DEFAULT_ENUMERATION_BOUND}; "
                f"got --max-n {args.max_n}\n"
            )
            return EXIT_USAGE
        # the forests battery reads no Hurwitz value
        records = _forests(args.max_n)
    else:
        if args.which == "poly":
            from .polynomiality import samples_needed

            need = max(samples_needed(0, len(mu), len(nu)) for mu, nu in INTERIOR_BASE_POINTS)
            if args.t_max < need:
                sys.stderr.write(f"the poly battery needs --t-max >= {need}\n")
                return EXIT_USAGE
            instances = [(0, mu, nu) for mu, nu in INTERIOR_BASE_POINTS]
            # the budget reads each point the scaling reaches
            enumerated = [
                (g, tuple(t * x for x in mu), tuple(t * x for x in nu))
                for g, mu, nu in instances
                for t in range(1, args.t_max + 1)
            ]
        else:
            # the least number of parts of nu and the least m each battery needs
            min_nu_parts, min_m = {"main-theorem": (2, 0), "cut-and-join": (3, 1)}[args.which]
            instances = enumerated = list(_instances(args, min_nu_parts, min_m))
            if not instances:
                # an empty battery would report all_match: true having checked nothing
                needs = f"l(nu) >= {min_nu_parts}" + (f" and m >= {min_m}" if min_m else "")
                sys.stderr.write(
                    f"the {args.which} battery has no instance with d <= {args.max_d}, "
                    f"g <= {args.max_g} and m <= {args.max_m} (it needs {needs})\n"
                )
                return EXIT_USAGE
        if any(_over_budget(args, g, mu, nu) for g, mu, nu in enumerated):
            return EXIT_BUDGET
        battery = {"main-theorem": _main_theorem, "cut-and-join": _cut_and_join, "poly": _poly}
        records = battery[args.which](args, instances, _engine(args))
    return _report(records, {"command": "verify", "which": args.which}, args)


def _main_theorem(args, instances, engine):
    from .reconstruction import reconstruct_double_hurwitz, reconstruct_via_forests

    for g, mu, nu in instances:
        direct = engine.double(g, mu, nu)
        by_polynomial = reconstruct_double_hurwitz(g, mu, nu, engine.phat)
        by_forests = reconstruct_via_forests(g, mu, nu, engine.phat)
        yield {
            "type": "main-theorem",
            "genus": g, "mu": list(mu), "nu": list(nu),
            "direct": _fraction_obj(direct),
            "reconstruction": _fraction_obj(by_polynomial),
            "forest_form": _fraction_obj(by_forests),
            "match": direct == by_polynomial == by_forests,
        }


def _cut_and_join(args, instances, engine):
    from .cutjoin import verify_recursion

    first_failure = True
    for g, mu, nu in instances:
        report = verify_recursion(
            g, mu, nu, engine,
            stability_reading=args.stability_reading or "literal",
            variant=args.variant,
        )
        yield {
            "type": "cut-and-join",
            "genus": g, "mu": list(mu), "nu": list(nu),
            "variant": report.variant,
            "stability_reading": report.stability_reading,
            "lhs": _fraction_obj(report.lhs),
            "rhs": _fraction_obj(report.rhs),
            "cases": {k: _fraction_obj(v) for k, v in report.per_case_totals.items()},
            "match": report.match,
        }
        if first_failure and not report.match:
            first_failure = False
            for term in report.terms:
                yield {
                    "type": "cut-and-join-term",
                    "genus": g, "mu": list(mu), "nu": list(nu),
                    "case": term.case,
                    "params": {k: str(v) for k, v in term.params.items()},
                    "value": _fraction_obj(term.value),
                }


def _forests(max_n: int):
    from collections import Counter
    from itertools import combinations

    from .forests import count_forests_with_degrees, enumerate_rooted_forests

    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                grouped = Counter(f.out_degrees() for f in enumerate_rooted_forests(n, roots))
                formula = {degs: count_forests_with_degrees(degs, roots) for degs in grouped}
                total = sum(grouped.values())
                expected_total = 1 if n == r else r * n ** (n - r - 1)
                yield {
                    "type": "forests",
                    "n": n, "roots": list(roots),
                    "forest_count": total,
                    "expected_total": expected_total,
                    "degree_sequences": len(grouped),
                    "match": formula == grouped and total == expected_total,
                }


def _judge(g, mu, nu, kind, t_max, engine):
    """The values at the base point scaled by t = 1..t_max, and their
    judgement: the samples, their finite-difference degree, the degree
    bound and whether the point lies on a wall."""
    from .combinatorics import is_wall_point
    from .polynomiality import degree_bound, finite_difference_degree, scaling_values

    values = scaling_values(g, mu, nu, kind, t_max, engine)
    return values, {
        "samples": [_fraction_obj(v) for v in values],
        "degree": finite_difference_degree(values),
        "bound": degree_bound(g, len(mu), len(nu)),
        "wall": is_wall_point(mu, nu),
    }


def _poly(args, instances, engine):
    from .hurwitz import Kind

    for g, mu, nu in instances:
        _, judged = _judge(g, mu, nu, Kind.PRUNED, args.t_max, engine)
        wall = judged.pop("wall")
        yield {
            "type": "poly",
            "mu": list(mu), "nu": list(nu),
            **judged,
            "match": judged["degree"] == judged["bound"] and not wall,
        }


def cmd_cache_check(args) -> int:
    """Recompute an evenly spaced sample of the records the engine would
    load from the cache: H by the enumeration's full mode, in the
    orientation with the smaller search bound, the pruned values by one
    engine without the cache."""
    if not args.cache:
        sys.stderr.write(f"cache check needs --cache or ${CACHE_ENV_VAR}\n")
        return EXIT_USAGE
    if args.sample < 1:
        sys.stderr.write("--sample must be at least 1\n")
        return EXIT_USAGE
    from .cache import load_cache

    records = list(load_cache(args.cache).items())
    if not records:
        # checking nothing would report all_match: true
        sys.stderr.write(f"cache {args.cache} holds no record to check\n")
        return EXIT_USAGE
    size = min(args.sample, len(records))
    sample = [records[i * len(records) // size] for i in range(size)]
    if any(_over_budget(args, g, *_enumerated(g, mu, nu, tag)) for (g, mu, nu, tag), _ in sample):
        return EXIT_BUDGET
    summary = {"command": "cache", "action": "check", "records": len(records),
               "checked": len(sample)}
    return _report(_recomputed(sample), summary, args)


def _enumerated(g, mu, nu, tag):
    """The profiles a record is recomputed with, sigma1's type first:
    for H, symmetric and stored once per unordered pair, the orientation
    whose search bound is the smaller."""
    from .factorizations import search_work_bound

    if tag == "H" and search_work_bound(g, nu, mu) < search_work_bound(g, mu, nu):
        return nu, mu
    return mu, nu


def _recomputed(sample):
    from .factorizations import count_factorizations, value_from_count
    from .hurwitz import HurwitzEngine, Kind

    # the records' keys differ, so the engine's memo never answers one
    # from another; only its move tables are shared, by every count
    engine = HurwitzEngine()
    for (g, mu, nu, tag), stored in sample:
        if tag == Kind.FULL.value:
            frozen, target = _enumerated(g, mu, nu, tag)
            n = count_factorizations(g, frozen, target, tables=engine._tables)
            recomputed = value_from_count(n, frozen, target)
            by = "enumeration"
        else:
            recomputed = engine.value(g, mu, nu, Kind(tag))
            by = "engine"
        yield {
            "type": "cache-check",
            "genus": g, "mu": list(mu), "nu": list(nu), "kind": tag,
            "stored": _fraction_obj(stored),
            "recomputed": _fraction_obj(recomputed),
            "recomputed_by": by,
            "match": recomputed == stored,
        }


def cmd_fit(args) -> int:
    g, mu, nu = args.genus, args.mu, args.nu
    from .combinatorics import is_wall_point
    from .polynomiality import degree_bound, fit_univariate, samples_needed

    if degree_bound(g, len(mu), len(nu)) < 0:
        sys.stderr.write("polynomiality says nothing at m = 0 (genus 0, one part on each side)\n")
        return EXIT_USAGE
    need = samples_needed(g, len(mu), len(nu))
    if args.t_max < need:
        sys.stderr.write(f"fitting this base point needs --t-max >= {need}\n")
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
    from .hurwitz import Kind

    kind = Kind(KIND_BY_NAME[args.kind])
    engine = _engine(args)
    start = time.perf_counter()
    values, judged = _judge(g, mu, nu, kind, args.t_max, engine)
    _emit({
        "command": "fit",
        "genus": g, "mu": list(mu), "nu": list(nu), "kind": kind.value,
        "t_max": args.t_max,
        **judged,
        "coefficients": [_fraction_obj(c) for c in fit_univariate(values)],
        "bound_met": judged["degree"] == judged["bound"],
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK
