"""The commands ``verify``, ``fit`` and ``cache check``: the identity
batteries, the scaling fit and the recomputation of cached values.
``verify main-theorem`` rebuilds each H from modified pruned values,
the leaf sum of the enumeration's full counts; as the reconstruction
inverts the leaf sum for any values (tested on random ones), it checks
the characters against those counts, not the pruning, which the test
suite ties to its definition.  The corrected ``verify cut-and-join``
fails on the leaf sum of random values, so it checks the values.
``cache check`` recomputes stored H values with the enumeration's full
mode, the other evaluator of H.

Each battery is a generator of its records beside the list of
instances it checks; the budget check reads each instance as that list
is built, and the empty-battery check reads the list, before any record
is made.  One loop, :func:`_report`, emits the records of every battery
and of ``cache check`` and writes their summary.  ``verify poly`` and
``fit`` judge a base point with one function, :func:`_judge`.  A
command refuses by raising :class:`prunedhurwitz.cli.Refusal`, which
:func:`prunedhurwitz.cli.main` reports.

:mod:`prunedhurwitz.cli` imports this module only when one of them
runs, so ``--version``, ``compute`` and a budget refusal do not
compile it.
"""

from __future__ import annotations

import time

from .cli import (
    CACHE_ENV_VAR,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_WALL,
    KIND_BY_NAME,
    Refusal,
    _check_budget,
    _emit,
    _engine,
    _fraction_obj,
)

# the forests battery's largest --max-n; it walks all (n + 1)^(n - 1)
# rooted forests on n vertices
DEFAULT_ENUMERATION_BOUND = 8

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


def _instances(args, min_nu_parts: int):
    """(g, mu, nu) with d <= max_d, g <= max_g, m <= max_m and at least
    ``min_nu_parts`` parts in nu."""
    from .combinatorics import partitions

    for d in range(1, args.max_d + 1):
        parts = list(partitions(d))
        for g in range(args.max_g + 1):
            for mu in parts:
                for nu in parts:
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) >= min_nu_parts and m <= args.max_m:
                        yield g, mu, nu


def cmd_verify(args) -> int:
    if args.which == "forests":
        if not 1 <= args.max_n <= DEFAULT_ENUMERATION_BOUND:
            raise Refusal(f"the forests battery enumerates 1 <= n <= {DEFAULT_ENUMERATION_BOUND}; "
                          f"got --max-n {args.max_n}")
        # the forests battery reads no Hurwitz value
        records = _forests(args.max_n)
    else:
        if args.which == "poly":
            from .polynomiality import samples_needed

            need = max(samples_needed(0, len(mu), len(nu)) for mu, nu in INTERIOR_BASE_POINTS)
            if args.t_max < need:
                raise Refusal(f"the poly battery needs --t-max >= {need}")
            instances = [(0, mu, nu) for mu, nu in INTERIOR_BASE_POINTS]
            # the budget reads each point the scaling reaches
            for g, mu, nu in instances:
                for t in range(1, args.t_max + 1):
                    _check_budget(args, g, tuple(t * x for x in mu), tuple(t * x for x in nu))
        else:
            # the least number of parts of nu each battery needs; as
            # m = 2g - 2 + l(mu) + l(nu) >= l(nu) - 1, it bounds m from below
            min_nu_parts = {"main-theorem": 2, "cut-and-join": 3}[args.which]
            # each instance's budget is checked as it is listed, so the
            # first instance over it refuses before the rest are listed
            instances = []
            for g, mu, nu in _instances(args, min_nu_parts):
                _check_budget(args, g, mu, nu)
                instances.append((g, mu, nu))
            if not instances:
                # an empty battery would report all_match: true having checked nothing
                raise Refusal(f"the {args.which} battery has no instance with d <= {args.max_d}, "
                              f"g <= {args.max_g} and m <= {args.max_m} (it needs "
                              f"l(nu) >= {min_nu_parts}, so m >= {min_nu_parts - 1})")
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

    reading = args.stability_reading or "literal"
    first_failure = True
    for g, mu, nu in instances:
        report = verify_recursion(g, mu, nu, engine, reading, args.variant)
        yield {
            "type": "cut-and-join",
            "genus": g, "mu": list(mu), "nu": list(nu),
            "variant": args.variant,
            "stability_reading": reading,
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
    """The values at the base point scaled by t = 1..t_max, fitted once:
    the fit's coefficients, and the judgement: the samples, their
    finite-difference degree, the degree bound and whether the point
    lies on a wall."""
    from .combinatorics import is_wall_point
    from .polynomiality import _fit, degree_bound, scaling_values

    values = scaling_values(g, mu, nu, kind, t_max, engine)
    coeffs, degree = _fit(values)
    return coeffs, {
        "samples": [_fraction_obj(v) for v in values],
        "degree": degree,
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
    load from the cache by one count each, with one set of move tables:
    H by the enumeration's full mode, the pruned values by its pruned
    mode, as the engine computes them, in :func:`_enumerated`'s order."""
    if not args.cache:
        raise Refusal(f"cache check needs --cache or ${CACHE_ENV_VAR}")
    if args.sample < 1:
        raise Refusal("--sample must be at least 1")
    from .cache import load_cache

    records = list(load_cache(args.cache).items())
    if not records:
        # checking nothing would report all_match: true
        raise Refusal(f"cache {args.cache} holds no record to check")
    size = min(args.sample, len(records))
    sample = [records[i * len(records) // size] for i in range(size)]
    for (g, mu, nu, tag), _ in sample:
        _check_budget(args, g, *_enumerated(g, mu, nu, tag))
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
    from .coloured import MoveTables
    from .factorizations import count_factorizations, value_from_count

    tables = MoveTables()
    for (g, mu, nu, tag), stored in sample:
        frozen, target = _enumerated(g, mu, nu, tag)
        n = count_factorizations(g, frozen, target, tag == "PH", tables=tables)
        recomputed = value_from_count(n, frozen, target)
        yield {
            "type": "cache-check",
            "genus": g, "mu": list(mu), "nu": list(nu), "kind": tag,
            "stored": _fraction_obj(stored),
            "recomputed": _fraction_obj(recomputed),
            "recomputed_by": "engine" if tag == "PH" else "enumeration",
            "match": recomputed == stored,
        }


def cmd_fit(args) -> int:
    g, mu, nu = args.genus, args.mu, args.nu
    from .combinatorics import is_wall_point
    from .polynomiality import degree_bound, samples_needed

    if degree_bound(g, len(mu), len(nu)) < 0:
        raise Refusal("polynomiality says nothing at m = 0 (genus 0, one part on each side)")
    need = samples_needed(g, len(mu), len(nu))
    if args.t_max < need:
        raise Refusal(f"fitting this base point needs --t-max >= {need}")
    if is_wall_point(mu, nu) and not args.allow_wall:
        raise Refusal("refusing wall base point (a proper sub-balance holds); "
                      "pass --allow-wall to fit anyway", EXIT_WALL)
    scaled = tuple(args.t_max * x for x in mu), tuple(args.t_max * x for x in nu)
    _check_budget(args, g, *scaled)
    from .hurwitz import Kind

    kind = Kind(KIND_BY_NAME[args.kind])
    engine = _engine(args)
    start = time.perf_counter()
    coeffs, judged = _judge(g, mu, nu, kind, args.t_max, engine)
    _emit({
        "command": "fit",
        "genus": g, "mu": list(mu), "nu": list(nu), "kind": kind.value,
        "t_max": args.t_max,
        **judged,
        "coefficients": [_fraction_obj(c) for c in coeffs],
        "bound_met": judged["degree"] == judged["bound"],
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }, args)
    return EXIT_OK
