"""The three workloads: their jobs, and the check of each job's result.

A job is run by the runner, which times it; its ``check`` returns None
for a correct result and a reason otherwise.  Expected values are exact
and were computed at the commit that introduced the benchmark; closed
forms are checked wherever one exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

from prunedhurwitz import (
    HurwitzEngine,
    Kind,
    count_forests_with_degrees,
    enumerate_rooted_forests,
    finite_difference_degree,
    reconstruct_double_hurwitz,
    reconstruct_via_forests,
    scaling_values,
    verify_recursion,
)


@dataclass
class Job:
    id: str
    group: str
    run: Callable[[Any], Any] | None = None  # in-process: run(ctx) -> result
    check: Callable[[Any], str | None] = lambda result: None
    argv: list[str] = field(default_factory=list)  # cli: arguments after the program
    exit_code: int = 0  # cli: the expected exit code


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as non-increasing tuples, largest first."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def transposition_count(g: int, mu, nu) -> int:
    return 2 * g - 2 + len(mu) + len(nu)


def chamber_point(g: int, mu, nu) -> bool:
    """A genus-0 point (a, b | c, d) with c < a, b < d, where the closed
    forms H0 = 2d and PH0 = 2c hold."""
    return (
        g == 0 and len(mu) == 2 and len(nu) == 2
        and min(nu) < min(mu) and max(mu) < max(nu)
    )


def canonical(result: Any) -> Any:
    """Exact results in a form that does not depend on int versus
    Fraction, for the seed-independent results digest."""
    if isinstance(result, (tuple, list)):
        return tuple(canonical(x) for x in result)
    if isinstance(result, (int, Fraction)) and not isinstance(result, bool):
        return str(Fraction(result))
    return result


def _expect(expected) -> Callable[[Any], str | None]:
    def check(result):
        if result != expected:
            return f"got {result}, expected {expected}"
        return None

    return check


# -- ladder: cold single values, a fresh engine per job ----------------------

# (g, mu, nu, kind, exact value); the 25-34 s rows of the ROADMAP table
# stay out so that a run can be repeated many times.
LADDER_ROWS = [
    # deep: small d, large m
    (2, (4, 1), (3, 2), Kind.PRUNED, 63840),
    (1, (3, 2, 1), (4, 2), Kind.PRUNED, 16200),
    # wide: large d, small m
    (0, (3, 3, 3), (4, 4, 1), Kind.PRUNED, 3888),
    (0, (3, 3, 2), (4, 2, 2), Kind.FULL, 4032),
    # ROADMAP baseline rows
    (1, (4, 4), (3, 5), Kind.PRUNED, 6272),
    (1, (3, 3), (2, 4), Kind.FULL, 1584),
    (0, (4, 3), (2, 2, 2, 1), Kind.PRUNED, 3456),
    # the Burnside path (both profiles a single part)
    (2, (8,), (8,), Kind.MODIFIED_PRUNED, 24896),
    (3, (5,), (5,), Kind.MODIFIED_PRUNED, 81250),
]


def _label(g, mu, nu) -> str:
    return f"g{g}:{','.join(map(str, mu))}|{','.join(map(str, nu))}"


def ladder_jobs() -> list[Job]:
    jobs = []
    for g, mu, nu, kind, expected in LADDER_ROWS:
        def run(ctx, g=g, mu=mu, nu=nu, kind=kind):
            return HurwitzEngine().value(g, mu, nu, kind)

        jobs.append(Job(
            id=f"{kind.value}:{_label(g, mu, nu)}",
            group="burnside" if len(mu) == len(nu) == 1 else "value",
            run=run,
            check=_expect(Fraction(expected)),
        ))
    return jobs


# -- battery: the identity checks in-process, one engine per pass -------------

# chamber-interior base points of the polynomiality battery
INTERIOR_BASE_POINTS = [
    ((2, 3), (1, 4)),
    ((2, 4), (1, 5)),
    ((3, 4), (2, 5)),
    ((3, 5), (2, 6)),
    ((4, 5), (3, 6)),
    ((2, 5), (1, 6)),
]
POLY_T_MAX = 4


def instances(max_d: int, min_faces: int, min_m: int, max_g: int = 1, max_m: int = 5):
    """(g, mu, nu) in the order the CLI batteries visit them."""
    for d in range(1, max_d + 1):
        parts = list(partitions(d))
        for g in range(max_g + 1):
            for mu in parts:
                for nu in parts:
                    m = transposition_count(g, mu, nu)
                    if len(nu) >= min_faces and min_m <= m <= max_m:
                        yield g, mu, nu


def _reconstruction_job(g, mu, nu) -> Job:
    def run(ctx):
        engine, tracer = ctx.engine, ctx.tracer
        direct = engine.double(g, mu, nu)
        with tracer.span("reconstruction.degrees"):
            by_degrees = reconstruct_double_hurwitz(g, mu, nu, engine.phat)
        with tracer.span("reconstruction.forests"):
            by_forests = reconstruct_via_forests(g, mu, nu, engine.phat)
        pruned = engine.pruned(g, mu, nu) if chamber_point(g, mu, nu) else None
        return direct, by_degrees, by_forests, pruned

    def check(result):
        direct, by_degrees, by_forests, pruned = result
        if not direct == by_degrees == by_forests:
            return f"direct {direct}, by degrees {by_degrees}, by forests {by_forests}"
        if pruned is not None and (direct, pruned) != (2 * max(nu), 2 * min(nu)):
            return f"chamber point: H0 = {direct}, PH0 = {pruned}"
        return None

    return Job(f"recon:{_label(g, mu, nu)}", "reconstruction", run, check)


def _cutjoin_job(g, mu, nu) -> Job:
    def run(ctx):
        with ctx.tracer.span("cutjoin"):
            report = verify_recursion(g, mu, nu, ctx.engine, variant="corrected")
        return report.lhs, report.rhs, report.match

    def check(result):
        lhs, rhs, match = result
        if not (match and lhs == rhs):
            return f"lhs {lhs}, rhs {rhs}, match {match}"
        return None

    return Job(f"cutjoin:{_label(g, mu, nu)}", "cutjoin", run, check)


def _poly_job(mu, nu) -> Job:
    degree = 4 * 0 - 3 + len(mu) + len(nu)
    closed_form = [Fraction(2 * t * min(nu)) for t in range(1, POLY_T_MAX + 1)]

    def run(ctx):
        with ctx.tracer.span("polynomiality"):
            values = scaling_values(0, mu, nu, Kind.PRUNED, POLY_T_MAX, ctx.engine)
            found = finite_difference_degree(values)
        return tuple(values), found

    def check(result):
        values, found = result
        if list(values) != closed_form:
            return f"samples {values}, expected PH0 = 2tc: {closed_form}"
        if found != degree:
            return f"degree {found}, expected {degree}"
        return None

    return Job(f"poly:{_label(0, mu, nu)}", "polynomiality", run, check)


def _forests_job(n, roots) -> Job:
    r = len(roots)
    expected_total = 1 if n == r else r * n ** (n - r - 1)

    def run(ctx):
        with ctx.tracer.span("forests") as attrs:
            grouped: dict[tuple, int] = {}
            for forest in enumerate_rooted_forests(n, roots):
                degs = forest.out_degrees()
                grouped[degs] = grouped.get(degs, 0) + 1
            total = sum(grouped.values())
            attrs["n"] = total
            formula_mismatches = sum(
                count_forests_with_degrees(degs, roots) != count
                for degs, count in grouped.items()
            )
        return total, len(grouped), formula_mismatches

    def check(result):
        total, _sequences, formula_mismatches = result
        if total != expected_total:
            return f"{total} forests, expected r*n^(n-r-1) = {expected_total}"
        if formula_mismatches:
            return f"{formula_mismatches} degree sequences disagree with the closed form"
        return None

    return Job(f"forests:n{n}:{','.join(map(str, roots))}", "forests", run, check)


FOREST_MAX_N = 7


def battery_jobs() -> list[Job]:
    jobs = [_reconstruction_job(*inst) for inst in instances(5, min_faces=2, min_m=0)]
    jobs += [_cutjoin_job(*inst) for inst in instances(5, min_faces=3, min_m=1)]
    jobs += [_poly_job(mu, nu) for mu, nu in INTERIOR_BASE_POINTS]
    jobs += [
        _forests_job(n, roots)
        for n in range(1, FOREST_MAX_N + 1)
        for r in range(1, n + 1)
        for roots in combinations(range(n), r)
    ]
    return jobs


# sha256 of the canonical battery results (see run.results_digest),
# recorded at the commit that introduced the benchmark; every seed must
# reproduce it.
BATTERY_DIGEST = "8afd40268df667306db8e1f96f25aeac947b4b0a61608d19aa90b4e5a08e90d8"


# -- cli: the command-line program as a subprocess ---------------------------

def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _frac(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _summary(records: list[dict], which: str) -> dict | None:
    for rec in records:
        if rec.get("command") == "verify" and rec.get("which") == which:
            return rec
    return None


def _instance_set(records, type_):
    return {
        (rec["genus"], tuple(rec["mu"]), tuple(rec["nu"]))
        for rec in records if rec.get("type") == type_
    }


def _check_compute(kind: str, value: int, tuple_count: int):
    def check(stdout):
        recs = [r for r in _records(stdout) if r.get("command") == "compute"]
        if len(recs) != 1:
            return f"{len(recs)} compute reports"
        rec = recs[0]
        got = (rec["kind"], _frac(rec["value"]), int(rec["tuple_count"]))
        if got != (kind, value, tuple_count):
            return f"got {got}, expected {(kind, value, tuple_count)}"
        return None

    return check


def _check_main_theorem(max_d: int):
    expected = set(instances(max_d, min_faces=2, min_m=0))

    def check(stdout):
        records = _records(stdout)
        summary = _summary(records, "main-theorem")
        if summary is None or summary["all_match"] is not True:
            return "summary missing or all_match is not true"
        if _instance_set(records, "main-theorem") != expected:
            return "reported instances differ from the battery"
        for rec in records:
            if rec.get("type") != "main-theorem":
                continue
            direct = _frac(rec["direct"])
            if not direct == _frac(rec["reconstruction"]) == _frac(rec["forest_form"]):
                return f"mismatch at {rec['genus']} {rec['mu']}|{rec['nu']}"
            if chamber_point(rec["genus"], rec["mu"], rec["nu"]) and direct != 2 * max(rec["nu"]):
                return f"H0 = {direct} at chamber point {rec['mu']}|{rec['nu']}"
        return None

    return check


def _check_cut_and_join(max_d: int, expect_match: bool):
    expected = set(instances(max_d, min_faces=3, min_m=1))

    def check(stdout):
        records = _records(stdout)
        summary = _summary(records, "cut-and-join")
        if summary is None or summary["all_match"] is not expect_match:
            return f"summary missing or all_match is not {expect_match}"
        if _instance_set(records, "cut-and-join") != expected:
            return "reported instances differ from the battery"
        mismatches = 0
        for rec in records:
            if rec.get("type") != "cut-and-join":
                continue
            equal = _frac(rec["lhs"]) == _frac(rec["rhs"])
            if rec["match"] is not equal:
                return f"match flag disagrees with lhs/rhs at {rec['mu']}|{rec['nu']}"
            mismatches += not equal
        if expect_match:
            return None
        if not mismatches:
            return "the known mismatch of the plain statement is not reported"
        if not any(rec.get("type") == "cut-and-join-term" for rec in records):
            return "the first mismatch carries no term breakdown"
        return None

    return check


def _check_poly(stdout):
    records = _records(stdout)
    summary = _summary(records, "poly")
    if summary is None or summary["all_match"] is not True:
        return "summary missing or all_match is not true"
    polys = [r for r in records if r.get("type") == "poly"]
    if {(tuple(r["mu"]), tuple(r["nu"])) for r in polys} != set(INTERIOR_BASE_POINTS):
        return "reported base points differ from the battery"
    for rec in polys:
        c = min(rec["nu"])
        samples = [_frac(s) for s in rec["samples"]]
        if samples != [2 * t * c for t in range(1, len(samples) + 1)]:
            return f"samples {samples} at {rec['mu']}|{rec['nu']} are not PH0 = 2tc"
        if not rec["degree"] == rec["bound"] == 1:
            return f"degree {rec['degree']} at {rec['mu']}|{rec['nu']}"
    return None


def _check_fit(stdout):
    recs = [r for r in _records(stdout) if r.get("command") == "fit"]
    if len(recs) != 1:
        return f"{len(recs)} fit reports"
    rec = recs[0]
    samples = [_frac(s) for s in rec["samples"]]
    coeffs = [_frac(c) for c in rec["coefficients"]]
    if samples != [2, 4, 6, 8] or coeffs != [0, 2]:
        return f"samples {samples}, coefficients {coeffs}"
    if not (rec["degree"] == rec["bound"] == 1 and rec["bound_met"] is True):
        return f"degree {rec['degree']}, bound {rec['bound']}"
    return None


def _check_refusal(stdout):
    if _records(stdout):
        return "the refused compute still printed a report"
    return None


def cli_jobs(version: str) -> list[Job]:
    """The nine jobs of one cli pass; the runner adds the cache flags."""

    def check_version(stdout):
        if stdout.strip() != version:
            return f"printed {stdout.strip()!r}, expected {version!r}"
        return None

    return [
        Job("version", "startup", argv=["--version"], check=check_version),
        Job("compute:PHHAT:g2:7|7", "compute",
            argv=["compute", "--genus", "2", "--mu", "7", "--nu", "7",
                  "--kind", "modified-pruned"],
            check=_check_compute("PHHAT", 9604, 67228)),
        Job("compute:PH:g1:4,4|3,5", "compute",
            argv=["compute", "--genus", "1", "--mu", "4,4", "--nu", "3,5",
                  "--kind", "pruned"],
            check=_check_compute("PH", 6272, 100352)),
        # any search bound refuses d = 24 at m = 17
        Job("compute:over-budget", "refusal",
            argv=["compute", "--genus", "6", "--mu", "6,6,6,6", "--nu", "8,8,8"],
            exit_code=3, check=_check_refusal),
        Job("verify:main-theorem", "verify",
            argv=["verify", "main-theorem", "--max-d", "4"],
            check=_check_main_theorem(4)),
        Job("verify:cut-and-join:corrected", "verify",
            argv=["verify", "cut-and-join", "--max-d", "5", "--variant", "corrected"],
            check=_check_cut_and_join(5, expect_match=True)),
        Job("verify:cut-and-join:plain", "verify",
            argv=["verify", "cut-and-join", "--max-d", "4", "--variant", "plain"],
            exit_code=1, check=_check_cut_and_join(4, expect_match=False)),
        Job("verify:poly", "verify", argv=["verify", "poly"], check=_check_poly),
        Job("fit:2,3|1,4", "fit",
            argv=["fit", "--mu", "2,3", "--nu", "1,4", "--kind", "pruned", "--t-max", "4"],
            check=_check_fit),
    ]
