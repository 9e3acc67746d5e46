"""Acceptance battery.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Every comparison
is an exact rational equality; there are no tolerances anywhere.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from prunedhurwitz.cli import main as cli_main
from prunedhurwitz.cutjoin import verify_recursion
from prunedhurwitz.forests import count_forests_with_degrees, enumerate_rooted_forests
from prunedhurwitz.hurwitz import HurwitzEngine, Kind
from prunedhurwitz.polynomiality import (
    degree_bound,
    finite_difference_degree,
    forward_differences,
    is_wall_point,
    scaling_values,
)
from prunedhurwitz.reconstruction import (
    reconstruct_double_hurwitz,
    reconstruct_via_forests,
)

from oracles import partitions


@pytest.fixture(scope="module")
def engine():
    return HurwitzEngine()


def report(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


# 1 -------------------------------------------------------------------------

CHAMBER_POINTS = [
    # (a, b | c, d) with c < a, b < d and a + b = c + d, d <= 10
    (2, 3, 1, 4), (2, 4, 1, 5), (3, 4, 2, 5), (2, 5, 1, 6), (3, 5, 2, 6),
    (4, 5, 3, 6), (2, 6, 1, 7), (3, 6, 2, 7), (4, 6, 3, 7), (5, 6, 4, 7),
    (2, 7, 1, 8), (3, 7, 2, 8),
]


def test_criterion_1_chamber_values(engine):
    failures = []
    for a, b, c, d in CHAMBER_POINTS:
        assert c < a <= b < d and a + b == c + d and d <= 10
        assert not is_wall_point((a, b), (c, d))
        if engine.double(0, (a, b), (c, d)) != 2 * d:
            failures.append((a, b, c, d, "full"))
        if engine.pruned(0, (a, b), (c, d)) != 2 * c:
            failures.append((a, b, c, d, "pruned"))
    ok = not failures
    report(1, ok, f"H0 = 2d and PH0 = 2c on {len(CHAMBER_POINTS)} chamber-interior "
                  f"points with d <= 10 ({len(failures)} failures)")
    assert ok, failures


# 2 -------------------------------------------------------------------------

def test_criterion_2_single_face_vanishing(engine):
    failures = []
    for d in range(1, 7):
        for mu in partitions(d):
            if engine.pruned(0, mu, (d,)) != 0:
                failures.append(mu)
    special = engine.pruned(0, (2,), (1, 1))
    ok = not failures and special == 1
    report(2, ok, f"PH0(mu,(d)) = 0 for all mu with d <= 6; PH0((2),(1,1)) = {special}")
    assert ok, (failures, special)


# 3 -------------------------------------------------------------------------

def reconstruction_battery():
    for d in range(1, 6):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 5:
                        continue
                    yield g, mu, nu


def test_criterion_3_reconstruction_identity(engine):
    # The reconstruction identity holds on its domain l(nu) >= 2; the
    # underlying leaf removal is undefined for a single face (at genus
    # zero it ends at a bare vertex), and equality there is provably
    # impossible: the nu~ = nu summand is the integer-valued modified
    # pruned count while H0((d),(d)) = 1/d, and at (0,(1,1),(2)) the
    # right side is twice an integer while H = 1.  The single-face
    # instances are evaluated and reported rather than asserted equal.
    failures = []
    checked = 0
    single_face = {"match": 0, "mismatch": 0}
    for g, mu, nu in reconstruction_battery():
        direct = engine.double(g, mu, nu)
        by_degrees = reconstruct_double_hurwitz(g, mu, nu, engine.phat)
        by_forests = reconstruct_via_forests(g, mu, nu, engine.phat)
        if len(nu) < 2:
            single_face["match" if direct == by_degrees == by_forests else "mismatch"] += 1
            continue
        checked += 1
        if not (direct == by_degrees == by_forests):
            failures.append((g, mu, nu, direct, by_degrees, by_forests))
    # the two provable counterexamples behave exactly as analysed
    impossible_confirmed = (
        reconstruct_double_hurwitz(0, (1, 1), (2,), engine.phat) == 0
        and engine.double(0, (1, 1), (2,)) == 1
        and reconstruct_double_hurwitz(0, (2,), (2,), engine.phat) == 0
        and engine.double(0, (2,), (2,)) == Fraction(1, 2)
    )
    ok = not failures and checked >= 90 and impossible_confirmed and single_face["mismatch"] > 0
    report(3, ok, f"reconstruction = direct = forest form on all {checked} instances "
                  f"with d <= 5, g <= 1, m <= 5, l(nu) >= 2; the l(nu) = 1 family is "
                  f"outside the identity's domain ({single_face['mismatch']} of "
                  f"{sum(single_face.values())} such instances do not match, two of "
                  f"them provably)")
    assert ok, failures


# 4 -------------------------------------------------------------------------

def recursion_battery():
    for d in range(1, 6):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) >= 3 and 0 < m <= 5:
                        yield g, mu, nu


def test_criterion_4_cut_and_join(engine):
    instances = list(recursion_battery())
    outcomes = {}
    for reading in ("literal", "facecount"):
        mismatches = []
        for g, mu, nu in instances:
            rep = verify_recursion(g, mu, nu, engine, stability_reading=reading)
            if not rep.match:
                mismatches.append((g, mu, nu, rep.lhs, rep.rhs))
        outcomes[reading] = mismatches
    passing = [r for r, mism in outcomes.items() if not mism]

    # mismatch forensics must be available: per-term breakdown of a
    # failing instance sums to its right-hand side
    worst = outcomes["literal"] or outcomes["facecount"]
    breakdown_ok = True
    if worst:
        g, mu, nu, lhs, rhs = worst[0]
        rep = verify_recursion(g, mu, nu, engine, keep_terms=True)
        breakdown_ok = (
            len(rep.terms) > 0
            and sum((t.value for t in rep.terms), Fraction(0)) == rep.rhs
            and sum(rep.per_case_totals.values(), Fraction(0)) == rep.rhs
        )

    # the corrected accounting must close the gap exactly everywhere
    corrected_failures = []
    for g, mu, nu in instances:
        rep = verify_recursion(g, mu, nu, engine, variant="corrected")
        if not rep.match:
            corrected_failures.append((g, mu, nu, rep.lhs, rep.rhs))

    if passing:
        outcome = f"passing stability reading: {passing}"
    else:
        outcome = (
            f"no stability reading passes the plain statement "
            f"(literal {len(outcomes['literal'])}, facecount "
            f"{len(outcomes['facecount'])} of {len(instances)} mismatch; "
            f"overcount = split configurations whose halves are both "
            f"cycles, double-produced by the join term); per-term "
            f"breakdown available; corrected accounting matches "
            f"{len(instances) - len(corrected_failures)}/{len(instances)}"
        )
    ok = breakdown_ok and not corrected_failures
    report(4, ok, outcome)
    assert ok, (outcomes, corrected_failures)


# 5 -------------------------------------------------------------------------

def test_criterion_5_forest_formula():
    from prunedhurwitz.combinatorics import compositions

    failures = []
    for n in range(1, 8):
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                observed = {}
                for forest in enumerate_rooted_forests(n, roots):
                    degs = forest.out_degrees()
                    observed[degs] = observed.get(degs, 0) + 1
                total = 0
                for degs in compositions(n - r, n):
                    formula = count_forests_with_degrees(degs, roots)
                    total += formula
                    if formula != observed.get(degs, 0):
                        failures.append((n, roots, degs))
                expected = 1 if n == r else r * n ** (n - r - 1)
                if total != expected:
                    failures.append((n, roots, "total"))
    ok = not failures
    report(5, ok, "forest counts match brute force for all n <= 7, all root sets, "
                  "all degree sequences, and totals equal |S| * n^(n-|S|-1)")
    assert ok, failures[:5]


# 6 -------------------------------------------------------------------------

def test_criterion_6_polynomial_scaling(engine):
    points = [((2, 3), (1, 4)), ((2, 4), (1, 5)), ((3, 4), (2, 5)),
              ((3, 5), (2, 6)), ((4, 5), (3, 6)), ((2, 5), (1, 6))]
    failures = []
    for mu, nu in points:
        if is_wall_point(mu, nu):
            failures.append((mu, nu, "wall"))
            continue
        values = scaling_values(0, mu, nu, Kind.PRUNED, 4, engine)
        degree = finite_difference_degree(values)
        leading = forward_differences(values)[1]
        if degree != degree_bound(0, 2, 2) or any(x == 0 for x in leading):
            failures.append((mu, nu, values, degree))
    ok = not failures
    report(6, ok, f"PH0(t*mu, t*nu) has exact finite-difference degree 1 = 4g-3+k+l "
                  f"with non-zero leading difference on {len(points)} interior points")
    assert ok, failures


# 7 -------------------------------------------------------------------------

def test_criterion_7_internal_consistency(engine):
    failures = []
    for d in range(1, 6):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    if len(mu) == 1 and len(nu) == 1:
                        continue
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 5:
                        continue
                    if engine.modified_pruned(g, mu, nu) != engine.pruned(g, mu, nu):
                        failures.append((g, mu, nu))
    for d in range(1, 5):
        for g in range(3):
            ph = engine.pruned(g, (d,), (d,))
            phat = engine.modified_pruned(g, (d,), (d,))
            gap = phat - ph
            if phat < ph or gap < 0 or (gap * d).denominator != 1:
                failures.append((g, d, ph, phat))
    ok = not failures
    report(7, ok, "PH = modified PH off the fully ramified types; there "
                  "modified PH >= PH with gap a non-negative multiple of 1/d "
                  "(d <= 4, g <= 2)")
    assert ok, failures


# 8 -------------------------------------------------------------------------

def test_criterion_8_parallel_determinism(capsys):
    batteries = [
        ["compute", "--genus", "1", "--mu", "2,2", "--nu", "2,1,1",
         "--kind", "pruned", "--omit-timing"],
        ["compute", "--genus", "0", "--mu", "3,2", "--nu", "2,2,1",
         "--kind", "full", "--omit-timing"],
        ["verify", "main-theorem", "--max-d", "3", "--omit-timing"],
        ["verify", "cut-and-join", "--max-d", "3", "--variant", "corrected",
         "--omit-timing"],
    ]
    # each cli_main call builds a fresh engine, so the second run
    # recomputes everything from scratch
    outputs = []
    for _ in range(2):
        chunks = []
        for argv in batteries:
            cli_main(argv)
            chunks.append(capsys.readouterr().out)
        outputs.append("".join(chunks))
    ok = outputs[0] == outputs[1]
    report(8, ok, "reports byte-identical across two runs on fresh engines "
                  f"over a {len(batteries)}-command battery")
    assert ok


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-s", "-v"]))
