"""Graph-surgery oracle for the recursion's case analysis.

Every pruned tuple of the target type decomposes by removing its last
transposition (the highest-labelled edge), splitting into connected
components and iteratively deleting valency-one vertices together with
their edge.  Classifying the decompositions gives the ground truth the
recursion terms must reproduce:

* the genus-drop term family equals the connected face-gaining class;
* the join family as customarily stated equals the true join class
  PLUS one copy of every split with exactly one bare-cycle half PLUS
  two copies of every split with two bare-cycle halves (the re-attached
  path may close onto itself, recreating those splits from either
  side);
* the corrected split family equals true splits with no cycle half
  minus the two-cycle ones, exactly compensating the join surplus.

This pins down the overcount of the plain statement instance by
instance, not just in totals.
"""

from collections import Counter
from fractions import Fraction
from functools import cache

from prunedhurwitz.combinatorics import automorphism_factor, centralizer_order
from prunedhurwitz.cutjoin import GENUS_DROP, JOIN, SPLIT, cut_and_join_terms
from prunedhurwitz.hurwitz import HurwitzEngine

from oracles import apply_after, iter_factorization_tuples, perm_cycles

ENGINE = HurwitzEngine()


def _components(d, sigma1, taus):
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for cyc in perm_cycles(sigma1):
        for x in cyc[1:]:
            union(cyc[0], x)
    for a, b in taus:
        union(a, b)
    comps = {}
    for x in range(d):
        comps.setdefault(find(x), set()).add(x)
    return list(comps.values())


def _prune(points, sigma1, taus):
    """Delete valency-one vertices (sigma1-cycles) with their edge until
    none remain; loops count twice towards valency."""
    cycles_left = [set(c) for c in perm_cycles(sigma1) if set(c) <= points]
    taus = list(taus)
    changed = True
    while changed:
        changed = False
        for ci, cyc in enumerate(cycles_left):
            valency = 0
            touching = []
            for ti, (a, b) in enumerate(taus):
                hits = (a in cyc) + (b in cyc)
                valency += hits
                if hits:
                    touching.append(ti)
            if valency == 1:
                del taus[touching[0]]
                del cycles_left[ci]
                changed = True
                break
    return cycles_left, taus


def _pruned_component_shape(points, sigma1, taus):
    """(genus, face count) of the pruned component, via Euler's formula
    with faces read off the restricted transposition product."""
    cycles_left, taus_left = _prune(points, sigma1, taus)
    active = sorted(set().union(*cycles_left))
    index = {p: i for i, p in enumerate(active)}
    prod = tuple(index[sigma1[p]] for p in active)
    for a, b in taus_left:
        images = list(range(len(active)))
        images[index[a]], images[index[b]] = index[b], index[a]
        prod = apply_after(tuple(images), prod)
    vertices = len(cycles_left)
    edges = len(taus_left)
    faces = len(perm_cycles(prod))
    genus2 = 2 - (vertices - edges + faces)
    assert genus2 >= 0 and genus2 % 2 == 0
    return genus2 // 2, faces


@cache
def classify_decompositions(g, mu, nu):
    """Class-weighted counts of the decomposition shapes: keys are
    GENUS_DROP, JOIN and (SPLIT, number of bare-cycle halves)."""
    d = sum(mu)
    weight = Fraction(
        automorphism_factor(mu) * automorphism_factor(nu), centralizer_order(mu)
    )
    out = Counter()
    for t in iter_factorization_tuples(g, mu, nu, pruned=True):
        sigma1 = t.sigma1
        rest = t.transpositions[:-1]
        comps = _components(d, sigma1, rest)
        if len(comps) == 2:
            cycle_halves = 0
            for comp in comps:
                comp_taus = [p for p in rest if p[0] in comp]
                genus, faces = _pruned_component_shape(comp, sigma1, comp_taus)
                if genus == 0 and faces == 2:
                    cycle_halves += 1
            out[(SPLIT, cycle_halves)] += weight
        else:
            prod_after = sigma1
            for a, b in rest:
                images = list(range(d))
                images[a], images[b] = b, a
                prod_after = apply_after(tuple(images), prod_after)
            faces_after = len(perm_cycles(prod_after))
            faces_before = len(nu)
            out[GENUS_DROP if faces_after == faces_before + 1 else JOIN] += weight
    return out


def case_totals(g, mu, nu, variant="plain", **kwargs):
    # each statement reads the oracle it is written in
    oracle = ENGINE.phat if variant == "plain" else ENGINE.pruned
    totals = Counter()
    for term in cut_and_join_terms(g, mu, nu, oracle, variant=variant, **kwargs):
        totals[term.case] += term.value
    return totals


INSTANCES = [
    (0, (3,), (1, 1, 1)),
    (0, (2, 2), (2, 1, 1)),
    (0, (2, 1, 1), (2, 1, 1)),
    (0, (3, 2), (2, 2, 1)),
    (1, (2, 2), (2, 1, 1)),
    (1, (3, 2), (3, 1, 1)),
]


def test_surgery_matches_term_families():
    for g, mu, nu in INSTANCES:
        truth = classify_decompositions(g, mu, nu)
        joins = truth.get(JOIN, Fraction(0))
        drops = truth.get(GENUS_DROP, Fraction(0))
        s0 = truth.get((SPLIT, 0), Fraction(0))
        s1 = truth.get((SPLIT, 1), Fraction(0))
        s2 = truth.get((SPLIT, 2), Fraction(0))

        # the decomposition exhausts the pruned count
        assert drops + joins + s0 + s1 + s2 == ENGINE.pruned(g, mu, nu)

        plain = case_totals(g, mu, nu, stability_reading="facecount")
        corrected = case_totals(g, mu, nu, variant="corrected")

        assert plain[GENUS_DROP] == corrected[GENUS_DROP] == drops, (g, mu, nu)
        # the stated join family absorbs the cycle-half splits
        assert plain[JOIN] == corrected[JOIN] == joins + s1 + 2 * s2, (g, mu, nu)
        # the corrected split family compensates exactly
        assert corrected[SPLIT] == s0 - s2, (g, mu, nu)


def test_plain_statement_overcount_is_the_two_cycle_family():
    for g, mu, nu in INSTANCES:
        truth = classify_decompositions(g, mu, nu)
        s2 = truth.get((SPLIT, 2), Fraction(0))
        plain = case_totals(g, mu, nu, stability_reading="facecount")
        rhs = sum(plain.values(), Fraction(0))
        lhs = ENGINE.pruned(g, mu, nu)
        # facecount split total equals the no-cycle splits except where
        # a fully ramified half or a label interleaving intervenes, so
        # only assert the documented aggregate consequence here:
        if plain[SPLIT] == truth.get((SPLIT, 0), Fraction(0)):
            assert rhs - lhs == s2, (g, mu, nu, rhs, lhs, s2)
