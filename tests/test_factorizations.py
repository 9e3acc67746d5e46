import math
from itertools import product

import pytest

from prunedhurwitz.cli import DEFAULT_BUDGET
from prunedhurwitz.combinatorics import automorphism_factor, centralizer_order
from prunedhurwitz.factorizations import (
    FactorizationTuple,
    count_factorizations,
    count_isomorphism_classes,
    is_pruned,
    is_transitive,
    iter_factorization_tuples,
    search_work_bound,
)
from prunedhurwitz.permutations import canonical_permutation

from oracles import (
    fully_ramified_orbit_count,
    naive_tuple_counts,
    partitions,
    pruned_by_valency,
)


def make_tuple(mu, pairs):
    from prunedhurwitz.permutations import compose, inverse, transposition

    sigma1 = canonical_permutation(mu)
    d = len(sigma1)
    prod = sigma1
    for a, b in pairs:
        prod = compose(transposition(d, a, b), prod)
    return FactorizationTuple(sigma1, tuple(pairs), inverse(prod))


def test_product_identity_holds_for_enumerated_tuples():
    for t in iter_factorization_tuples(0, (2, 1), (1, 1, 1)):
        assert t.product_is_identity()
    for t in iter_factorization_tuples(1, (2,), (2,), pruned=True):
        assert t.product_is_identity()


def test_is_transitive_examples():
    assert is_transitive(make_tuple((2,), []))            # one spanning cycle
    assert is_transitive(make_tuple((1, 1), [(0, 1)]))    # joined by the edge
    assert not is_transitive(make_tuple((1, 1), []))      # two orbits


def test_is_pruned_examples():
    # single loop on a single vertex: the m=1 convention
    assert is_pruned(make_tuple((2,), [(0, 1)]))
    # both fixed points meet both transpositions
    assert is_pruned(make_tuple((1, 1), [(0, 1), (0, 1)]))
    # no edges at all: not pruned by default, flag flips it
    bare = make_tuple((3,), [])
    assert not is_pruned(bare)
    assert is_pruned(bare, m0_pruned=True)
    # m = 1 with two cycles cannot be pruned
    assert not is_pruned(make_tuple((1, 1), [(0, 1)]))


def test_pruned_equals_no_leaf_condition_on_transitive_tuples():
    # for m > 1, the two-transpositions-per-cycle condition is the
    # graph no-leaf condition (loops count twice), given transitivity
    from prunedhurwitz.permutations import transposition

    for mu in [(2,), (1, 1), (2, 1), (3,), (2, 2)]:
        d = sum(mu)
        sigma1 = canonical_permutation(mu)
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        for m in (2, 3):
            for seq in product(pairs, repeat=m):
                t = make_tuple(mu, list(seq))
                if not is_transitive(t):
                    continue
                taus = [transposition(d, a, b) for a, b in seq]
                assert is_pruned(t) == pruned_by_valency(sigma1, taus)


def test_count_factorizations_examples():
    assert count_factorizations(0, (2,), (1, 1)) == 1
    assert count_factorizations(0, (2,), (2,)) == 1
    assert count_factorizations(1, (2,), (2,), pruned=True) == 1
    assert count_factorizations(0, (1,), (1,)) == 1
    # m = 0: the empty sequence qualifies iff sigma1 spans and types agree
    assert count_factorizations(0, (3,), (3,)) == 1
    assert count_factorizations(0, (3,), (3,), pruned=True) == 0
    assert count_factorizations(0, (3,), (3,), pruned=True, m0_pruned=True) == 1


def test_count_matches_naive_filter():
    # the memoised counter against the naive product-and-filter
    # enumeration: every (g <= 1, d <= 4, m <= 4) case, both modes, both
    # m = 0 conventions
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    tuples = list(iter_factorization_tuples(g, mu, nu))
                    assert count_factorizations(g, mu, nu) == len(tuples)
                    for m0_pruned in (False, True):
                        naive = sum(is_pruned(t, m0_pruned=m0_pruned) for t in tuples)
                        got = count_factorizations(g, mu, nu, True, m0_pruned=m0_pruned)
                        assert got == naive, (g, mu, nu, m0_pruned)


def test_pruned_counts_beyond_the_naive_reach():
    # N for two rows of the ROADMAP baseline table, too large for the
    # naive filter
    assert count_factorizations(2, (3, 3), (2, 4), True) == 2_971_404
    assert count_factorizations(1, (2, 2, 2), (3, 2, 1), True) == 3_386_880


def test_pruned_count_never_exceeds_full():
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    full = count_factorizations(g, mu, nu, False)
                    pruned = count_factorizations(g, mu, nu, True)
                    assert 0 <= pruned <= full


def test_conjugation_consistency_against_all_sigma1():
    # total count over ALL sigma1 of type mu equals the frozen-sigma1
    # count times the class size d!/|Z(mu)|
    m_max = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}
    for d in range(1, 6):
        for m in range(m_max[d] + 1):
            naive = naive_tuple_counts(d, m)
            for mu in partitions(d):
                for nu in partitions(d):
                    g2 = m - len(mu) - len(nu) + 2
                    if g2 < 0 or g2 % 2:
                        continue
                    g = g2 // 2
                    klass = math.factorial(d) // centralizer_order(mu)
                    got = naive.get((mu, nu), [0, 0])
                    assert got[0] == count_factorizations(g, mu, nu, False) * klass
                    assert got[1] == count_factorizations(g, mu, nu, True) * klass


def test_isomorphism_class_examples():
    assert count_isomorphism_classes(1, (2,), (2,), pruned=True) == 1
    assert count_isomorphism_classes(0, (2,), (1, 1), pruned=True) == 1
    assert count_isomorphism_classes(0, (1,), (1,)) == 1


def test_isomorphism_classes_match_brute_force_orbits():
    # fully ramified (n)|(n): Burnside against orbits of the centralizer
    # counted one by one
    for n in range(1, 5):
        for g in range(3):
            for m0_pruned in (False, True):
                expected = fully_ramified_orbit_count(n, g, m0_pruned)
                assert count_isomorphism_classes(
                    g, (n,), (n,), pruned=True, m0_pruned=m0_pruned,
                ) == expected, (n, g, m0_pruned)


def test_orbit_counts_match_free_action_formula():
    # whenever mu != (d) or nu != (d) the conjugation action is free on
    # labelled tuples: classes * |Z| = N * aut(mu) * aut(nu)
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    if len(mu) == 1 and len(nu) == 1:
                        continue
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    for pruned in (False, True):
                        classes = count_isomorphism_classes(g, mu, nu, pruned)
                        n = count_factorizations(g, mu, nu, pruned)
                        assert classes * centralizer_order(mu) == \
                            n * automorphism_factor(mu) * automorphism_factor(nu)


def test_degree_validation():
    with pytest.raises(ValueError):
        count_factorizations(0, (2,), (1, 1, 1))
    with pytest.raises(ValueError):
        count_factorizations(0, (), ())


def test_minimal_transitive_factorizations_closed_form():
    # classical count: a fixed d-cycle is a product of d-1 transpositions
    # in d^(d-2) ways, all transitive; with sigma1 = id frozen the target
    # cycle ranges over all (d-1)! long cycles
    for d in range(2, 7):
        expected = math.factorial(d - 1) * d ** (d - 2)
        assert count_factorizations(0, (1,) * d, (d,)) == expected


def test_search_work_bound():
    # m = 3, P = 3 pairs, at most 3! * 3^2 * Bell(2) = 108 states per depth
    assert search_work_bound(0, (2, 1), (1, 1, 1)) == 3 * (1 + 3 + 9)
    # (3)|(3) at g = 3: m = 6, the state bound 3! * 3 * 1 = 18 caps
    # depths 3 to 5
    assert search_work_bound(3, (3,), (3,)) == 3 * (1 + 3 + 9 + 18 + 18 + 18)
    assert search_work_bound(0, (2,), (2,)) == 1  # m = 0
    # the default CLI budget admits g = 2, (4,4)|(3,5), which P^m = 28^6
    # would refuse, and still refuses d = 24, m = 17
    assert search_work_bound(2, (4, 4), (3, 5)) <= DEFAULT_BUDGET < 28**6
    assert search_work_bound(6, (6, 6, 6, 6), (8, 8, 8)) > DEFAULT_BUDGET
