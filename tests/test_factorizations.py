import gc
import hashlib
import math
import random
import time
import weakref
from collections import Counter
from itertools import permutations, product

import pytest

from prunedhurwitz.cli import DEFAULT_BUDGET
from prunedhurwitz.combinatorics import automorphism_factor, centralizer_order, partitions
from prunedhurwitz import coloured
from prunedhurwitz.coloured import MoveTables, count_coloured, prefinal_types
from prunedhurwitz.factorizations import (
    count_factorizations,
    count_isomorphism_classes,
    search_work_bound,
)
from prunedhurwitz.hurwitz import Conventions, HurwitzEngine, Kind, value_from_count
from prunedhurwitz.polynomiality import finite_difference_degree, scaling_values

from oracles import (
    FactorizationTuple,
    all_transposition_pairs,
    apply_after,
    bfs_transitive,
    canonical_permutation,
    centralizer,
    fully_ramified_orbit_count,
    literal_search_work_bound,
    is_pruned,
    is_transitive,
    iter_factorization_tuples,
    least_rotation,
    naive_tuple_counts,
    one_part_double_hurwitz,
    pair_orbits,
    perm_cycles,
    perm_inverse,
    perm_type,
    prefinal_types as oracle_prefinal_types,
    pruned_by_valency,
    root_orbits,
    search_count,
    successor_lists,
    transposition_images,
)


def make_tuple(mu, pairs):
    sigma1 = canonical_permutation(mu)
    d = len(sigma1)
    prod = sigma1
    for a, b in pairs:
        prod = apply_after(transposition_images(d, a, b), prod)
    return FactorizationTuple(sigma1, tuple(pairs), perm_inverse(prod))


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
    for mu in [(2,), (1, 1), (2, 1), (3,), (2, 2)]:
        d = sum(mu)
        sigma1 = canonical_permutation(mu)
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        for m in (2, 3):
            for seq in product(pairs, repeat=m):
                t = make_tuple(mu, list(seq))
                if not is_transitive(t):
                    continue
                taus = [transposition_images(d, a, b) for a, b in seq]
                assert is_pruned(t) == pruned_by_valency(sigma1, taus)


def test_count_factorizations_examples():
    assert count_factorizations(0, (2,), (1, 1)) == 1
    assert count_factorizations(0, (2,), (2,)) == 1
    assert count_factorizations(1, (2,), (2,), pruned=True) == 1
    assert count_factorizations(0, (1,), (1,)) == 1
    # m = 0: the empty sequence qualifies iff sigma1 spans and types agree;
    # its one cycle meets no transposition, so it is pruned only by the
    # engine's convention
    assert count_factorizations(0, (3,), (3,)) == 1
    assert count_factorizations(0, (3,), (3,), pruned=True) == 0
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    assert flagged.tuple_count(0, (3,), (3,), pruned=True) == 1


def test_count_matches_naive_filter():
    # the state counter against the naive product-and-filter
    # enumeration: every (g <= 1, d <= 4, m <= 4) case, both modes; the
    # m = 0 convention through the engine
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    tuples = list(iter_factorization_tuples(g, mu, nu))
                    assert count_factorizations(g, mu, nu) == len(tuples)
                    naive = sum(map(is_pruned, tuples))
                    assert count_factorizations(g, mu, nu, True) == naive, (g, mu, nu)
                    naive = sum(is_pruned(t, m0_pruned=True) for t in tuples)
                    assert flagged.tuple_count(g, mu, nu, True) == naive, (g, mu, nu)


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
    # fully ramified (n)|(n): the closed form against orbits of the
    # centralizer counted one by one; g = 1 for n <= 8, g = 2 for n <= 5;
    # the m = 0 convention through the engine, whose modified pruned
    # value of (n)|(n) is the class count (A = 1 on each side)
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    for n in range(1, 9):
        for g in range(3 if n <= 5 else 2):
            expected = fully_ramified_orbit_count(n, g)
            assert count_isomorphism_classes(g, (n,), (n,), pruned=True) == expected, (n, g)
            expected = fully_ramified_orbit_count(n, g, m0_pruned=True)
            assert flagged.modified_pruned(g, (n,), (n,)) == expected, (n, g)


def test_isomorphism_class_values_pinned():
    # the modified pruned values the per-rotation Burnside search gave,
    # among them the ladder's g2 (8)|(8) = (198,912 + 4^4)/8
    assert count_isomorphism_classes(2, (8,), (8,), pruned=True) == 24_896
    assert count_isomorphism_classes(3, (5,), (5,), pruned=True) == 81_250
    assert count_isomorphism_classes(3, (6,), (6,), pruned=True) == 662_499
    assert count_isomorphism_classes(2, (9,), (9,), pruned=True) == 57_348


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


def test_the_full_count_is_symmetric_in_the_two_profiles():
    # H(g, mu, nu) = H(g, nu, mu) by the enumeration's full mode, which
    # freezes sigma1 of type mu, so the two sides count different
    # sequences: every g <= 2, d <= 6, m <= 6 and mu < nu, 159 pairs
    tables = MoveTables()
    pairs = 0
    for d in range(1, 7):
        shapes = list(partitions(d))
        for g in range(3):
            for mu in shapes:
                for nu in shapes:
                    if mu < nu and 2 * g - 2 + len(mu) + len(nu) <= 6:
                        one = value_from_count(count_factorizations(g, mu, nu, tables=tables), mu, nu)
                        other = value_from_count(count_factorizations(g, nu, mu, tables=tables), nu, mu)
                        assert one == other, (g, mu, nu)
                        pairs += 1
    assert pairs == 159


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
    # m = 3, P = 3 pairs, at most min(3!, p(3) * 3) * 3^2 * Bell(2) = 108
    # states per depth
    assert search_work_bound(0, (2, 1), (1, 1, 1)) == 3 * (1 + 3 + 9)
    # (3)|(3) at g = 3: m = 6; one colour, so the coloured cycle types
    # are the p(3) = 3 cycle types, and 3 * 3 * 1 = 9 states cap depths
    # 3 to 5
    assert search_work_bound(3, (3,), (3,)) == 3 * (1 + 3 + 9 + 9 + 9 + 9)
    assert search_work_bound(0, (2,), (2,)) == 0  # m = 0: no move is tried
    # (4,4)|(3,5) at g = 2: p(8) * 8!/(4! 4!) = 22 * 70 coloured cycle
    # types, times 3^2 * Bell(2), cap depths 4 and 5 (d! would allow
    # 40,320 types)
    assert search_work_bound(2, (4, 4), (3, 5)) == 28 * (1 + 28 + 28**2 + 28**3 + 2 * 27_720)
    # the default CLI budget admits it, which P^m = 28^6 would refuse,
    # and still refuses d = 24, m = 17
    assert search_work_bound(2, (4, 4), (3, 5)) <= DEFAULT_BUDGET < 28**6
    assert search_work_bound(6, (6, 6, 6, 6), (8, 8, 8)) > DEFAULT_BUDGET


def test_search_work_bound_equals_the_literal_sum():
    # the powers stop once they pass the cap: the same integer, so the
    # refusal message is unchanged, without building P^k for every k < m
    for d in range(1, 9):
        for g in range(4):
            for mu in partitions(d):
                for nu in partitions(d):
                    assert search_work_bound(g, mu, nu) == literal_search_work_bound(g, mu, nu)
    # m = 40,000: 3 * (1 + 3 + 39,998 * 9)
    assert search_work_bound(20_000, (3,), (3,)) == 1_079_958


def test_one_cycle_mu_is_pruned_at_every_positive_m():
    # for mu = (d) every transposition lies in sigma1's one cycle and
    # touches it twice, so every sequence is pruned once m >= 1:
    # PH(g, (d), nu) = H(g, (d), nu), the second from the characters
    engine = HurwitzEngine()
    for d in range(1, 9):
        for g in range(4):
            for nu in partitions(d):
                if 2 * g - 1 + len(nu) >= 1:
                    assert engine.pruned(g, (d,), nu) == engine.double(g, (d,), nu), (g, d, nu)


def test_a_deep_search_runs_layer_by_layer():
    # m = 1000 and m = 4000 transpositions, within the budget: the
    # search holds two layers of states, so its depth has no limit of
    # its own; PH = H there, as mu = (d)
    engine = HurwitzEngine()
    for g, d in [(500, 3), (2000, 4)]:
        assert search_work_bound(g, (d,), (d,)) <= DEFAULT_BUDGET
        assert engine.pruned(g, (d,), (d,)) == engine.double(g, (d,), (d,)), (g, d)


def test_search_work_bound_covers_the_visited_states(monkeypatch):
    # the moves the engine can try, each search's states times its own
    # P, stay within the bound: a full count's one search, every
    # g <= 2, d <= 5, m <= 6; and the sum over the core searches of a
    # pruned count, which the bound's proof does not cover, every
    # g <= 2, d <= 7, 1 <= m <= 6 (653 counts)
    searches = []

    def logged(mu, m, target, tables):
        count, states = search(mu, m, target, tables)
        searches.append(states * math.comb(sum(mu), 2))
        return count, states

    search = coloured.count_coloured
    monkeypatch.setattr(coloured, "count_coloured", logged)
    pruned_counts = 0
    for d in range(1, 8):
        for g in range(3):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if not 1 <= m <= 6:
                        continue
                    bound = max(1, search_work_bound(g, mu, nu))
                    for pruned in (False, True):
                        if d > 5 and not pruned:
                            continue
                        searches.clear()
                        count_factorizations(g, mu, nu, pruned)
                        assert sum(searches) <= bound, (g, mu, nu, pruned)
                        pruned_counts += pruned
    assert pruned_counts == 653


def test_a_pruned_count_searches_each_core_once(monkeypatch):
    # the face sum asks the leaf sum's oracle once per core and multiset
    # nu~, handed over sorted, so reduced faces that are one multiset in
    # other orders run one search, and the leaf sum keeps no memo
    searches = []

    def logged(mu, m, target, tables):
        searches.append((mu, m, target))
        return search(mu, m, target, tables)

    search = coloured.count_coloured
    monkeypatch.setattr(coloured, "count_coloured", logged)
    for g, mu, nu, count, expected in [
        (0, (1,) * 8, (2, 2, 2, 2), 73_156_608_000, 5),
        (0, (2, 2, 2, 1, 1), (3, 3, 2), 2_764_800, 11),
        (1, (3, 2, 1), (4, 2), 97_200, 7),
    ]:
        searches.clear()
        assert count_factorizations(g, mu, nu, True) == count
        assert len(searches) == len(set(searches)) == expected, (g, mu, nu, searches)


def test_count_matches_permutation_search():
    # the coloured cycle-type engine against the permutation search it
    # replaced, now an oracle: every ordering of mu, both modes, g <= 3,
    # d <= 5, m <= 6, and the other m = 0 convention through the engine;
    # and (d)|(d) for 6 <= d <= 8, g <= 2
    cases = [
        (g, mu, nu)
        for d in range(1, 6)
        for g in range(4)
        for part in partitions(d)
        for nu in partitions(d)
        if 0 <= 2 * g - 2 + len(part) + len(nu) <= 6
        for mu in sorted(set(permutations(part)))
    ]
    cases += [(g, (d,), (d,)) for d in range(6, 9) for g in range(3)]
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    for g, mu, nu in cases:
        for pruned in (False, True):
            assert count_factorizations(g, mu, nu, pruned) == \
                search_count(g, mu, nu, pruned), (g, mu, nu, pruned)
        if 2 * g - 2 + len(mu) + len(nu) == 0:
            assert flagged.tuple_count(g, mu, nu, pruned=True) == \
                search_count(g, mu, nu, True, m0_pruned=True), (g, mu, nu)


def test_reach_beyond_the_permutation_search():
    # N for the two reach rows, each under 1 s; the permutation search
    # took 7.3 s and 0.9 s on them
    for g, mu, nu, expected in [
        (1, (6, 9), (3, 12), 10_830_024),
        (2, (4, 4), (3, 5), 72_864_768),
    ]:
        start = time.perf_counter()
        assert count_factorizations(g, mu, nu, pruned=True) == expected
        assert time.perf_counter() - start < 1.0, (g, mu, nu)


def test_memo_state_count_pinned():
    # the N of four ladder rows, and the states of full searches (N
    # first).  No value shows a state split in two, so these counts are
    # what catch a word kept at another rotation than its least, or
    # colours of distinct sizes renamed into each other (exact, as any
    # renaming is, but it splits states)
    assert count_factorizations(1, (3, 2, 1), (4, 2), True) == 97_200
    assert count_factorizations(2, (8,), (8,), True) == 198_912
    assert count_factorizations(0, (3, 3, 3), (4, 4, 1), True) == 52_488
    # a successor one move before the end whose cycle type is not
    # pre-final is not kept as a state, as it cannot finish
    assert count_coloured((3, 2, 1), 5, (4, 2), MoveTables()) == (184_800, 119)
    assert count_coloured((3, 3, 2), 4, (4, 2, 2), MoveTables()) == (36_288, 104)
    assert count_coloured((8,), 4, (8,), MoveTables()) == (198_912, 15)
    tables = MoveTables()
    assert count_coloured((3, 3, 3), 4, (4, 4, 1), tables) == (93_312, 65)
    # nor is one built: the full lists are those of the states of depth
    # 0 and 1 (m = 4), and the states of depth 2 get the lists of their
    # pre-final successors alone
    assert len(tables.moves) == 6
    assert len(tables.closers[(4, 4, 1)]) == 25


def test_pruned_counts_pinned():
    # every pruned count with g <= 2, d <= 7 and 1 <= m <= 6, as the
    # search that tracked each colour's touches gave them
    tables = MoveTables()
    counts = [
        count_factorizations(g, mu, nu, True, tables=tables)
        for g in range(3)
        for d in range(1, 8)
        for mu in partitions(d)
        for nu in partitions(d)
        if 1 <= 2 * g - 2 + len(mu) + len(nu) <= 6
    ]
    assert len(counts) == 653
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == \
        "c0249ce026941d6ef4553aa3ca2904cd400495834835d2086587416b8f93f39f"


def test_least_rotation_matches_every_rotation():
    # the engine's period, the first shift that finds a word in its
    # square, and its least rotation over one period, against the walk
    # over every rotation: all 9,840 words of length <= 8 over 3 colours
    words = [bytes(w) for n in range(1, 9) for w in product(range(3), repeat=n)]
    assert len(words) == 9_840
    for w in words:
        assert coloured._least_rotation(w) == least_rotation(w), w


def test_prefinal_types_match_one_transposition():
    # the engine's pre-final types of every nu with d <= 8 are the cycle
    # types one transposition takes to nu; each carries the lengths its
    # move removes and adds, which are the two differences of the types
    for d in range(1, 9):
        for nu in partitions(d):
            types = prefinal_types(nu)
            assert set(types) == oracle_prefinal_types(nu), nu
            for kind, (removed, added) in types.items():
                assert removed == tuple(sorted((Counter(kind) - Counter(nu)).elements())), kind
                assert added == tuple(sorted((Counter(nu) - Counter(kind)).elements())), kind


def test_memo_is_released_on_return():
    # no reference cycle keeps a call's layers of states for the
    # cycle collector
    gc.collect()
    gc.disable()
    try:
        for pruned in (False, True):
            count_factorizations(1, (3, 2, 1), (4, 2), pruned)
            count_factorizations(0, (2, 2, 1), (2, 1, 1, 1), pruned)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_tables_are_exact_in_any_order():
    # one engine, so one set of move tables, answers every g <= 1,
    # d <= 5 type in both modes and (d)|(d) PHHAT for d <= 8, in a
    # shuffled and in the reverse order; each answer equals a count
    # made with tables of its own
    queries = [
        (g, mu, nu, pruned)
        for d in range(1, 6)
        for g in range(2)
        for mu in partitions(d)
        for nu in partitions(d)
        for pruned in (False, True)
    ]
    queries += [(g, (d,), (d,), None) for d in range(1, 9) for g in range(3)]
    fresh = {}
    for g, mu, nu, pruned in queries:
        fresh[g, mu, nu, pruned] = (
            count_isomorphism_classes(g, mu, nu, True) if pruned is None
            else count_factorizations(g, mu, nu, pruned)
        )
    shuffled = queries[:]
    random.Random(10).shuffle(shuffled)
    for order in (shuffled, queries[::-1]):
        engine = HurwitzEngine()
        for g, mu, nu, pruned in order:
            if pruned is None:
                got = engine.modified_pruned(g, mu, nu)
            else:
                got = engine.tuple_count(g, mu, nu, pruned)
            assert got == fresh[g, mu, nu, pruned], (g, mu, nu, pruned)
        assert engine._tables.moves


def test_successor_lists_match_every_transposition():
    # one set of tables counts every g <= 1, d <= 6 type; each full
    # successor list is every transposition applied to its word
    # multiset, and each list one move before the end is that kept to
    # the successors whose length type is pre-final.  The full mode
    # alone: a pruned count runs full searches of its cores
    tables = MoveTables()
    for d in range(1, 7):
        for g in range(2):
            for mu in partitions(d):
                for nu in partitions(d):
                    count_factorizations(g, mu, nu, tables=tables)

    def grouped(lists):
        moves = {key: ways for entries in lists for key, ways in entries}
        assert len(moves) == sum(map(len, lists))
        return moves

    def transpositions(words, kept=lambda successor: True):
        # a cut, to one word more, merges no components, so the engine
        # keys it by its successor alone: its colour pairs are summed
        moves = Counter()
        for (successor, a, b), ways in successor_lists(words).items():
            if kept(successor):
                moves[successor if len(successor) > len(words) else (successor, a, b)] += ways
        return dict(moves)

    assert tables.moves and any(tables.closers.values())
    for words, lists in tables.moves.items():
        assert grouped(lists) == transpositions(words), words
    for target, closers in tables.closers.items():
        prefinal = oracle_prefinal_types(target)
        for words, lists in closers.items():
            assert grouped(lists) == transpositions(
                words, lambda successor: tuple(sorted(map(len, successor), reverse=True)) in prefinal
            ), (target, words)


def test_engine_tables_die_with_the_engine():
    # no reference cycle keeps an engine or its tables alive
    gc.collect()
    gc.disable()
    try:
        engine = HurwitzEngine()
        engine.pruned(1, (3, 2, 1), (4, 2))
        engine.modified_pruned(2, (6,), (6,))
        assert engine._tables.moves
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_part_formula():
    # H_g((d), nu) from the Goulden-Jackson-Vakil formula, which reads no
    # permutation, against the enumeration's full mode and the engine's
    # H (the characters): every g <= 2, d <= 8 and nu, and two larger
    # instances
    engine = HurwitzEngine()
    tables = MoveTables()
    cases = [(g, d, nu) for g in range(3) for d in range(1, 9) for nu in partitions(d)]
    cases += [(1, 30, (15, 8, 7)), (3, 20, (10, 5, 5))]
    for g, d, nu in cases:
        expected = one_part_double_hurwitz(g, d, nu)
        n = count_factorizations(g, (d,), nu, tables=tables)
        assert value_from_count(n, (d,), nu) == expected, (g, d, nu)
        assert engine.double(g, (d,), nu) == expected, (g, d, nu)


def test_genus_one_polynomiality():
    # PH_1(2t, 3t | t, 4t) for t <= 7 (d <= 35): a polynomial of degree
    # 4g - 3 + l(mu) + l(nu) = 5, with one spare difference vanishing
    values = scaling_values(1, (2, 3), (1, 4), Kind.PRUNED, 7, HurwitzEngine())
    assert values == [756, 26_064, 200_556, 849_024, 2_596_500, 6_468_336, 13_990_284]
    assert finite_difference_degree(values) == 5


def _assert_roots_are_orbits(roots, pairs, group):
    orbit_of = {pair: orbit for orbit in pair_orbits(pairs, group) for pair in orbit}
    assert sum(size for _a, _b, size in roots) == len(pairs)
    # one representative per orbit, weighted by the orbit size
    assert len({orbit_of[a, b] for a, b, _size in roots}) == len(roots) == \
        len(set(orbit_of.values()))
    for a, b, size in roots:
        assert size == len(orbit_of[a, b]), (a, b)


def test_root_orbits_match_brute_force_centralizer_orbits():
    # every ordering of every mu with d <= 6, against the orbits under
    # the full centralizer
    for d in range(1, 7):
        pairs = all_transposition_pairs(d)
        for part in partitions(d):
            for mu in set(permutations(part)):
                roots = root_orbits(mu)
                _assert_roots_are_orbits(roots, pairs, centralizer(canonical_permutation(mu)))


def test_half_turn_fixes_diameter_words_of_even_odd_set():
    # the lemma behind the closed form, by brute force for the d-cycle
    # sigma1 = x -> x + 1: a rotation x -> x + k with k not in {0, d/2}
    # fixes no transposition; for even d and every word of m <= 6
    # diameters {a, a + h}, h = d/2, the product times sigma1 is a
    # d-cycle when the set of diameters used an odd number of times has
    # even size, and otherwise two h-cycles swapped by the half-turn
    for d in range(1, 13):
        sigma1 = canonical_permutation((d,))
        assert sigma1 == tuple((x + 1) % d for x in range(d))
        for k in range(1, d):
            if 2 * k == d:
                continue
            z = tuple((x + k) % d for x in range(d))
            for a, b in all_transposition_pairs(d):
                assert {z[a], z[b]} != {a, b}, (d, k, a, b)
        if d % 2:
            continue
        h = d // 2
        half_turn = tuple((x + h) % d for x in range(d))
        diameters = [transposition_images(d, a, a + h) for a in range(h)]
        for m in range(7):
            for word in product(range(h), repeat=m):
                prod = sigma1
                for a in word:
                    prod = apply_after(diameters[a], prod)
                odd = [a for a in range(h) if word.count(a) % 2]
                if len(odd) % 2 == 0:
                    assert perm_type(prod) == (d,), (d, word)
                else:
                    first, second = sorted(map(frozenset, perm_cycles(prod)), key=min)
                    assert len(first) == len(second) == h, (d, word)
                    assert {half_turn[x] for x in first} == second, (d, word)


def test_non_identity_rotations_fix_no_transitive_sequence():
    # why the Burnside path skips them: for l(mu) >= 2 no sequence of
    # transpositions fixed by a rotation z != id is transitive together
    # with sigma1, whatever its product
    for d in range(2, 6):
        identity = tuple(range(d))
        for part in partitions(d):
            if len(part) < 2:
                continue
            for mu in set(permutations(part)):
                sigma1 = canonical_permutation(mu)
                for z in centralizer(sigma1, fix_cycles=True):
                    if z == identity:
                        continue
                    fixed = [
                        transposition_images(d, a, b)
                        for a, b in all_transposition_pairs(d)
                        if {z[a], z[b]} == {a, b}
                    ]
                    for m in range(4):
                        for seq in product(fixed, repeat=m):
                            assert not bfs_transitive(d, (sigma1,) + seq), (mu, z, seq)


def test_counts_are_constant_on_root_orbits():
    # the naive counts grouped by first transposition are constant on
    # each centralizer orbit, so weighting one representative per orbit
    # is exact
    for d in range(1, 5):
        pairs = all_transposition_pairs(d)
        for mu in partitions(d):
            orbits = pair_orbits(pairs, centralizer(canonical_permutation(mu)))
            for g in (0, 1):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 1 or m > 4:
                        continue
                    tuples = list(iter_factorization_tuples(g, mu, nu))
                    full = Counter(t.transpositions[0] for t in tuples)
                    pruned = Counter(t.transpositions[0] for t in tuples if is_pruned(t))
                    for by_first in (full, pruned):
                        for orbit in orbits:
                            assert len({by_first[pair] for pair in orbit}) == 1, \
                                (g, mu, nu, sorted(orbit))


def test_poly_battery_reach():
    # PH0 = 2tc along the scaled chamber point (4,5)|(3,6) up to t = 8,
    # d = 72, a degree-1 polynomial
    values = scaling_values(0, (4, 5), (3, 6), Kind.PRUNED, 8, HurwitzEngine())
    assert values == [2 * t * 3 for t in range(1, 9)]
    assert finite_difference_degree(values) == 1
