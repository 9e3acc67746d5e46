from collections import Counter
from itertools import combinations, product

import pytest

from prunedhurwitz.forests import count_forests_with_degrees, enumerate_rooted_forests

from oracles import compositions, filtered_parent_maps, forests_by_multinomials


def test_closed_form_examples():
    assert count_forests_with_degrees((2, 0, 0), [0]) == 1
    assert count_forests_with_degrees((1, 1, 0), [0]) == 1  # the path 0 -> 1 -> 2
    assert count_forests_with_degrees((0, 0), [0, 1]) == 1  # empty forest
    assert count_forests_with_degrees((1, 0), [0, 1]) == 0  # wrong degree sum
    assert count_forests_with_degrees((3, 0, 0), [0]) == 0


def test_closed_form_equals_sum_of_multinomials():
    # every vector in [-1, n]^n, n <= 5, for every root set: negative
    # entries and wrong sums included
    for n in range(1, 6):
        vectors = list(product(range(-1, n + 1), repeat=n))
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                for degs in vectors:
                    expected = forests_by_multinomials(degs, roots)
                    assert count_forests_with_degrees(degs, roots) == expected, (degs, roots)


def test_enumeration_examples():
    assert sum(1 for _ in enumerate_rooted_forests(3, [0])) == 3
    assert sum(1 for _ in enumerate_rooted_forests(2, [0, 1])) == 1
    assert sum(1 for _ in enumerate_rooted_forests(1, [0])) == 1


def test_enumeration_matches_filtered_parent_maps():
    # exactly the oracle's parent tuples, in the same (lexicographic)
    # order, each once
    for n in range(1, 7):
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                forests = list(enumerate_rooted_forests(n, roots))
                expected = list(filtered_parent_maps(n, roots))
                assert [forest.parent for forest in forests] == expected, (n, roots)
                assert len(set(expected)) == len(expected)
                # and the out-degrees the walk carries are the parent counts
                for forest, parent in zip(forests, expected):
                    counts = Counter(p for p in parent if p is not None)
                    assert forest.out_degrees() == tuple(counts[v] for v in range(n))


def test_enumeration_reach_at_the_bound():
    # n = 8 is the default bound: r * n^(n-r-1) forests
    assert sum(1 for _ in enumerate_rooted_forests(8, [0])) == 8**6 == 262_144
    assert sum(1 for _ in enumerate_rooted_forests(8, [0, 1])) == 2 * 8**5 == 65_536


def test_forest_structure():
    for forest in enumerate_rooted_forests(4, [1]):
        assert [v for v, p in enumerate(forest.parent) if p is None] == [1]
        assert sum(forest.out_degrees()) == 3


def test_counts_match_enumeration_all_roots():
    for n in range(1, 7):
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                by_degrees = Counter()
                for forest in enumerate_rooted_forests(n, roots):
                    by_degrees[forest.out_degrees()] += 1
                # every observed degree sequence matches the closed form
                for degs, count in by_degrees.items():
                    assert count_forests_with_degrees(degs, roots) == count
                # and no unobserved sequence is counted
                total = 0
                for degs in compositions(n - r, n):
                    c = count_forests_with_degrees(degs, roots)
                    assert c == by_degrees.get(degs, 0)
                    total += c
                expected = 1 if n == r else r * n ** (n - r - 1)
                assert total == sum(by_degrees.values()) == expected


def test_degree_sum_characterisation():
    # a tuple is a degree sequence of a forest iff it sums to n - |S|
    roots = (0, 2)
    n = 4
    for total in range(4):
        for degs in compositions(total, n):
            c = count_forests_with_degrees(degs, roots)
            if total != n - len(roots):
                assert c == 0


def test_validation():
    with pytest.raises(ValueError):
        count_forests_with_degrees((0, 0), [])
    with pytest.raises(ValueError):
        count_forests_with_degrees((0, 0), [5])
    with pytest.raises(ValueError):
        list(enumerate_rooted_forests(9, [0]))
