from collections import Counter
from itertools import combinations, product

import pytest

from prunedhurwitz.forests import count_forests_with_degrees, enumerate_rooted_forests

from oracles import compositions, filtered_parent_maps, forests_by_multinomials, is_forest


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


def test_enumeration_at_seven_vertices():
    # the size the forests battery runs, past the filtered-parent-map
    # oracle: strictly increasing parent tuples (so lexicographic and
    # distinct), each a forest with exactly the given roots, carrying
    # its parent counts as out-degrees, r * 7^(6 - r) of them
    n = 7
    for r in range(1, n + 1):
        for roots in combinations(range(n), r):
            previous = None
            count = 0
            for forest in enumerate_rooted_forests(n, roots):
                parent = forest.parent
                assert previous is None or previous < parent, (roots, previous, parent)
                assert tuple(v for v in range(n) if parent[v] is None) == roots
                assert is_forest(parent), parent
                counts = Counter(p for p in parent if p is not None)
                assert forest.out_degrees() == tuple(counts[v] for v in range(n))
                previous = parent
                count += 1
            assert count == (1 if r == n else r * n ** (n - r - 1)), roots


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


def test_closed_form_reads_its_arguments_once():
    # degrees as a list, roots as a generator or a range: the same counts
    # and the same refusals as with tuples, so roots is iterated once
    for n in range(1, 5):
        vectors = list(product(range(-1, n + 1), repeat=n))
        for r in range(1, n + 1):
            for roots in combinations(range(n), r):
                for degs in vectors:
                    expected = count_forests_with_degrees(degs, roots)
                    got = count_forests_with_degrees(list(degs), (v for v in roots))
                    assert got == expected, (degs, roots)
                    if roots == tuple(range(r)):
                        assert count_forests_with_degrees(list(degs), range(r)) == expected
    refused = [
        ((), range(0)), ((5,), range(5, 6)), ((-1,), range(-1, 0)),
        ((0, 1, 2), range(3)), ((-1, 0), range(-1, 1)),
    ]
    for roots, as_range in refused:
        with pytest.raises(ValueError) as by_tuple:
            count_forests_with_degrees((0, 0), roots)
        for again in ((v for v in roots), as_range):
            with pytest.raises(ValueError) as by_iterable:
                count_forests_with_degrees([0, 0], again)
            assert str(by_iterable.value) == str(by_tuple.value), roots


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
